//! # simcloud-metric — metric-space toolkit
//!
//! Foundations for metric similarity search, reproducing the metric layer of
//! the MESSIF framework that the Encrypted M-Index paper (Kozák, Novak,
//! Zezula, SDM@VLDB 2012) builds on.
//!
//! The crate provides:
//!
//! * [`Vector`] — the metric-space object used throughout the workspace
//!   (dense `f32` vectors; gene-expression rows and MPEG-7 descriptors in the
//!   paper's evaluation are both of this shape);
//! * the [`Metric`] trait with the distance functions used by the paper's
//!   datasets: [`L1`], [`L2`], [`Lp`], [`Linf`] and the CoPhIR-style
//!   [`CombinedMetric`] that aggregates per-descriptor-block `Lp` distances
//!   with weights — all on one lane-parallel `f64` block kernel;
//! * [`PivotTable`] — a pivot set laid out contiguously so one object is
//!   evaluated against all pivots in one pass
//!   ([`Metric::distances_to_table`]);
//! * [`CountingMetric`], a wrapper that counts distance computations — the
//!   paper reports "distance computation time" as a first-class cost;
//! * pivot machinery: [`select_pivots`] (random / farthest-first /
//!   variance-greedy) and [`PivotPermutation`] (the ordering of pivots by
//!   distance that the M-Index uses as its only indexing information);
//! * distance-distribution [`analysis`] utilities (histograms, intrinsic
//!   dimensionality) used when calibrating synthetic datasets;
//! * [`recall`] — the paper's result-quality measure (§4.1), the one copy
//!   the index, the ground truth and the harness all use.
//!
//! Everything is deterministic given explicit seeds; no global RNG state.

#![warn(missing_docs)]

pub mod analysis;
pub mod counting;
mod kernel;
pub mod metrics;
pub mod permutation;
pub mod pivots;
pub mod table;
pub mod vector;

pub use counting::CountingMetric;
pub use metrics::{CombinedMetric, DescriptorBlock, Linf, Lp, Metric, L1, L2};
pub use permutation::{permutation_from_distances, PivotPermutation};
pub use pivots::{select_pivots, PivotSelection};
pub use table::{PivotTable, TableScratch};
pub use vector::Vector;

/// Identifier of an indexed object. The similarity cloud returns IDs of
/// relevant objects; the raw-data storage resolves them to original content
/// (paper §2.2).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(v: u64) -> Self {
        ObjectId(v)
    }
}

/// Recall (%) of an approximate answer w.r.t. the precise one (paper
/// §4.1): `|A ∩ A_P| / |A_P| · 100%`, matched by id. An empty precise
/// answer has nothing to miss, so its recall is 100.
pub fn recall(approx: &[(ObjectId, f64)], precise: &[(ObjectId, f64)]) -> f64 {
    if precise.is_empty() {
        return 100.0;
    }
    let precise_ids: std::collections::HashSet<ObjectId> =
        precise.iter().map(|(id, _)| *id).collect();
    let hits = approx
        .iter()
        .filter(|(id, _)| precise_ids.contains(id))
        .count();
    100.0 * hits as f64 / precise.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_display_and_order() {
        let a = ObjectId(3);
        let b = ObjectId(10);
        assert!(a < b);
        assert_eq!(a.to_string(), "#3");
        assert_eq!(ObjectId::from(7u64), ObjectId(7));
    }
}
