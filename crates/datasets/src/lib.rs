//! # simcloud-datasets — synthetic stand-ins for the paper's data sets
//!
//! The evaluation (paper §5.1, Table 1) uses three real collections that are
//! not redistributable here:
//!
//! | Name   | records   | type                  | distance          |
//! |--------|-----------|-----------------------|-------------------|
//! | YEAST  | 2,882     | 17-dim num. vectors   | L1                |
//! | HUMAN  | 4,026     | 96-dim num. vectors   | L1                |
//! | CoPhIR | 1,000,000 | 280-dim num. vectors  | combination of Lp |
//!
//! This crate generates deterministic synthetic collections with the same
//! cardinality, dimensionality and metric, and with *clustered* structure
//! (Gaussian mixtures) so that pivot-based pruning and recall curves behave
//! like on real data. Gene-expression matrices are well modelled by a small
//! number of co-expression clusters plus noise; MPEG-7 descriptors by
//! cluster structure in descriptor space with per-block quantization, so
//! the paper's observable behaviour (pruning power, recall curves) is
//! preserved even though the exact figures are not.
//!
//! Also here: query workloads (the paper queries 100 random objects;
//! held-out versions for the 1-NN comparison of Table 9) and a
//! multi-threaded brute-force ground-truth engine (`std::thread::scope`)
//! for recall.

#![warn(missing_docs)]

pub mod generators;
pub mod ground_truth;
pub mod workload;

pub use generators::{cophir_like, human_like, yeast_like, GeneExpressionSpec};
pub use ground_truth::{parallel_knn_ground_truth, GroundTruth};
pub use workload::QueryWorkload;

use simcloud_metric::{CombinedMetric, Metric, PivotTable, TableScratch, Vector, L1};

/// Which metric a dataset is searched with.
#[derive(Debug, Clone)]
pub enum DatasetMetric {
    /// Manhattan distance (YEAST, HUMAN).
    L1,
    /// CoPhIR-style weighted combination of per-block Lp distances.
    Combined(CombinedMetric),
}

impl DatasetMetric {
    /// Metric trait object view.
    pub fn as_metric(&self) -> &dyn Metric<Vector> {
        match self {
            DatasetMetric::L1 => &L1,
            DatasetMetric::Combined(m) => m,
        }
    }

    /// Human-readable name matching the paper's Table 1 wording.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetMetric::L1 => "L1",
            DatasetMetric::Combined(_) => "combination of Lp",
        }
    }
}

/// `DatasetMetric` is itself a metric, so experiment code can stay
/// monomorphic over datasets with different distance functions.
impl Metric<Vector> for DatasetMetric {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        match self {
            DatasetMetric::L1 => L1.distance(a, b),
            DatasetMetric::Combined(m) => m.distance(a, b),
        }
    }

    fn distances_to_table(&self, o: &Vector, table: &PivotTable, scratch: &mut TableScratch) {
        self.as_metric().distances_to_table(o, table, scratch);
    }

    fn name(&self) -> String {
        DatasetMetric::name(self).to_string()
    }
}

/// A generated dataset: records plus the metric they are searched with.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name ("YEAST", "HUMAN", "CoPhIR").
    pub name: String,
    /// The metric-space objects.
    pub vectors: Vec<Vector>,
    /// The associated metric.
    pub metric: DatasetMetric,
}

impl Dataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Dimensionality (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.vectors.first().map_or(0, Vector::dim)
    }

    /// Table 1 row: name, record count, data type, distance function.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<8} {:>9}   {:>3}-dim. num. vectors   {}",
            self.name,
            self.len(),
            self.dim(),
            self.metric.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_row_matches_table1_shape() {
        let ds = yeast_like(7, None);
        let row = ds.summary_row();
        assert!(row.contains("YEAST"));
        assert!(row.contains("2882"));
        assert!(row.contains("17-dim"));
        assert!(row.contains("L1"));
    }

    #[test]
    fn metric_views() {
        let l1 = DatasetMetric::L1;
        assert_eq!(l1.name(), "L1");
        let a = Vector::new(vec![0.0, 1.0]);
        let b = Vector::new(vec![1.0, 3.0]);
        assert_eq!(l1.as_metric().distance(&a, &b), 3.0);
    }
}
