//! The basic (non-encrypted) M-Index — the paper's comparison system
//! (Tables 4, 7, 8).
//!
//! Here the server holds the pivots and the metric and stores plaintext
//! vectors, so the whole search runs server-side and only the final answer
//! (k objects) travels to the client. This is privacy level "No encryption"
//! of §2.3 and the efficiency yardstick every encrypted variant is measured
//! against.

use std::sync::Arc;

use simcloud_metric::{CountingMetric, Metric, ObjectId, Vector};
use simcloud_storage::BucketStore;

use crate::config::MIndexConfig;
use crate::cursor::CandidateView;
use crate::entry::{IndexEntry, Routing};
use crate::index::{knn_cap, MIndex, MIndexError};
use crate::promise::PromiseEvaluator;
use crate::stats::SearchStats;

/// A query answer: object id and its true distance to the query.
pub type Neighbor = (ObjectId, f64);

/// Plain M-Index server: pivots + metric + routing index over plaintext
/// payloads (encoded vectors).
pub struct PlainMIndex<M: Metric<Vector>, S: BucketStore> {
    metric: Arc<CountingMetric<M>>,
    pivots: Vec<Vector>,
    index: MIndex<S>,
}

impl<M: Metric<Vector>, S: BucketStore> std::fmt::Debug for PlainMIndex<M, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlainMIndex").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>, S: BucketStore> PlainMIndex<M, S> {
    /// Builds a plain index with the given pivots.
    pub fn new(
        config: MIndexConfig,
        pivots: Vec<Vector>,
        metric: M,
        store: S,
    ) -> Result<Self, MIndexError> {
        if pivots.len() != config.num_pivots {
            return Err(MIndexError::BadConfig(format!(
                "{} pivots supplied, config expects {}",
                pivots.len(),
                config.num_pivots
            )));
        }
        Ok(Self {
            metric: Arc::new(CountingMetric::new(metric)),
            pivots,
            index: MIndex::new(config, store)?,
        })
    }

    /// Distance computations performed so far (the paper's "Dist. comp."
    /// cost component, measured on the server for the plain index).
    pub fn distance_computations(&self) -> u64 {
        self.metric.count()
    }

    /// Resets the distance counter (per-phase accounting).
    pub fn reset_distance_computations(&self) -> u64 {
        self.metric.reset()
    }

    /// The routing index (shape, storage stats).
    pub fn index(&self) -> &MIndex<S> {
        &self.index
    }

    /// The counting wrapper around the metric (distance counts; callers
    /// that passed an instrumented metric can reach it via `inner()`).
    pub fn metric(&self) -> &CountingMetric<M> {
        &self.metric
    }

    /// Number of indexed objects.
    pub fn len(&self) -> u64 {
        self.index.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Computes query/object–pivot distances.
    pub fn pivot_distances(&self, o: &Vector) -> Vec<f64> {
        self.pivots
            .iter()
            .map(|p| self.metric.distance(o, p))
            .collect()
    }

    /// Inserts an object (distances computed server-side — no privacy here).
    pub fn insert(&mut self, id: ObjectId, object: &Vector) -> Result<(), MIndexError> {
        let ds = self.pivot_distances(object);
        let mut payload = Vec::with_capacity(object.encoded_len());
        object.encode(&mut payload);
        self.index
            .insert(IndexEntry::new(id.0, Routing::from_distances(&ds), payload))
    }

    /// Decodes a stored payload back into its vector.
    fn decode(id: u64, payload: &[u8]) -> Result<Vector, MIndexError> {
        Vector::decode(payload)
            .map(|(v, _)| v)
            .map_err(|e| MIndexError::Corrupt(format!("object {id}: {e}")))
    }

    /// Decodes each candidate's vector straight from its view and scores
    /// it against `q`, keeping those within `radius`, sorted by distance
    /// (ties by id).
    fn refine(
        &self,
        q: &Vector,
        views: &[CandidateView<'_>],
        radius: f64,
    ) -> Result<Vec<Neighbor>, MIndexError> {
        let mut scored = Vec::with_capacity(views.len());
        for view in views {
            let d = self
                .metric
                .distance(q, &Self::decode(view.id, view.payload)?);
            if d <= radius {
                scored.push((ObjectId(view.id), d));
            }
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(scored)
    }

    /// Precise range query `R(q, r)` — candidates from Alg. 3, refined
    /// server-side. Returns `(id, distance)` sorted by distance.
    pub fn range(
        &self,
        q: &Vector,
        radius: f64,
    ) -> Result<(Vec<Neighbor>, SearchStats), MIndexError> {
        let cursor = self.index.range_cursor(&self.pivot_distances(q), radius)?;
        let (views, stats) = cursor.select_up_to(None);
        let result = self.refine(q, &views, radius)?;
        Ok((result, stats))
    }

    /// Approximate k-NN (paper §4.1): candidate set of `cand_size` objects
    /// chosen by cell promise, refined by true distances, best `k` returned.
    pub fn knn_approx(
        &self,
        q: &Vector,
        k: usize,
        cand_size: usize,
    ) -> Result<(Vec<Neighbor>, SearchStats), MIndexError> {
        let ev = PromiseEvaluator::from_distances(self.pivot_distances(q));
        let cursor = self.index.knn_cursor(&ev, cand_size)?;
        let (views, stats) = cursor.select_up_to(knn_cap(cand_size));
        let mut scored = self.refine(q, &views, f64::INFINITY)?;
        scored.truncate(k);
        Ok((scored, stats))
    }

    /// Precise k-NN: approximate pass estimates `ρ_k`, then the precise
    /// range query `R(q, ρ_k)` completes the answer (paper §4.2: "precise
    /// k-NN search can be realized as an approximate k-NN search … and then
    /// subsequent precise range query").
    ///
    /// Correctness: the approximate `ρ_k` is the k-th best over a *subset*
    /// of the data, hence `ρ_k ≥` the true k-th distance, so the range ball
    /// contains the true k-NN.
    pub fn knn_precise(
        &self,
        q: &Vector,
        k: usize,
    ) -> Result<(Vec<Neighbor>, SearchStats), MIndexError> {
        let seed_cand = k.saturating_mul(4).max(32);
        let (approx, mut stats) = self.knn_approx(q, k, seed_cand)?;
        // The approximate answer holds at most `k` neighbors, sorted, so
        // its last is the k-th (or the farthest there is). None — `k = 0`
        // or an empty index — leaves nothing to complete.
        let Some(&(_, rho_k)) = approx.last() else {
            return Ok((Vec::new(), stats));
        };
        let (mut result, rstats) = self.range(q, rho_k)?;
        stats.merge(&rstats);
        result.truncate(k);
        Ok((result, stats))
    }

    /// Brute-force k-NN (test oracle and the recall ground truth).
    pub fn brute_force_knn(&self, q: &Vector, k: usize) -> Result<Vec<Neighbor>, MIndexError> {
        let entries = self.index.all_entries()?;
        let mut scored = Vec::with_capacity(entries.len());
        for entry in &entries {
            let v = Self::decode(entry.id, &entry.payload)?;
            scored.push((ObjectId(entry.id), self.metric.distance(q, &v)));
        }
        scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        Ok(scored)
    }

    /// Brute-force range query (test oracle).
    pub fn brute_force_range(&self, q: &Vector, radius: f64) -> Result<Vec<Neighbor>, MIndexError> {
        let entries = self.index.all_entries()?;
        let mut result = Vec::new();
        for entry in &entries {
            let v = Self::decode(entry.id, &entry.payload)?;
            let d = self.metric.distance(q, &v);
            if d <= radius {
                result.push((ObjectId(entry.id), d));
            }
        }
        result.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(result)
    }
}

/// Recall of an approximate answer w.r.t. the precise one (paper §4.1):
/// `|A ∩ A_P| / |A_P| · 100%`.
pub fn recall(approx: &[Neighbor], precise: &[Neighbor]) -> f64 {
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
    use crate::config::RoutingStrategy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use simcloud_metric::{select_pivots, PivotSelection, L2};
    use simcloud_storage::MemoryStore;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vector::new((0..dim).map(|_| rng.gen_range(-10.0..10.0)).collect()))
            .collect()
    }

    fn build(n: usize, seed: u64) -> (PlainMIndex<L2, MemoryStore>, Vec<Vector>) {
        let data = random_data(n, 4, seed);
        let cfg = MIndexConfig {
            num_pivots: 8,
            max_level: 2,
            bucket_capacity: 16,
            strategy: RoutingStrategy::Distances,
        };
        let pivots = select_pivots(&data, 8, &L2, PivotSelection::Random, seed ^ 1);
        let mut idx = PlainMIndex::new(cfg, pivots, L2, MemoryStore::new()).unwrap();
        for (i, v) in data.iter().enumerate() {
            idx.insert(ObjectId(i as u64), v).unwrap();
        }
        (idx, data)
    }

    #[test]
    fn range_equals_brute_force() {
        let (idx, data) = build(300, 7);
        for (qi, radius) in [(0usize, 3.0), (5, 5.0), (10, 1.0), (20, 0.0)] {
            let q = &data[qi];
            let (got, _) = idx.range(q, radius).unwrap();
            let want = idx.brute_force_range(q, radius).unwrap();
            assert_eq!(got, want, "query {qi} radius {radius}");
        }
    }

    #[test]
    fn precise_knn_equals_brute_force() {
        let (idx, data) = build(250, 13);
        for qi in [1usize, 17, 42] {
            let q = &data[qi];
            let (got, _) = idx.knn_precise(q, 10).unwrap();
            let want = idx.brute_force_knn(q, 10).unwrap();
            assert_eq!(got.len(), 10);
            // Distances must agree even if tie ordering differs.
            for ((gid, gd), (wid, wd)) in got.iter().zip(&want) {
                assert!(
                    (gd - wd).abs() < 1e-9,
                    "query {qi}: {gid:?}@{gd} vs {wid:?}@{wd}"
                );
            }
        }
    }

    /// `k = 0` asks for nothing and gets nothing: there is no k-th
    /// neighbor to take `ρ_k` from.
    #[test]
    fn precise_knn_with_k_zero_is_empty() {
        let (idx, data) = build(60, 5);
        let (got, _) = idx.knn_precise(&data[0], 0).unwrap();
        assert!(got.is_empty());
        assert!(idx.brute_force_knn(&data[0], 0).unwrap().is_empty());
    }

    #[test]
    fn approx_knn_recall_grows_with_candidates() {
        let (idx, data) = build(400, 23);
        let q = &data[3];
        let truth = idx.brute_force_knn(q, 10).unwrap();
        let (small, _) = idx.knn_approx(q, 10, 20).unwrap();
        let (large, _) = idx.knn_approx(q, 10, 400).unwrap();
        let r_small = recall(&small, &truth);
        let r_large = recall(&large, &truth);
        assert!(r_large >= r_small, "{r_small} then {r_large}");
        assert!(
            (r_large - 100.0).abs() < 1e-9,
            "full candidate set must reach 100% recall, got {r_large}"
        );
    }

    #[test]
    fn self_query_returns_self_first() {
        let (idx, data) = build(100, 31);
        let (res, _) = idx.knn_approx(&data[7], 1, 100).unwrap();
        assert_eq!(res[0].0, ObjectId(7));
        assert!(res[0].1.abs() < 1e-9);
    }

    #[test]
    fn recall_formula() {
        let a = vec![(ObjectId(1), 0.1), (ObjectId(2), 0.2), (ObjectId(9), 0.3)];
        let p = vec![(ObjectId(1), 0.1), (ObjectId(2), 0.2), (ObjectId(3), 0.25)];
        assert!((recall(&a, &p) - 66.666).abs() < 0.01);
        assert_eq!(recall(&[], &p), 0.0);
        assert_eq!(recall(&a, &[]), 100.0);
    }

    #[test]
    fn distance_counter_tracks_work() {
        let (idx, data) = build(50, 41);
        idx.reset_distance_computations();
        let _ = idx.knn_approx(&data[0], 5, 20).unwrap();
        let count = idx.distance_computations();
        // 8 pivot distances + up to 20 candidate refinements
        assert!((8..=8 + 20).contains(&count), "count {count}");
    }

    #[test]
    fn pivot_count_mismatch_rejected() {
        let cfg = MIndexConfig {
            num_pivots: 4,
            max_level: 2,
            bucket_capacity: 8,
            strategy: RoutingStrategy::Distances,
        };
        let pivots = random_data(3, 4, 1);
        assert!(matches!(
            PlainMIndex::new(cfg, pivots, L2, MemoryStore::new()),
            Err(MIndexError::BadConfig(_))
        ));
    }

    #[test]
    fn empty_index_queries() {
        let cfg = MIndexConfig {
            num_pivots: 2,
            max_level: 1,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        };
        let pivots = random_data(2, 4, 2);
        let idx = PlainMIndex::new(cfg, pivots, L2, MemoryStore::new()).unwrap();
        let q = Vector::zeros(4);
        assert!(idx.range(&q, 1.0).unwrap().0.is_empty());
        assert!(idx.knn_approx(&q, 3, 10).unwrap().0.is_empty());
        assert!(idx.knn_precise(&q, 3).unwrap().0.is_empty());
        assert!(idx.is_empty());
    }
}
