//! The paper reports "Dist. comp. time" and the number of distance
//! computations behind it as a first-class cost. That count must stay exact
//! now that object–pivot distances go through the metric's batch entry:
//! `num_pivots` per inserted object, `num_pivots + refined` per kNN —
//! whether the client's metric overrides the table pass (`DatasetMetric`)
//! or defines only `distance`/`name` and takes the provided body (the shape
//! of the benchmark's tracing wrapper, which must also still *see* every
//! pair). And the two must agree on every answer, bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use simcloud::datasets::{cophir_like, DatasetMetric};
use simcloud::prelude::*;

/// Implements only what the trait requires; counts what it is shown.
struct PairsOnly {
    inner: DatasetMetric,
    seen: Arc<AtomicU64>,
}

impl Metric<Vector> for PairsOnly {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        self.seen.fetch_add(1, Ordering::Relaxed);
        self.inner.distance(a, b)
    }
    fn name(&self) -> String {
        Metric::name(&self.inner)
    }
}

const PIVOTS: usize = 12;
const K: usize = 5;
const CAND: usize = 60;

/// Builds an index of the collection with `metric`, queries it, and checks
/// the exact counts after every operation. Returns the answers.
fn run<M: Metric<Vector>>(metric: M, seen: Option<&AtomicU64>) -> Vec<Vec<(ObjectId, f64)>> {
    let dataset = cophir_like(7, 300);
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, PIVOTS, &dataset.metric, PivotSelection::Random, 3);
    let mut cfg = MIndexConfig::cophir();
    cfg.num_pivots = PIVOTS;
    cfg.bucket_capacity = 40;
    let mut cloud = EncryptedClient::new(
        key,
        metric,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(1);
    let observed = || seen.map(|s| s.swap(0, Ordering::Relaxed));

    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    for bulk in objects.chunks(100) {
        let costs = cloud.insert_bulk(bulk).unwrap();
        let expect = (PIVOTS * bulk.len()) as u64;
        assert_eq!(costs.distance_computations, expect);
        if let Some(pairs) = observed() {
            assert_eq!(pairs, expect, "every object–pivot pair is observed");
        }
    }

    let mut answers = Vec::new();
    for q in data.iter().step_by(37) {
        let (neighbors, costs) = cloud.knn_approx(q, K, CAND).unwrap();
        assert!(costs.decrypted >= K as u64 && costs.decrypted <= CAND as u64);
        let expect = PIVOTS as u64 + costs.decrypted;
        assert_eq!(costs.distance_computations, expect);
        if let Some(pairs) = observed() {
            assert_eq!(pairs, expect, "pivot pass + one per refined candidate");
        }
        answers.push(neighbors.iter().map(|n| (n.0, n.1)).collect());
    }

    let queries: Vec<Vector> = data.iter().step_by(50).cloned().collect();
    let (results, costs) = cloud.knn_approx_batch(&queries, K, CAND).unwrap();
    assert_eq!(
        costs.distance_computations,
        (PIVOTS * queries.len()) as u64 + costs.decrypted
    );
    for r in results {
        answers.push(r.unwrap().iter().map(|n| (n.0, n.1)).collect());
    }
    answers
}

#[test]
fn distance_counts_are_exact_on_both_entries_and_the_answers_agree() {
    let metric = cophir_like(7, 1).metric;
    let batch = run(metric.clone(), None);
    let seen = Arc::new(AtomicU64::new(0));
    let pairs = run(
        PairsOnly {
            inner: metric,
            seen: Arc::clone(&seen),
        },
        Some(&seen),
    );
    assert_eq!(batch.len(), pairs.len());
    for (a, b) in batch.iter().zip(&pairs) {
        assert_eq!(a.len(), K);
        let bits = |l: &[(ObjectId, f64)]| -> Vec<(ObjectId, u64)> {
            l.iter().map(|(id, d)| (*id, d.to_bits())).collect()
        };
        assert_eq!(
            bits(a),
            bits(b),
            "table pass and per-pair evaluation disagree"
        );
    }
}
