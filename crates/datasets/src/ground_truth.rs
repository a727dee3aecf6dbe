//! Parallel brute-force ground truth for recall computation.
//!
//! The paper's recall (§4.1) needs the precise answer `A_P` per query; for
//! CoPhIR-scale data that is the dominant offline cost of running the
//! evaluation, so we parallelize across queries with `std::thread::scope`
//! (scoped threads are in std since 1.63, so no crossbeam dependency).

use simcloud_metric::{Metric, ObjectId, Vector};

/// Precise k-NN answers for a batch of queries.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// `answers[q]` = the k nearest `(id, distance)` of query `q`,
    /// ascending by distance.
    pub answers: Vec<Vec<(ObjectId, f64)>>,
    /// k used.
    pub k: usize,
}

impl GroundTruth {
    /// Recall (%) of an approximate answer for query `q` (paper §4.1).
    pub fn recall(&self, q: usize, approx: &[(ObjectId, f64)]) -> f64 {
        simcloud_metric::recall(approx, &self.answers[q])
    }

    /// Mean recall over all queries for per-query approximate answers.
    pub fn mean_recall(&self, approx: &[Vec<(ObjectId, f64)>]) -> f64 {
        assert_eq!(approx.len(), self.answers.len());
        let sum: f64 = approx
            .iter()
            .enumerate()
            .map(|(i, a)| self.recall(i, a))
            .sum();
        sum / self.answers.len() as f64
    }

    /// Distance to the k-th neighbor of query `q` (used to choose range
    /// radii in experiments).
    pub fn kth_distance(&self, q: usize) -> Option<f64> {
        self.answers[q].last().map(|(_, d)| *d)
    }
}

/// Computes exact k-NN for every query with brute force, parallelized over
/// queries across `threads` workers.
pub fn parallel_knn_ground_truth<M>(
    data: &[Vector],
    queries: &[Vector],
    metric: &M,
    k: usize,
    threads: usize,
) -> GroundTruth
where
    M: Metric<Vector> + Sync,
{
    assert!(threads >= 1);
    let mut answers: Vec<Vec<(ObjectId, f64)>> = vec![Vec::new(); queries.len()];
    let chunk = queries.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for (qchunk, achunk) in queries.chunks(chunk).zip(answers.chunks_mut(chunk)) {
            s.spawn(move || {
                for (q, slot) in qchunk.iter().zip(achunk.iter_mut()) {
                    *slot = knn_one(data, q, metric, k);
                }
            });
        }
    });
    GroundTruth { answers, k }
}

fn knn_one<M: Metric<Vector>>(
    data: &[Vector],
    q: &Vector,
    metric: &M,
    k: usize,
) -> Vec<(ObjectId, f64)> {
    // Max-heap of the best k (keep the largest on top for eviction).
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    struct Item(f64, u64);
    impl PartialEq for Item {
        fn eq(&self, o: &Self) -> bool {
            self.0 == o.0 && self.1 == o.1
        }
    }
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> Ordering {
            self.0
                .partial_cmp(&o.0)
                .unwrap_or(Ordering::Equal)
                .then(self.1.cmp(&o.1))
        }
    }
    let mut heap: BinaryHeap<Item> = BinaryHeap::with_capacity(k + 1);
    for (i, o) in data.iter().enumerate() {
        let d = metric.distance(q, o);
        if heap.len() < k {
            heap.push(Item(d, i as u64));
        } else if let Some(top) = heap.peek() {
            if d < top.0 || (d == top.0 && (i as u64) < top.1) {
                heap.pop();
                heap.push(Item(d, i as u64));
            }
        }
    }
    let mut out: Vec<(ObjectId, f64)> = heap
        .into_iter()
        .map(|Item(d, i)| (ObjectId(i), d))
        .collect();
    out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_metric::L2;

    fn line(n: usize) -> Vec<Vector> {
        (0..n).map(|i| Vector::new(vec![i as f32])).collect()
    }

    #[test]
    fn ground_truth_on_a_line() {
        let data = line(100);
        let queries = vec![Vector::new(vec![10.2]), Vector::new(vec![95.0])];
        let gt = parallel_knn_ground_truth(&data, &queries, &L2, 3, 2);
        let ids: Vec<u64> = gt.answers[0].iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![10, 11, 9]);
        let ids: Vec<u64> = gt.answers[1].iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![95, 94, 96]);
    }

    #[test]
    fn thread_count_does_not_change_answers() {
        let data = line(200);
        let queries: Vec<Vector> = (0..10)
            .map(|i| Vector::new(vec![i as f32 * 17.3]))
            .collect();
        let a = parallel_knn_ground_truth(&data, &queries, &L2, 5, 1);
        let b = parallel_knn_ground_truth(&data, &queries, &L2, 5, 4);
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn recall_computation() {
        let data = line(50);
        let queries = vec![Vector::new(vec![5.0])];
        let gt = parallel_knn_ground_truth(&data, &queries, &L2, 4, 1);
        // true: 5,4,6,3 — give an approx answer with 2 hits
        let approx = vec![
            (ObjectId(5), 0.0),
            (ObjectId(4), 1.0),
            (ObjectId(40), 35.0),
            (ObjectId(41), 36.0),
        ];
        assert!((gt.recall(0, &approx) - 50.0).abs() < 1e-9);
        assert!((gt.mean_recall(&[approx]) - 50.0).abs() < 1e-9);
        assert_eq!(gt.kth_distance(0), Some(2.0));
    }

    #[test]
    fn k_larger_than_data() {
        let data = line(3);
        let queries = vec![Vector::new(vec![0.0])];
        let gt = parallel_knn_ground_truth(&data, &queries, &L2, 10, 1);
        assert_eq!(gt.answers[0].len(), 3);
    }
}
