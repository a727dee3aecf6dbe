//! The brute-force oracle and the validity checks every answer goes through.

use std::time::Instant;

use crate::sut::{parallel_knn_ground_truth, Metric, Neighbor, Vector};
use crate::{Env, K};

/// How many neighbours beyond the 30th the brute-force pass keeps, to see
/// objects tied with the 30th at the range radius (the collection is
/// quantized to an integer grid, so ties do occur).
const TIE_MARGIN: usize = 10;

/// Exact answers over the initial collection: every query's 30-NN, and the
/// full set within its range radius (the 30th-NN distance).
#[derive(Debug)]
pub struct Oracle {
    /// Per query, the exact `K` nearest, ascending.
    knn: Vec<Vec<Neighbor>>,
    /// Per query, the ids of the `K` nearest, sorted.
    knn_ids: Vec<Vec<u64>>,
    /// Per query, the ids of every object within the radius, sorted.
    in_range: Vec<Vec<u64>>,
    /// Ids below this belong to the initial collection; the open-loop
    /// writer's fresh objects start here.
    initial: u64,
    pub build_s: f64,
}

fn sorted_ids(neighbours: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut ids: Vec<u64> = neighbours.collect();
    ids.sort_unstable();
    ids
}

impl Oracle {
    pub fn build<M: Metric<Vector> + Sync>(
        data: &[Vector],
        queries: &[Vector],
        metric: &M,
        threads: usize,
    ) -> Self {
        let start = Instant::now();
        let truth = parallel_knn_ground_truth(data, queries, metric, K + TIE_MARGIN, threads);
        let mut knn = Vec::new();
        let mut in_range = Vec::new();
        for (q, answer) in queries.iter().zip(truth.answers) {
            let nearest: Vec<Neighbor> = answer.iter().take(K).copied().collect();
            let radius = nearest.last().map_or(0.0, |n| n.1);
            let margin_exhausted = answer.len() > K && answer.last().is_some_and(|n| n.1 <= radius);
            in_range.push(if margin_exhausted {
                // More ties than the margin holds: scan for them.
                let within = (0..data.len()).filter(|&i| metric.distance(q, &data[i]) <= radius);
                sorted_ids(within.map(|i| i as u64))
            } else {
                sorted_ids(answer.iter().filter(|n| n.1 <= radius).map(|n| n.0 .0))
            });
            knn.push(nearest);
        }
        Self {
            knn_ids: knn
                .iter()
                .map(|a| sorted_ids(a.iter().map(|n| n.0 .0)))
                .collect(),
            knn,
            in_range,
            initial: data.len() as u64,
            build_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The range radius of query `q`: its 30th-NN distance.
    pub fn radius(&self, q: usize) -> f64 {
        self.knn[q].last().map_or(0.0, |n| n.1)
    }

    /// How many of the oracle's neighbours `answer` contains.
    pub fn hits(&self, q: usize, answer: &[Neighbor]) -> usize {
        answer
            .iter()
            .filter(|(id, _)| self.knn_ids[q].binary_search(&id.0).is_ok())
            .count()
    }

    /// Check of a kNN answer: `K` neighbours, ascending, every reported
    /// distance the true metric distance to the object with that id. An
    /// approximate answer may miss any neighbour — even the query itself —
    /// which is what `recall` measures; it may not invent one.
    pub fn knn_ok(&self, env: &Env, q: usize, answer: &[Neighbor]) -> bool {
        answer.len() == K
            && answer.windows(2).all(|w| w[0].1 <= w[1].1)
            && answer.iter().all(|(id, d)| {
                env.object(id.0).is_some_and(|o| {
                    let truth = env.metric.distance(&env.queries[q], o);
                    (truth - d).abs() <= 1e-9 * truth.max(1.0)
                })
            })
    }

    /// A range answer must be, on the initial collection, exactly the
    /// brute-force set within the radius; beyond it only writer ids, and
    /// nothing farther than the radius.
    pub fn range_ok(&self, q: usize, answer: &[Neighbor]) -> bool {
        let radius = self.radius(q);
        let initial = answer.iter().filter(|(id, _)| id.0 < self.initial);
        sorted_ids(initial.map(|(id, _)| id.0)) == self.in_range[q]
            && answer.iter().all(|(_, d)| *d <= radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{DatasetMetric, ObjectId};

    fn line(n: usize) -> Vec<Vector> {
        (0..n).map(|i| Vector::new(vec![i as f32])).collect()
    }

    #[test]
    fn oracle_accepts_true_answers_and_rejects_broken_ones() {
        let data = line(100);
        let queries = vec![data[50].clone()];
        let oracle = Oracle::build(&data, &queries, &DatasetMetric::L1, 1);
        let truth = oracle.knn[0].clone();
        assert_eq!(truth.len(), K);
        assert_eq!(truth[0], (ObjectId(50), 0.0));
        // On a line the 30th and 31st neighbours (35 and 65) tie at 15:
        // the range set holds both, the kNN set only the lower id.
        assert_eq!(oracle.radius(0), 15.0);
        assert_eq!(oracle.in_range[0], (35..=65).collect::<Vec<u64>>());
        let mut in_range = truth.clone();
        in_range.push((ObjectId(65), 15.0));
        assert_eq!(oracle.hits(0, &truth), K);
        assert!(oracle.range_ok(0, &in_range));
        assert!(!oracle.range_ok(0, &truth), "the tied object is missing");

        // A writer object (id >= 100) inside the radius is a legal extra…
        let mut with_writer = in_range.clone();
        with_writer.push((ObjectId(100), 1.0));
        assert!(oracle.range_ok(0, &with_writer));
        // …beyond the radius it is not; nor is an unknown initial id.
        with_writer.push((ObjectId(101), 15.5));
        assert!(!oracle.range_ok(0, &with_writer));
        let mut with_stranger = in_range.clone();
        with_stranger.push((ObjectId(99), 1.0));
        assert!(!oracle.range_ok(0, &with_stranger));

        // kNN: wrong length, wrong order, an invented distance.
        let env = Env::for_tests(data, queries);
        assert!(oracle.knn_ok(&env, 0, &truth));
        assert!(!oracle.knn_ok(&env, 0, &truth[..K - 1]));
        let mut swapped = truth.clone();
        swapped.swap(3, 20);
        assert!(!oracle.knn_ok(&env, 0, &swapped));
        let mut invented = truth;
        invented[0] = (ObjectId(7), 0.0);
        assert!(!oracle.knn_ok(&env, 0, &invented));
    }
}
