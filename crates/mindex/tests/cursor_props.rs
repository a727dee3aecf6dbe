//! Property tests for the lazy [`CandidateCursor`]: streaming must be
//! invisible. Every cursor — both routing strategies, k-NN and range —
//! yields candidates in **nondecreasing bound order**, `peek_bound` always
//! names the next yield without decoding it, and draining a cursor
//! reproduces the eager candidate functions **byte for byte** (ids,
//! payloads, bound bits, and the full `SearchStats`), since the eager
//! functions are the wire the encrypted client was built against.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_metric::{select_pivots, Metric, PivotSelection, Vector, L2};
use simcloud_mindex::{
    CandidateCursor, IndexEntry, MIndex, MIndexConfig, PromiseEvaluator, Routing, RoutingStrategy,
    SearchStats,
};
use simcloud_storage::MemoryStore;

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect()))
        .collect()
}

struct Built {
    idx: MIndex<MemoryStore>,
    pivots: Vec<Vector>,
    data: Vec<Vector>,
}

fn build(
    n: usize,
    dim: usize,
    num_pivots: usize,
    max_level: usize,
    cap: usize,
    seed: u64,
    strategy: RoutingStrategy,
) -> Built {
    let data = random_data(n, dim, seed);
    let pivots = select_pivots(&data, num_pivots, &L2, PivotSelection::Random, seed ^ 0xc0);
    let cfg = MIndexConfig {
        num_pivots: pivots.len(),
        max_level: max_level.min(pivots.len()),
        bucket_capacity: cap,
        strategy,
    };
    let mut idx = MIndex::new(cfg, MemoryStore::new()).unwrap();
    for (i, v) in data.iter().enumerate() {
        let ds: Vec<f64> = pivots.iter().map(|p| L2.distance(v, p)).collect();
        let routing = match strategy {
            RoutingStrategy::Distances => Routing::from_distances(&ds),
            RoutingStrategy::Permutation => Routing::permutation_prefix(&ds, ds.len()),
        };
        idx.insert(IndexEntry::new(i as u64, routing, vec![i as u8; 4]))
            .unwrap();
    }
    Built { idx, pivots, data }
}

fn query_distances(b: &Built, seed: u64) -> Vec<f64> {
    let q = &b.data[seed as usize % b.data.len()];
    b.pivots.iter().map(|p| L2.distance(q, p)).collect()
}

fn evaluator(strategy: RoutingStrategy, ds: &[f64]) -> PromiseEvaluator {
    match strategy {
        RoutingStrategy::Distances => PromiseEvaluator::from_distances(ds.to_vec()),
        RoutingStrategy::Permutation => {
            match Routing::permutation_prefix(ds, ds.len()) {
                Routing::Permutation(p) => PromiseEvaluator::from_permutation(p),
                // permutation_prefix always builds a permutation routing.
                Routing::Distances(_) => unreachable!("permutation_prefix built distances"),
            }
        }
    }
}

/// Streams a cursor to at most `cap` candidates, checking on every pull
/// that `peek_bound` predicted the yielded bound (bit-exact, without
/// decoding) and that `remaining` counts down. Returns the drained list
/// and the cursor's final stats with `candidates` set like
/// `collect_up_to` sets it.
fn stream_checked(
    mut cursor: CandidateCursor,
    cap: Option<usize>,
) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), TestCaseError> {
    let mut out = Vec::new();
    loop {
        if let Some(c) = cap {
            if out.len() >= c {
                break;
            }
        }
        let predicted = cursor.peek_bound();
        let before = cursor.remaining();
        match cursor.next_candidate().unwrap() {
            Some((entry, bound)) => {
                // peek_bound must name the next yield, bit-exact.
                prop_assert_eq!(predicted.map(f64::to_bits), Some(bound.to_bits()));
                prop_assert_eq!(cursor.remaining(), before - 1);
                out.push((entry, bound));
            }
            None => {
                prop_assert!(predicted.is_none(), "peek on an exhausted cursor");
                prop_assert_eq!(before, 0);
                break;
            }
        }
    }
    let mut stats = cursor.stats();
    stats.candidates = out.len() as u64;
    Ok((out, stats))
}

fn assert_identical(
    streamed: &[(IndexEntry, f64)],
    eager: &[(IndexEntry, f64)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(streamed.len(), eager.len());
    for ((se, sb), (ee, eb)) in streamed.iter().zip(eager) {
        prop_assert_eq!(se.id, ee.id);
        prop_assert_eq!(&se.payload, &ee.payload);
        prop_assert_eq!(&se.routing, &ee.routing);
        prop_assert_eq!(sb.to_bits(), eb.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k-NN cursors yield nondecreasing bounds and reproduce the eager
    /// `knn_candidates` list byte for byte — under both routing strategies
    /// and arbitrary tree shapes, including the `FIRST_CELL_ONLY`
    /// sentinel (`cand_size = 0`).
    #[test]
    fn knn_cursor_streams_eager_list_in_bound_order(
        seed in 0u64..5000,
        n in 20usize..160,
        dim in 1usize..5,
        pivots in 2usize..9,
        max_level in 1usize..3,
        cap in 2usize..24,
        cand_size in 0usize..64,
        permutation in 0u8..2,
    ) {
        let strategy = if permutation == 1 {
            RoutingStrategy::Permutation
        } else {
            RoutingStrategy::Distances
        };
        let b = build(n, dim, pivots.min(n), max_level, cap, seed, strategy);
        let ds = query_distances(&b, seed.wrapping_mul(31));
        let ev = evaluator(strategy, &ds);

        let (eager, eager_stats) = b.idx.knn_candidates(&ev, cand_size).unwrap();
        prop_assert!(
            eager.windows(2).all(|w| w[0].1 <= w[1].1),
            "eager list must be bound-sorted"
        );

        // Same cap rule as the eager wrapper: 0 = FIRST_CELL_ONLY drains
        // the whole staged cell.
        let pull_cap = if cand_size == 0 { None } else { Some(cand_size) };
        let cursor = b.idx.knn_cursor(&ev, cand_size).unwrap();
        let (streamed, streamed_stats) = stream_checked(cursor, pull_cap)?;
        prop_assert!(streamed.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_identical(&streamed, &eager)?;
        prop_assert_eq!(streamed_stats, eager_stats);
    }

    /// Range cursors yield nondecreasing bounds and reproduce the eager
    /// `range_candidates` list byte for byte.
    #[test]
    fn range_cursor_streams_eager_list_in_bound_order(
        seed in 0u64..5000,
        n in 20usize..160,
        dim in 1usize..5,
        pivots in 2usize..9,
        max_level in 1usize..3,
        cap in 2usize..24,
        radius in 0.0f64..6.0,
    ) {
        let b = build(n, dim, pivots.min(n), max_level, cap, seed, RoutingStrategy::Distances);
        let ds = query_distances(&b, seed.wrapping_mul(17));

        let (eager, eager_stats) = b.idx.range_candidates(&ds, radius).unwrap();
        prop_assert!(
            eager.windows(2).all(|w| w[0].1 <= w[1].1),
            "eager list must be bound-sorted"
        );

        let cursor = b.idx.range_cursor(&ds, radius).unwrap();
        let (streamed, streamed_stats) = stream_checked(cursor, None)?;
        prop_assert!(streamed.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_identical(&streamed, &eager)?;
        prop_assert_eq!(streamed_stats, eager_stats);
    }

    /// The lazy contract: generation counts exactly the candidates pulled
    /// — never the staged universe, and no prefetch beyond the pull.
    #[test]
    fn capped_pull_generates_exactly_what_it_pulls(
        seed in 0u64..5000,
        n in 64usize..200,
        pulled in 1usize..16,
    ) {
        let b = build(n, 3, 4, 2, 8, seed, RoutingStrategy::Distances);
        let ds = query_distances(&b, seed.wrapping_mul(13));
        let ev = PromiseEvaluator::from_distances(ds);
        let mut cursor = b.idx.knn_cursor(&ev, n).unwrap();
        let staged = cursor.remaining();
        prop_assert_eq!(cursor.stats().candidates_generated, 0);
        for _ in 0..pulled {
            cursor.next_candidate().unwrap();
        }
        let generated = cursor.stats().candidates_generated as usize;
        prop_assert_eq!(generated, pulled.min(staged));
    }
}
