//! Property tests for the ranked [`CandidateCursor`]. Every cursor — both
//! routing strategies, k-NN and range — hands out its views in
//! **nondecreasing bound order**, a capped selection is a **prefix** of
//! those views, and the owned adapter copies that selection out **byte
//! for byte** (ids, payloads, bound bits, the routing each entry was
//! inserted with, and the full `SearchStats`).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_metric::{select_pivots, Metric, PivotSelection, Vector, L2};
use simcloud_mindex::{
    knn_cap, CandidateCursor, IndexEntry, MIndex, MIndexConfig, PromiseEvaluator, Routing,
    RoutingStrategy, SearchStats,
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
    /// The routing entry `i` was inserted with.
    routings: Vec<Routing>,
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
    let mut routings = Vec::with_capacity(data.len());
    for (i, v) in data.iter().enumerate() {
        let ds: Vec<f64> = pivots.iter().map(|p| L2.distance(v, p)).collect();
        let routing = match strategy {
            RoutingStrategy::Distances => Routing::from_distances(&ds),
            RoutingStrategy::Permutation => Routing::permutation_prefix(&ds, ds.len()),
        };
        routings.push(routing.clone());
        idx.insert(IndexEntry::new(i as u64, routing, vec![i as u8; 4]))
            .unwrap();
    }
    Built {
        idx,
        pivots,
        data,
        routings,
    }
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

/// Checks a cursor's ranked set against the selection a consumer capped
/// at `cap` takes: `views()` covers all `len()` candidates in
/// nondecreasing bound order, `select_up_to(cap)` is a prefix of them —
/// the same views, borrowed from the same arena — and counts itself, and
/// `collect_up_to(cap)` copies that prefix out byte for byte, each entry
/// carrying the routing it was inserted with. Returns the selection's
/// length and stats.
fn check_selection(
    b: &Built,
    cursor: CandidateCursor,
    cap: Option<usize>,
) -> Result<(usize, SearchStats), TestCaseError> {
    let all: Vec<_> = cursor.views().collect();
    prop_assert_eq!(all.len(), cursor.len());
    prop_assert!(
        all.windows(2).all(|w| w[0].bound <= w[1].bound),
        "views must be bound-sorted"
    );
    let (selected, stats) = cursor.select_up_to(cap);
    prop_assert_eq!(selected.len(), cap.map_or(all.len(), |c| c.min(all.len())));
    for (s, v) in selected.iter().zip(&all) {
        prop_assert_eq!((s.id, s.bound.to_bits()), (v.id, v.bound.to_bits()));
        prop_assert!(
            std::ptr::eq(s.payload, v.payload),
            "a selection copies nothing"
        );
    }
    prop_assert_eq!(stats.candidates, selected.len() as u64);
    prop_assert_eq!(stats.candidates_generated, selected.len() as u64);
    let want: Vec<(u64, u64, Vec<u8>)> = selected
        .iter()
        .map(|v| (v.id, v.bound.to_bits(), v.payload.to_vec()))
        .collect();
    drop((all, selected));

    let (owned, owned_stats) = cursor.collect_up_to(cap).unwrap();
    prop_assert_eq!(owned.len(), want.len());
    for ((entry, bound), (id, bits, payload)) in owned.iter().zip(&want) {
        prop_assert_eq!(entry.id, *id);
        prop_assert_eq!(&entry.payload, payload);
        prop_assert_eq!(&entry.routing, &b.routings[entry.id as usize]);
        prop_assert_eq!(bound.to_bits(), *bits);
    }
    prop_assert_eq!(owned_stats, stats);
    Ok((want.len(), stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// k-NN cursors rank in nondecreasing bound order and their trimmed
    /// selection is a prefix the owned adapter reproduces byte for byte —
    /// under both routing strategies and arbitrary tree shapes, including
    /// the `FIRST_CELL_ONLY` sentinel (`cand_size = 0`, untrimmed).
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

        let cursor = b.idx.knn_cursor(&ev, cand_size).unwrap();
        let staged = cursor.len();
        let (selected, stats) = check_selection(&b, cursor, knn_cap(cand_size))?;
        // The walk stops once `cand_size` entries are staged (or the data
        // runs out); FIRST_CELL_ONLY keeps one whole non-empty cell.
        prop_assert!(staged >= cand_size.min(n));
        prop_assert!(staged > 0);
        prop_assert_eq!(selected, if cand_size == 0 { staged } else { cand_size.min(staged) });
        prop_assert_eq!(stats.entries_scanned, staged as u64);
    }

    /// Range cursors rank in nondecreasing bound order and their full
    /// selection is what the owned adapter reproduces byte for byte.
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

        let cursor = b.idx.range_cursor(&ds, radius).unwrap();
        let staged = cursor.len();
        let (selected, stats) = check_selection(&b, cursor, None)?;
        prop_assert_eq!(selected, staged);
        prop_assert_eq!(stats.entries_scanned - stats.entries_filtered, staged as u64);
    }

    /// Generation counts exactly the candidates a selection takes — never
    /// the staged universe — and selecting leaves the cursor unchanged.
    #[test]
    fn capped_pull_generates_exactly_what_it_pulls(
        seed in 0u64..5000,
        n in 64usize..200,
        pulled in 1usize..16,
    ) {
        let b = build(n, 3, 4, 2, 8, seed, RoutingStrategy::Distances);
        let ds = query_distances(&b, seed.wrapping_mul(13));
        let ev = PromiseEvaluator::from_distances(ds);
        let cursor = b.idx.knn_cursor(&ev, n).unwrap();
        let staged = cursor.len();
        prop_assert_eq!(cursor.stats().candidates_generated, 0);
        let (_, stats) = cursor.select_up_to(Some(pulled));
        prop_assert_eq!(stats.candidates_generated as usize, pulled.min(staged));
        prop_assert_eq!(cursor.stats().candidates_generated, 0);
        prop_assert_eq!(cursor.len(), staged);
    }
}
