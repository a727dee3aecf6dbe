//! Sharding must be **invisible in the answers**: an unmodified
//! `EncryptedClient` (lazy refinement, phase-2 fetches and all) driven
//! against a `ShardedCloudServer` returns byte-identical results to the
//! same client driven against a single `CloudServer` holding the same
//! data.
//!
//! * Range queries are compared at **every** radius and candidate budget —
//!   exactness is structural (per-shard pruning is triangle-inequality
//!   safe, the merge is a union, refinement is exact).
//! * Approximate k-NN is compared with `cand_size ≥ n`, where the merged
//!   candidate multiset provably coincides with the single index's (both
//!   are "everything, ranked by the same wire bound") — the regime where
//!   the paper's candidate-set approximation drops out and the comparison
//!   is exact. Smaller `cand_size` runs are checked for internal
//!   consistency (k results, sorted, true distances).

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{
    ClientConfig, CloudServer, EncryptedClient, Neighbor, SecretKey, ServerConfig,
};
use simcloud_metric::{Metric, ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_shard::{HashRouter, PivotRouter, ShardRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::InProcessTransport;

/// Random data with deliberate duplicates so k-th-distance ties are common
/// (the early exit's strict comparison and the merge's tie-breaking both
/// get exercised).
fn data_with_ties(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Vector> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 4 == 3 {
            let j = rng.gen_range(0..out.len());
            out.push(out[j].clone());
        } else {
            out.push(Vector::new(
                (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect(),
            ));
        }
    }
    out
}

/// Twin deployments over identical data: one single-index server, one
/// sharded server, same key, same insert order.
struct Twins {
    single: Arc<CloudServer<MemoryStore>>,
    sharded: Arc<ShardedCloudServer<MemoryStore>>,
    key: SecretKey,
    data: Vec<Vector>,
}

fn build_twins(
    n: usize,
    dim: usize,
    pivots: usize,
    seed: u64,
    shards: usize,
    router: Box<dyn ShardRouter>,
    server_config: ServerConfig,
) -> Twins {
    let data = data_with_ties(n, dim, seed);
    let (key, _) = SecretKey::generate(&data, pivots, &L2, PivotSelection::Random, seed ^ 0xfeed);
    let config = MIndexConfig {
        num_pivots: pivots,
        max_level: 2.min(pivots),
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let single =
        Arc::new(CloudServer::with_config(config, server_config, MemoryStore::new()).unwrap());
    let sharded = Arc::new(
        ShardedCloudServer::with_config(
            config,
            server_config,
            router,
            (0..shards).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap(),
    );
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    let mut owner_single = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&single)),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 1);
    owner_single.insert_bulk(&objects).unwrap();
    let mut owner_sharded = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&sharded)),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 1);
    owner_sharded.insert_bulk(&objects).unwrap();
    Twins {
        single,
        sharded,
        key,
        data,
    }
}

fn single_client(
    t: &Twins,
    seed: u64,
) -> EncryptedClient<L2, InProcessTransport<Arc<CloudServer<MemoryStore>>>> {
    EncryptedClient::new(
        t.key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&t.single)),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed)
}

fn sharded_client(
    t: &Twins,
    seed: u64,
) -> EncryptedClient<L2, InProcessTransport<Arc<ShardedCloudServer<MemoryStore>>>> {
    EncryptedClient::new(
        t.key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&t.sharded)),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed)
}

/// Bit-exact comparison: same ids in the same order, same distance bits.
fn assert_identical(sharded: &[Neighbor], single: &[Neighbor]) -> Result<(), TestCaseError> {
    prop_assert_eq!(sharded.len(), single.len());
    for ((si, sd), (ri, rd)) in sharded.iter().zip(single) {
        prop_assert_eq!(si, ri);
        prop_assert_eq!(sd.to_bits(), rd.to_bits());
    }
    Ok(())
}

fn router_for(pivot: bool) -> Box<dyn ShardRouter> {
    if pivot {
        Box::new(PivotRouter)
    } else {
        Box::new(HashRouter)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// k-NN with a collection-covering candidate budget: sharded answers
    /// are byte-identical to the single index's, through lazy refinement
    /// and (when the inline budget is tight) real phase-2 fetches.
    #[test]
    fn sharded_knn_equals_single(
        seed in 0u64..10_000,
        n in 24usize..96,
        dim in 1usize..4,
        pivots in 2usize..8,
        k in 1usize..16,
        shards in 2usize..5,
        pivot_router in any::<bool>(),
        budgeted in any::<bool>(),
    ) {
        let server_config = if budgeted {
            // Headers always ship; a ~4-payload budget forces the lazy
            // loop through FetchObjects round trips.
            ServerConfig::budgeted(1 + 4 + 16 * n + 4 + 4 * 120)
        } else {
            ServerConfig::default()
        };
        let t = build_twins(n, dim, pivots, seed, shards, router_for(pivot_router), server_config);
        let queries: Vec<Vector> = {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            (0..4).map(|_| {
                let base = &t.data[rng.gen_range(0..t.data.len())];
                Vector::new(base.as_slice().iter().map(|&c| c + rng.gen_range(-0.5f32..0.5)).collect())
            }).collect()
        };
        let mut s1 = single_client(&t, seed ^ 2);
        let mut s2 = sharded_client(&t, seed ^ 3);
        for q in &queries {
            let (single_ans, single_costs) = s1.knn_approx(q, k, n).unwrap();
            let (sharded_ans, sharded_costs) = s2.knn_approx(q, k, n).unwrap();
            assert_identical(&sharded_ans, &single_ans)?;
            // Collection-covering budgets must yield equal candidate counts.
            prop_assert_eq!(sharded_costs.candidates, single_costs.candidates);
            // Under a tight budget the lazy loop either exits inside the
            // inlined prefix or pulls the rest through phase-2 fetches;
            // either way the answers above already proved the wire
            // equivalent. Sanity: fetches never exceed decryptions.
            prop_assert!(sharded_costs.fetched <= sharded_costs.decrypted.max(single_costs.candidates));
        }
    }

    /// Range queries: byte-identical at *every* cand budget and radius —
    /// including radii with boundary ties — for both routers.
    #[test]
    fn sharded_range_equals_single(
        seed in 0u64..10_000,
        n in 24usize..96,
        dim in 1usize..4,
        pivots in 2usize..8,
        shards in 2usize..5,
        pivot_router in any::<bool>(),
        budgeted in any::<bool>(),
        radius_scale in 0.0f64..1.5,
    ) {
        let server_config = if budgeted {
            ServerConfig::budgeted(1 + 4 + 16 * n + 4 + 2 * 120)
        } else {
            ServerConfig::default()
        };
        let t = build_twins(n, dim, pivots, seed, shards, router_for(pivot_router), server_config);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdef);
        let q = t.data[rng.gen_range(0..t.data.len())].clone();
        // A radius at an *exact* data distance exercises the boundary rule.
        let exact_d = L2.distance(&q, &t.data[rng.gen_range(0..t.data.len())]);
        let radius = exact_d * radius_scale;
        let mut s1 = single_client(&t, seed ^ 2);
        let mut s2 = sharded_client(&t, seed ^ 3);
        let (single_ans, _) = s1.range(&q, radius).unwrap();
        let (sharded_ans, _) = s2.range(&q, radius).unwrap();
        assert_identical(&sharded_ans, &single_ans)?;
        let (single_b, _) = s1.range(&q, exact_d).unwrap();
        let (sharded_b, _) = s2.range(&q, exact_d).unwrap();
        assert_identical(&sharded_b, &single_b)?;
    }

    /// The batch API answers per-slot identically too (one round trip, many
    /// queries, shared scatter-gather server).
    #[test]
    fn sharded_batch_knn_equals_single(
        seed in 0u64..10_000,
        n in 24usize..72,
        dim in 1usize..4,
        pivots in 2usize..7,
        k in 1usize..10,
        shards in 2usize..5,
    ) {
        let t = build_twins(n, dim, pivots, seed, shards, Box::new(HashRouter),
            ServerConfig::default());
        let queries: Vec<Vector> = t.data.iter().take(5).cloned().collect();
        let mut s1 = single_client(&t, seed ^ 2);
        let mut s2 = sharded_client(&t, seed ^ 3);
        let (single_res, _) = s1.knn_approx_batch(&queries, k, n).unwrap();
        let (sharded_res, _) = s2.knn_approx_batch(&queries, k, n).unwrap();
        prop_assert_eq!(single_res.len(), sharded_res.len());
        for (a, b) in sharded_res.iter().zip(&single_res) {
            assert_identical(a.as_ref().unwrap(), b.as_ref().unwrap())?;
        }
    }

    /// Small candidate budgets are the regime where sharded and single
    /// candidate *sets* may legitimately differ; the sharded answer must
    /// still be internally exact: k true nearest of its candidate set,
    /// sorted by (distance, id), distances bit-equal to recomputation.
    #[test]
    fn sharded_small_cand_answers_are_well_formed(
        seed in 0u64..10_000,
        n in 32usize..96,
        dim in 1usize..4,
        pivots in 3usize..8,
        k in 1usize..8,
        shards in 2usize..5,
        pivot_router in any::<bool>(),
    ) {
        let t = build_twins(n, dim, pivots, seed, shards, router_for(pivot_router),
            ServerConfig::default());
        let mut s2 = sharded_client(&t, seed ^ 3);
        let q = t.data[seed as usize % t.data.len()].clone();
        let cand = (n / 3).max(k);
        let (ans, costs) = s2.knn_approx(&q, k, cand).unwrap();
        prop_assert_eq!(ans.len(), k.min(costs.candidates as usize));
        prop_assert!(costs.candidates <= cand as u64, "merge must cap at cand_size");
        for w in ans.windows(2) {
            prop_assert!(w[0].1 < w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
        for (id, d) in &ans {
            let true_d = L2.distance(&q, &t.data[id.0 as usize]);
            prop_assert_eq!(d.to_bits(), true_d.to_bits());
        }
    }
}

/// Export + rekey: the data-owner path works unchanged against a sharded
/// deployment (ExportAll concatenates shards; the client sorts by id).
#[test]
fn export_all_and_rekey_from_sharded() {
    let t = build_twins(
        40,
        3,
        4,
        99,
        3,
        Box::new(HashRouter),
        ServerConfig::default(),
    );
    let mut owner = sharded_client(&t, 7);
    let (objects, _) = owner.export_all().unwrap();
    assert_eq!(objects.len(), t.data.len());
    for (i, (id, v)) in objects.iter().enumerate() {
        assert_eq!(id.0, i as u64);
        assert_eq!(v, &t.data[i]);
    }
    // Rekey into a fresh single-index deployment: sharded → single round
    // trips through the same client API.
    let (new_key, _) = SecretKey::generate(&t.data, 4, &L2, PivotSelection::Random, 1234);
    let fresh = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: 4,
                max_level: 2,
                bucket_capacity: 16,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );
    let mut new_owner = EncryptedClient::new(
        new_key,
        L2,
        InProcessTransport::new(Arc::clone(&fresh)),
        ClientConfig::distances(),
    )
    .with_rng_seed(5);
    owner.rekey_into(&mut new_owner, 16).unwrap();
    let (back, _) = new_owner.export_all().unwrap();
    assert_eq!(back.len(), t.data.len());
}

/// The per-shard budget split as an exact count. Below a
/// collection-covering budget each of N shards stages only its
/// `ceil(cand / N)` share in promise order, so over the same queries a
/// 4-shard hash-routed open scans barely more entries than the single
/// index does; it would scan about N times as many if every shard walked
/// the whole budget.
#[test]
fn four_shard_opens_scan_their_share_of_the_budget() {
    let t = build_twins(
        400,
        4,
        8,
        5,
        4,
        Box::new(HashRouter),
        ServerConfig::default(),
    );
    let single_before = t.single.telemetry().total_search_stats();
    let sharded_before = t.sharded.telemetry().total_search_stats();
    let mut s1 = single_client(&t, 2);
    let mut s2 = sharded_client(&t, 3);
    for q in t.data.iter().step_by(25) {
        s1.knn_approx(q, 30, 150).unwrap();
        s2.knn_approx(q, 30, 150).unwrap();
    }
    let single = t
        .single
        .telemetry()
        .total_search_stats()
        .since(&single_before);
    let sharded = t
        .sharded
        .telemetry()
        .total_search_stats()
        .since(&sharded_before);
    let amplification = sharded.entries_scanned as f64 / single.entries_scanned as f64;
    assert!(
        amplification < 1.5,
        "4 shards scanned {} entries against the single index's {} ({amplification:.2}x): \
         shards are staging past their share of the candidate budget",
        sharded.entries_scanned,
        single.entries_scanned
    );
}
