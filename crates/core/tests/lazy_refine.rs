//! Lazy (decrypt-on-demand) refinement must be **invisible in the answers**:
//! for the distances strategy the early exit is proven sound by the wire
//! lower bounds, so every query — k-NN, batch, range, transformed — returns
//! byte-identical results to eager refinement, including ties at the k-th
//! distance. These tests drive lazy and eager clients against the *same*
//! shared server state and compare exactly.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{
    ClientConfig, CloudServer, EncryptedClient, LazyRefine, Neighbor, SecretKey, ServerConfig,
};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::InProcessTransport;

/// Random data with deliberate duplicates: every fourth point is a copy of
/// an earlier one, so k-th-distance ties are common, exercising the strict
/// early-exit comparison.
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

struct Deployment {
    server: Arc<CloudServer<MemoryStore>>,
    key: SecretKey,
    data: Vec<Vector>,
}

fn build(n: usize, dim: usize, pivots: usize, seed: u64, strategy: RoutingStrategy) -> Deployment {
    build_with(n, dim, pivots, seed, strategy, ServerConfig::default())
}

/// `build` with an explicit [`ServerConfig`] — a budgeted server answers
/// phase 1 with headers + a bounded payload prefix, forcing the client
/// through real phase-2 fetches.
fn build_with(
    n: usize,
    dim: usize,
    pivots: usize,
    seed: u64,
    strategy: RoutingStrategy,
    server_config: ServerConfig,
) -> Deployment {
    let data = data_with_ties(n, dim, seed);
    let (key, _) = SecretKey::generate(&data, pivots, &L2, PivotSelection::Random, seed ^ 0xfeed);
    let server = Arc::new(
        CloudServer::with_config(
            MIndexConfig {
                num_pivots: pivots,
                max_level: 2.min(pivots),
                bucket_capacity: 16,
                strategy,
            },
            server_config,
            MemoryStore::new(),
        )
        .unwrap(),
    );
    let base = match strategy {
        RoutingStrategy::Distances => ClientConfig::distances(),
        RoutingStrategy::Permutation => ClientConfig::permutations(),
    };
    let mut owner = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        base,
    )
    .with_rng_seed(seed ^ 1);
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    owner.insert_bulk(&objects).unwrap();
    Deployment { server, key, data }
}

fn client(
    dep: &Deployment,
    config: ClientConfig,
    seed: u64,
) -> EncryptedClient<L2, InProcessTransport<Arc<CloudServer<MemoryStore>>>> {
    EncryptedClient::new(
        dep.key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&dep.server)),
        config,
    )
    .with_rng_seed(seed)
}

/// Bit-exact comparison: same ids in the same order, same distance bits.
fn assert_identical(lazy: &[Neighbor], eager: &[Neighbor]) -> Result<(), TestCaseError> {
    prop_assert_eq!(lazy.len(), eager.len());
    for ((li, ld), (ei, ed)) in lazy.iter().zip(eager) {
        prop_assert_eq!(li, ei);
        prop_assert_eq!(ld.to_bits(), ed.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// k-NN: lazy refinement returns byte-identical neighbors to full
    /// refinement across random datasets, k and cand_size — ties included.
    #[test]
    fn lazy_knn_equals_eager_knn(
        seed in 0u64..10_000,
        n in 24usize..160,
        dim in 1usize..5,
        pivots in 2usize..9,
        k in 1usize..24,
        cand_frac in 1usize..5,
    ) {
        let dep = build(n, dim, pivots.min(n), seed, RoutingStrategy::Distances);
        let cand_size = (n * cand_frac / 4).max(1);
        let mut lazy = client(&dep, ClientConfig::distances(), seed ^ 2);
        let mut eager = client(
            &dep,
            ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            seed ^ 3,
        );
        for qi in [0usize, n / 3, n - 1] {
            let q = &dep.data[qi];
            let (lr, lc) = lazy.knn_approx(q, k, cand_size).unwrap();
            let (er, ec) = eager.knn_approx(q, k, cand_size).unwrap();
            assert_identical(&lr, &er)?;
            prop_assert_eq!(ec.decrypted, ec.candidates);
            prop_assert!(lc.decrypted <= lc.candidates);
        }
    }

    /// Range: the lazy skip (bounds beyond the radius) never loses a result,
    /// including objects at exactly the boundary distance.
    #[test]
    fn lazy_range_equals_eager_range(
        seed in 0u64..10_000,
        n in 24usize..120,
        radius in 0.0f64..6.0,
    ) {
        let dep = build(n, 3, 5, seed, RoutingStrategy::Distances);
        let mut lazy = client(&dep, ClientConfig::distances(), seed ^ 2);
        let mut eager = client(
            &dep,
            ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            seed ^ 3,
        );
        let q = &dep.data[seed as usize % n];
        let (lr, _) = lazy.range(q, radius).unwrap();
        let (er, _) = eager.range(q, radius).unwrap();
        assert_identical(&lr, &er)?;
    }

    /// Two-phase k-NN: against a byte-budgeted server (headers + partial
    /// inline prefix; the rest pulled with FetchObjects in adaptive
    /// batches) the client returns byte-identical neighbors to eager
    /// refinement on a fully-inlined server — whatever the inline prefix
    /// and the candidate-set size, so wherever the batch boundaries land
    /// relative to the early-exit point.
    #[test]
    fn two_phase_knn_equals_eager(
        seed in 0u64..10_000,
        n in 24usize..160,
        dim in 1usize..5,
        pivots in 2usize..9,
        k in 1usize..24,
        budget in 0usize..3000,
        cand_frac in 1usize..5,
    ) {
        let pivots = pivots.min(n);
        let two_phase = build_with(
            n, dim, pivots, seed,
            RoutingStrategy::Distances,
            ServerConfig::budgeted(budget),
        );
        let full = build(n, dim, pivots, seed, RoutingStrategy::Distances);
        let cand_size = (n * cand_frac / 4).max(1);
        let mut lazy2p = client(&two_phase, ClientConfig::distances(), seed ^ 2);
        let mut eager2p = client(
            &two_phase,
            ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            seed ^ 3,
        );
        let mut eager_full = client(
            &full,
            ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            seed ^ 4,
        );
        for qi in [0usize, n / 2, n - 1] {
            let q = &two_phase.data[qi];
            let (lr, lc) = lazy2p.knn_approx(q, k, cand_size).unwrap();
            let (e2r, e2c) = eager2p.knn_approx(q, k, cand_size).unwrap();
            let (efr, _) = eager_full.knn_approx(q, k, cand_size).unwrap();
            assert_identical(&lr, &e2r)?;
            assert_identical(&lr, &efr)?;
            // Eager pulls every non-inlined payload; lazy can only pull a
            // subset of those.
            prop_assert!(lc.fetched <= e2c.fetched);
            prop_assert!(lc.decrypted <= lc.candidates);
            prop_assert_eq!(e2c.decrypted, e2c.candidates);
        }
    }

    /// Two-phase range queries: identical results across budgets.
    #[test]
    fn two_phase_range_equals_eager(
        seed in 0u64..10_000,
        n in 24usize..120,
        radius in 0.0f64..6.0,
        budget in 0usize..2000,
    ) {
        let two_phase = build_with(
            n, 3, 5, seed,
            RoutingStrategy::Distances,
            ServerConfig::budgeted(budget),
        );
        let full = build(n, 3, 5, seed, RoutingStrategy::Distances);
        let mut lazy2p = client(&two_phase, ClientConfig::distances(), seed ^ 2);
        let mut eager_full = client(
            &full,
            ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
            seed ^ 3,
        );
        let q = &two_phase.data[seed as usize % n];
        let (lr, _) = lazy2p.range(q, radius).unwrap();
        let (er, _) = eager_full.range(q, radius).unwrap();
        assert_identical(&lr, &er)?;
    }
}

/// The early exit must actually fire: a member query over a sizable
/// candidate set finds its k neighbors long before the bound-sorted tail.
#[test]
fn early_exit_fires_on_member_queries() {
    let dep = build(400, 4, 8, 77, RoutingStrategy::Distances);
    let mut lazy = client(&dep, ClientConfig::distances(), 78);
    let (res, costs) = lazy.knn_approx(&dep.data[10], 10, 400).unwrap();
    assert_eq!(res.len(), 10);
    assert!(
        costs.decrypted < costs.candidates,
        "no early exit: decrypted {} of {}",
        costs.decrypted,
        costs.candidates
    );
}

/// The level-4 distance transform moves the wire bounds into `T`-space;
/// the client compares through `s_max·d`, so lazy results stay identical.
#[test]
fn lazy_is_exact_under_distance_transform() {
    use simcloud_core::DistanceTransform;
    let dep = build(200, 3, 6, 99, RoutingStrategy::Distances);
    let transform = DistanceTransform::from_seed(5, 40.0, 6);
    let mut lazy = client(
        &dep,
        ClientConfig::distances().with_transform(transform.clone()),
        100,
    );
    let mut eager = client(
        &dep,
        ClientConfig::distances()
            .with_transform(transform)
            .with_lazy_refine(LazyRefine::Off),
        101,
    );
    for qi in [0usize, 50, 199] {
        let q = &dep.data[qi];
        let (lr, _) = lazy.knn_approx(q, 8, 120).unwrap();
        let (er, _) = eager.knn_approx(q, 8, 120).unwrap();
        assert_eq!(lr, er, "transform + lazy diverged on query {qi}");
    }
}

/// Under permutation routing the wire "bound" is a heuristic penalty, so
/// `Sound` must refuse to early-exit (decrypting everything, results equal
/// eager).
#[test]
fn permutation_strategy_gates_lazy_mode() {
    let dep = build(160, 3, 6, 123, RoutingStrategy::Permutation);
    let mut sound = client(&dep, ClientConfig::permutations(), 124);
    let mut eager = client(
        &dep,
        ClientConfig::permutations().with_lazy_refine(LazyRefine::Off),
        125,
    );
    let q = &dep.data[7];
    let (sr, sc) = sound.knn_approx(q, 5, 80).unwrap();
    let (er, _) = eager.knn_approx(q, 5, 80).unwrap();
    assert_eq!(sr, er, "Sound must fall back to full refinement");
    assert_eq!(
        sc.decrypted, sc.candidates,
        "no early exit without sound bounds"
    );
}

/// A server that mis-orders the candidate set (here: worst bounds first)
/// may cost the lazy client its early exit but never its answer — the
/// suffix-minimum pre-pass re-establishes soundness for any order.
#[test]
fn missorted_candidates_cost_speed_not_correctness() {
    use simcloud_core::protocol::Response;
    use simcloud_core::EncryptedClient;
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    struct Reverser<H>(H);
    impl<H: SharedRequestHandler> SharedRequestHandler for Reverser<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let resp = self.0.handle_shared(request);
            match Response::decode(&resp) {
                // Reverse headers and payloads together: candidates keep
                // their own payloads but arrive worst-bound-first.
                Ok(Response::CandidateList(mut list))
                    if list.payloads.len() == list.headers.len() =>
                {
                    list.headers.reverse();
                    list.payloads.reverse();
                    Response::CandidateList(list).encode()
                }
                _ => resp,
            }
        }
    }

    let data = data_with_ties(200, 3, 31);
    let (key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 32);
    let cfg = MIndexConfig {
        num_pivots: 6,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let make = |lazy: LazyRefine, seed: u64| {
        let server = CloudServer::new(cfg, MemoryStore::new()).unwrap();
        let transport = InProcessTransport::new(Reverser(server));
        let mut c = EncryptedClient::new(
            key.clone(),
            L2,
            transport,
            ClientConfig::distances().with_lazy_refine(lazy),
        )
        .with_rng_seed(seed);
        let objects: Vec<(ObjectId, Vector)> = data
            .iter()
            .enumerate()
            .map(|(i, v)| (ObjectId(i as u64), v.clone()))
            .collect();
        c.insert_bulk(&objects).unwrap();
        c
    };
    let mut lazy = make(LazyRefine::Sound, 33);
    let mut eager = make(LazyRefine::Off, 34);
    for qi in [0usize, 42, 199] {
        let q = &data[qi];
        let (lr, _) = lazy.knn_approx(q, 7, 100).unwrap();
        let (er, _) = eager.knn_approx(q, 7, 100).unwrap();
        assert_eq!(lr, er, "reversed candidate order changed the answer");
    }
}

/// NaN wire bounds must not defeat the suffix-minimum pre-pass:
/// `f64::min` ignores NaN operands, so without sanitization a malicious
/// server could ship NaN bounds, leave the suffix minima at +∞ and trick
/// the client into skipping true neighbors. Non-finite bounds collapse to
/// 0.0 (forced decryption) instead — answers stay identical to eager.
#[test]
fn nan_bounds_force_decryption_not_wrong_answers() {
    use simcloud_core::protocol::Response;
    use simcloud_core::EncryptedClient;
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    struct NanBounds<H>(H);
    impl<H: SharedRequestHandler> SharedRequestHandler for NanBounds<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let resp = self.0.handle_shared(request);
            match Response::decode(&resp) {
                Ok(Response::CandidateList(mut list)) => {
                    for h in &mut list.headers {
                        h.lower_bound = f64::NAN;
                    }
                    Response::CandidateList(list).encode()
                }
                _ => resp,
            }
        }
    }

    let data = data_with_ties(120, 3, 71);
    let (key, _) = SecretKey::generate(&data, 5, &L2, PivotSelection::Random, 72);
    let cfg = MIndexConfig {
        num_pivots: 5,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let server = CloudServer::new(cfg, MemoryStore::new()).unwrap();
    let mut lazy = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(NanBounds(server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(73);
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    lazy.insert_bulk(&objects).unwrap();

    // Honest deployment for the expected answers.
    let honest = CloudServer::new(cfg, MemoryStore::new()).unwrap();
    let mut eager = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(honest),
        ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
    )
    .with_rng_seed(74);
    eager.insert_bulk(&objects).unwrap();
    for qi in [0usize, 30, 119] {
        let q = &data[qi];
        let (lr, lc) = lazy.knn_approx(q, 6, 60).unwrap();
        let (er, _) = eager.knn_approx(q, 6, 60).unwrap();
        assert_eq!(lr, er, "NaN bounds changed the answer for query {qi}");
        assert_eq!(
            lc.decrypted, lc.candidates,
            "NaN bounds must disable the early exit, not trigger it"
        );
        let (lrange, _) = lazy.range(q, 3.0).unwrap();
        let (erange, _) = eager.range(q, 3.0).unwrap();
        assert_eq!(lrange, erange, "NaN bounds broke the range query {qi}");
    }
}

/// Batch queries refine lazily too, one early exit per query.
#[test]
fn batch_lazy_equals_batch_eager() {
    let dep = build(240, 3, 6, 55, RoutingStrategy::Distances);
    let mut lazy = client(&dep, ClientConfig::distances(), 56);
    let mut eager = client(
        &dep,
        ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
        57,
    );
    let queries: Vec<Vector> = (0..12).map(|i| dep.data[i * 17].clone()).collect();
    let (lr, lc) = lazy.knn_approx_batch(&queries, 10, 120).unwrap();
    let (er, ec) = eager.knn_approx_batch(&queries, 10, 120).unwrap();
    let lr: Vec<_> = lr.into_iter().map(|r| r.unwrap()).collect();
    let er: Vec<_> = er.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(lr, er);
    assert!(lc.decrypted < ec.decrypted, "batch path must exit early");
    assert_eq!(ec.decrypted, ec.candidates);
}

/// k = 0 is a degenerate but legal request: the lazy path decrypts nothing.
#[test]
fn zero_k_decrypts_nothing() {
    let dep = build(80, 2, 4, 11, RoutingStrategy::Distances);
    let mut lazy = client(&dep, ClientConfig::distances(), 12);
    let (res, costs) = lazy.knn_approx(&dep.data[0], 0, 40).unwrap();
    assert!(res.is_empty());
    assert_eq!(costs.decrypted, 0, "k = 0 needs no decryption at all");
    assert!(costs.candidates > 0);
}

/// k = 0 against a headers-only server: phase 2 must never fire — the
/// early exit precedes the first fetch decision.
#[test]
fn zero_k_two_phase_fetches_nothing() {
    let dep = build_with(
        80,
        2,
        4,
        11,
        RoutingStrategy::Distances,
        ServerConfig::budgeted(0),
    );
    let mut lazy = client(&dep, ClientConfig::distances(), 12);
    let (res, costs) = lazy.knn_approx(&dep.data[0], 0, 40).unwrap();
    assert!(res.is_empty());
    assert_eq!(costs.decrypted, 0);
    assert_eq!(costs.fetched, 0, "k = 0 must not issue phase-2 fetches");
    assert_eq!(costs.fetch_requests, 0);
    assert!(costs.candidates > 0, "headers still arrive");
}

/// k ≥ candidate count: the lazy two-phase client ends up decrypting (and
/// therefore fetching) every candidate — and the answer still matches
/// eager refinement exactly.
#[test]
fn k_exceeding_candidates_fetches_everything() {
    let dep = build_with(
        60,
        3,
        5,
        21,
        RoutingStrategy::Distances,
        ServerConfig::budgeted(0),
    );
    let full = build(60, 3, 5, 21, RoutingStrategy::Distances);
    let mut lazy = client(&dep, ClientConfig::distances(), 22);
    let mut eager = client(
        &full,
        ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
        23,
    );
    let q = &dep.data[5];
    let (lr, lc) = lazy.knn_approx(q, 100, 40).unwrap();
    let (er, _) = eager.knn_approx(q, 100, 40).unwrap();
    assert_eq!(lr, er);
    assert_eq!(
        lc.fetched, lc.candidates,
        "k >= candidates leaves nothing to skip"
    );
    assert_eq!(lc.decrypted, lc.candidates);
    // α·k = 400 exceeds the candidate count, so one batch covers it all.
    assert_eq!(lc.fetch_requests, 1);
}

/// The phase-1 byte budget that inlines exactly `inline` payloads of
/// `payload_len` bytes ahead of `candidates` headers. The encoded list is a
/// tag byte, a `u32` header count, 16 bytes per header, a `u32` payload
/// count, then a `u32` length plus the bytes of each inlined payload.
fn budget_inlining(candidates: u64, payload_len: usize, inline: u64) -> usize {
    let (candidates, inline) = (candidates as usize, inline as usize);
    1 + 4 + 16 * candidates + 4 + inline * (4 + payload_len)
}

/// The inline budget puts the phase-1/phase-2 boundary at *every*
/// candidate position from the first up to one past the early exit,
/// exactly at the exit included — answers must still match eager
/// refinement, the exit must fire at the same candidate, and phase 2 must
/// run exactly when the exit lies past the inlined prefix.
#[test]
fn batch_boundary_at_early_exit_is_exact() {
    let full = build(200, 3, 6, 77, RoutingStrategy::Distances);
    let payload_len = {
        let objects = full.server.index().all_entries().unwrap();
        let len = objects[0].1.len();
        assert!(objects.iter().all(|(_, payload)| payload.len() == len));
        len
    };
    let mut eager = client(
        &full,
        ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
        79,
    );
    let mut lazy_full = client(&full, ClientConfig::distances(), 80);
    let cases = [(0usize, 1usize), (50, 3), (120, 10), (199, 7)].map(|(qi, k)| {
        let q = &full.data[qi];
        let (er, _) = eager.knn_approx(q, k, 100).unwrap();
        let (flr, flc) = lazy_full.knn_approx(q, k, 100).unwrap();
        assert_eq!(flr, er, "query {qi} diverged");
        assert_eq!(flc.candidates, 100);
        (qi, k, er, flc.decrypted)
    });
    let deepest = cases.iter().map(|c| c.3).max().unwrap();
    for inline in 0..=deepest + 1 {
        let dep = build_with(
            200,
            3,
            6,
            77,
            RoutingStrategy::Distances,
            ServerConfig::budgeted(budget_inlining(100, payload_len, inline)),
        );
        let mut lazy = client(&dep, ClientConfig::distances(), 78);
        for (qi, k, er, exit) in &cases {
            if inline > exit + 1 {
                continue;
            }
            let (lr, lc) = lazy.knn_approx(&dep.data[*qi], *k, 100).unwrap();
            assert_eq!(&lr, er, "query {qi} diverged at inline {inline}");
            assert_eq!(
                lc.decrypted, *exit,
                "the early exit must fire at the same candidate whether the \
                 payloads were inlined or fetched"
            );
            assert!(lc.fetched + inline >= lc.decrypted);
            assert!(
                lc.fetched < lc.candidates,
                "two-phase must not ship the whole set for a member query"
            );
            assert_eq!(
                lc.fetch_requests > 0,
                inline < *exit,
                "query {qi}, inline {inline}: phase 2 runs iff the exit lies \
                 past the inlined prefix"
            );
        }
    }
}

/// Lazy-vs-lazy across budgets: the early exit decrypts the *same*
/// candidates whether payloads came inlined or fetched — the exit decision
/// never looks at payload availability. And phase 2 pays for itself on
/// the wire: whenever it runs, the response bytes undercut the one-phase
/// (fully inlined) answer, because only the payloads refinement asks for
/// ever ship.
#[test]
fn decrypted_count_is_budget_invariant() {
    let full = build(160, 3, 6, 91, RoutingStrategy::Distances);
    let budgets = [0usize, 300, 1500, 6000];
    let mut runs = Vec::new();
    for &b in &budgets {
        let dep = build_with(
            160,
            3,
            6,
            91,
            RoutingStrategy::Distances,
            ServerConfig::budgeted(b),
        );
        let mut c = client(&dep, ClientConfig::distances(), 92);
        let (res, costs) = c.knn_approx(&dep.data[33], 8, 80).unwrap();
        runs.push((b, res, costs));
    }
    let mut reference = client(&full, ClientConfig::distances(), 93);
    let (ref_res, ref_costs) = reference.knn_approx(&full.data[33], 8, 80).unwrap();
    for (budget, res, costs) in runs {
        assert_eq!(res, ref_res);
        assert_eq!(costs.decrypted, ref_costs.decrypted);
        if budget == 0 {
            assert!(costs.fetched > 0, "a budget-0 server must run phase 2");
        }
        if costs.fetched > 0 {
            assert!(
                costs.bytes_received < ref_costs.bytes_received,
                "budget {budget}: the two-phase wire ({} B, {} fetched) must \
                 undercut the one-phase wire ({} B)",
                costs.bytes_received,
                costs.fetched,
                ref_costs.bytes_received
            );
        }
    }
}

/// Malicious phase-2 answers must abort the query, never corrupt it:
/// payload swaps behind correct ids trip the id-bound MAC; duplicated,
/// never-requested, dropped or reordered ids trip the mirror check.
#[test]
fn malicious_fetch_answers_are_detected() {
    use simcloud_core::protocol::Response;
    use simcloud_core::{ClientError, EncryptedClient};
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    /// What the wrapper does to a phase-2 `Objects` answer.
    #[derive(Clone, Copy)]
    enum Attack {
        SwapPayloads,
        DuplicateFirst,
        UnrequestedId,
        DropLast,
    }

    struct Tamperer<H> {
        inner: H,
        attack: Attack,
    }
    impl<H: SharedRequestHandler> SharedRequestHandler for Tamperer<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let resp = self.inner.handle_shared(request);
            match Response::decode(&resp) {
                Ok(Response::Objects(mut objs)) if objs.len() >= 2 => {
                    match self.attack {
                        Attack::SwapPayloads => {
                            // ids keep their requested order; contents swap.
                            let p0 = objs[0].payload.clone();
                            objs[0].payload = objs[1].payload.clone();
                            objs[1].payload = p0;
                        }
                        Attack::DuplicateFirst => objs[1] = objs[0].clone(),
                        Attack::UnrequestedId => objs[0].id = u64::MAX - 7,
                        Attack::DropLast => {
                            objs.pop();
                        }
                    }
                    Response::Objects(objs).encode()
                }
                _ => resp,
            }
        }
    }

    let data = data_with_ties(150, 3, 61);
    let (key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 62);
    let cfg = MIndexConfig {
        num_pivots: 6,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    let run = |attack: Attack| {
        // Headers-only responses force refinement through phase 2.
        let server =
            CloudServer::with_config(cfg, ServerConfig::budgeted(0), MemoryStore::new()).unwrap();
        let mut client = EncryptedClient::new(
            key.clone(),
            L2,
            InProcessTransport::new(Tamperer {
                inner: server,
                attack,
            }),
            ClientConfig::distances(),
        )
        .with_rng_seed(63);
        client.insert_bulk(&objects).unwrap();
        client.knn_approx(&data[9], 5, 80).unwrap_err()
    };

    match run(Attack::SwapPayloads) {
        ClientError::Seal(_) => {}
        other => panic!("payload swap must fail the id-bound MAC, got {other}"),
    }
    match run(Attack::DuplicateFirst) {
        ClientError::FetchMismatch(m) => assert!(m.contains("requested"), "{m}"),
        other => panic!("duplicate id must be a fetch mismatch, got {other}"),
    }
    match run(Attack::UnrequestedId) {
        ClientError::FetchMismatch(m) => assert!(m.contains("requested"), "{m}"),
        other => panic!("unrequested id must be a fetch mismatch, got {other}"),
    }
    match run(Attack::DropLast) {
        ClientError::FetchMismatch(m) => assert!(m.contains("objects for"), "{m}"),
        other => panic!("short answer must be a fetch mismatch, got {other}"),
    }
}

/// A per-query error injected into a batched response stays in its slot:
/// the sibling queries' answers survive and match the sequential API.
#[test]
fn batch_per_query_error_spares_siblings() {
    use simcloud_core::protocol::Response;
    use simcloud_core::{ClientError, EncryptedClient};
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    struct FailSecond<H>(H);
    impl<H: SharedRequestHandler> SharedRequestHandler for FailSecond<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let resp = self.0.handle_shared(request);
            match Response::decode(&resp) {
                Ok(Response::CandidateSets(mut sets)) if sets.len() >= 2 => {
                    sets[1] = Err("injected storage failure".into());
                    Response::CandidateSets(sets).encode()
                }
                _ => resp,
            }
        }
    }

    let data = data_with_ties(120, 3, 41);
    let (key, _) = SecretKey::generate(&data, 5, &L2, PivotSelection::Random, 42);
    let cfg = MIndexConfig {
        num_pivots: 5,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let server = CloudServer::new(cfg, MemoryStore::new()).unwrap();
    let mut client = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(FailSecond(server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(43);
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    client.insert_bulk(&objects).unwrap();

    let queries: Vec<Vector> = vec![data[0].clone(), data[10].clone(), data[20].clone()];
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| client.knn_approx(q, 5, 40).unwrap().0)
        .collect();
    let (batched, _) = client.knn_approx_batch(&queries, 5, 40).unwrap();
    assert_eq!(batched.len(), 3);
    assert_eq!(batched[0].as_ref().unwrap(), &sequential[0]);
    match batched[1].as_ref().unwrap_err() {
        ClientError::Server(m) => assert!(m.contains("injected"), "{m}"),
        other => panic!("wrong error kind: {other}"),
    }
    assert_eq!(batched[2].as_ref().unwrap(), &sequential[2]);
}

/// Batched queries against a budgeted server go two-phase per query and
/// still match the fully-inlined eager batch exactly.
#[test]
fn batch_two_phase_equals_eager() {
    let dep = build_with(
        240,
        3,
        6,
        55,
        RoutingStrategy::Distances,
        ServerConfig::budgeted(2_000),
    );
    let full = build(240, 3, 6, 55, RoutingStrategy::Distances);
    let mut lazy = client(&dep, ClientConfig::distances(), 56);
    let mut eager = client(
        &full,
        ClientConfig::distances().with_lazy_refine(LazyRefine::Off),
        57,
    );
    let queries: Vec<Vector> = (0..12).map(|i| dep.data[i * 17].clone()).collect();
    let (lr, lc) = lazy.knn_approx_batch(&queries, 10, 120).unwrap();
    let (er, _) = eager.knn_approx_batch(&queries, 10, 120).unwrap();
    let lr: Vec<_> = lr.into_iter().map(|r| r.unwrap()).collect();
    let er: Vec<_> = er.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(lr, er);
    assert!(
        lc.fetched < lc.candidates,
        "phase 2 must not re-ship the whole batch"
    );
}

/// Coalesced phase 2: a batch's stalled queries share one `FetchObjects`
/// round trip per refinement round, so the batch's `fetch_requests` drops
/// far below the sum of solo runs — while `fetched`/`decrypted` stay
/// exactly the solo sums (the per-query decision sequences are unchanged).
/// In 5 dimensions most exits lie past the first `α·k` fetch, so the batch
/// runs more than one round and tasks leave it between rounds.
#[test]
fn batch_coalesces_fetch_round_trips() {
    let dep = build_with(
        240,
        5,
        6,
        55,
        RoutingStrategy::Distances,
        // Inline nothing: every query must go through real phase-2 fetches.
        ServerConfig::budgeted(0),
    );
    let queries: Vec<Vector> = (0..12).map(|i| dep.data[i * 17].clone()).collect();
    let cfg = ClientConfig::distances();
    let mut batch = client(&dep, cfg.clone(), 56);
    let (br, bc) = batch.knn_approx_batch(&queries, 10, 120).unwrap();
    let mut solo = client(&dep, cfg, 57);
    let mut solo_costs = simcloud_core::CostReport::default();
    let mut sr = Vec::new();
    for q in &queries {
        let (r, c) = solo.knn_approx(q, 10, 120).unwrap();
        sr.push(r);
        solo_costs.merge(&c);
    }
    let br: Vec<_> = br.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(br, sr, "coalescing must not change any answer");
    assert_eq!(bc.fetched, solo_costs.fetched, "same ids fetched");
    assert_eq!(bc.decrypted, solo_costs.decrypted, "same decryption work");
    assert!(
        solo_costs.fetch_requests >= queries.len() as u64,
        "every solo query on a zero-budget server fetches at least once"
    );
    assert!(
        bc.fetch_requests < solo_costs.fetch_requests,
        "batch rounds ({}) must undercut the solo round trips ({})",
        bc.fetch_requests,
        solo_costs.fetch_requests
    );
    assert!(bc.fetch_requests >= 2, "the batch must run several rounds");
}

/// The default phase-2 schedule on fixed headers-only queries: the first
/// fetch asks for `α·k = 40` candidates while the top-k heap fills, and a
/// second, bound-guided fetch ends exactly where the exit then fires. The
/// round-trip and object counts are the baseline a feedback-sized inline
/// prefix is measured against.
#[test]
fn default_fetch_schedule_is_pinned() {
    let dep = build_with(
        240,
        5,
        6,
        55,
        RoutingStrategy::Distances,
        ServerConfig::budgeted(0),
    );
    let mut lazy = client(&dep, ClientConfig::distances(), 57);
    // (query, fetch round trips, objects fetched, objects decrypted)
    for (qi, requests, fetched, decrypted) in [(0usize, 1, 40, 10), (34, 2, 86, 86)] {
        let (_, costs) = lazy.knn_approx(&dep.data[qi], 10, 120).unwrap();
        assert_eq!(costs.candidates, 120);
        assert_eq!(costs.fetch_requests, requests, "query {qi}");
        assert_eq!(costs.fetched, fetched, "query {qi}");
        assert_eq!(costs.decrypted, decrypted, "query {qi}");
    }
}
