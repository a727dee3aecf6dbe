//! The direct frame writer against the owned pipeline it replaced.
//!
//! A server's byte handler writes a search answer from the candidate
//! cursors' arenas straight into the response frame. The owned functions
//! — `collect_up_to` / `drain`, `stage_candidates`, `Response::encode` —
//! are thin adapters over the same selection, so for any index content,
//! inline budget and cap the two must agree **byte for byte**: this is
//! what keeps every response frame identical to the pre-arena wire.
//! Checked on a single server and on a 4-shard one, for k-NN, batched
//! k-NN and range answers, both as bytes and as the decoded answer.
//!
//! The degenerate case closes the loop: a **1-shard** sharded server and
//! the single server run the same request engine over two `SearchIndex`
//! impls, so over the same inserts every frame — at any `cand_size`, not
//! only collection-covering ones — and the search totals after every
//! request (hence every request's stats delta) must be equal.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{KnnQuery, Request, Response, MAX_CANDIDATE_HEADERS};
use simcloud_core::{evaluator_for, stage_candidates, CloudServer, SearchIndex, ServerConfig};
use simcloud_mindex::{knn_cap, IndexEntry, MIndexConfig, Routing, RoutingStrategy};
use simcloud_shard::{memory_stores, HashRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::SharedRequestHandler;

/// `request`'s answer, through the byte path every server answers on.
fn ask(server: &impl SharedRequestHandler, request: Request) -> Response {
    Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
}

const PIVOTS: usize = 4;

fn config() -> MIndexConfig {
    MIndexConfig {
        num_pivots: PIVOTS,
        max_level: 2,
        bucket_capacity: 8,
        strategy: RoutingStrategy::Distances,
    }
}

fn distances(rng: &mut StdRng) -> Vec<f64> {
    (0..PIVOTS).map(|_| rng.gen_range(0.0..10.0)).collect()
}

/// Random entries with payloads of every small size, empty included, so
/// the budget rule's "stop at the first overflow" is hit mid-list.
fn entries(n: usize, seed: u64) -> Vec<IndexEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n as u64)
        .map(|id| {
            let len = rng.gen_range(0..40);
            let payload = (0..len).map(|_| rng.gen()).collect();
            IndexEntry::new(id, Routing::from_distances(&distances(&mut rng)), payload)
        })
        .collect()
}

/// The budgets of the issue: none, zero, one that cuts the list somewhere
/// in the middle, and one nothing reaches.
fn budget(choice: usize, n: usize) -> Option<usize> {
    match choice % 4 {
        0 => None,
        1 => Some(0),
        2 => Some(9 + 16 * n + 12 * n),
        _ => Some(usize::MAX / 2),
    }
}

struct Deployments {
    single: CloudServer<MemoryStore>,
    sharded: ShardedCloudServer<MemoryStore>,
    budget: Option<usize>,
}

fn deploy(n: usize, seed: u64, budget: Option<usize>) -> Deployments {
    let server_config = ServerConfig {
        max_inline_response_bytes: budget,
    };
    let single = CloudServer::with_config(config(), server_config, MemoryStore::new()).unwrap();
    let sharded = ShardedCloudServer::with_config(
        config(),
        server_config,
        Box::new(HashRouter),
        memory_stores(4),
    )
    .unwrap();
    let insert = Request::Insert(entries(n, seed));
    assert_eq!(ask(&single, insert.clone()), Response::Inserted(n as u32));
    assert_eq!(ask(&sharded, insert), Response::Inserted(n as u32));
    Deployments {
        single,
        sharded,
        budget,
    }
}

impl Deployments {
    /// The owned pipeline's k-NN answers, single and sharded.
    fn owned_knn(&self, routing: &Routing, cand_size: usize) -> [Response; 2] {
        let evaluator = evaluator_for(routing.clone());
        let (single, _) = self
            .single
            .index()
            .knn_cursor(&evaluator, cand_size)
            .unwrap()
            .collect_up_to(knn_cap(cand_size))
            .unwrap();
        let (cursors, cap) = self
            .sharded
            .index()
            .open_knn_cursors(&evaluator, cand_size)
            .unwrap();
        let (sharded, _) = self.sharded.index().drain(cursors, cap).unwrap();
        [single, sharded]
            .map(|ranked| Response::CandidateList(stage_candidates(ranked, self.budget)))
    }

    /// What the byte handlers (the direct frame writer) answer to
    /// `request`, as bytes and decoded, against the owned pipeline's
    /// `expected`.
    fn assert_frames(
        &self,
        request: &Request,
        expected: &[Response; 2],
    ) -> Result<(), TestCaseError> {
        let wire = request.encode();
        let frames = [
            self.single.handle_shared(&wire),
            self.sharded.handle_shared(&wire),
        ];
        for (frame, expected) in frames.iter().zip(expected) {
            prop_assert_eq!(frame, &expected.encode());
            prop_assert_eq!(&Response::decode(frame).unwrap(), expected);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn knn_frames_equal_the_owned_pipeline(
        n in 0usize..120,
        seed in 0u64..10_000,
        budget_choice in 0usize..4,
        // 0 = FIRST_CELL_ONLY (uncapped first cell); beyond `n` = everything.
        cand_size in 0usize..160,
    ) {
        let d = deploy(n, seed, budget(budget_choice, n.min(cand_size)));
        let routing = Routing::from_distances(&distances(&mut StdRng::seed_from_u64(seed ^ 7)));
        let expected = d.owned_knn(&routing, cand_size);
        let request = Request::ApproxKnn { routing, cand_size: cand_size as u32 };
        d.assert_frames(&request, &expected)?;
    }

    #[test]
    fn batch_frames_equal_the_owned_pipeline(
        n in 1usize..80,
        seed in 0u64..10_000,
        budget_choice in 0usize..4,
        cand_sizes in proptest::collection::vec(0usize..100, 0..4),
    ) {
        let d = deploy(n, seed, budget(budget_choice, n / 2));
        let mut rng = StdRng::seed_from_u64(seed ^ 9);
        let mut queries = Vec::new();
        let mut slots: [Vec<Result<_, String>>; 2] = [Vec::new(), Vec::new()];
        for cand_size in cand_sizes {
            let routing = Routing::from_distances(&distances(&mut rng));
            for (slot, answer) in slots.iter_mut().zip(d.owned_knn(&routing, cand_size)) {
                let Response::CandidateList(list) = answer else { unreachable!() };
                slot.push(Ok(list));
            }
            queries.push(KnnQuery { routing, cand_size: cand_size as u32 });
        }
        // A failing slot rides along: its message is framed, its
        // siblings' lists still are.
        queries.push(KnnQuery { routing: Routing::from_distances(&[1.0]), cand_size: 3 });
        let refused = ask(&d.single, Request::ApproxKnn {
            routing: Routing::from_distances(&[1.0]),
            cand_size: 3,
        });
        let Response::Error(message) = refused else { unreachable!() };
        for slot in &mut slots {
            slot.push(Err(message.clone()));
        }
        d.assert_frames(&Request::BatchKnn(queries), &slots.map(Response::CandidateSets))?;
    }

    #[test]
    fn range_frames_equal_the_owned_pipeline(
        n in 0usize..120,
        seed in 0u64..10_000,
        budget_choice in 0usize..4,
        radius in 0.0f64..12.0,
    ) {
        let d = deploy(n, seed, budget(budget_choice, n / 3));
        let query = distances(&mut StdRng::seed_from_u64(seed ^ 11));
        let (single, _) = d
            .single
            .index()
            .range_cursor(&query, radius)
            .unwrap()
            .collect_up_to(None)
            .unwrap();
        let sharded_index = d.sharded.index();
        let opened = sharded_index.open_range(&query, radius).unwrap();
        let (sharded, _) = sharded_index.drain(opened, None).unwrap();
        let expected = [single, sharded]
            .map(|ranked| Response::CandidateList(stage_candidates(ranked, d.budget)));
        d.assert_frames(&Request::Range { distances: query, radius }, &expected)?;
    }

    #[test]
    fn one_shard_frames_equal_the_single_server(
        n in 0usize..120,
        seed in 0u64..10_000,
        cand_size in 0usize..160,
        radius in 0.0f64..12.0,
    ) {
        for budget_choice in 0..4 {
            one_shard_case(n, seed, budget(budget_choice, n.min(cand_size)), cand_size, radius)?;
        }
    }
}

/// One 1-shard-vs-single comparison under one inline budget.
fn one_shard_case(
    n: usize,
    seed: u64,
    budget: Option<usize>,
    cand_size: usize,
    radius: f64,
) -> Result<(), TestCaseError> {
    let server_config = ServerConfig {
        max_inline_response_bytes: budget,
    };
    let single = CloudServer::with_config(config(), server_config, MemoryStore::new()).unwrap();
    let sharded = ShardedCloudServer::with_config(
        config(),
        server_config,
        Box::new(HashRouter),
        memory_stores(1),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed ^ 13);
    let knn = |rng: &mut StdRng, cand_size: u32| KnnQuery {
        routing: Routing::from_distances(&distances(rng)),
        cand_size,
    };
    let solo = knn(&mut rng, cand_size as u32);
    let requests = [
        Request::Insert(entries(n, seed)),
        // A duplicate id: both indexes store the same prefix and
        // report the same error.
        Request::Insert(vec![entries(1, seed ^ 1).remove(0); 2]),
        Request::ApproxKnn {
            routing: solo.routing,
            cand_size: solo.cand_size,
        },
        Request::BatchKnn(vec![
            knn(&mut rng, cand_size as u32),
            KnnQuery {
                routing: Routing::from_distances(&[1.0]),
                cand_size: 3,
            },
            knn(&mut rng, u32::try_from(MAX_CANDIDATE_HEADERS + 1).unwrap()),
            knn(&mut rng, (cand_size / 2) as u32),
        ]),
        Request::Range {
            distances: distances(&mut rng),
            radius,
        },
        Request::FetchObjects {
            ids: (0..n as u64).rev().step_by(3).chain([0]).collect(),
        },
        Request::FetchObjects {
            ids: vec![0, n as u64 + 7],
        },
        Request::Info,
        Request::ExportAll,
    ];
    for request in &requests {
        let wire = request.encode();
        prop_assert_eq!(single.handle_shared(&wire), sharded.handle_shared(&wire));
        // Equal totals after every request: equal per-request deltas.
        prop_assert_eq!(single.total_search_stats(), sharded.total_search_stats());
    }
    // Health carries the server's uptime; everything else in the frame
    // is equal.
    let health = |frame: Vec<u8>| match Response::decode(&frame) {
        Ok(Response::Health {
            status,
            protocol,
            entries,
            shards,
            ..
        }) => (status, protocol, entries, shards),
        other => panic!("expected Health, got {other:?}"),
    };
    let wire = Request::Health.encode();
    prop_assert_eq!(
        health(single.handle_shared(&wire)),
        health(sharded.handle_shared(&wire))
    );
    Ok(())
}
