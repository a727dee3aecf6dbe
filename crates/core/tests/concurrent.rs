//! Concurrent serving mode: one shared `CloudServer` hammered by parallel
//! query threads while an insert thread runs, plus the protocol-correctness
//! regressions that the shared-read refactor fixed on the way (boundary
//! range distances on the wire, partial-insert reporting, NaN-poisoned
//! candidates).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{KnnQuery, Request, Response};
use simcloud_core::{ClientConfig, ClientError, CloudServer, EncryptedClient, SecretKey};
use simcloud_metric::{Metric, ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{IndexEntry, MIndexConfig, Routing, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::{InProcessTransport, SharedRequestHandler, Transport};

/// `request`'s answer, through the byte path every server answers on.
fn ask(server: &impl SharedRequestHandler, request: Request) -> Response {
    Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
}

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| rng.gen_range(-8.0..8.0)).collect()))
        .collect()
}

fn config(pivots: usize) -> MIndexConfig {
    MIndexConfig {
        num_pivots: pivots,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    }
}

fn objects(data: &[Vector]) -> Vec<(ObjectId, Vector)> {
    data.iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect()
}

/// N query threads hammer `ApproxKnn` against one shared server while an
/// insert thread keeps adding entries. Every response must decode, and the
/// server's accumulated stats must equal the per-thread sums exactly.
#[test]
fn concurrent_queries_with_live_inserts() {
    const THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 50;

    let server = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: 4,
                max_level: 2,
                bucket_capacity: 8,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );

    // Seed the index at the raw protocol level (the server is routing-only:
    // no key material needed to exercise concurrency).
    let entry = |id: u64, ds: [f64; 4]| IndexEntry::new(id, Routing::from_distances(&ds), vec![7]);
    let mut rng = StdRng::seed_from_u64(99);
    let mut rand_ds = move || {
        let mut ds = [0.0f64; 4];
        for d in &mut ds {
            *d = rng.gen_range(0.1..9.9);
        }
        ds
    };
    let mut seed_entries = Vec::new();
    for id in 0..200u64 {
        seed_entries.push(entry(id, rand_ds()));
    }
    match Response::decode(&server.handle_shared(&Request::Insert(seed_entries).encode())).unwrap()
    {
        Response::Inserted(200) => {}
        other => panic!("seed insert failed: {other:?}"),
    }

    let per_thread_candidates: Vec<u64> = std::thread::scope(|scope| {
        // Writer: keeps inserting while queries run.
        let writer = {
            let server = Arc::clone(&server);
            let mut rand_ds = {
                let mut rng = StdRng::seed_from_u64(7331);
                move || {
                    let mut ds = [0.0f64; 4];
                    for d in &mut ds {
                        *d = rng.gen_range(0.1..9.9);
                    }
                    ds
                }
            };
            scope.spawn(move || {
                for id in 1000..1200u64 {
                    let req = Request::Insert(vec![entry(id, rand_ds())]).encode();
                    match Response::decode(&server.handle_shared(&req)).unwrap() {
                        Response::Inserted(1) => {}
                        other => panic!("live insert failed: {other:?}"),
                    }
                }
            })
        };
        let readers: Vec<_> = (0..THREADS)
            .map(|t| {
                let server = Arc::clone(&server);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    let mut sum = 0u64;
                    for _ in 0..QUERIES_PER_THREAD {
                        let mut ds = [0.0f64; 4];
                        for d in &mut ds {
                            *d = rng.gen_range(0.1..9.9);
                        }
                        let req = Request::ApproxKnn {
                            routing: Routing::from_distances(&ds),
                            cand_size: 10,
                        }
                        .encode();
                        match Response::decode(&server.handle_shared(&req)).unwrap() {
                            Response::CandidateList(list) => {
                                assert!(!list.headers.is_empty(), "index is non-empty");
                                sum += list.headers.len() as u64;
                            }
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                    sum
                })
            })
            .collect();
        writer.join().unwrap();
        readers.into_iter().map(|r| r.join().unwrap()).collect()
    });

    let total: u64 = per_thread_candidates.iter().sum();
    assert_eq!(
        server.total_search_stats().candidates,
        total,
        "atomic stats must equal the per-thread candidate sum"
    );
    // All writer inserts landed alongside the reads.
    match Response::decode(&server.handle_shared(&Request::Info.encode())).unwrap() {
        Response::Info { entries, .. } => assert_eq!(entries, 200 + 200),
        other => panic!("unexpected {other:?}"),
    }
}

/// Concurrent *encrypted clients* (each thread owns a client + key clone)
/// against one shared server produce exactly the same answers as a single
/// client asking sequentially.
#[test]
fn shared_server_answers_match_single_client() {
    let data = random_data(300, 4, 5);
    let (key, _) = SecretKey::generate(&data, 8, &L2, PivotSelection::Random, 6);
    let server = Arc::new(CloudServer::new(config(8), MemoryStore::new()).unwrap());

    let mut owner = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(7);
    owner.insert_bulk(&objects(&data)).unwrap();

    // Sequential reference answers.
    let reference: Vec<Vec<(ObjectId, f64)>> = (0..20)
        .map(|qi| owner.knn_approx(&data[qi * 13], 10, 60).unwrap().0)
        .collect();

    let answers: Vec<Vec<Vec<(ObjectId, f64)>>> = std::thread::scope(|scope| {
        (0..4)
            .map(|_| {
                let server = Arc::clone(&server);
                let key = key.clone();
                scope.spawn({
                    let data = &data;
                    move || {
                        let mut client = EncryptedClient::new(
                            key,
                            L2,
                            InProcessTransport::new(server),
                            ClientConfig::distances(),
                        )
                        .with_rng_seed(8);
                        (0..20)
                            .map(|qi| client.knn_approx(&data[qi * 13], 10, 60).unwrap().0)
                            .collect::<Vec<_>>()
                    }
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for per_thread in &answers {
        assert_eq!(per_thread, &reference);
    }
}

/// The batch API is one round trip and returns exactly the per-query
/// results of the sequential API.
#[test]
fn batch_knn_matches_sequential_in_one_round_trip() {
    let data = random_data(250, 4, 15);
    let (key, _) = SecretKey::generate(&data, 8, &L2, PivotSelection::Random, 16);
    let server = Arc::new(CloudServer::new(config(8), MemoryStore::new()).unwrap());
    let mut client = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(17);
    client.insert_bulk(&objects(&data)).unwrap();

    let queries: Vec<Vector> = (0..16).map(|i| data[i * 11].clone()).collect();
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| client.knn_approx(q, 5, 50).unwrap().0)
        .collect();

    let requests_before = client.transport().stats().requests;
    let search_before = server.total_search_stats();
    let (batched, costs) = client.knn_approx_batch(&queries, 5, 50).unwrap();
    assert_eq!(
        client.transport().stats().requests,
        requests_before + 1,
        "a batch is ONE round trip"
    );
    let batched: Vec<_> = batched
        .into_iter()
        .map(|r| r.expect("per-query result"))
        .collect();
    assert_eq!(batched, sequential);
    assert_eq!(costs.candidates, 16 * 50);

    // Server-side: the batch's search volume, as a delta of the totals.
    assert_eq!(
        server.total_search_stats().since(&search_before).candidates,
        16 * 50
    );

    // Empty batch is legal and cheap.
    let (empty, _) = client.knn_approx_batch(&[], 5, 50).unwrap();
    assert!(empty.is_empty());
}

/// Regression (f32 wire): an object at distance *exactly* `radius` must be
/// returned. The crafted query puts a cell boundary where f32-rounded wire
/// distances flip the hyperplane pruning decision: `d(q,p0) = 0.7` rounds
/// *down* in f32, `d(q,p1) = 1 − 1e-9` rounds *up* to 1.0, so the old wire
/// pruned the cell holding the boundary object; full f64 keeps it.
#[test]
fn range_boundary_object_survives_wire_precision() {
    let server = CloudServer::new(
        MIndexConfig {
            num_pivots: 2,
            max_level: 1,
            bucket_capacity: 64,
            strategy: RoutingStrategy::Distances,
        },
        MemoryStore::new(),
    )
    .unwrap();
    // Object in pivot-1's cell, pivot distances within radius+slack of the
    // query's (the server-side filter must keep it).
    let boundary = IndexEntry::new(42, Routing::Distances(vec![0.85, 0.849_99]), vec![1]);
    match ask(&server, Request::Insert(vec![boundary])) {
        Response::Inserted(1) => {}
        other => panic!("unexpected {other:?}"),
    }
    let resp = ask(
        &server,
        Request::Range {
            distances: vec![0.7, 1.0 - 1e-9],
            radius: 0.15,
        },
    );
    match resp {
        Response::CandidateList(list) => {
            assert_eq!(
                list.headers.iter().map(|h| h.id).collect::<Vec<_>>(),
                vec![42],
                "boundary object pruned — wire precision regression"
            );
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// End-to-end boundary guarantee: querying with radius exactly equal to a
/// true distance returns that object, including at magnitudes where f32
/// rounding error exceeds any fixed slack.
#[test]
fn range_radius_exactly_at_object_distance() {
    let data: Vec<Vector> = random_data(200, 3, 23)
        .into_iter()
        .map(|v| Vector::new(v.as_slice().iter().map(|c| c * 1.0e5).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 24);
    let server = Arc::new(CloudServer::new(config(6), MemoryStore::new()).unwrap());
    let mut client = EncryptedClient::new(
        key,
        L2,
        InProcessTransport::new(server),
        ClientConfig::distances(),
    )
    .with_rng_seed(25);
    client.insert_bulk(&objects(&data)).unwrap();

    for (qi, oi) in [(0usize, 77usize), (10, 150), (33, 34), (50, 50)] {
        let q = &data[qi];
        let radius = Metric::<Vector>::distance(&L2, q, &data[oi]);
        let (res, _) = client.range(q, radius).unwrap();
        assert!(
            res.iter().any(|(id, _)| *id == ObjectId(oi as u64)),
            "object {oi} at distance exactly {radius} missing from R(q{qi}, {radius})"
        );
    }
}

/// A correctly-sealed payload that decodes to a NaN vector (a buggy or
/// malicious *authorized* writer) must never panic the refinement sort.
/// Since the decrypt-on-demand refactor it must not abort the query either:
/// the bad candidate is skipped and recorded in the `CostReport`, and the
/// query only fails when the answer itself is short of `k`.
#[test]
fn nan_distance_candidate_rejected_not_panicking() {
    let clean = random_data(64, 2, 31);
    let (key, _) = SecretKey::generate(&clean, 2, &L2, PivotSelection::Random, 32);
    let server = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: 2,
                max_level: 1,
                bucket_capacity: 16,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );
    // Plant an entry with honest routing but a NaN payload, sealed under
    // the real key so it authenticates and decrypts cleanly.
    let poison = Vector::new(vec![f32::NAN, 0.0]);
    let mut plain = Vec::new();
    poison.encode(&mut plain);
    let mut rng = StdRng::seed_from_u64(3333);
    // Sealed exactly as an authorized writer would: MAC-bound to its id.
    let sealed = key
        .cipher()
        .seal_with_aad(&plain, &1u64.to_le_bytes(), key.mode(), &mut rng);
    let routing = Routing::from_distances(&key.pivot_distances(&L2, &clean[1]));
    match ask(
        &server,
        Request::Insert(vec![IndexEntry::new(1, routing, sealed)]),
    ) {
        Response::Inserted(1) => {}
        other => panic!("unexpected {other:?}"),
    }

    let mut client = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(33);
    let mut good: Vec<(ObjectId, Vector)> = objects(&clean);
    good.remove(1); // id 1 is the poisoned entry
    client.insert_bulk(&good).unwrap();

    // Plenty of good candidates: the poisoned entry is skipped, recorded,
    // and the k good neighbors survive instead of being thrown away.
    match client.knn_approx(&clean[1], 3, 64) {
        Ok((res, costs)) => {
            assert_eq!(res.len(), 3);
            assert!(
                res.iter().all(|(id, _)| *id != ObjectId(1)),
                "poisoned candidate must not appear in the answer: {res:?}"
            );
            assert_eq!(costs.bad_candidates, 1, "the skip must be accounted");
        }
        Err(e) => panic!("one bad candidate must not abort the query: {e}"),
    }

    // But when the damage is visible — more neighbors requested than good
    // candidates exist — the query must fail loudly, not return quietly
    // short.
    match client.knn_approx(&clean[1], 64, 64) {
        Err(ClientError::BadObject(id)) => assert_eq!(id, 1),
        Ok((res, _)) => panic!("short answer ({} of 64) must error", res.len()),
        Err(other) => panic!("wrong error: {other}"),
    }
}

/// Partial insert failures surface the stored-prefix count end to end.
#[test]
fn partial_insert_error_reaches_client() {
    let server = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: 3,
                max_level: 2,
                bucket_capacity: 8,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );
    // Protocol level: 2 good entries, then one with mismatched dimensions.
    let good = |id: u64| IndexEntry::new(id, Routing::from_distances(&[0.1, 0.2, 0.3]), vec![0]);
    let bad = IndexEntry::new(9, Routing::from_distances(&[0.1, 0.2]), vec![0]);
    let resp = ask(
        &server,
        Request::Insert(vec![good(1), good(2), bad, good(3)]),
    );
    match resp {
        Response::InsertError { inserted, .. } => assert_eq!(inserted, 2),
        other => panic!("unexpected {other:?}"),
    }

    // Client level: the typed error carries the count. This client's key
    // disagrees with the server's pivot count, so the server rejects the
    // first entry — the error must say 0 landed.
    let data = random_data(8, 3, 41);
    let mismatched = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: 4,
                max_level: 2,
                bucket_capacity: 8,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );
    let mut wrong = EncryptedClient::new(
        SecretKey::generate(&data, 3, &L2, PivotSelection::Random, 44).0,
        L2,
        InProcessTransport::new(mismatched),
        ClientConfig::distances(),
    )
    .with_rng_seed(45);
    let err = wrong
        .insert_bulk(&objects(&data))
        .expect_err("3-pivot routing against a 4-pivot index must fail");
    match err {
        ClientError::PartialInsert { inserted, message } => {
            assert_eq!(inserted, 0);
            assert!(message.contains("pivot distances"), "{message}");
        }
        other => panic!("wrong error: {other}"),
    }
}

/// The batch protocol handles the mixed-routing case: distance and
/// permutation queries in one batch against a distances index.
#[test]
fn batch_accepts_mixed_routing() {
    let server = CloudServer::new(
        MIndexConfig {
            num_pivots: 3,
            max_level: 2,
            bucket_capacity: 8,
            strategy: RoutingStrategy::Distances,
        },
        MemoryStore::new(),
    )
    .unwrap();
    for id in 0..10u64 {
        let ds = [0.1 * id as f64 + 0.05, 0.5, 0.9];
        ask(
            &server,
            Request::Insert(vec![IndexEntry::new(
                id,
                Routing::from_distances(&ds),
                vec![],
            )]),
        );
    }
    let resp = ask(
        &server,
        Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[0.05, 0.5, 0.9]),
                cand_size: 3,
            },
            KnnQuery {
                routing: Routing::permutation_prefix(&[0.05, 0.5, 0.9], 3),
                cand_size: 3,
            },
        ]),
    );
    match resp {
        Response::CandidateSets(sets) => {
            assert_eq!(sets.len(), 2);
            assert_eq!(sets[0].as_ref().unwrap().headers.len(), 3);
            assert!(!sets[1].as_ref().unwrap().headers.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }
}
