//! Multi-shard TCP deployment: the sharded server behind a real loopback
//! socket, driven by the unmodified TCP client — including concurrent
//! connections that insert into distinct shards while others search.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{ClientConfig, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::{serve_tcp_shared, TcpTransport};

fn data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| rng.gen_range(-5.0f32..5.0)).collect()))
        .collect()
}

fn config(pivots: usize) -> MIndexConfig {
    MIndexConfig {
        num_pivots: pivots,
        max_level: 2,
        bucket_capacity: 8,
        strategy: RoutingStrategy::Distances,
    }
}

#[test]
fn sharded_over_tcp_round_trip() {
    let vectors = data(60, 3, 42);
    let (key, _) = SecretKey::generate(&vectors, 4, &L2, PivotSelection::Random, 7);
    let stores = (0..4).map(|_| MemoryStore::new()).collect();
    let server = ShardedCloudServer::new(config(4), Box::new(HashRouter), stores).unwrap();
    let handle = serve_tcp_shared(Arc::new(server)).unwrap();
    let mut client = EncryptedClient::new(
        key,
        L2,
        TcpTransport::connect(handle.addr()).unwrap(),
        ClientConfig::distances(),
    );
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    client.insert_bulk(&objects).unwrap();
    let (entries, _, _) = client.server_info().unwrap();
    assert_eq!(entries, 60);
    let (res, costs) = client.knn_approx(&vectors[5], 3, 30).unwrap();
    assert_eq!(res[0].0, ObjectId(5));
    assert_eq!(res[0].1, 0.0);
    assert!(costs.candidates <= 30);
    let (in_ball, _) = client.range(&vectors[5], 0.0).unwrap();
    assert!(in_ball.iter().any(|(id, _)| *id == ObjectId(5)));
    drop(client);
    handle.shutdown();
}

/// Four TCP connections insert disjoint id ranges concurrently (landing on
/// different shards) while a fifth searches throughout — the scatter-gather
/// read path and per-shard write locks under real socket concurrency.
#[test]
fn concurrent_tcp_inserts_and_searches_against_shards() {
    let vectors = data(40, 3, 43);
    let (key, _) = SecretKey::generate(&vectors, 4, &L2, PivotSelection::Random, 11);
    let server = Arc::new(
        ShardedCloudServer::new(
            config(4),
            Box::new(HashRouter),
            (0..4).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap(),
    );
    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();
    let addr = handle.addr();

    // Seed the index so searches always have data.
    let mut seeder = EncryptedClient::new(
        key.clone(),
        L2,
        TcpTransport::connect(addr).unwrap(),
        ClientConfig::distances(),
    );
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    seeder.insert_bulk(&objects).unwrap();

    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let key = key.clone();
            let extra = data(25, 3, 100 + t);
            scope.spawn(move || {
                let mut c = EncryptedClient::new(
                    key,
                    L2,
                    TcpTransport::connect(addr).unwrap(),
                    ClientConfig::distances(),
                );
                for (i, v) in extra.iter().enumerate() {
                    let id = ObjectId(1000 + t * 1000 + i as u64);
                    c.insert(id, v).unwrap();
                }
            });
        }
        let key = key.clone();
        let q = vectors[3].clone();
        scope.spawn(move || {
            let mut c = EncryptedClient::new(
                key,
                L2,
                TcpTransport::connect(addr).unwrap(),
                ClientConfig::distances(),
            );
            for _ in 0..30 {
                let (res, _) = c.knn_approx(&q, 3, 20).unwrap();
                assert!(!res.is_empty());
                assert_eq!(res[0].0, ObjectId(3), "existing nearest stays found");
            }
        });
    });

    let (entries, _, _) = seeder.server_info().unwrap();
    assert_eq!(entries, 40 + 4 * 25);
    // Every shard received some of the hash-routed inserts.
    for i in 0..4 {
        assert!(
            server.index().shard(i).is_some_and(|s| !s.is_empty()),
            "shard {i} never saw an insert"
        );
    }
    drop(seeder);
    handle.shutdown();
}

/// A mixed-outcome `BatchKnn` over the sharded TCP wire: the malformed
/// sub-query fails in its own slot, healthy siblings answer, and the
/// server's batch stats cover only the successes — same contract as the
/// single server.
#[test]
fn sharded_batch_with_malformed_subquery_over_tcp() {
    use simcloud_core::protocol::{KnnQuery, Request, Response};
    use simcloud_mindex::Routing;
    use simcloud_transport::{TcpTransport, Transport};

    let vectors = data(30, 3, 44);
    let (key, _) = SecretKey::generate(&vectors, 4, &L2, PivotSelection::Random, 13);
    let server = Arc::new(
        ShardedCloudServer::new(
            config(4),
            Box::new(HashRouter),
            (0..3).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap(),
    );
    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();
    let mut owner = EncryptedClient::new(
        key,
        L2,
        TcpTransport::connect(handle.addr()).unwrap(),
        ClientConfig::distances(),
    );
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    owner.insert_bulk(&objects).unwrap();

    let mut raw = TcpTransport::connect(handle.addr()).unwrap();
    let batch = Request::BatchKnn(vec![
        KnnQuery {
            routing: Routing::from_distances(&[0.5, 0.5, 0.5, 0.5]),
            cand_size: 8,
        },
        KnnQuery {
            // Short distance vector: must fail in its own slot.
            routing: Routing::from_distances(&[0.5, 0.5]),
            cand_size: 8,
        },
        KnnQuery {
            routing: Routing::from_distances(&[1.0, 1.0, 1.0, 1.0]),
            cand_size: 4,
        },
    ]);
    let before = server.total_search_stats();
    let resp = Response::decode(&raw.round_trip(&batch.encode()).unwrap()).unwrap();
    match resp {
        Response::CandidateSets(sets) => {
            assert_eq!(sets.len(), 3);
            assert_eq!(sets[0].as_ref().unwrap().headers.len(), 8);
            assert!(sets[1].as_ref().unwrap_err().contains("pivot distances"));
            assert_eq!(sets[2].as_ref().unwrap().headers.len(), 4);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        server.total_search_stats().since(&before).candidates,
        12,
        "batch stats cover exactly the successful sub-queries"
    );
    drop(owner);
    handle.shutdown();
}
