//! End-to-end tests of the Encrypted M-Index: the encrypted deployment must
//! return exactly the same answers as the plain M-Index and brute force —
//! encryption may cost time, never correctness (the paper's central claim
//! that the secure variant evaluates "standard range and nearest neighbors
//! queries both in precise and approximate manner").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{recall, ClientConfig, CloudServer, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, PlainMIndex, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::InProcessTransport;

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::new((0..dim).map(|_| rng.gen_range(-8.0..8.0)).collect()))
        .collect()
}

fn config(pivots: usize, strategy: RoutingStrategy) -> MIndexConfig {
    MIndexConfig {
        num_pivots: pivots,
        max_level: 2,
        bucket_capacity: 16,
        strategy,
    }
}

#[test]
fn encrypted_range_equals_brute_force() {
    let data = random_data(300, 4, 1);
    let (key, _) = SecretKey::generate(&data, 8, &L2, PivotSelection::Random, 2);
    let mut cloud = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(
            CloudServer::new(config(8, RoutingStrategy::Distances), MemoryStore::new()).unwrap(),
        ),
        ClientConfig::distances(),
    )
    .with_rng_seed(3);
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    for chunk in objs.chunks(100) {
        cloud.insert_bulk(chunk).unwrap();
    }

    // Brute-force oracle on the same data.
    let brute = |q: &Vector, r: f64| {
        let mut res: Vec<(ObjectId, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    ObjectId(i as u64),
                    simcloud_metric::Metric::distance(&L2, q, v),
                )
            })
            .filter(|(_, d)| *d <= r)
            .collect();
        res.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        res
    };

    for (qi, r) in [(0usize, 3.0), (7, 6.0), (42, 1.0), (100, 0.0)] {
        let q = &data[qi];
        let (got, costs) = cloud.range(q, r).unwrap();
        let want = brute(q, r);
        assert_eq!(got.len(), want.len(), "query {qi} r {r}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert!((g.1 - w.1).abs() < 1e-6);
        }
        assert!(costs.bytes_sent > 0 && costs.candidates >= got.len() as u64);
    }
}

#[test]
fn encrypted_knn_matches_plain_mindex_candidates() {
    // Same pivots, same config ⇒ encrypted and plain deployments must
    // produce identical k-NN results for identical candidate budgets.
    let data = random_data(400, 5, 11);
    let (key, _) = SecretKey::generate(&data, 10, &L2, PivotSelection::Random, 12);
    let cfg = config(10, RoutingStrategy::Distances);

    let mut cloud = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(13);
    let mut plain = PlainMIndex::new(cfg, key.pivots().to_vec(), L2, MemoryStore::new()).unwrap();

    for (i, v) in data.iter().enumerate() {
        plain.insert(ObjectId(i as u64), v).unwrap();
    }
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    cloud.insert_bulk(&objs).unwrap();

    for qi in [3usize, 77, 200] {
        let q = &data[qi];
        for cand_size in [30usize, 120, 400] {
            let (enc, _) = cloud.knn_approx(q, 10, cand_size).unwrap();
            let (pl, _) = plain.knn_approx(q, 10, cand_size).unwrap();
            assert_eq!(
                enc.iter().map(|x| x.0).collect::<Vec<_>>(),
                pl.iter().map(|x| x.0).collect::<Vec<_>>(),
                "query {qi} cand {cand_size}"
            );
        }
    }
}

#[test]
fn encrypted_precise_knn_is_exact() {
    let data = random_data(250, 3, 21);
    let (key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 22);
    let mut cloud = EncryptedClient::new(
        key,
        L2,
        InProcessTransport::new(
            CloudServer::new(config(6, RoutingStrategy::Distances), MemoryStore::new()).unwrap(),
        ),
        ClientConfig::distances(),
    )
    .with_rng_seed(23);
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    cloud.insert_bulk(&objs).unwrap();

    let q = &data[9];
    let (got, _) = cloud.knn_precise(q, 15).unwrap();
    // oracle
    let mut want: Vec<(ObjectId, f64)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| {
            (
                ObjectId(i as u64),
                simcloud_metric::Metric::distance(&L2, q, v),
            )
        })
        .collect();
    want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    want.truncate(15);
    assert_eq!(got.len(), 15);
    for (g, w) in got.iter().zip(&want) {
        assert!((g.1 - w.1).abs() < 1e-6, "{g:?} vs {w:?}");
    }
}

/// A loaded distance-routing deployment of `n` random objects.
fn loaded_cloud(
    n: usize,
    seed: u64,
) -> (
    Vec<Vector>,
    EncryptedClient<L2, InProcessTransport<CloudServer<MemoryStore>>>,
) {
    let data = random_data(n, 3, seed);
    let (key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, seed + 1);
    let mut cloud = EncryptedClient::new(
        key,
        L2,
        InProcessTransport::new(
            CloudServer::new(config(6, RoutingStrategy::Distances), MemoryStore::new()).unwrap(),
        ),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed + 2);
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    cloud.insert_bulk(&objs).unwrap();
    (data, cloud)
}

/// `k = 0` asks for nothing: the precise path answers with an empty list
/// instead of indexing the k-th neighbor of an empty approximate answer.
#[test]
fn precise_knn_with_zero_k_is_empty() {
    let (data, mut cloud) = loaded_cloud(120, 25);
    let (got, costs) = cloud.knn_precise(&data[4], 0).unwrap();
    assert!(got.is_empty());
    assert_eq!(costs.decrypted, 0, "k = 0 needs no decryption");
}

/// A `cand_size` past `u32::MAX` must not wrap to its low 32 bits (here a
/// 5-candidate query): it saturates, so the server refuses it at its
/// header cap — for a single query and for each slot of a batch.
#[cfg(target_pointer_width = "64")]
#[test]
fn oversized_cand_size_is_refused_not_wrapped() {
    use simcloud_core::ClientError;

    let (data, mut cloud) = loaded_cloud(120, 27);
    let wraps_to_five = (1usize << 32) + 5;
    match cloud.knn_approx(&data[4], 3, wraps_to_five) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("header response cap"), "{msg}"),
        other => panic!("expected a server refusal, got {other:?}"),
    }
    let (answers, _) = cloud
        .knn_approx_batch(&data[..2], 3, wraps_to_five)
        .unwrap();
    for answer in &answers {
        match answer {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("header response cap"), "{msg}");
            }
            other => panic!("expected a per-slot server refusal, got {other:?}"),
        }
    }
}

#[test]
fn permutation_strategy_full_candidates_reach_full_recall() {
    let data = random_data(200, 4, 31);
    let (key, _) = SecretKey::generate(&data, 8, &L2, PivotSelection::Random, 32);
    let mut cloud = EncryptedClient::new(
        key,
        L2,
        InProcessTransport::new(
            CloudServer::new(config(8, RoutingStrategy::Permutation), MemoryStore::new()).unwrap(),
        ),
        ClientConfig::permutations(),
    )
    .with_rng_seed(33);
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    cloud.insert_bulk(&objs).unwrap();

    let q = &data[50];
    let truth: Vec<(ObjectId, f64)> = {
        let mut v: Vec<(ObjectId, f64)> = data
            .iter()
            .enumerate()
            .map(|(i, o)| {
                (
                    ObjectId(i as u64),
                    simcloud_metric::Metric::distance(&L2, q, o),
                )
            })
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        v.truncate(10);
        v
    };
    let (all, _) = cloud.knn_approx(q, 10, 200).unwrap();
    assert!((recall(&all, &truth) - 100.0).abs() < 1e-9);
    let (some, _) = cloud.knn_approx(q, 10, 40).unwrap();
    let r = recall(&some, &truth);
    assert!(r >= 10.0, "partial-candidate recall suspiciously low: {r}");
    // Range queries are impossible under the permutation strategy.
    assert!(cloud.range(q, 1.0).is_err());
}

#[test]
fn transformed_distances_stay_exact_with_larger_candidates() {
    use simcloud_core::DistanceTransform;
    let data = random_data(250, 4, 41);
    let (key, _) = SecretKey::generate(&data, 8, &L2, PivotSelection::Random, 42);
    // d_max estimate for L2 over [-8,8]^4: 32. Use a safe bound.
    let transform = DistanceTransform::from_seed(99, 40.0, 6);
    let cfg = config(8, RoutingStrategy::Distances);

    let mut enc_plainrt = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(43);
    let mut enc_transformed = EncryptedClient::new(
        key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances().with_transform(transform),
    )
    .with_rng_seed(44);

    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    enc_plainrt.insert_bulk(&objs).unwrap();
    enc_transformed.insert_bulk(&objs).unwrap();

    for (qi, r) in [(5usize, 4.0), (60, 2.0), (120, 6.0)] {
        let q = &data[qi];
        let (want, base_costs) = enc_plainrt.range(q, r).unwrap();
        let (got, tr_costs) = enc_transformed.range(q, r).unwrap();
        assert_eq!(
            got.iter().map(|x| x.0).collect::<Vec<_>>(),
            want.iter().map(|x| x.0).collect::<Vec<_>>(),
            "transform changed the answer for query {qi}"
        );
        // Level-4 privacy costs candidates, never results.
        assert!(
            tr_costs.candidates >= base_costs.candidates,
            "transform should not shrink candidate sets"
        );
    }
}

#[test]
fn unauthorized_client_gets_garbage() {
    // An attacker with the wrong pivots can send queries, but candidate
    // ranking is meaningless and candidates fail authentication with the
    // wrong cipher key (paper §4.3: only authorized clients can query the
    // server "by meaningful queries").
    let data = random_data(150, 4, 51);
    let (owner_key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 52);
    let cfg = config(6, RoutingStrategy::Distances);
    let mut cloud = EncryptedClient::new(
        owner_key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(53);
    let objs: Vec<(ObjectId, Vector)> = data
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    cloud.insert_bulk(&objs).unwrap();

    // Attacker key: same structure, wrong pivots, wrong cipher.
    let attacker_data = random_data(150, 4, 5151);
    let (attacker_key, _) = SecretKey::generate(&attacker_data, 6, &L2, PivotSelection::Random, 54);

    // Rewire: attacker talks to the same server state. We simulate by
    // building a fresh cloud with the owner's data but querying through the
    // attacker's pivots — distances sent are wrong, and unsealing fails.
    let q = &data[0];
    let wrong_ds = attacker_key.pivot_distances(&L2, q);
    assert_ne!(wrong_ds, owner_key.pivot_distances(&L2, q));

    // Direct protocol-level probe: candidates come back sealed; the
    // attacker cannot decrypt them.
    use simcloud_core::protocol::{Request, Response};
    use simcloud_transport::SharedRequestHandler;
    let probe = simcloud_core::CloudServer::new(cfg, MemoryStore::new()).unwrap();
    // fill the probe server with owner-sealed entries
    let mut owner_cloud = EncryptedClient::new(
        owner_key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(55);
    owner_cloud.insert_bulk(&objs).unwrap();
    // copy entries through the protocol (as a compromised-server attacker
    // would see them)
    let all = Request::ApproxKnn {
        routing: simcloud_mindex::Routing::from_distances(&owner_key.pivot_distances(&L2, q)),
        cand_size: 10,
    };
    // run against the owner's in-process server via its handler
    let mut t = owner_cloud;
    let (res, _) = t.knn_approx(q, 5, 10).unwrap();
    assert!(!res.is_empty());
    drop(t);

    let bytes = probe.handle_shared(&all.encode());
    match Response::decode(&bytes).unwrap() {
        Response::CandidateList(list) => {
            assert!(list.headers.is_empty(), "probe server is empty");
        }
        Response::Error(_) => {}
        other => panic!("unexpected {other:?}"),
    }

    // Finally: sealed payloads cannot be opened with the attacker's key.
    let mut rng = StdRng::seed_from_u64(7);
    let sealed = owner_key
        .cipher()
        .seal(b"ms object", owner_key.mode(), &mut rng);
    assert!(attacker_key.cipher().unseal(&sealed).is_err());
}
