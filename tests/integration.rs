//! Cross-crate integration tests: the full system assembled the way the
//! paper's prototype was (client ↔ TCP ↔ server, disk-backed buckets,
//! real datasets generators) — plus the security properties §4.3 claims.

use simcloud::prelude::*;

fn objects(data: &[Vector]) -> Vec<(ObjectId, Vector)> {
    data.iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect()
}

/// Paper §4.4: "Both client and server are … processes communicating via
/// TCP/IP". The TCP deployment must agree exactly with the in-process one.
#[test]
fn tcp_and_in_process_deployments_agree() {
    let dataset = simcloud::datasets::yeast_like(3, Some(400));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 10, &L1, PivotSelection::Random, 4);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 10;

    let mut local = EncryptedClient::new(
        key.clone(),
        L1,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(5);
    let server = serve_tcp_shared(std::sync::Arc::new(
        CloudServer::new(cfg, MemoryStore::new()).unwrap(),
    ))
    .unwrap();
    let mut remote = EncryptedClient::new(
        key,
        L1,
        TcpTransport::connect(server.addr()).unwrap(),
        ClientConfig::distances(),
    );

    let objs = objects(data);
    local.insert_bulk(&objs).unwrap();
    remote.insert_bulk(&objs).unwrap();

    for qi in [0usize, 99, 250] {
        let q = &data[qi];
        let (a, _) = local.knn_approx(q, 10, 100).unwrap();
        let (b, costs) = remote.knn_approx(q, 10, 100).unwrap();
        assert_eq!(
            a.iter().map(|x| x.0).collect::<Vec<_>>(),
            b.iter().map(|x| x.0).collect::<Vec<_>>(),
            "query {qi}: TCP and in-process answers diverge"
        );
        assert!(costs.server > std::time::Duration::ZERO);
        let (ra, _) = local.range(q, 20.0).unwrap();
        let (rb, _) = remote.range(q, 20.0).unwrap();
        assert_eq!(ra, rb);
    }
    // Byte-exact accounting must agree between the transports (same
    // protocol bytes, only timing differs).
    assert_eq!(
        local.total_costs().bytes_sent,
        remote.total_costs().bytes_sent
    );
    assert_eq!(
        local.total_costs().bytes_received,
        remote.total_costs().bytes_received
    );
    drop(remote);
    server.shutdown();
}

/// `total_costs()` is "accumulated costs across all operations": every
/// exchange the client makes — searches, inserts and the ops calls alike —
/// is booked through one operation path, so the client's byte totals equal
/// what its transport counted, in-process and over TCP.
#[test]
fn total_costs_book_every_operation() {
    use simcloud_transport::Transport;

    fn mix<T: Transport>(client: &mut EncryptedClient<L1, T>, data: &[Vector]) {
        client.insert_bulk(&objects(&data[..100])).unwrap();
        client.insert_bulk(&objects(data)[100..]).unwrap();
        client.knn_approx(&data[7], 5, 40).unwrap();
        client.range(&data[9], 15.0).unwrap();
        client.server_info().unwrap();
        client.health().unwrap();
        client.metrics_text().unwrap();
        let total = client.total_costs();
        assert_eq!(
            total.bytes_sent + total.bytes_received,
            client.transport().stats().total_bytes(),
            "an exchange's bytes are missing from total_costs()"
        );
    }

    let dataset = simcloud::datasets::yeast_like(61, Some(200));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 8, &L1, PivotSelection::Random, 62);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 8;
    let mut local = EncryptedClient::new(
        key.clone(),
        L1,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    );
    mix(&mut local, data);
    let server = serve_tcp_shared(std::sync::Arc::new(
        CloudServer::new(cfg, MemoryStore::new()).unwrap(),
    ))
    .unwrap();
    let mut remote = EncryptedClient::new(
        key,
        L1,
        TcpTransport::connect(server.addr()).unwrap(),
        ClientConfig::distances(),
    );
    mix(&mut remote, data);
    drop(remote);
    server.shutdown();
}

/// An operation that fails books nothing: the refused search's exchange
/// reached the transport, but `total_costs()` is left as it was.
#[test]
fn failed_operations_book_nothing() {
    use simcloud_transport::Transport;

    let dataset = simcloud::datasets::yeast_like(71, Some(50));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 4, &L1, PivotSelection::Random, 72);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 4;
    let mut client = EncryptedClient::new(
        key,
        L1,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    );
    client.insert_bulk(&objects(data)).unwrap();
    let (total, requests) = (client.total_costs(), client.transport().stats().requests);
    let oversized = simcloud_core::protocol::MAX_CANDIDATE_HEADERS + 1;
    let err = client.knn_approx(&data[0], 5, oversized).unwrap_err();
    assert!(matches!(err, ClientError::Server(_)), "{err}");
    assert_eq!(client.transport().stats().requests, requests + 1);
    assert_eq!(client.total_costs(), total);
}

/// Disk-backed server: the CoPhIR configuration persists across server
/// restarts (flush + reopen), and queries keep working.
#[test]
fn disk_backed_cloud_survives_data_volume() {
    let dataset = simcloud::datasets::cophir_like(9, 800);
    let metric = match &dataset.metric {
        simcloud::datasets::DatasetMetric::Combined(m) => m.clone(),
        _ => unreachable!(),
    };
    let (key, _) = SecretKey::generate(&dataset.vectors, 20, &metric, PivotSelection::Random, 10);
    let mut cfg = MIndexConfig::cophir();
    cfg.num_pivots = 20;
    cfg.bucket_capacity = 100;
    let path = std::env::temp_dir().join(format!("simcloud-int-{}.db", std::process::id()));
    let store = DiskStore::create(&path).unwrap();
    let mut cloud = EncryptedClient::new(
        key,
        metric.clone(),
        InProcessTransport::new(CloudServer::new(cfg, store).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(11);
    cloud.insert_bulk(&objects(&dataset.vectors)).unwrap();
    let q = &dataset.vectors[5];
    let (res, _) = cloud.knn_approx(q, 10, 200).unwrap();
    assert_eq!(res[0].0, ObjectId(5));
    assert!(res[0].1.abs() < 1e-6);
    simcloud::storage::FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(path);
}

/// The restart path: a budgeted disk-backed server is flushed, dropped,
/// reopened from its store file and rebuilt (`CloudServer::rebuilt`), and
/// the same key then gets the same answers as before the restart — range,
/// precise k-NN and collection-covering approximate k-NN, every distance
/// included — with phase-2 fetches still running under the kept budget.
#[test]
fn restarted_disk_cloud_answers_as_before() {
    let dataset = simcloud::datasets::yeast_like(31, Some(600));
    let data = &dataset.vectors;
    let n = data.len();
    let (key, _) = SecretKey::generate(data, 20, &L1, PivotSelection::Random, 32);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 20;
    cfg.bucket_capacity = 50;
    let budget = simcloud::core::ServerConfig::budgeted(2048);
    let path = std::env::temp_dir().join(format!("simcloud-restart-{}.db", std::process::id()));

    /// Per query: range, precise 10-NN and collection-covering approximate
    /// 10-NN answers; then the server's entry count and the summed costs.
    fn answers<T: simcloud::transport::Transport>(
        cloud: &mut EncryptedClient<L1, T>,
        data: &[Vector],
    ) -> (Vec<[Vec<simcloud::core::Neighbor>; 3]>, u64, CostReport) {
        let n = data.len();
        let mut costs = CostReport::default();
        let mut out = Vec::new();
        for qi in [3usize, 150, 420, 599] {
            let q = &data[qi];
            let radius = Metric::<Vector>::distance(&L1, q, &data[(qi + 7) % n]);
            let (range, c) = cloud.range(q, radius).unwrap();
            costs.merge(&c);
            let (precise, c) = cloud.knn_precise(q, 10).unwrap();
            costs.merge(&c);
            let (approx, c) = cloud.knn_approx(q, 10, n).unwrap();
            costs.merge(&c);
            out.push([range, precise, approx]);
        }
        (out, cloud.server_info().unwrap().0, costs)
    }

    let server = std::sync::Arc::new(
        CloudServer::with_config(cfg, budget, DiskStore::create(&path).unwrap()).unwrap(),
    );
    let mut cloud = EncryptedClient::new(
        key.clone(),
        L1,
        InProcessTransport::new(std::sync::Arc::clone(&server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(33);
    cloud.insert_bulk(&objects(data)).unwrap();
    server.flush().unwrap();
    let (before, entries_before, _) = answers(&mut cloud, data);
    assert_eq!(entries_before, n as u64);
    drop(cloud);
    drop(server);

    let store = DiskStore::open(&path).unwrap();
    let server = CloudServer::rebuilt(cfg, budget, store).unwrap();
    let mut cloud = EncryptedClient::new(
        key,
        L1,
        InProcessTransport::new(server),
        ClientConfig::distances(),
    );
    let (after, entries_after, costs) = answers(&mut cloud, data);
    assert_eq!(entries_after, entries_before);
    assert_eq!(after, before);
    assert!(
        costs.fetch_requests > 0,
        "the budget must force phase-2 fetches"
    );
    drop(cloud);
    simcloud::storage::FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(path);
}

/// End-to-end recall parity with the plain index on a generated dataset —
/// encryption must not change *what* is found, only *where* work happens
/// (paper §5: same recall columns for Tables 5/7 and 6/8).
#[test]
fn encrypted_and_plain_recall_parity_on_yeast() {
    let dataset = simcloud::datasets::yeast_like(21, Some(1000));
    let data = &dataset.vectors;
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;
    let (key, _) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 22);

    let mut cloud = EncryptedClient::new(
        key.clone(),
        L1,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(23);
    cloud.insert_bulk(&objects(data)).unwrap();

    let mut plain = PlainMIndex::new(cfg, key.pivots().to_vec(), L1, MemoryStore::new()).unwrap();
    for (i, v) in data.iter().enumerate() {
        plain.insert(ObjectId(i as u64), v).unwrap();
    }

    for qi in [7usize, 333, 808] {
        let q = &data[qi];
        for cand in [100usize, 400] {
            let (enc, _) = cloud.knn_approx(q, 30, cand).unwrap();
            let (pl, _) = plain.knn_approx(q, 30, cand).unwrap();
            assert_eq!(
                enc.iter().map(|x| x.0).collect::<Vec<_>>(),
                pl.iter().map(|x| x.0).collect::<Vec<_>>(),
                "query {qi} cand {cand}"
            );
        }
    }
}

/// §4.3's leakage audit: the bytes that reach the server never contain the
/// query vector or any plaintext object.
#[test]
fn server_never_sees_plaintext() {
    use simcloud_core::protocol::Request;
    use simcloud_mindex::Routing;

    let dataset = simcloud::datasets::yeast_like(31, Some(50));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 5, &L1, PivotSelection::Random, 32);

    // Construct the exact insert request bytes for object 0 the way the
    // client does, then check the plaintext encoding is not a substring.
    let o = &data[0];
    let ds = key.pivot_distances(&L1, o);
    let mut plain = Vec::new();
    o.encode(&mut plain);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(33);
    let sealed = key.cipher().seal(&plain, key.mode(), &mut rng);
    let req = Request::Insert(vec![simcloud_mindex::IndexEntry::new(
        0,
        Routing::from_distances(&ds),
        sealed,
    )])
    .encode();

    // The plaintext object bytes must not appear in the request.
    assert!(
        !req.windows(plain.len().min(16))
            .any(|w| w == &plain[..plain.len().min(16)]),
        "plaintext leaked into the insert request"
    );

    // A query request contains only distances (f32) — reconstructing the
    // 17-dim object from 5 scalars is information-theoretically impossible,
    // and the query object bytes are absent.
    let q = &data[1];
    let mut q_plain = Vec::new();
    q.encode(&mut q_plain);
    let q_req = Request::ApproxKnn {
        routing: Routing::from_distances(&key.pivot_distances(&L1, q)),
        cand_size: 10,
    }
    .encode();
    assert!(
        !q_req
            .windows(q_plain.len().min(16))
            .any(|w| w == &q_plain[..q_plain.len().min(16)]),
        "query object leaked into the search request"
    );
}

/// Tampering by the untrusted server is detected by the client (the
/// envelope's encrypt-then-MAC), not silently returned as a wrong answer.
#[test]
fn tampered_candidates_are_rejected() {
    use simcloud_core::protocol::Response;
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    // A malicious "server" that flips a byte in every candidate payload.
    struct Mallory<H>(H);
    impl<H: SharedRequestHandler> SharedRequestHandler for Mallory<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let resp = self.0.handle_shared(request);
            match Response::decode(&resp) {
                Ok(Response::CandidateList(mut list)) if !list.payloads.is_empty() => {
                    for payload in &mut list.payloads {
                        if let Some(b) = payload.last_mut() {
                            *b ^= 0x01;
                        }
                    }
                    Response::CandidateList(list).encode()
                }
                _ => resp,
            }
        }
    }

    let dataset = simcloud::datasets::yeast_like(41, Some(100));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 5, &L1, PivotSelection::Random, 42);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 5;
    let server = simcloud_core::CloudServer::new(cfg, MemoryStore::new()).unwrap();
    let transport = InProcessTransport::new(Mallory(server));
    let mut client =
        simcloud_core::EncryptedClient::new(key, L1, transport, ClientConfig::distances())
            .with_rng_seed(43);
    client.insert_bulk(&objects(data)).unwrap();
    let err = client.knn_approx(&data[0], 5, 20).unwrap_err();
    assert!(
        matches!(err, simcloud_core::ClientError::Seal(_)),
        "tampering must surface as a seal error, got {err}"
    );
}

/// A malicious server cannot drive client (or server) memory with forged
/// length headers: claimed counts are capped by the bytes actually present,
/// and a frame above the per-message cap is rejected before any allocation.
#[test]
fn forged_length_headers_are_rejected_cheaply() {
    use simcloud_core::protocol::{Request, Response, MAX_DECODE_BYTES};
    use simcloud_transport::{InProcessTransport, SharedRequestHandler};

    // Allocation bombs: a valid tag followed by a u32::MAX element count
    // and no element bodies. Decode must fail fast, not reserve gigabytes.
    let mut bomb = vec![0x01]; // Request::Insert
    bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Request::decode(&bomb).is_err());
    let mut bomb = vec![0x02]; // Response::Candidates
    bomb.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(Response::decode(&bomb).is_err());

    // Over-cap frames are rejected outright by the size gate.
    let huge = vec![0u8; MAX_DECODE_BYTES + 1];
    assert!(Request::decode(&huge).is_err());
    assert!(Response::decode(&huge).is_err());

    // End to end: a tampering transport replacing every answer with a
    // forged phase-1 header list claiming u32::MAX candidates must surface
    // as a client error, never a panic or runaway allocation.
    struct Bomber<H>(H);
    impl<H: SharedRequestHandler> SharedRequestHandler for Bomber<H> {
        fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
            let _ = self.0.handle_shared(request);
            let mut forged = vec![0x07]; // Response::CandidateList tag
            forged.extend_from_slice(&u32::MAX.to_le_bytes());
            forged
        }
    }

    let dataset = simcloud::datasets::yeast_like(41, Some(60));
    let data = &dataset.vectors;
    let (key, _) = SecretKey::generate(data, 5, &L1, PivotSelection::Random, 42);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 5;
    let server = simcloud_core::CloudServer::new(cfg, MemoryStore::new()).unwrap();
    let transport = InProcessTransport::new(Bomber(server));
    let mut client =
        simcloud_core::EncryptedClient::new(key, L1, transport, ClientConfig::distances())
            .with_rng_seed(43);
    assert!(client.knn_approx(&data[0], 5, 20).is_err());
}

/// Generated datasets + workload + ground truth compose: recall of exact
/// answers is 100%.
#[test]
fn ground_truth_pipeline_is_consistent() {
    let dataset = simcloud::datasets::human_like(51, Some(300));
    let workload = simcloud::datasets::QueryWorkload::held_out(&dataset.vectors, 10, 52);
    let truth = simcloud::datasets::parallel_knn_ground_truth(
        &workload.indexed,
        &workload.queries,
        &L1,
        5,
        4,
    );
    let answers: Vec<Vec<(ObjectId, f64)>> = truth.answers.clone();
    assert!((truth.mean_recall(&answers) - 100.0).abs() < 1e-9);
    assert_eq!(truth.answers.len(), 10);
    for a in &truth.answers {
        assert_eq!(a.len(), 5);
        for w in a.windows(2) {
            assert!(w[0].1 <= w[1].1, "ground truth must be sorted");
        }
    }
}
