//! Ops surface over real TCP: `Health` and `MetricsSnapshot` must be
//! answered by the single and the sharded server while an insert holds
//! the index write lock — the whole point of serving them from pre-aggregated
//! atomics. A store whose `append` blocks on a condvar pins the write
//! lock mid-insert; probe clients carry a short read timeout so a
//! regression fails as `TimedOut` instead of hanging the suite. Also
//! pins the slow-query log capturing a deliberately slow query with its
//! per-phase breakdown, and `wal.*` timings reaching the exposition once a
//! `DiskStore` is bound to the server's registry.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{Request, Response, PROTOCOL_VERSION};
use simcloud_core::{
    ClientConfig, CloudServer, EncryptedClient, SecretKey, ServerConfig, ServerEngine,
    ServerTelemetry, SLOW_LOG_CAPACITY,
};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{IndexEntry, MIndex, MIndexConfig, Routing, RoutingStrategy};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::{
    BucketId, BucketStore, DiskStore, IoStats, MemoryStore, Record, StorageError,
};
use simcloud_telemetry::Registry;
use simcloud_transport::{
    serve_tcp_shared, InProcessTransport, RetryPolicy, SharedRequestHandler, TcpClientConfig,
    TcpTransport, Transport,
};

/// `request`'s answer, through the byte path every server answers on.
fn ask(server: &impl SharedRequestHandler, request: Request) -> Response {
    Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
}

/// Condvar gate shared between a blocking store and the test driver.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
}

#[derive(Default)]
struct GateState {
    armed: bool,
    entered: bool,
    released: bool,
}

impl Gate {
    /// The next `append` will block until [`Gate::release`].
    fn arm(&self) {
        self.state.lock().unwrap().armed = true;
    }

    /// Blocks until an armed `append` is inside the gate (i.e. the index
    /// write lock is held); panics after `timeout` instead of hanging.
    fn await_entered(&self, timeout: Duration) {
        let guard = self.state.lock().unwrap();
        let (guard, wait) = self
            .cond
            .wait_timeout_while(guard, timeout, |s| !s.entered)
            .unwrap();
        assert!(!wait.timed_out(), "insert never reached the store");
        drop(guard);
    }

    fn release(&self) {
        let mut s = self.state.lock().unwrap();
        s.released = true;
        self.cond.notify_all();
    }

    /// Called by the store from inside `append`.
    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        if !s.armed {
            return;
        }
        s.armed = false;
        s.entered = true;
        self.cond.notify_all();
        let s = self
            .cond
            .wait_timeout_while(s, Duration::from_secs(20), |s| !s.released)
            .unwrap()
            .0;
        drop(s);
    }
}

/// A `MemoryStore` whose `append` can block on a [`Gate`] and whose
/// `read_bucket` can be slowed down — the two knobs these tests need.
struct SlowStore {
    inner: MemoryStore,
    gate: Arc<Gate>,
    read_delay: Duration,
}

impl SlowStore {
    fn gated(gate: Arc<Gate>) -> Self {
        SlowStore {
            inner: MemoryStore::new(),
            gate,
            read_delay: Duration::ZERO,
        }
    }

    fn slow_reads(delay: Duration) -> Self {
        SlowStore {
            inner: MemoryStore::new(),
            gate: Arc::new(Gate::default()),
            read_delay: delay,
        }
    }
}

impl BucketStore for SlowStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.gate.pass();
        self.inner.append(bucket, record)
    }
    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        if self.read_delay > Duration::ZERO {
            std::thread::sleep(self.read_delay);
        }
        self.inner.read_bucket(bucket)
    }
    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.inner.bucket_len(bucket)
    }
    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.inner.delete_bucket(bucket)
    }
    fn bucket_ids(&self) -> Vec<BucketId> {
        self.inner.bucket_ids()
    }
    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }
    fn stats(&self) -> IoStats {
        self.inner.stats()
    }
    fn backend_name(&self) -> &'static str {
        "slow-memory"
    }
}

fn config(pivots: usize) -> MIndexConfig {
    MIndexConfig {
        num_pivots: pivots,
        max_level: 2,
        bucket_capacity: 8,
        strategy: RoutingStrategy::Distances,
    }
}

fn entry(id: u64, seed: u64) -> IndexEntry {
    let mut rng = StdRng::seed_from_u64(seed ^ id);
    let ds: Vec<f64> = (0..4).map(|_| rng.gen_range(0.1..9.9)).collect();
    IndexEntry::new(id, Routing::from_distances(&ds), vec![id as u8])
}

/// A probe connection that fails fast instead of hanging if the ops
/// surface ever blocks on the index lock.
fn probe(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::connect_with(
        addr,
        TcpClientConfig {
            read_timeout: Some(Duration::from_secs(2)),
            request_deadline: Some(Duration::from_secs(2)),
            retry: RetryPolicy::none(),
            ..TcpClientConfig::default()
        },
    )
    .expect("probe connect")
}

fn health_of(t: &mut TcpTransport) -> (u8, u32, u64, u32) {
    let resp = Response::decode(&t.round_trip(&Request::Health.encode()).expect("health rt"))
        .expect("health decode");
    match resp {
        Response::Health {
            status,
            protocol,
            entries,
            shards,
            ..
        } => (status, protocol, entries, shards),
        other => panic!("expected Health, got {other:?}"),
    }
}

fn metrics_of(t: &mut TcpTransport) -> String {
    let resp = Response::decode(
        &t.round_trip(&Request::MetricsSnapshot.encode())
            .expect("metrics rt"),
    )
    .expect("metrics decode");
    match resp {
        Response::MetricsSnapshot(text) => text,
        other => panic!("expected MetricsSnapshot, got {other:?}"),
    }
}

/// Single server: health + metrics answered over TCP while an insert is
/// blocked inside the store with the index write lock held.
#[test]
fn single_server_answers_ops_requests_during_blocked_insert() {
    let gate = Arc::new(Gate::default());
    let server =
        Arc::new(CloudServer::new(config(4), SlowStore::gated(Arc::clone(&gate))).unwrap());
    // Seed a few entries while the gate is open.
    let seed: Vec<IndexEntry> = (0..10).map(|id| entry(id, 7)).collect();
    match Response::decode(&simcloud_transport::SharedRequestHandler::handle_shared(
        &*server,
        &Request::Insert(seed).encode(),
    ))
    .unwrap()
    {
        Response::Inserted(10) => {}
        other => panic!("seed insert failed: {other:?}"),
    }

    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();
    let addr = handle.addr();

    gate.arm();
    let blocked = std::thread::spawn(move || {
        let mut t = TcpTransport::connect(addr).unwrap();
        Response::decode(
            &t.round_trip(&Request::Insert(vec![entry(99, 7)]).encode())
                .unwrap(),
        )
        .unwrap()
    });
    gate.await_entered(Duration::from_secs(10));

    // The write lock is held by the blocked insert right now.
    let mut t = probe(addr);
    let (status, protocol, entries, shards) = health_of(&mut t);
    assert_eq!(status, 0);
    assert_eq!(protocol, PROTOCOL_VERSION);
    assert_eq!(entries, 10, "blocked insert must not be counted yet");
    assert_eq!(shards, 1);
    let text = metrics_of(&mut t);
    assert!(text.contains("counter server.requests"), "{text}");
    assert!(text.contains("gauge server.entries 10"), "{text}");
    assert!(text.contains("histogram server.request"), "{text}");

    gate.release();
    match blocked.join().unwrap() {
        Response::Inserted(1) => {}
        other => panic!("blocked insert failed: {other:?}"),
    }
    let (_, _, entries, _) = health_of(&mut t);
    assert_eq!(entries, 11, "entries gauge follows the finished insert");
    drop(t);
    handle.shutdown();
}

/// An encrypted client's connection goes through the shared-read path
/// too: the first connection (the owner's `EncryptedClient`) is stuck
/// mid-insert inside the store, and a `Health` on a second connection still
/// answers — a handler mutex in front of the server would make this probe
/// time out.
#[test]
fn over_tcp_server_answers_health_on_a_second_connection_during_blocked_insert() {
    let gate = Arc::new(Gate::default());
    let vectors: Vec<Vector> = (0..12)
        .map(|i| Vector::new(vec![i as f32, (i % 5) as f32, 1.0]))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, 4, &L2, PivotSelection::Random, 3);
    let server = CloudServer::new(config(4), SlowStore::gated(Arc::clone(&gate))).unwrap();
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
    let (seed, rest) = objects.split_at(10);
    client.insert_bulk(seed).unwrap();
    let addr = handle.addr();

    gate.arm();
    let rest = rest.to_vec();
    let blocked = std::thread::spawn(move || {
        client.insert_bulk(&rest).unwrap();
        client
    });
    gate.await_entered(Duration::from_secs(10));

    let mut t = probe(addr);
    let (status, _, entries, shards) = health_of(&mut t);
    assert_eq!(status, 0);
    assert_eq!(entries, 10, "blocked insert must not be counted yet");
    assert_eq!(shards, 1);

    gate.release();
    let client = blocked.join().unwrap();
    let (_, _, entries, _) = health_of(&mut t);
    assert_eq!(entries, 12, "entries gauge follows the finished insert");
    drop((t, client));
    handle.shutdown();
}

/// Sharded server: same contract — the scatter-gather front end answers
/// ops requests while one of its shards is stuck mid-insert.
#[test]
fn sharded_server_answers_ops_requests_during_blocked_insert() {
    let gate = Arc::new(Gate::default());
    let stores: Vec<SlowStore> = (0..2)
        .map(|_| SlowStore::gated(Arc::clone(&gate)))
        .collect();
    let server =
        Arc::new(ShardedCloudServer::new(config(4), Box::new(HashRouter), stores).unwrap());
    let seed: Vec<IndexEntry> = (0..12).map(|id| entry(id, 13)).collect();
    match ask(&server, Request::Insert(seed)) {
        Response::Inserted(12) => {}
        other => panic!("seed insert failed: {other:?}"),
    }

    let handle = serve_tcp_shared(Arc::clone(&server)).unwrap();
    let addr = handle.addr();

    gate.arm();
    let blocked = std::thread::spawn(move || {
        let mut t = TcpTransport::connect(addr).unwrap();
        Response::decode(
            &t.round_trip(&Request::Insert(vec![entry(77, 13)]).encode())
                .unwrap(),
        )
        .unwrap()
    });
    gate.await_entered(Duration::from_secs(10));

    let mut t = probe(addr);
    let (status, protocol, entries, shards) = health_of(&mut t);
    assert_eq!(status, 0);
    assert_eq!(protocol, PROTOCOL_VERSION);
    assert_eq!(entries, 12);
    assert_eq!(shards, 2);
    let text = metrics_of(&mut t);
    assert!(text.contains("counter server.requests"), "{text}");
    assert!(
        text.contains("histogram server.phase_open"),
        "sharded exposition must carry the open histogram: {text}"
    );

    gate.release();
    match blocked.join().unwrap() {
        Response::Inserted(1) => {}
        other => panic!("blocked insert failed: {other:?}"),
    }
    let (_, _, entries, _) = health_of(&mut t);
    assert_eq!(entries, 13);
    drop(t);
    handle.shutdown();
}

/// Both front ends render the same exposition *shape*: every metric line
/// family the single server emits is present in the sharded server's
/// snapshot too (the sharded one adds only its `shard.*` histograms).
#[test]
fn both_servers_expose_identically_shaped_metrics() {
    let single = CloudServer::new(config(4), MemoryStore::new()).unwrap();
    let sharded = ShardedCloudServer::new(
        config(4),
        Box::new(HashRouter),
        vec![MemoryStore::new(), MemoryStore::new()],
    )
    .unwrap();
    let shape = |text: &str| {
        let mut keys: Vec<String> = text
            .lines()
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let kind = parts.next()?;
                let name = parts.next()?;
                (kind != "slow_query" && !name.starts_with("shard."))
                    .then(|| format!("{kind} {name}"))
            })
            .collect();
        keys.sort();
        keys
    };
    assert_eq!(
        shape(&single.telemetry().metrics_text()),
        shape(&sharded.telemetry().metrics_text()),
        "one ServerTelemetry snapshot path must yield one shape"
    );
}

/// A deliberately slow query (10 ms bucket reads) lands in the slow-query
/// log with its per-phase breakdown.
#[test]
fn slow_query_log_captures_a_slow_knn_with_phases() {
    let delay = Duration::from_millis(10);
    let server = Arc::new(CloudServer::new(config(4), SlowStore::slow_reads(delay)).unwrap());
    let mut rng = StdRng::seed_from_u64(31);
    let vectors: Vec<Vector> = (0..24)
        .map(|_| Vector::new((0..3).map(|_| rng.gen_range(-5.0f32..5.0)).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, 4, &L2, PivotSelection::Random, 5);
    let objects: Vec<(ObjectId, Vector)> = vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect();
    let mut client = EncryptedClient::new(
        key,
        L2,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
    );
    client.insert_bulk(&objects).unwrap();
    let (res, _) = client.knn_approx(&vectors[3], 3, 12).unwrap();
    assert_eq!(res[0].0, ObjectId(3));

    let slow = server.telemetry().slow_queries();
    assert!(slow.len() <= SLOW_LOG_CAPACITY);
    let knn = slow
        .iter()
        .find(|q| q.label == "knn")
        .expect("knn query must be retained");
    assert!(
        knn.total_nanos >= delay.as_nanos() as u64,
        "total {} ns must include the {delay:?} bucket-read stall",
        knn.total_nanos
    );
    assert!(
        !knn.phases.is_empty(),
        "slow query must carry its phase breakdown"
    );
    for phase in ["decode", "open", "pull", "encode"] {
        assert!(
            knn.phases.iter().any(|(name, _)| *name == phase),
            "phase {phase} missing from {:?}",
            knn.phases
        );
    }
    let stalled = knn
        .phases
        .iter()
        .map(|(_, nanos)| *nanos)
        .max()
        .unwrap_or(0);
    assert!(
        stalled >= delay.as_nanos() as u64,
        "some phase must absorb the stall: {:?}",
        knn.phases
    );

    // The client-side ops helpers see the same data over the wire.
    let health = client.health().unwrap();
    assert_eq!(health.status, 0);
    assert_eq!(health.protocol, PROTOCOL_VERSION);
    assert_eq!(health.entries, 24);
    assert_eq!(health.shards, 1);
    assert!(health.uptime_nanos > 0);
    let text = client.metrics_text().unwrap();
    assert!(text.contains("slow_query rank=1"), "{text}");
    assert!(text.contains("counter search.candidates"), "{text}");
}

/// Storage timings join a server's exposition only when the store is bound
/// to the server's registry — nothing binds it implicitly. A `DiskStore`
/// bound before it is served reports one `wal.fsync` sample per flush in
/// the `MetricsSnapshot` answer.
#[test]
fn bound_disk_store_reports_wal_fsyncs_in_the_exposition() {
    const FLUSHES: u64 = 3;
    let path = std::env::temp_dir().join(format!("simcloud-ops-wal-{}.db", std::process::id()));
    let registry = Registry::new();
    let mut store = DiskStore::create(&path).unwrap();
    store.bind_telemetry(&registry);
    let index = parking_lot::RwLock::new(MIndex::new(config(4), store).unwrap());
    let server = ServerEngine::from_index(
        index,
        ServerConfig::default(),
        ServerTelemetry::with_registry(registry),
    );
    for id in 0..FLUSHES {
        assert_eq!(
            ask(&server, Request::Insert(vec![entry(id, 5)])),
            Response::Inserted(1)
        );
        server.flush().unwrap();
    }
    let text = match ask(&server, Request::MetricsSnapshot) {
        Response::MetricsSnapshot(text) => text,
        other => panic!("unexpected {other:?}"),
    };
    assert!(
        text.contains(&format!("histogram wal.fsync count={FLUSHES} ")),
        "{text}"
    );
    drop(server);
    simcloud_storage::FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(&path);
}
