//! Deployments under test: what the four workloads serve, how a client is
//! wired to them (plain or through the tracing decorators), and the timed
//! set-up that builds one.

use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use crate::decorators::{RequestTags, TracedHandler, TracedMetric, TracedStore, TracedTransport};
use crate::spans::{Layer, SpanLog};
use crate::sut::{
    evaluator_for, stage_candidates, BucketStore, ClientConfig, CloudServer, CostReport,
    DatasetMetric, DiskStore, EncryptedClient, IndexEntry, IoStats, MIndexError, MemoryStore,
    Metric, ObjectId, PivotSelection, PromiseEvaluator, Request, Response, SearchStats, SecretKey,
    ServerTelemetry, ShardedCloudServer, SharedRequestHandler, TcpServerHandle, TcpTransport,
    Transport, Vector,
};
use crate::{Env, Res};

/// A bucket store the benchmark can ask for its in-memory footprint.
pub trait Store: BucketStore + 'static {
    /// Bytes of record payload held in memory (0 for a file-backed store,
    /// whose footprint is its files).
    fn resident_bytes(&self) -> u64;
}

impl Store for MemoryStore {
    fn resident_bytes(&self) -> u64 {
        self.payload_bytes() as u64
    }
}

impl Store for DiskStore {
    fn resident_bytes(&self) -> u64 {
        0
    }
}

impl<S: Store> Store for TracedStore<S> {
    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }
}

/// One kNN request replayed from outside through the server's public
/// pieces, each step timed (µs). `open` and `pull` are the index's two
/// phases: `knn_cursor` / `collect_up_to` on a single index,
/// `open_knn_cursors` / `drain` on a sharded one.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayTimes {
    pub decode_us: f64,
    pub open_us: f64,
    pub pull_us: f64,
    pub stage_us: f64,
    pub encode_us: f64,
}

impl ReplayTimes {
    pub fn total_us(&self) -> f64 {
        self.decode_us + self.open_us + self.pull_us + self.stage_us + self.encode_us
    }
}

/// Ranked candidates as the index hands them to staging.
type Ranked = Vec<(IndexEntry, f64)>;

/// The server front ends the benchmark deploys, behind one interface.
pub trait Sut: SharedRequestHandler + 'static {
    fn flush(&self) -> Result<(), MIndexError>;
    fn telemetry(&self) -> &ServerTelemetry;
    fn inline_budget(&self) -> Option<usize>;
    fn io_stats(&self) -> IoStats;
    fn resident_bytes(&self) -> u64;
    /// Entries per shard (one element for an unsharded server).
    fn shard_lens(&self) -> Vec<u64>;
    /// Opens the kNN cursor(s); the returned closure pulls them dry.
    fn open_knn<'a>(
        &'a self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Option<Box<dyn FnOnce() -> Option<Ranked> + 'a>>;
    /// Whether a by-id `fetch_entries` of `ids` succeeded.
    fn fetch_entries_ok(&self, ids: &[u64]) -> bool;

    fn search_totals(&self) -> SearchStats {
        self.telemetry().total_search_stats()
    }

    /// Σ of the server's own phase histograms, nanoseconds.
    fn own_phase_ns(&self) -> u64 {
        let t = self.telemetry();
        [
            t.decode_hist(),
            t.route_hist(),
            t.open_hist(),
            t.pull_hist(),
            t.stage_hist(),
            t.encode_hist(),
            t.insert_hist(),
        ]
        .iter()
        .map(|h| h.snapshot().sum)
        .sum()
    }

    /// `None` if `request` is not a well-formed kNN request.
    fn replay_knn(&self, request: &[u8]) -> Option<ReplayTimes> {
        let us = |from: Instant, to: Instant| to.duration_since(from).as_nanos() as f64 / 1e3;
        let t0 = Instant::now();
        let Ok(Request::ApproxKnn { routing, cand_size }) = Request::decode(request) else {
            return None;
        };
        let t1 = Instant::now();
        let pull = self.open_knn(&evaluator_for(routing), cand_size as usize)?;
        let t2 = Instant::now();
        let entries = pull()?;
        let t3 = Instant::now();
        let list = stage_candidates(entries, self.inline_budget());
        let t4 = Instant::now();
        black_box(Response::CandidateList(list).encode());
        let t5 = Instant::now();
        Some(ReplayTimes {
            decode_us: us(t0, t1),
            open_us: us(t1, t2),
            pull_us: us(t2, t3),
            stage_us: us(t3, t4),
            encode_us: us(t4, t5),
        })
    }
}

impl<S: Store> Sut for CloudServer<S> {
    fn flush(&self) -> Result<(), MIndexError> {
        CloudServer::flush(self)
    }

    fn telemetry(&self) -> &ServerTelemetry {
        CloudServer::telemetry(self)
    }

    fn inline_budget(&self) -> Option<usize> {
        self.server_config().max_inline_response_bytes
    }

    fn io_stats(&self) -> IoStats {
        self.index().store().stats()
    }

    fn resident_bytes(&self) -> u64 {
        self.index().store().resident_bytes()
    }

    fn shard_lens(&self) -> Vec<u64> {
        vec![self.index().len()]
    }

    fn open_knn<'a>(
        &'a self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Option<Box<dyn FnOnce() -> Option<Ranked> + 'a>> {
        let cursor = self.index().knn_cursor(evaluator, cand_size).ok()?;
        Some(Box::new(move || {
            cursor.collect_up_to(Some(cand_size)).ok().map(|(e, _)| e)
        }))
    }

    fn fetch_entries_ok(&self, ids: &[u64]) -> bool {
        self.index().fetch_entries(ids).is_ok()
    }
}

impl<S: Store> Sut for ShardedCloudServer<S> {
    fn flush(&self) -> Result<(), MIndexError> {
        ShardedCloudServer::flush(self)
    }

    fn telemetry(&self) -> &ServerTelemetry {
        ShardedCloudServer::telemetry(self)
    }

    fn inline_budget(&self) -> Option<usize> {
        self.server_config().max_inline_response_bytes
    }

    fn io_stats(&self) -> IoStats {
        self.index().io_stats()
    }

    fn resident_bytes(&self) -> u64 {
        (0..self.index().shard_count())
            .filter_map(|i| self.index().shard(i))
            .map(|shard| shard.store().resident_bytes())
            .sum()
    }

    fn shard_lens(&self) -> Vec<u64> {
        (0..self.index().shard_count())
            .filter_map(|i| self.index().shard(i))
            .map(|shard| shard.len())
            .collect()
    }

    fn open_knn<'a>(
        &'a self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Option<Box<dyn FnOnce() -> Option<Ranked> + 'a>> {
        let (cursors, cap) = self.index().open_knn_cursors(evaluator, cand_size).ok()?;
        Some(Box::new(move || {
            self.index().drain(cursors, cap).ok().map(|(e, _)| e)
        }))
    }

    fn fetch_entries_ok(&self, ids: &[u64]) -> bool {
        self.index().fetch_entries(ids).is_ok()
    }
}

/// How clients and the server are wired: directly (the untraced run) or
/// through the tracing decorators (the traced run).
pub trait Wiring: Sync {
    type M: Metric<Vector> + Clone + Send + 'static;
    type T: Transport + Send;
    fn log(&self) -> Option<&SpanLog>;
    fn metric(&self, metric: DatasetMetric) -> Self::M;
    fn transport(&self, transport: TcpTransport) -> Self::T;
    fn serve<H: Sut>(&self, server: Arc<H>) -> std::io::Result<TcpServerHandle>;
}

#[derive(Debug)]
pub struct Plain;

impl Wiring for Plain {
    type M = DatasetMetric;
    type T = TcpTransport;

    fn log(&self) -> Option<&SpanLog> {
        None
    }

    fn metric(&self, metric: DatasetMetric) -> DatasetMetric {
        metric
    }

    fn transport(&self, transport: TcpTransport) -> TcpTransport {
        transport
    }

    fn serve<H: Sut>(&self, server: Arc<H>) -> std::io::Result<TcpServerHandle> {
        crate::sut::serve_tcp_shared(server)
    }
}

#[derive(Debug)]
pub struct Traced(pub Arc<SpanLog>);

impl Wiring for Traced {
    type M = TracedMetric<DatasetMetric>;
    type T = TracedTransport<TcpTransport>;

    fn log(&self) -> Option<&SpanLog> {
        Some(&self.0)
    }

    fn metric(&self, metric: DatasetMetric) -> Self::M {
        TracedMetric {
            inner: metric,
            log: self.0.clone(),
        }
    }

    fn transport(&self, transport: TcpTransport) -> Self::T {
        TracedTransport {
            inner: transport,
            log: self.0.clone(),
        }
    }

    fn serve<H: Sut>(&self, server: Arc<H>) -> std::io::Result<TcpServerHandle> {
        crate::sut::serve_tcp_shared(Arc::new(TracedHandler {
            inner: server,
            log: self.0.clone(),
            tags: RequestTags::default(),
        }))
    }
}

pub type Client<W, T = <W as Wiring>::T> = EncryptedClient<<W as Wiring>::M, T>;

/// A client over `wrap(tcp connection)`. IVs are seeded, so the same seed
/// seals the same bytes.
pub fn connect_via<W: Wiring, T: Transport>(
    w: &W,
    env: &Env,
    key: &SecretKey,
    addr: SocketAddr,
    wrap: impl FnOnce(W::T) -> T,
) -> Res<Client<W, T>> {
    let transport = wrap(w.transport(TcpTransport::connect(addr)?));
    Ok(EncryptedClient::new(
        key.clone(),
        w.metric(env.metric.clone()),
        transport,
        ClientConfig::distances(),
    )
    .with_rng_seed(env.seed))
}

pub fn connect<W: Wiring>(w: &W, env: &Env, key: &SecretKey, addr: SocketAddr) -> Res<Client<W>> {
    connect_via(w, env, key, addr, |t| t)
}

/// A running deployment: the server, its TCP front, the key that sealed it.
pub struct Deployment<H> {
    pub server: Arc<H>,
    pub handle: TcpServerHandle,
    pub key: SecretKey,
    /// The store's data file, when it has one.
    pub file: Option<PathBuf>,
}

/// Makes a fresh, empty server (and names its data file, if any).
pub type MakeServer<'a, H> = &'a dyn Fn() -> Res<(Arc<H>, Option<PathBuf>)>;

impl<H> Deployment<H> {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

impl<H: Sut> Deployment<H> {
    /// Bytes the store holds: its data file, log and meta sidecars after a
    /// flush, or the resident record bytes of a memory store.
    pub fn stored_bytes(&self) -> u64 {
        match &self.file {
            Some(path) => ["", ".wal", ".meta"]
                .iter()
                .filter_map(|ext| {
                    let mut sidecar = path.clone().into_os_string();
                    sidecar.push(ext);
                    std::fs::metadata(sidecar).ok()
                })
                .map(|m| m.len())
                .sum(),
            None => self.server.resident_bytes(),
        }
    }
}

/// What one timed set-up cost.
#[derive(Debug, Default, Clone)]
pub struct SetupReport {
    /// Key generation + server start + bulk build + flushes + ready.
    pub setup_s: f64,
    /// The bulk build alone (first bulk sent → last flush done).
    pub build_s: f64,
    /// Latency of each `insert_bulk` with its flush, milliseconds.
    pub bulk_ms: Vec<f64>,
    pub costs: CostReport,
}

/// Objects per `insert_bulk` during a build (the paper's bulk size).
pub const BUILD_BULK: usize = 1000;

/// Builds the index through one client connection: `insert_bulk` of
/// [`BUILD_BULK`], the server committing (`flush`) after every bulk.
///
/// Commit-per-bulk is a choice for steadiness. A `DiskStore` pins dirty pages
/// in its buffer pool until a flush, scans the whole pool for a victim on
/// every page it allocates, and evicts only on a miss. Flushed rarely, a
/// build slows as dirty pages pile up, the bulk after each flush pays for
/// the eviction, and per-bulk latency has two modes whose share decides
/// where the 95th percentile falls; never flushed until the end, the whole
/// collection stays cached and `serve_disk` measures a memory store. With a
/// flush after every bulk each bulk does the same work. A memory store's
/// flush is a no-op.
pub fn build<H: Sut, W: Wiring, T: Transport>(
    w: &W,
    client: &mut Client<W, T>,
    server: &H,
    data: &[Vector],
) -> Res<SetupReport> {
    let mut report = SetupReport::default();
    let start = Instant::now();
    for (i, chunk) in data.chunks(BUILD_BULK).enumerate() {
        let chunk: Vec<(ObjectId, Vector)> = chunk
            .iter()
            .enumerate()
            .map(|(j, v)| (ObjectId((i * BUILD_BULK + j) as u64), v.clone()))
            .collect();
        let span = w
            .log()
            .and_then(|l| l.enter("client.insert", Layer::Client));
        let t = Instant::now();
        let costs = client.insert_bulk(&chunk)?;
        server.flush()?;
        report.bulk_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(span);
        report.costs.merge(&costs);
    }
    report.build_s = start.elapsed().as_secs_f64();
    Ok(report)
}

/// The timed set-up: key generation, server start, bulk build, flush, ready.
pub fn set_up<H: Sut, W: Wiring>(
    w: &W,
    env: &Env,
    make: MakeServer<'_, H>,
) -> Res<(Deployment<H>, SetupReport)> {
    let start = Instant::now();
    let (key, _master) = SecretKey::generate(
        &env.data,
        crate::PIVOTS,
        &env.metric,
        PivotSelection::Random,
        env.seed,
    );
    let (server, file) = make()?;
    let handle = w.serve(server.clone())?;
    let mut client = connect(w, env, &key, handle.addr())?;
    let mut report = build(w, &mut client, &*server, &env.data)?;
    let (entries, _, _) = client.server_info()?;
    if entries != env.n as u64 {
        return Err(format!("server holds {entries} entries after building {}", env.n).into());
    }
    report.setup_s = start.elapsed().as_secs_f64();
    Ok((
        Deployment {
            server,
            handle,
            key,
            file,
        },
        report,
    ))
}

/// Where a workload's disk store lives: under the benchmark's own `out/`.
pub fn data_dir() -> PathBuf {
    crate::out_dir().join(format!("data-{}", std::process::id()))
}
