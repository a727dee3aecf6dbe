//! The authorized encryption client (paper Alg. 1 and Alg. 2).
//!
//! The client owns the secret key (pivots + cipher) and the metric; the
//! server owns nothing sensitive. Every operation returns its results
//! together with a [`CostReport`] whose components correspond one-to-one to
//! the rows of the paper's evaluation tables.

use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::RngCore;

use simcloud_crypto::SealError;
use simcloud_metric::{CountingMetric, Metric, ObjectId, TableScratch, Vector};
use simcloud_mindex::{IndexEntry, Routing, RoutingStrategy};
use simcloud_transport::{RequestClass, Transport, TransportError, TransportStats};

use crate::costs::{timed, CostReport};
use crate::key::SecretKey;
use crate::protocol::{
    CandidateHeader, CandidateListView, FetchedObject, Request, Response, SearchAnswerView,
};
use crate::transform::DistanceTransform;

/// A search answer: object id and true distance to the query.
pub type Neighbor = (ObjectId, f64);

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Transport(TransportError),
    /// The server answered with an error message.
    Server(String),
    /// A bulk insert failed mid-batch **with a server answer**: the server
    /// processed the batch in order, stored the `inserted`-entry prefix,
    /// and rejected the next entry (e.g. a duplicate id).
    ///
    /// Bulk inserts are **not atomic**. The safe retry recipe: skip the
    /// acked prefix and resubmit only the remainder —
    /// `client.insert_bulk(&objects[inserted as usize..])` after fixing
    /// (or dropping) the offending entry. Never resubmit the full batch:
    /// the stored prefix would collide on duplicate ids and the retry
    /// would fail on its very first entry.
    PartialInsert {
        /// Entries of the batch that the server stored before failing.
        inserted: u32,
        /// The server's failure description.
        message: String,
    },
    /// A bulk insert failed **without a server answer**: the transport
    /// died mid-exchange (connection cut, timeout, torn frame), so the
    /// client cannot know whether the server stored nothing, the whole
    /// batch, or — had a server-side error raced the disconnect — some
    /// prefix. Inserts are never auto-retried by the transport precisely
    /// because a blind replay of an already-stored batch turns into a
    /// duplicate-id rejection.
    ///
    /// `acked` is the number of entries positively acknowledged before the
    /// failure; with the single-frame bulk wire this is always 0 — the
    /// server acks a batch as a whole. To recover, call
    /// [`EncryptedClient::insert_bulk_resume`] with the same batch: it
    /// probes the server for the stored prefix and resubmits only the
    /// remainder, giving exactly-once ingest over a lossy network.
    InsertInterrupted {
        /// Entries known stored on the server (a batch-order prefix).
        acked: u32,
        /// The transport failure that interrupted the exchange.
        error: TransportError,
    },
    /// The server's response did not match the request type.
    UnexpectedResponse(String),
    /// A candidate failed decryption/authentication — tampering or key
    /// mismatch.
    Seal(SealError),
    /// A decrypted payload was not a valid object encoding.
    BadObject(u64),
    /// Operation requires the distance routing strategy.
    NeedsDistances,
    /// A phase-2 fetch answer deviated from the request: wrong count,
    /// reordered, duplicated, or never-requested ids. Any deviation is
    /// treated as an attack and aborts the query — sealed payloads are
    /// additionally MAC-bound to their ids, so a *content* swap behind
    /// correct-looking ids is caught at unseal time as [`ClientError::Seal`].
    FetchMismatch(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::PartialInsert { inserted, message } => write!(
                f,
                "bulk insert failed after {inserted} stored entries: {message}"
            ),
            ClientError::InsertInterrupted { acked, error } => write!(
                f,
                "bulk insert interrupted by the transport after {acked} acked entries \
                 (stored prefix unknown — resume with insert_bulk_resume): {error}"
            ),
            ClientError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
            ClientError::Seal(e) => write!(f, "candidate rejected: {e}"),
            ClientError::BadObject(id) => write!(f, "object {id} undecodable after unseal"),
            ClientError::NeedsDistances => {
                write!(
                    f,
                    "precise range queries require the distance routing strategy"
                )
            }
            ClientError::FetchMismatch(m) => write!(f, "fetched objects mismatch request: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<SealError> for ClientError {
    fn from(e: SealError) -> Self {
        ClientError::Seal(e)
    }
}

/// Phase-2 fetch sizing, `α`: while the top-k heap is still filling, the
/// first explicit fetch asks for `α·k` candidates (the early exit usually
/// lands within a small multiple of `k`); every further fetch doubles.
const FETCH_ALPHA: usize = 4;

/// Floor for phase-2 fetch batches — keeps tiny `k` from degenerating into
/// per-candidate round trips while the top-k heap fills. (Range queries
/// never use it: their fetches are always bound-guided by the wire radius.)
const FETCH_MIN_BATCH: usize = 32;

/// Candidate-refinement policy: when may the client stop unsealing?
///
/// Candidate sets arrive sorted by a server-computed lower bound. Under the
/// **distances** strategy the bound is a sound metric lower bound on
/// `d(q, o)` (wire-safe: the `f32` quantization of stored distances is
/// already subtracted server-side), so stopping once the k-th true distance
/// beats every remaining bound provably returns the same neighbors as
/// decrypting everything. Under the **permutation** strategy the server has
/// no distances — the "bound" is the cell-promise penalty, a heuristic —
/// so a sound early exit is impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LazyRefine {
    /// Decrypt every candidate (the paper's eager Alg. 2 loop).
    Off,
    /// Decrypt on demand, early-exiting only when the wire bounds are sound
    /// (distance routing); permutation candidate sets are refined eagerly.
    /// Results are identical to [`LazyRefine::Off`] in both cases.
    #[default]
    Sound,
}

/// Client configuration: routing strategy and optional extensions.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Routing information stored with objects (must match the server's
    /// index configuration).
    pub strategy: RoutingStrategy,
    /// Level-4 privacy extension (paper §6 future work): monotone keyed
    /// transformation of all distances shipped to the server.
    pub transform: Option<DistanceTransform>,
    /// Decrypt-on-demand refinement policy (default: sound early exit).
    pub lazy_refine: LazyRefine,
}

impl ClientConfig {
    /// Distance routing, no transform — the paper's precise-strategy setup.
    pub fn distances() -> Self {
        Self {
            strategy: RoutingStrategy::Distances,
            transform: None,
            lazy_refine: LazyRefine::Sound,
        }
    }

    /// Permutation routing — the paper's approximate-strategy setup.
    pub fn permutations() -> Self {
        Self {
            strategy: RoutingStrategy::Permutation,
            transform: None,
            lazy_refine: LazyRefine::Sound,
        }
    }

    /// Adds the distance transformation (level-4 privacy).
    pub fn with_transform(mut self, t: DistanceTransform) -> Self {
        self.transform = Some(t);
        self
    }

    /// Overrides the refinement policy (eager or sound-lazy).
    pub fn with_lazy_refine(mut self, lazy: LazyRefine) -> Self {
        self.lazy_refine = lazy;
        self
    }
}

/// The routing information Alg. 1 lines 3-7 store with an object (and
/// Alg. 2 sends with a query), derived from its pivot distances under
/// `config`'s strategy.
fn routing_for(config: &ClientConfig, distances: &[f64]) -> Routing {
    match config.strategy {
        RoutingStrategy::Distances => {
            let ds = match &config.transform {
                Some(t) => t.apply_all(distances),
                None => distances.to_vec(),
            };
            Routing::from_distances(&ds)
        }
        RoutingStrategy::Permutation => {
            // Monotone transforms do not change permutations, so the
            // transform is a no-op here — exactly the paper's point that
            // permutations already hide distance values. The client
            // sends the full permutation, as Alg. 1 line 7 stores
            // `(1)_o … (n)_o`.
            Routing::permutation_prefix(distances, distances.len())
        }
    }
}

/// Fewest objects a bulk-preparation worker is given: a bulk smaller than
/// twice this (a single insert, a writer's small bulk) is prepared on the
/// calling thread, where starting workers would cost more than they save.
const MIN_OBJECTS_PER_WORKER: usize = 64;

/// Index entries of a run of a bulk, with the time spent on each phase.
struct PreparedRun {
    entries: Vec<IndexEntry>,
    distance: Duration,
    encryption: Duration,
}

/// Alg. 1 for a run of a bulk, one object at a time: pivot distances
/// (line 1), routing (lines 3-7) and the seal under the object's IV from
/// `ivs` (line 8). The seal is MAC-bound to the object's id, so an
/// untrusted server cannot later answer a fetch for one id with another
/// id's (individually valid) sealed payload.
fn prepare_run<M: Metric<Vector>>(
    key: &SecretKey,
    metric: &CountingMetric<M>,
    config: &ClientConfig,
    objects: &[(ObjectId, Vector)],
    ivs: &[[u8; 16]],
) -> PreparedRun {
    let mut run = PreparedRun {
        entries: Vec::with_capacity(objects.len()),
        distance: Duration::ZERO,
        encryption: Duration::ZERO,
    };
    let mut scratch = TableScratch::default();
    for ((id, o), iv) in objects.iter().zip(ivs) {
        timed(&mut run.distance, || {
            key.pivot_distances_into(metric, o, &mut scratch);
        });
        let routing = routing_for(config, scratch.distances());
        let sealed = timed(&mut run.encryption, || {
            let mut plain = Vec::with_capacity(o.encoded_len());
            o.encode(&mut plain);
            key.cipher()
                .seal_with_iv_aad(&plain, &id.0.to_le_bytes(), key.mode(), iv)
        });
        run.entries.push(IndexEntry::new(id.0, routing, sealed));
    }
    run
}

/// What a refinement pass is asked to produce.
#[derive(Debug, Clone, Copy)]
enum RefineGoal {
    /// The best `k` neighbors of the candidate set.
    TopK(usize),
    /// All candidates within `radius`; `wire_radius` is the same threshold
    /// in the wire-bound space (transformed + inflated when the level-4
    /// transform is active) for comparisons against candidate bounds.
    Within { radius: f64, wire_radius: f64 },
}

/// Max-heap entry ordered by (true distance, id) — its maximum is the
/// *worst* member of the current best-k, i.e. the running k-th neighbor.
#[derive(Debug, PartialEq)]
struct WorstNeighbor(f64, u64);

impl Eq for WorstNeighbor {}

impl PartialOrd for WorstNeighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WorstNeighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// One query's suspended decrypt-on-demand refinement — the Alg. 2 loop in
/// resumable form.
///
/// `advance_refine` runs the exit-check / decrypt / rank loop until the
/// candidate at the cursor has no payload staged and reports how far the
/// stall's fetch should reach; the one refine loop,
/// [`EncryptedClient::refine_rounds`], **coalesces every stalled task's
/// plan into one [`Request::FetchObjects`] round trip** and resumes them
/// (a lone query is a one-task round). The task borrows the query vector
/// and the response frame its candidate list was parsed from, never the
/// client, so any number of tasks can be suspended while the client's
/// transport is busy fetching for all of them.
struct RefineTask<'a> {
    q: &'a Vector,
    goal: RefineGoal,
    headers: Vec<CandidateHeader>,
    payloads: Vec<Slot<'a>>,
    /// Minimum lower bound over `headers[i..]` (lazy mode only).
    suffix_min: Vec<f64>,
    lazy: bool,
    /// Eager refinement stages the whole remainder in one fetch before the
    /// loop; this flag makes that stall fire exactly once.
    eager_prefetched: bool,
    heap: BinaryHeap<WorstNeighbor>,
    /// Next header position the loop will examine.
    cursor: usize,
    grown: usize,
    /// Ids this task added to the current round's coalesced fetch.
    awaiting: usize,
    decrypted: u64,
    bad: u64,
    first_bad: Option<ClientError>,
    /// Wall time spent inside the loop (fetch round trips excluded) —
    /// lands in `costs.decryption` when the task settles.
    loop_time: std::time::Duration,
}

/// Where a candidate's sealed payload is, one slot per header. The inlined
/// phase-1 prefix stays **in the response frame** — the task borrows it,
/// the loop unseals straight from it, and a payload the early exit never
/// reaches is never copied.
#[derive(Debug)]
enum Slot<'a> {
    /// Inlined by phase 1: a slice of the response frame.
    Inline(&'a [u8]),
    /// Pulled by a phase-2 fetch.
    Fetched(Vec<u8>),
    /// Not on the client (yet, or already consumed).
    Missing,
}

impl Slot<'_> {
    fn is_missing(&self) -> bool {
        matches!(self, Slot::Missing)
    }
}

impl RefineTask<'_> {
    /// Plans a stall's fetch into the round's coalesced request: up to
    /// `limit` still-missing payload slots from `from` on, their ids
    /// appended to `ids` and their positions to `positions`. Returns how
    /// many it planned (also kept in `awaiting`). A task's plan depends on
    /// its own slots only, so a stall asks for the same ids alone or
    /// beside siblings.
    fn plan_fetch(
        &mut self,
        from: usize,
        limit: usize,
        ids: &mut Vec<u64>,
        positions: &mut Vec<usize>,
    ) -> usize {
        let limit = limit.max(1).min(self.payloads.len().saturating_sub(from));
        ids.reserve(limit);
        positions.reserve(limit);
        let slots = self.headers.iter().zip(&self.payloads).enumerate();
        let missing = slots.skip(from).filter(|(_, (_, p))| p.is_missing());
        let before = positions.len();
        for (i, (h, _)) in missing.take(limit) {
            ids.push(h.id);
            positions.push(i);
        }
        self.awaiting = positions.len() - before;
        self.awaiting
    }

    /// Stores this task's span of a coalesced fetch answer — `(object,
    /// position)` pairs that must mirror the ids it planned, in order. The
    /// whole span is consumed even past a mismatch, so the spans of the
    /// tasks after it stay aligned.
    fn take_fetched(
        &mut self,
        span: impl Iterator<Item = (FetchedObject, usize)>,
    ) -> Result<(), ClientError> {
        let mut mismatch = None;
        for (obj, pos) in span {
            let (Some(h), Some(slot)) = (self.headers.get(pos), self.payloads.get_mut(pos)) else {
                continue;
            };
            if obj.id != h.id {
                mismatch.get_or_insert_with(|| {
                    ClientError::FetchMismatch(format!(
                        "server answered id {} where {} was requested",
                        obj.id, h.id
                    ))
                });
            } else if mismatch.is_none() {
                *slot = Slot::Fetched(obj.payload);
            }
        }
        mismatch.map_or(Ok(()), Err)
    }
}

/// One client operation in progress: the report its body books phase
/// times and counts into, plus what [`EncryptedClient::operation`] needs
/// to complete the report when the body returns.
struct Op {
    costs: CostReport,
    start: Instant,
    distances_before: u64,
    transport_before: TransportStats,
    /// Wall time spent inside the transport. The client is idle during
    /// it, so "client time" = operation elapsed − this, whether the
    /// transport is in-process (the handler runs inline) or TCP (send,
    /// server and receive happen remotely).
    in_transport: Duration,
}

/// A refine slot's answer: [`EncryptedClient::refine_rounds`] settles every
/// slot before it returns.
fn settled(
    outcome: Option<Result<Vec<Neighbor>, ClientError>>,
) -> Result<Vec<Neighbor>, ClientError> {
    outcome.unwrap_or_else(|| {
        Err(ClientError::UnexpectedResponse(
            "refinement never completed".into(),
        ))
    })
}

/// A request's `cand_size` on the wire. It saturates rather than wraps, so
/// a size past `u32::MAX` reaches the server's header cap and is refused
/// there instead of silently shrinking to its low 32 bits.
fn wire_cand_size(cand_size: usize) -> u32 {
    u32::try_from(cand_size).unwrap_or(u32::MAX)
}

/// Turns the server's typed failure answers into client errors.
fn accepted(resp: Response) -> Result<Response, ClientError> {
    match resp {
        Response::Error(msg) => Err(ClientError::Server(msg)),
        Response::InsertError { inserted, message } => {
            Err(ClientError::PartialInsert { inserted, message })
        }
        other => Ok(other),
    }
}

/// Parses a search's response frame in place: candidate lists stay
/// borrowed from `frame`, a server failure becomes its client error.
fn search_answer(frame: &[u8]) -> Result<SearchAnswerView<'_>, ClientError> {
    match SearchAnswerView::parse(frame)
        .map_err(|e| ClientError::UnexpectedResponse(e.to_string()))?
    {
        SearchAnswerView::Other(resp) => accepted(resp).map(SearchAnswerView::Other),
        answer => Ok(answer),
    }
}

/// The authorized client.
pub struct EncryptedClient<M: Metric<Vector>, T: Transport> {
    key: SecretKey,
    metric: Arc<CountingMetric<M>>,
    transport: T,
    config: ClientConfig,
    rng: rand::rngs::StdRng,
    total: CostReport,
}

impl<M: Metric<Vector>, T: Transport> std::fmt::Debug for EncryptedClient<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncryptedClient").finish_non_exhaustive()
    }
}

impl<M: Metric<Vector>, T: Transport> EncryptedClient<M, T> {
    /// Creates a client. `config.strategy` must match the server index.
    pub fn new(key: SecretKey, metric: M, transport: T, config: ClientConfig) -> Self {
        use rand::SeedableRng;
        Self {
            key,
            metric: Arc::new(CountingMetric::new(metric)),
            transport,
            config,
            rng: rand::rngs::StdRng::from_entropy(),
            total: CostReport::default(),
        }
    }

    /// Deterministic IVs for reproducible byte-level experiments.
    pub fn with_rng_seed(mut self, seed: u64) -> Self {
        use rand::SeedableRng;
        self.rng = rand::rngs::StdRng::seed_from_u64(seed);
        self
    }

    /// The secret key in use.
    pub fn key(&self) -> &SecretKey {
        &self.key
    }

    /// Accumulated costs across all operations.
    pub fn total_costs(&self) -> CostReport {
        self.total
    }

    /// Access to the transport (stats inspection).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Runs one client operation — every public call that talks to the
    /// server goes through here. `body` does the work, booking phase times
    /// and counts into its [`Op`]; once it succeeds, this is the one place
    /// an operation's report is completed: the transport's stats delta
    /// (server and communication time, bytes in both directions), the
    /// client-side metric evaluations and the client time, after which
    /// the report is added to [`Self::total_costs`]. A failed operation
    /// books nothing.
    fn operation<R>(
        &mut self,
        body: impl FnOnce(&mut Self, &mut Op) -> Result<R, ClientError>,
    ) -> Result<(R, CostReport), ClientError> {
        let mut op = Op {
            costs: CostReport::default(),
            start: Instant::now(),
            distances_before: self.metric.count(),
            transport_before: self.transport.stats(),
            in_transport: Duration::ZERO,
        };
        let result = body(self, &mut op)?;
        let mut costs = op.costs;
        costs.add_transport(&self.transport.stats().since(&op.transport_before));
        costs.distance_computations = self.metric.count() - op.distances_before;
        costs.client = op.start.elapsed().saturating_sub(op.in_transport);
        self.total.merge(&costs);
        Ok((result, costs))
    }

    /// One request/response exchange of `op`, decoded, with the server's
    /// typed failure answers turned into client errors.
    fn exchange(&mut self, request: &Request, op: &mut Op) -> Result<Response, ClientError> {
        let frame = self.exchange_frame(request, op)?;
        let resp =
            Response::decode(&frame).map_err(|e| ClientError::UnexpectedResponse(e.to_string()))?;
        accepted(resp)
    }

    /// The transport half of [`Self::exchange`]: ships the request and
    /// returns the raw response frame, timing the round trip into
    /// `op.in_transport`. Search answers are parsed in place from it
    /// ([`search_answer`]) instead of being decoded into owned lists.
    fn exchange_frame(&mut self, request: &Request, op: &mut Op) -> Result<Vec<u8>, ClientError> {
        let bytes = request.encode();
        // Classify for the transport's retry machinery: every request is a
        // pure read except Insert, whose blind replay after an ambiguous
        // failure could double-store a batch (surfacing as a duplicate-id
        // rejection). The transport auto-retries only idempotent requests;
        // interrupted inserts come back as a typed transport error that
        // [`EncryptedClient::insert_bulk`] wraps into
        // [`ClientError::InsertInterrupted`].
        let class = match request {
            Request::Insert(_) => RequestClass::NonIdempotent,
            _ => RequestClass::Idempotent,
        };
        Ok(timed(&mut op.in_transport, || {
            self.transport.round_trip_with(&bytes, class, None)
        })?)
    }

    /// Alg. 1 for a whole bulk. The objects' IVs are drawn from the
    /// client's generator in input order first; contiguous runs are then
    /// prepared on up to `available_parallelism()` scoped workers and
    /// concatenated in input order, so the entries are the serial loop's,
    /// byte for byte, however many workers ran.
    ///
    /// A serial pass books its own phase times into `costs`. A parallel pass
    /// books its wall time instead — the workers' summed times would exceed
    /// the client time they are a share of — split between `distance` and
    /// `encryption` in the ratio of the workers' summed phase times.
    fn prepare_bulk(
        &mut self,
        objects: &[(ObjectId, Vector)],
        costs: &mut CostReport,
    ) -> Vec<IndexEntry> {
        let ivs: Vec<[u8; 16]> = objects
            .iter()
            .map(|_| {
                let mut iv = [0u8; 16];
                self.rng.fill_bytes(&mut iv);
                iv
            })
            .collect();
        let (key, metric, config) = (&self.key, self.metric.as_ref(), &self.config);
        let max_workers = objects.len() / MIN_OBJECTS_PER_WORKER;
        let workers = if max_workers < 2 {
            1
        } else {
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(max_workers)
        };
        if workers == 1 {
            let run = prepare_run(key, metric, config, objects, &ivs);
            costs.distance += run.distance;
            costs.encryption += run.encryption;
            return run.entries;
        }
        let run_len = objects.len().div_ceil(workers);
        let start = Instant::now();
        let runs: Vec<PreparedRun> = std::thread::scope(|s| {
            let handles: Vec<_> = objects
                .chunks(run_len)
                .zip(ivs.chunks(run_len))
                .map(|(objects, ivs)| {
                    s.spawn(move || prepare_run(key, metric, config, objects, ivs))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        let wall = start.elapsed();
        let distance: Duration = runs.iter().map(|r| r.distance).sum();
        let busy = distance + runs.iter().map(|r| r.encryption).sum::<Duration>();
        let to_distance = if busy.is_zero() {
            Duration::ZERO
        } else {
            wall.mul_f64(distance.as_secs_f64() / busy.as_secs_f64())
        };
        costs.distance += to_distance;
        costs.encryption += wall.saturating_sub(to_distance);
        let mut entries = Vec::with_capacity(objects.len());
        for run in runs {
            entries.extend(run.entries);
        }
        entries
    }

    /// Inserts a batch of objects (Alg. 1 applied per object, shipped as one
    /// bulk — the paper's construction uses bulks of 1000).
    pub fn insert_bulk(
        &mut self,
        objects: &[(ObjectId, Vector)],
    ) -> Result<CostReport, ClientError> {
        self.operation(|this, op| {
            let entries = this.prepare_bulk(objects, &mut op.costs);
            let resp = this
                .exchange(&Request::Insert(entries), op)
                .map_err(|e| match e {
                    // The transport died mid-exchange: the server stored
                    // either nothing (request lost) or a prefix/all
                    // (response lost). Surface the ambiguity as a typed,
                    // resumable error instead of a bare transport failure.
                    ClientError::Transport(error) => {
                        ClientError::InsertInterrupted { acked: 0, error }
                    }
                    other => other,
                })?;
            match resp {
                Response::Inserted(n) if n as usize == objects.len() => Ok(()),
                Response::Inserted(n) => Err(ClientError::UnexpectedResponse(format!(
                    "{n} of {} entries inserted",
                    objects.len()
                ))),
                other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
            }
        })
        .map(|((), costs)| costs)
    }

    /// Convenience single insert.
    pub fn insert(&mut self, id: ObjectId, object: &Vector) -> Result<CostReport, ClientError> {
        self.insert_bulk(std::slice::from_ref(&(id, object.clone())))
    }

    /// Probes whether `id` is stored on the server with a single-id phase-2
    /// fetch — an idempotent read the transport retries freely. The
    /// server's typed "unknown object id" answer distinguishes *not stored*
    /// from a genuine failure.
    fn id_stored(&mut self, id: ObjectId, op: &mut Op) -> Result<bool, ClientError> {
        let request = Request::FetchObjects { ids: vec![id.0] };
        match self.exchange(&request, op) {
            Ok(Response::Objects(_)) => Ok(true),
            Ok(other) => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
            Err(ClientError::Server(msg)) if msg.contains("unknown object id") => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Resumes a bulk insert after [`ClientError::InsertInterrupted`],
    /// giving exactly-once ingest over a lossy network.
    ///
    /// The server processes a bulk in batch order and a torn request frame
    /// stores nothing, so after an interrupted exchange the stored portion
    /// of `objects` is always a (possibly empty, possibly complete) prefix.
    /// This probes that prefix's length with `O(log n)` idempotent
    /// single-id fetches — binary search over "is `objects[i]` stored?" —
    /// then resubmits only the remainder.
    ///
    /// The interrupted request may still be **in flight**: a cut on the
    /// response side leaves the server free to apply the bulk after the
    /// probe has already answered "nothing stored". The resend then loses
    /// the race and is rejected for a duplicate id. That rejection is not
    /// a failure — the rejected id being stored *now* proves the
    /// interrupted bulk is landing — so the resume probes again from the
    /// rejected position and resends what is still missing, until a
    /// resend is accepted or nothing is left to send. Any other rejection
    /// (including an id that appears twice in `objects`) surfaces as the
    /// usual [`ClientError::PartialInsert`].
    ///
    /// Returns the prefix length the last probe found (entries already
    /// stored, *not* re-sent by the final resend) and the combined cost of
    /// the probes plus the accepted insert.
    ///
    /// Call it with exactly the batch that was interrupted. The probe
    /// assumes the batch's ids were not on the server before the
    /// interrupted attempt (the normal unique-id ingest case); ids that
    /// pre-existed would read as "stored" and silently shrink the resend.
    /// The resend itself may be cut the same way — loop on
    /// [`ClientError::InsertInterrupted`] until it returns `Ok`.
    pub fn insert_bulk_resume(
        &mut self,
        objects: &[(ObjectId, Vector)],
    ) -> Result<(usize, CostReport), ClientError> {
        let mut costs = CostReport::default();
        let mut lo = 0usize;
        loop {
            lo = self.probe_stored_prefix(objects, lo, &mut costs)?;
            let remainder = objects.get(lo..).unwrap_or(&[]);
            if remainder.is_empty() {
                return Ok((lo, costs));
            }
            match self.insert_bulk(remainder) {
                Ok(insert_costs) => {
                    costs.merge(&insert_costs);
                    return Ok((lo, costs));
                }
                Err(ClientError::PartialInsert { inserted, message }) => {
                    // Every probe from `rejected` on finds it stored, so
                    // each round moves `lo` forward: the loop ends.
                    let rejected = lo.saturating_add(inserted as usize);
                    let landed_late = match objects.get(rejected) {
                        // An id repeated *inside* the batch is stored too,
                        // by its first copy: the caller's error, no race.
                        Some((id, _)) if objects.iter().take(rejected).all(|(e, _)| e != id) => {
                            self.probe_costed(*id, &mut costs)?
                        }
                        _ => false,
                    };
                    if !landed_late {
                        return Err(ClientError::PartialInsert { inserted, message });
                    }
                    lo = rejected;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Largest `lo ≥ from` with `objects[from..lo]` all stored;
    /// prefix-monotonicity (batch-order server processing) makes the
    /// binary search sound.
    fn probe_stored_prefix(
        &mut self,
        objects: &[(ObjectId, Vector)],
        from: usize,
        costs: &mut CostReport,
    ) -> Result<usize, ClientError> {
        let mut lo = from;
        let mut hi = objects.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let id = match objects.get(mid) {
                Some((id, _)) => *id,
                None => break,
            };
            if self.probe_costed(id, costs)? {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// One [`Self::id_stored`] probe, booked as its own operation into
    /// `costs` and the client's totals.
    fn probe_costed(&mut self, id: ObjectId, costs: &mut CostReport) -> Result<bool, ClientError> {
        let (stored, probe) = self.operation(|this, op| this.id_stored(id, op))?;
        costs.merge(&probe);
        Ok(stored)
    }

    /// True when the wire lower bounds of the next candidate set are sound
    /// metric bounds the client may exit on (distance routing only; the
    /// promise penalty shipped under permutation routing is a heuristic).
    fn lazy_enabled(&self) -> bool {
        self.config.lazy_refine == LazyRefine::Sound
            && self.config.strategy == RoutingStrategy::Distances
    }

    /// Maps a true client-side distance into the wire-bound space for
    /// comparisons against server lower bounds. Without a transform this is
    /// the identity. With the level-4 transform the server's bounds live in
    /// `T`-space where `|T(x) − T(y)| ≤ s_max·|x − y| ≤ s_max·d(q, o)`, so
    /// `s_max·d` (exactly [`DistanceTransform::server_radius`]) is the
    /// sound comparison value — the same inflation the range query ships.
    fn to_wire_distance(&self, d: f64) -> f64 {
        match &self.config.transform {
            Some(t) => t.server_radius(d),
            None => d,
        }
    }

    /// Phase-2 batch size at a stall on candidate position `stall`.
    ///
    /// Two regimes:
    ///
    /// * **Bound-guided** (`threshold = Some(τ)` — the current k-th wire
    ///   distance once the top-k heap is full, or the wire radius of a
    ///   range query): every candidate the query can still need lies in
    ///   the prefix where `suffix_min ≤ τ`, because τ only shrinks as more
    ///   candidates are processed. Fetch exactly up to its end: over-fetch
    ///   is bounded by how much τ still moves, and when the loop reaches
    ///   the end of the fetched prefix the (now smaller) τ is guaranteed
    ///   to fire the early exit — so the heap-full phase costs **one**
    ///   round trip.
    /// * **Heap filling** (no τ yet — top-k heap still filling): stage up to
    ///   `FETCH_ALPHA·k` candidates total (minus the `stall` already
    ///   staged), at least `FETCH_MIN_BATCH`; `grown` doubles on every
    ///   such fetch.
    fn fetch_batch_size(
        &self,
        goal: RefineGoal,
        stall: usize,
        threshold: Option<f64>,
        suffix_min: &[f64],
        grown: &mut usize,
    ) -> usize {
        if let Some(tau) = threshold {
            // suffix_min is non-decreasing, so the needed prefix ends at
            // the first position whose remaining minimum exceeds τ.
            let end =
                suffix_min[stall..suffix_min.len() - 1].partition_point(|&m| m <= tau) + stall;
            return (end - stall).max(1);
        }
        let target = match goal {
            RefineGoal::TopK(k) => FETCH_ALPHA.saturating_mul(k),
            // A range stall always carries its threshold (the wire
            // radius), so it never reaches the heap-filling regime; the
            // floor below is the defensive fallback if that invariant
            // ever changes.
            RefineGoal::Within { .. } => 0,
        };
        let batch = target
            .saturating_sub(stall)
            .max(FETCH_MIN_BATCH)
            .max(*grown)
            .max(1);
        *grown = batch.saturating_mul(2);
        batch
    }

    /// Candidate refinement (Alg. 2 lines 12–15), decrypt-on-demand over
    /// two-phase candidate lists — the client's only refine loop. It runs
    /// every live task in `tasks` to its settled answer in the matching
    /// slot of `outcomes`; a lone query ([`Self::knn_approx`],
    /// [`Self::range`]) is a one-slot call, a batch passes all its queries.
    ///
    /// Candidates are processed in wire order; payloads beyond the inlined
    /// phase-1 prefix are pulled with [`Request::FetchObjects`] in adaptive
    /// batches (`FETCH_ALPHA·k` + geometric growth while the top-k heap
    /// fills, then bound-guided — see [`Self::fetch_batch_size`]) **inside**
    /// the same loop, so phase 2 only ever runs when the early exit has not
    /// fired. Tasks run in **rounds**: every live task advances to its next
    /// stall (or to its end), the stalled tasks' fetch plans go out as ONE
    /// round trip, and each task takes its span of the answer. A task's
    /// decisions — which candidates it decrypts, which ids it fetches —
    /// depend on its own list only, so answers and `fetched`/`decrypted`
    /// counts are the same alone or in a batch; only the round-trip count
    /// of a batch drops from the sum of its queries' fetches to the number
    /// of rounds.
    ///
    /// When lazy refinement is enabled the loop stops as soon as the
    /// *minimum remaining* lower bound (a suffix-min pre-pass, so a
    /// mis-sorted or malicious server can cost performance but never
    /// correctness) proves that no further candidate can enter the result:
    ///
    /// * k-NN: the k-th true distance found so far is strictly below every
    ///   remaining bound (strict, so ties at the k-th distance are still
    ///   resolved exactly as eager refinement resolves them);
    /// * range: every remaining bound exceeds the (wire-space) radius.
    ///
    /// The exit condition never looks at *which* payloads are present, and
    /// the decision to fetch happens strictly after the exit check for the
    /// same position — so answers (and the decrypted count) are
    /// byte-identical whatever prefix the server inlined.
    ///
    /// Undecodable candidates (valid MAC, garbage object — a buggy
    /// authorized writer) are skipped and recorded in the [`CostReport`];
    /// the query fails only if the damage is visible in the answer (fewer
    /// than `k` neighbors, or any bad candidate on the range path, where a
    /// lost candidate could silently drop a true result). Authentication
    /// failures still abort immediately: they are active tampering, and
    /// skipping would let a malicious server censor chosen neighbors
    /// undetected. Every unseal verifies the payload against its candidate
    /// id (MAC associated data), so payloads swapped between ids abort too.
    /// Such a failure, and a fetch answer that deviates from a task's ids,
    /// settles that task's slot only; a transport failure or a fetch answer
    /// of the wrong shape or count fails the whole call.
    ///
    /// Each task's loop is timed as one phase into `op.costs.decryption`,
    /// with the wall time spent inside phase-2 round trips excluded —
    /// transport time is accounted where it always was, in
    /// `server`/`communication` via the operation's transport delta.
    fn refine_rounds(
        &mut self,
        tasks: &mut [Option<RefineTask<'_>>],
        outcomes: &mut [Option<Result<Vec<Neighbor>, ClientError>>],
        op: &mut Op,
    ) -> Result<(), ClientError> {
        loop {
            let (mut ids, mut positions) = (Vec::new(), Vec::new());
            for (slot, outcome) in tasks.iter_mut().zip(outcomes.iter_mut()) {
                let Some(task) = slot.as_mut() else {
                    continue;
                };
                let settled = match self.advance_refine(task) {
                    Ok(Some((from, limit))) => {
                        if task.plan_fetch(from, limit, &mut ids, &mut positions) > 0 {
                            continue;
                        }
                        // A stall always names a missing payload, so the
                        // plan is never empty; fold a violation into the
                        // slot rather than looping forever.
                        Err(ClientError::UnexpectedResponse(
                            "refinement stalled with nothing to fetch".into(),
                        ))
                    }
                    Ok(None) => match slot.take() {
                        Some(task) => self.settle_refine(task, &mut op.costs),
                        None => continue,
                    },
                    // Tampering/key mismatch settles this slot only: a
                    // malicious answer for one query must not censor its
                    // siblings' results.
                    Err(e) => Err(e),
                };
                *slot = None;
                *outcome = Some(settled);
            }
            if ids.is_empty() {
                return Ok(());
            }
            // One coalesced phase-2 round trip for every stalled task. The
            // answer must mirror the concatenated id list exactly: the
            // count is checked here, each task's span by `take_fetched`.
            let requested = ids.len();
            let objects = match self.exchange(&Request::FetchObjects { ids }, op)? {
                Response::Objects(o) => o,
                other => return Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
            };
            if objects.len() != requested {
                return Err(ClientError::FetchMismatch(format!(
                    "{} objects for {requested} requested ids",
                    objects.len(),
                )));
            }
            op.costs.fetch_requests += 1;
            let mut supplied = objects.into_iter().zip(positions);
            for (slot, outcome) in tasks.iter_mut().zip(outcomes.iter_mut()) {
                let Some(task) = slot.as_mut() else {
                    continue;
                };
                let planned = std::mem::take(&mut task.awaiting);
                match task.take_fetched(supplied.by_ref().take(planned)) {
                    Ok(()) => op.costs.fetched += planned as u64,
                    Err(e) => {
                        *slot = None;
                        *outcome = Some(Err(e));
                    }
                }
            }
        }
    }

    /// One search operation: query–pivot distances, the request `request`
    /// builds from them, and refinement of the answer's candidate list as
    /// a one-slot [`Self::refine_rounds`] call toward `goal`.
    fn search(
        &mut self,
        q: &Vector,
        goal: RefineGoal,
        request: impl FnOnce(&Self, &[f64]) -> Request,
    ) -> Result<(Vec<Neighbor>, CostReport), ClientError> {
        self.operation(|this, op| {
            let ds = timed(&mut op.costs.distance, || {
                this.key.pivot_distances(this.metric.as_ref(), q)
            });
            let frame = this.exchange_frame(&request(this, &ds), op)?;
            let candidates = match search_answer(&frame)? {
                SearchAnswerView::List(list) => list,
                other => return Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
            };
            let mut tasks = [Some(this.start_refine(q, candidates, &mut op.costs, goal))];
            let mut outcomes = [None];
            this.refine_rounds(&mut tasks, &mut outcomes, op)?;
            let [outcome] = outcomes;
            settled(outcome)
        })
    }

    /// Opens a [`RefineTask`] over a phase-1 candidate list: counts the
    /// candidates, points the inlined prefix's slots at the response frame
    /// and runs the suffix-min pre-pass. No I/O, no decryption and no
    /// payload copy happen here.
    fn start_refine<'a>(
        &self,
        q: &'a Vector,
        list: CandidateListView<'a>,
        costs: &mut CostReport,
        goal: RefineGoal,
    ) -> RefineTask<'a> {
        let start = Instant::now();
        let headers: Vec<CandidateHeader> = list.headers().collect();
        costs.candidates += headers.len() as u64;
        // The codec guarantees payloads().len() <= headers.len().
        let mut payloads: Vec<Slot<'a>> = Vec::with_capacity(headers.len());
        payloads.extend(list.payloads().iter().map(|p| Slot::Inline(p)));
        payloads.resize_with(headers.len(), || Slot::Missing);
        let lazy = self.lazy_enabled();
        // Minimum lower bound over headers[i..] — the value any sound
        // early exit must beat, whatever order the server sent. Non-finite
        // bounds collapse to 0.0: `f64::min` would silently *ignore* a NaN
        // operand, letting a malicious server defeat the pre-pass with NaN
        // bounds and skip true results; 0.0 instead forces decryption.
        let suffix_min: Vec<f64> = if lazy {
            let mut m = vec![f64::INFINITY; headers.len() + 1];
            for (i, h) in headers.iter().enumerate().rev() {
                let lb = if h.lower_bound.is_finite() {
                    h.lower_bound
                } else {
                    0.0
                };
                m[i] = m[i + 1].min(lb);
            }
            m
        } else {
            Vec::new()
        };
        RefineTask {
            q,
            goal,
            headers,
            payloads,
            suffix_min,
            lazy,
            // Lazy tasks never run the eager whole-remainder prefetch.
            eager_prefetched: lazy,
            heap: BinaryHeap::new(),
            cursor: 0,
            grown: 0,
            awaiting: 0,
            decrypted: 0,
            bad: 0,
            first_bad: None,
            loop_time: start.elapsed(),
        }
    }

    /// Resumes a task's refinement loop. Returns `Ok(Some((from, limit)))`
    /// when the loop needs payloads it does not hold — the stall's fetch
    /// plan, for [`RefineTask::plan_fetch`] — and `Ok(None)` when the task
    /// ran to its early exit or the end of the candidate list. An `Err`
    /// (tampering / key mismatch) abandons the task: none of its counters
    /// reach the cost report.
    fn advance_refine(
        &self,
        task: &mut RefineTask<'_>,
    ) -> Result<Option<(usize, usize)>, ClientError> {
        let start = Instant::now();
        let stall = self.advance_refine_loop(task);
        task.loop_time += start.elapsed();
        stall
    }

    fn advance_refine_loop(
        &self,
        task: &mut RefineTask<'_>,
    ) -> Result<Option<(usize, usize)>, ClientError> {
        if !task.eager_prefetched {
            // Eager refinement decrypts everything, so stage the whole
            // remainder in one phase-2 round trip instead of adaptive
            // batches.
            task.eager_prefetched = true;
            if task.payloads.iter().any(Slot::is_missing) {
                return Ok(Some((0, task.headers.len().max(1))));
            }
        }
        while task.cursor < task.headers.len() {
            let i = task.cursor;
            if task.lazy {
                let remaining = task.suffix_min[i];
                let done = match task.goal {
                    // lb > τ ⇒ every remaining true distance exceeds the
                    // radius; `>` keeps exact-boundary objects.
                    RefineGoal::Within { wire_radius, .. } => remaining > wire_radius,
                    // Strict `<`: a remaining candidate can then only have
                    // d > d_k, so it can neither enter the top-k nor tie.
                    RefineGoal::TopK(k) => {
                        k == 0
                            || (task.heap.len() == k
                                // PANIC-SAFE: guarded by `heap.len() == k` with `k > 0` on this branch.
                                && self.to_wire_distance(task.heap.peek().expect("k > 0").0)
                                    < remaining)
                    }
                };
                if done {
                    break;
                }
            }
            let staged = std::mem::replace(&mut task.payloads[i], Slot::Missing);
            let payload: &[u8] = match &staged {
                // An inlined payload is unsealed where it lies, in the frame.
                Slot::Inline(p) => p,
                Slot::Fetched(p) => p,
                Slot::Missing => {
                    // Phase 2: this candidate survived the exit check, so
                    // its payload — and, speculatively, its batch's — is
                    // really needed. The threshold the exit compares
                    // against also tells us how far the need can possibly
                    // extend.
                    let threshold = match task.goal {
                        RefineGoal::Within { wire_radius, .. } => Some(wire_radius),
                        RefineGoal::TopK(k) if k > 0 && task.heap.len() == k => {
                            // PANIC-SAFE: arm guard requires `heap.len() == k` and `k > 0`.
                            Some(self.to_wire_distance(task.heap.peek().expect("heap full").0))
                        }
                        RefineGoal::TopK(_) => None,
                    };
                    let batch = self.fetch_batch_size(
                        task.goal,
                        i,
                        threshold,
                        &task.suffix_min,
                        &mut task.grown,
                    );
                    return Ok(Some((i, batch)));
                }
            };
            task.cursor += 1;
            let id = task.headers[i].id;
            // Alg. 2 line 13: decrypt. An authentication failure is active
            // tampering (or a key mismatch) — that aborts immediately, as
            // silently dropping a tampered-with candidate would let a
            // malicious server censor specific neighbors undetected. Only
            // *decode* failures below (a buggy authorized writer) are
            // skip-and-record.
            task.decrypted += 1;
            let plain = self
                .key
                .cipher()
                .unseal_with_aad(payload, &id.to_le_bytes())?;
            let Ok((o, _)) = Vector::decode(&plain) else {
                task.bad += 1;
                task.first_bad.get_or_insert(ClientError::BadObject(id));
                continue;
            };
            // Alg. 2 line 14: true distance. A non-finite distance means the
            // payload decoded to garbage (e.g. NaN coordinates) — reject it
            // instead of letting it poison the order.
            let d = self.metric.distance(task.q, &o);
            if !d.is_finite() {
                task.bad += 1;
                task.first_bad.get_or_insert(ClientError::BadObject(id));
                continue;
            }
            match task.goal {
                RefineGoal::Within { radius, .. } => {
                    if d <= radius {
                        task.heap.push(WorstNeighbor(d, id));
                    }
                }
                RefineGoal::TopK(k) => {
                    if k > 0 {
                        task.heap.push(WorstNeighbor(d, id));
                        if task.heap.len() > k {
                            task.heap.pop();
                        }
                    }
                }
            }
        }
        Ok(None)
    }

    /// Closes a finished task: sorts the surviving heap into the answer
    /// and books the task's counters and loop time into the cost report.
    fn settle_refine(
        &self,
        task: RefineTask<'_>,
        costs: &mut CostReport,
    ) -> Result<Vec<Neighbor>, ClientError> {
        let start = Instant::now();
        // Worst-of-the-best-k ordering matches the eager sort exactly:
        // by true distance, ties by id.
        let result: Vec<Neighbor> = task
            .heap
            .into_sorted_vec()
            .into_iter()
            .map(|WorstNeighbor(d, id)| (ObjectId(id), d))
            .collect();
        costs.decrypted += task.decrypted;
        costs.bad_candidates += task.bad;
        costs.decryption += task.loop_time + start.elapsed();
        if let Some(e) = task.first_bad {
            let damaging = match task.goal {
                // A skipped range candidate could have been a true result.
                RefineGoal::Within { .. } => true,
                RefineGoal::TopK(k) => result.len() < k,
            };
            if damaging {
                return Err(e);
            }
        }
        Ok(result)
    }

    /// Precise range query `R(q, r)` (Alg. 2, precise branch + Alg. 3 on the
    /// server). Requires the distance strategy.
    pub fn range(
        &mut self,
        q: &Vector,
        radius: f64,
    ) -> Result<(Vec<Neighbor>, CostReport), ClientError> {
        if self.config.strategy != RoutingStrategy::Distances {
            return Err(ClientError::NeedsDistances);
        }
        let wire_radius = self.to_wire_distance(radius);
        let goal = RefineGoal::Within {
            radius,
            wire_radius,
        };
        // Full f64 on the wire: the server prunes with exactly the values
        // the client refines with, so objects at distance exactly `radius`
        // survive (the paper's *precise* range guarantee).
        self.search(q, goal, |client, ds| Request::Range {
            distances: match &client.config.transform {
                Some(t) => t.apply_all(ds),
                None => ds.to_vec(),
            },
            radius: wire_radius,
        })
    }

    /// Approximate k-NN (Alg. 2 approximate branch + Alg. 4 on the server):
    /// the server returns a pre-ranked candidate set of `cand_size` sealed
    /// objects; the client refines and keeps the best `k`.
    pub fn knn_approx(
        &mut self,
        q: &Vector,
        k: usize,
        cand_size: usize,
    ) -> Result<(Vec<Neighbor>, CostReport), ClientError> {
        self.search(q, RefineGoal::TopK(k), |client, ds| Request::ApproxKnn {
            routing: routing_for(&client.config, ds),
            cand_size: wire_cand_size(cand_size),
        })
    }

    /// Approximate k-NN for a whole batch of queries in **one round trip**
    /// (the batch query API): the server answers with one pre-ranked
    /// candidate set per query; the client refines each locally. Amortizes
    /// per-message latency — on LAN/WAN deployments this is the dominant
    /// per-query cost — and gives a concurrent server a whole batch to
    /// schedule at once.
    ///
    /// The answer carries **one `Result` per query**: a query that fails on
    /// the server (its own slot in the wire response) or during its own
    /// refinement no longer discards its siblings' results. The outer
    /// `Result` still covers batch-level failures — transport errors and
    /// malformed responses.
    ///
    /// Phase-2 fetches are **coalesced across the batch**: all queries
    /// refine as suspended `RefineTask`s in lock-step rounds, and each
    /// round ships every stalled query's fetch plan as one
    /// [`Request::FetchObjects`] — per-query `fetched`/`decrypted` costs
    /// are identical to refining each query alone, but the round-trip
    /// count drops from the sum of per-query fetches to the number of
    /// rounds (typically one or two).
    ///
    /// The wire format carries at most `u16::MAX` queries per message;
    /// larger batches are transparently split into multiple round trips.
    #[allow(clippy::type_complexity)]
    pub fn knn_approx_batch(
        &mut self,
        queries: &[Vector],
        k: usize,
        cand_size: usize,
    ) -> Result<(Vec<Result<Vec<Neighbor>, ClientError>>, CostReport), ClientError> {
        self.operation(|this, op| {
            let mut results = Vec::with_capacity(queries.len());
            let mut scratch = TableScratch::default();
            for chunk in queries.chunks(u16::MAX as usize).filter(|c| !c.is_empty()) {
                // `distance` covers only the query–pivot phase; the refine
                // loop time (including its metric evaluations) lands in
                // `decryption` as one phase.
                let batch: Vec<crate::protocol::KnnQuery> = chunk
                    .iter()
                    .map(|q| {
                        timed(&mut op.costs.distance, || {
                            this.key
                                .pivot_distances_into(this.metric.as_ref(), q, &mut scratch);
                        });
                        crate::protocol::KnnQuery {
                            routing: routing_for(&this.config, scratch.distances()),
                            cand_size: wire_cand_size(cand_size),
                        }
                    })
                    .collect();
                let frame = this.exchange_frame(&Request::BatchKnn(batch), op)?;
                let sets = match search_answer(&frame)? {
                    SearchAnswerView::Sets(sets) if sets.len() == chunk.len() => sets,
                    SearchAnswerView::Sets(sets) => {
                        return Err(ClientError::UnexpectedResponse(format!(
                            "{} candidate sets for {} queries",
                            sets.len(),
                            chunk.len()
                        )))
                    }
                    other => return Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
                };
                // One refinement task per successful slot; failed slots
                // settle at once. `refine_rounds` then coalesces the tasks'
                // fetches.
                let (mut tasks, mut outcomes): (Vec<_>, Vec<_>) = chunk
                    .iter()
                    .zip(sets)
                    .map(|(q, per_query)| match per_query {
                        Ok(list) => (
                            Some(this.start_refine(q, list, &mut op.costs, RefineGoal::TopK(k))),
                            None,
                        ),
                        Err(msg) => (None, Some(Err(ClientError::Server(msg)))),
                    })
                    .unzip();
                this.refine_rounds(&mut tasks, &mut outcomes, op)?;
                results.extend(outcomes.into_iter().map(settled));
            }
            Ok(results)
        })
    }

    /// Precise k-NN (paper §4.2): approximate pass estimates `ρ_k`, then the
    /// precise range query `R(q, ρ_k)` completes the answer. Requires the
    /// distance strategy for the range leg.
    pub fn knn_precise(
        &mut self,
        q: &Vector,
        k: usize,
    ) -> Result<(Vec<Neighbor>, CostReport), ClientError> {
        if self.config.strategy != RoutingStrategy::Distances {
            return Err(ClientError::NeedsDistances);
        }
        let seed_cand = k.saturating_mul(4).max(32);
        let (approx, mut costs) = self.knn_approx(q, k, seed_cand)?;
        // The approximate answer holds at most `k` neighbors, sorted, so
        // its last is the k-th (or the farthest there is). None — `k = 0`
        // or an empty collection — leaves nothing to complete.
        let rho_k = match approx.last() {
            Some(x) => x.1,
            None => return Ok((Vec::new(), costs)),
        };
        let (mut in_ball, range_costs) = self.range(q, rho_k)?;
        costs.merge(&range_costs);
        in_ball.truncate(k);
        Ok((in_ball, costs))
    }

    /// Downloads and decrypts the entire outsourced collection — the data
    /// owner's path for audits and key rotation. Returns `(id, object)`
    /// pairs sorted by id.
    pub fn export_all(&mut self) -> Result<(Vec<(ObjectId, Vector)>, CostReport), ClientError> {
        self.operation(|this, op| {
            let candidates = match this.exchange(&Request::ExportAll, op)? {
                Response::Candidates(c) => c,
                other => return Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
            };
            op.costs.candidates = candidates.len() as u64;
            op.costs.decrypted = candidates.len() as u64;
            let mut out = Vec::with_capacity(candidates.len());
            for c in candidates {
                let plain = timed(&mut op.costs.decryption, || {
                    this.key
                        .cipher()
                        .unseal_with_aad(&c.payload, &c.id.to_le_bytes())
                })?;
                let (o, _) = Vector::decode(&plain).map_err(|_| ClientError::BadObject(c.id))?;
                out.push((ObjectId(c.id), o));
            }
            out.sort_by_key(|(id, _)| *id);
            Ok(out)
        })
    }

    /// Key rotation (client revocation): the data owner exports the
    /// collection under the old key and re-outsources it to a *fresh*
    /// server under `new_key`. The old key — and every client holding it —
    /// can no longer read the new deployment's payloads.
    ///
    /// The pivot set may change too (full revocation of the routing
    /// knowledge); pass the same pivots to keep cell structure comparable.
    pub fn rekey_into<M2: Metric<Vector>, T2: Transport>(
        &mut self,
        new_cloud: &mut EncryptedClient<M2, T2>,
        bulk: usize,
    ) -> Result<CostReport, ClientError> {
        let (objects, mut costs) = self.export_all()?;
        for chunk in objects.chunks(bulk.max(1)) {
            costs.merge(&new_cloud.insert_bulk(chunk)?);
        }
        Ok(costs)
    }

    /// Server tree info (no query content leaves the client).
    pub fn server_info(&mut self) -> Result<(u64, u32, u32), ClientError> {
        self.ops_request(&Request::Info, |resp| match resp {
            Response::Info {
                entries,
                leaves,
                depth,
            } => Ok((entries, leaves, depth)),
            other => Err(other),
        })
    }

    /// Health probe (ops surface, wire v2): the server answers from
    /// pre-aggregated atomics without taking the index lock, so this
    /// stays fast even while a bulk insert holds the write lock.
    pub fn health(&mut self) -> Result<ServerHealth, ClientError> {
        self.ops_request(&Request::Health, |resp| match resp {
            Response::Health {
                status,
                protocol,
                entries,
                shards,
                uptime_nanos,
            } => Ok(ServerHealth {
                status,
                protocol,
                entries,
                shards,
                uptime_nanos,
            }),
            other => Err(other),
        })
    }

    /// Telemetry snapshot (ops surface, wire v2): the server's metric
    /// registry (search totals included) and slow-query log rendered in
    /// the plaintext exposition format. Like [`EncryptedClient::health`],
    /// answered without the index lock.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        self.ops_request(&Request::MetricsSnapshot, |resp| match resp {
            Response::MetricsSnapshot(text) => Ok(text),
            other => Err(other),
        })
    }

    /// A one-exchange request whose answer `pick` maps to its result,
    /// handing any other answer back as unexpected. It is an operation
    /// like any other, so its bytes and times reach [`Self::total_costs`].
    fn ops_request<R>(
        &mut self,
        request: &Request,
        pick: impl FnOnce(Response) -> Result<R, Response>,
    ) -> Result<R, ClientError> {
        self.operation(|this, op| {
            pick(this.exchange(request, op)?)
                .map_err(|other| ClientError::UnexpectedResponse(format!("{other:?}")))
        })
        .map(|(result, _)| result)
    }
}

/// Decoded [`Response::Health`] as returned by [`EncryptedClient::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHealth {
    /// `0` = serving; nonzero values reserved for degraded states.
    pub status: u8,
    /// The server's wire protocol version.
    pub protocol: u32,
    /// Entries resident across all shards.
    pub entries: u64,
    /// Shard count (`1` for an unsharded server).
    pub shards: u32,
    /// Nanoseconds since the server started its telemetry registry.
    pub uptime_nanos: u64,
}
