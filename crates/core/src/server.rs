//! The similarity-cloud server: one request engine over any [`SearchIndex`].
//!
//! The paper's server (§4.3–4.4) is one thing — an M-Index that stores
//! sealed payloads and answers insert / range / approximate k-NN without
//! key material — so this module holds the **only** request dispatch of the
//! repository. [`ServerEngine`] decodes a request, runs it against its
//! index through the [`SearchIndex`] trait and writes the answer; it is
//! monomorphised over the index, so nothing is boxed or dispatched
//! dynamically on the query path. Two indexes implement the trait: the
//! lock-wrapped `MIndex` here ([`CloudServer`] is the engine over it — the
//! 1-shard case) and `simcloud_shard::ShardedMIndex` (N shards,
//! scatter-gather).
//!
//! The engine implements the transport layer's one handler trait,
//! [`SharedRequestHandler`], over `&self`, so one `Arc`'d server answers any
//! number of concurrent client connections (paper §4.4 serves independent
//! clients).
//! All locking lives inside the index; all statistics live in the
//! telemetry registry's atomic counters (see
//! [`ServerEngine::total_search_stats`]), so the whole request path needs
//! only `&self`. The server
//! holds **no key material** — compromising it yields sealed payloads and
//! routing information only (§4.3).

use parking_lot::{RwLock, RwLockReadGuard};
use simcloud_mindex::{
    knn_cap, CandidateCursor, CandidateView, IndexEntry, MIndex, MIndexConfig, MIndexError,
    PromiseEvaluator, Routing, SearchStats,
};
use simcloud_storage::BucketStore;
use simcloud_telemetry::Trace;
use simcloud_transport::SharedRequestHandler;

use crate::protocol::{
    Candidate, CandidateHeader, CandidateList, FetchedObject, Request, Response, StagedList,
    StagedResponse, MAX_CANDIDATE_HEADERS,
};
use crate::telemetry::{request_label, ServerTelemetry};

/// Server-side configuration beyond the index shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Byte budget for **one phase-1 candidate list**. Headers (16 bytes
    /// per candidate) **always** ship — they are the answer — and sealed
    /// payloads are inlined in bound order while the encoded list stays
    /// within the budget, saving the client a [`Request::FetchObjects`]
    /// round trip for the candidates it is most likely to decrypt. `None`
    /// inlines every payload (the eager pre-two-phase wire behavior).
    ///
    /// The budget is **per candidate list**, not per response: a
    /// [`Request::BatchKnn`] answer contains one list per query, so its
    /// total size scales with the batch. The accounting mirrors the
    /// single-response framing and is a few bytes approximate inside a
    /// batch slot — it is an inlining dial, not a hard frame-size cap.
    pub max_inline_response_bytes: Option<usize>,
}

impl Default for ServerConfig {
    /// Inline everything: existing single-phase deployments keep their
    /// exact wire behavior unless a budget is configured.
    fn default() -> Self {
        Self {
            max_inline_response_bytes: None,
        }
    }
}

impl ServerConfig {
    /// A budgeted configuration (two-phase responses beyond `bytes`).
    pub fn budgeted(bytes: usize) -> Self {
        Self {
            max_inline_response_bytes: Some(bytes),
        }
    }
}

/// Aggregate shape of an index (the [`Request::Info`] view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexShape {
    /// Total indexed entries.
    pub entries: u64,
    /// Total leaf cells (summed over shards).
    pub leaves: usize,
    /// Deepest cell tree.
    pub max_depth: usize,
}

/// What the request engine needs from an index — everything else about a
/// deployment (one index or N shards, which locks, which fan-out) stays
/// behind this trait.
///
/// A search is two steps so that no lock is ever held across staging:
/// `open_*` walks the index under whatever guards it needs and returns an
/// **owned, guard-free** [`SearchIndex::Opened`] cursor set;
/// [`SearchIndex::select`] then ranks and caps it into borrowed
/// [`CandidateView`]s with no guard live.
///
/// **Bulk-insert isolation is a property of the index.** Bulk inserts are
/// never atomic — on a failing entry the stored prefix stays and is
/// reported — but what a concurrent search can observe differs: the single
/// index applies the whole bulk under one write guard (readers see none or
/// all of it), the sharded index takes one shard guard per entry (readers
/// may see a partially applied bulk; that is the price of having no global
/// write lock).
pub trait SearchIndex: Send + Sync {
    /// One opened search: the owned cursor(s) a [`SearchIndex::select`]
    /// ranks. Borrows nothing from the index and holds no guard.
    type Opened;

    /// Opens an approximate k-NN search (promise-ordered cell walk with a
    /// `cand_size` candidate budget).
    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<Self::Opened, MIndexError>;

    /// Opens a precise range search.
    fn open_range(&self, query_distances: &[f64], radius: f64)
        -> Result<Self::Opened, MIndexError>;

    /// Opens a whole k-NN batch in one pass over the index's guards: one
    /// slot per query in request order, a failing query occupying only its
    /// own slot.
    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<Self::Opened, MIndexError>>;

    /// The `cap` best-bounded candidates of an opened search (`None` =
    /// all) in ascending bound order, borrowed from its cursors' arenas,
    /// plus the statistics of a consumer that takes exactly those.
    fn select<'o>(
        &self,
        opened: &'o Self::Opened,
        cap: Option<usize>,
    ) -> (Vec<CandidateView<'o>>, SearchStats);

    /// Inserts `entries` in order until the first failure. Returns how
    /// many leading entries were stored and the error that stopped the
    /// bulk, if any (see the trait docs for the isolation level).
    fn insert_bulk(&self, entries: Vec<IndexEntry>) -> (u32, Option<MIndexError>);

    /// By-id lookup, one slot per requested id in request order
    /// (duplicates included); ids the index does not hold are `None`.
    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError>;

    /// Every stored entry, in storage order.
    fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError>;

    /// Aggregate shape.
    fn shape(&self) -> IndexShape;

    /// Number of shards (1 for a single index).
    fn shard_count(&self) -> usize;

    /// Commits the store(s) to durable storage.
    fn flush(&self) -> Result<(), MIndexError>;
}

/// Runs `insert` over `entries` in order until the first error: the shared
/// shape of every [`SearchIndex::insert_bulk`] (stored-prefix count, first
/// error). The caller decides which guard `insert` runs under.
pub fn insert_until_error(
    entries: Vec<IndexEntry>,
    mut insert: impl FnMut(IndexEntry) -> Result<(), MIndexError>,
) -> (u32, Option<MIndexError>) {
    let mut stored = 0u32;
    for entry in entries {
        if let Err(e) = insert(entry) {
            return (stored, Some(e));
        }
        stored += 1;
    }
    (stored, None)
}

/// The single index: one `MIndex` behind one reader–writer lock. Searches
/// share the read guard and run in parallel; an insert bulk, a flush take
/// the write guard.
impl<S: BucketStore> SearchIndex for RwLock<MIndex<S>> {
    type Opened = CandidateCursor;

    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<CandidateCursor, MIndexError> {
        self.read().knn_cursor(evaluator, cand_size)
    }

    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<CandidateCursor, MIndexError> {
        self.read().range_cursor(query_distances, radius)
    }

    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<CandidateCursor, MIndexError>> {
        // One read-guard acquisition opens every query's cursor; queries
        // from other connections still interleave freely.
        let index = self.read();
        queries
            .iter()
            .map(|(evaluator, cand_size)| index.knn_cursor(evaluator, *cand_size))
            .collect()
    }

    fn select<'o>(
        &self,
        opened: &'o CandidateCursor,
        cap: Option<usize>,
    ) -> (Vec<CandidateView<'o>>, SearchStats) {
        opened.select_up_to(cap)
    }

    fn insert_bulk(&self, entries: Vec<IndexEntry>) -> (u32, Option<MIndexError>) {
        let mut index = self.write();
        insert_until_error(entries, |e| index.insert(e))
    }

    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError> {
        self.read().fetch_entries(ids)
    }

    fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError> {
        self.read().all_entries()
    }

    fn shape(&self) -> IndexShape {
        let index = self.read();
        let tree = index.shape();
        IndexShape {
            entries: index.len(),
            leaves: tree.leaves,
            max_depth: tree.max_depth,
        }
    }

    fn shard_count(&self) -> usize {
        1
    }

    fn flush(&self) -> Result<(), MIndexError> {
        // The write guard drains in-flight queries first.
        self.write().flush()
    }
}

/// Server half of the Encrypted M-Index: the request engine over a
/// [`SearchIndex`]. Holds no key material.
pub struct ServerEngine<I> {
    index: I,
    config: ServerConfig,
    telemetry: ServerTelemetry,
}

/// The single-index server: the engine over one lock-wrapped `MIndex` —
/// the 1-shard case of the sharded deployment.
pub type CloudServer<S> = ServerEngine<RwLock<MIndex<S>>>;

impl<I> std::fmt::Debug for ServerEngine<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerEngine").finish_non_exhaustive()
    }
}

impl<S: BucketStore> CloudServer<S> {
    /// Creates a server with the given index configuration and store, and
    /// the default [`ServerConfig`] (no inline budget).
    pub fn new(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        Self::with_config(config, ServerConfig::default(), store)
    }

    /// Creates a server with an explicit [`ServerConfig`].
    pub fn with_config(
        config: MIndexConfig,
        server_config: ServerConfig,
        store: S,
    ) -> Result<Self, MIndexError> {
        let index = RwLock::new(MIndex::new(config, store)?);
        Ok(Self::from_index(
            index,
            server_config,
            ServerTelemetry::new(),
        ))
    }

    /// Creates a server over a store that already holds records (e.g. a
    /// crash-recovered `DiskStore`), rebuilding the in-memory cell tree
    /// from the stored entries via [`MIndex::rebuild`]. The restarted
    /// server keeps the `server_config` it is given — a budgeted
    /// deployment stays budgeted across a crash.
    pub fn rebuilt(
        config: MIndexConfig,
        server_config: ServerConfig,
        store: S,
    ) -> Result<Self, MIndexError> {
        let index = RwLock::new(MIndex::rebuild(config, store)?);
        Ok(Self::from_index(
            index,
            server_config,
            ServerTelemetry::new(),
        ))
    }

    /// Read access to the underlying index (shape and storage inspection).
    /// Holds the shared lock for the guard's lifetime — keep it short.
    pub fn index(&self) -> RwLockReadGuard<'_, MIndex<S>> {
        self.index.read()
    }
}

impl<I: SearchIndex> ServerEngine<I> {
    /// The one constructor every server is built through: an already-built
    /// index, the server configuration and the telemetry the index may
    /// already be bound to (the sharded index registers its `shard.*`
    /// histograms before it is handed over).
    pub fn from_index(index: I, config: ServerConfig, telemetry: ServerTelemetry) -> Self {
        // Seed the ops-surface gauge: Health answers from this atomic,
        // never from an index lock.
        telemetry.set_entries(index.shape().entries);
        Self {
            index,
            config,
            telemetry,
        }
    }

    /// The server configuration.
    pub fn server_config(&self) -> ServerConfig {
        self.config
    }

    /// The index this engine serves.
    pub fn search_index(&self) -> &I {
        &self.index
    }

    /// Commits the index to durable storage (see [`SearchIndex::flush`]).
    pub fn flush(&self) -> Result<(), MIndexError> {
        self.index.flush()
    }

    /// Accumulated statistics over all successful search requests (per-shard
    /// cost counters summed, `candidates` the capped answer sizes), read
    /// from the telemetry's `search.*` counters. With concurrent clients a
    /// "last search" would be whichever finished last on any connection,
    /// so a request's own stats are the [`SearchStats::since`] delta of two
    /// readings around it; a failed search adds zero.
    pub fn total_search_stats(&self) -> SearchStats {
        self.telemetry.total_search_stats()
    }

    /// The server's telemetry: registry, phase histograms, slow-query
    /// log, the enabled switch and the [`Request::Health`] /
    /// [`Request::MetricsSnapshot`] answer path.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Selects an opened search's capped candidates and stages them for
    /// the phase-1 wire under this server's inline budget — the shared
    /// tail of every search. The opened cursors own their arenas, so no
    /// index guard is live here.
    fn select_and_stage<'o>(
        &self,
        opened: &'o I::Opened,
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> (StagedList<'o>, SearchStats) {
        let (views, stats) = {
            let _pull = trace.span("pull", self.telemetry.pull_hist());
            self.index.select(opened, cap)
        };
        let _stage = trace.span("stage", self.telemetry.stage_hist());
        let list = stage_views(views, self.config.max_inline_response_bytes);
        (list, stats)
    }

    /// Answers a single-list search from its opened cursors. A failed
    /// search did no accountable work and records nothing.
    fn answer_search(
        &self,
        opened: Result<I::Opened, MIndexError>,
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> Vec<u8> {
        let staged = match &opened {
            Ok(opened) => {
                let (list, stats) = self.select_and_stage(opened, cap, trace);
                self.telemetry.record_search(stats);
                StagedResponse::List(list)
            }
            Err(e) => StagedResponse::Other(Response::Error(e.to_string())),
        };
        self.telemetry.encode_response(&staged, trace)
    }

    /// Runs one decoded request and returns its response frame — the one
    /// request path (needs only `&self`: all locking is the index's).
    /// Search answers go from their cursors' arenas straight into the
    /// frame. Each lifecycle phase (route → open → pull → stage → encode,
    /// or insert) is timed into its histogram and the trace's phase
    /// breakdown.
    fn respond(&self, request: Request, trace: &mut Trace) -> Vec<u8> {
        let response = match request {
            Request::Insert(entries) => {
                let (inserted, failure) = {
                    let _insert = trace.span("insert", self.telemetry.insert_hist());
                    self.index.insert_bulk(entries)
                };
                // The ops surface answers `entries` from this gauge, so
                // Health never waits on an index lock.
                self.telemetry.add_entries(u64::from(inserted));
                match failure {
                    // Bulk inserts are not atomic: the already-inserted
                    // prefix stays, so the error must carry the count.
                    Some(e) => Response::InsertError {
                        inserted,
                        message: e.to_string(),
                    },
                    None => Response::Inserted(inserted),
                }
            }
            Request::Range { distances, radius } => {
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.index.open_range(&distances, radius)
                };
                return self.answer_search(opened, None, trace);
            }
            Request::ApproxKnn { routing, cand_size } => match check_cand_size(cand_size) {
                // An oversized request is refused before any index work:
                // its answer could never be decoded by the requester. Like
                // any failed search it records nothing.
                Err(msg) => Response::Error(msg),
                Ok(()) => {
                    let evaluator = {
                        let _route = trace.span("route", self.telemetry.route_hist());
                        evaluator_for(routing)
                    };
                    let cand_size = cand_size as usize;
                    let opened = {
                        let _open = trace.span("open", self.telemetry.open_hist());
                        self.index.open_knn(&evaluator, cand_size)
                    };
                    return self.answer_search(opened, knn_cap(cand_size), trace);
                }
            },
            Request::BatchKnn(queries) => {
                // Partition first: oversized queries are refused up front
                // and never reach the index — their slots carry the clamp
                // error. Every admissible query opens in **one** pass over
                // the index's guards; the cursors own their staged records,
                // so every guard is released before any view is selected
                // or staged (lock discipline: no guard across staging).
                let mut refused: Vec<Option<String>> = Vec::with_capacity(queries.len());
                let mut plans = Vec::with_capacity(queries.len());
                for q in queries {
                    match check_cand_size(q.cand_size) {
                        Ok(()) => {
                            refused.push(None);
                            plans.push((evaluator_for(q.routing), q.cand_size as usize));
                        }
                        Err(msg) => refused.push(Some(msg)),
                    }
                }
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.index.open_batch_knn(&plans)
                };
                let mut results = opened.iter().zip(&plans);
                let mut sets = Vec::with_capacity(refused.len());
                for slot in refused {
                    sets.push(match slot {
                        Some(msg) => Err(msg),
                        None => match results.next() {
                            Some((Ok(opened), &(_, cand_size))) => {
                                let (list, stats) =
                                    self.select_and_stage(opened, knn_cap(cand_size), trace);
                                self.telemetry.record_search(stats);
                                Ok(list)
                            }
                            // A failing query answers in its own slot; its
                            // siblings' candidate sets still ship. It did
                            // no accountable work, so the batch adds
                            // exactly the successful queries' sum.
                            Some((Err(e), _)) => Err(e.to_string()),
                            // The index answers one slot per plan; a short
                            // answer would be an index bug — surface it per
                            // slot, never panic.
                            None => Err("batch answer missing a query slot".into()),
                        },
                    });
                }
                return self
                    .telemetry
                    .encode_response(&StagedResponse::Sets(sets), trace);
            }
            Request::FetchObjects { ids } => {
                // Phase 2 of the two-phase fetch: stateless re-read by id —
                // nothing was pinned when phase 1 answered, so any number
                // of interleaved fetches from concurrent connections are
                // safe. Not a search: it adds nothing to the search stats.
                match self.index.fetch_entries(&ids) {
                    Ok(entries) => objects_response(&ids, entries),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Info => {
                let shape = self.index.shape();
                Response::Info {
                    entries: shape.entries,
                    leaves: u32::try_from(shape.leaves).unwrap_or(u32::MAX),
                    depth: u32::try_from(shape.max_depth).unwrap_or(u32::MAX),
                }
            }
            Request::ExportAll => match self.index.all_entries() {
                // An export has no query, hence no bounds: every candidate
                // ships a trivial lower bound of zero ("could be anywhere").
                Ok(entries) => Response::Candidates(
                    entries
                        .into_iter()
                        .map(|e| Candidate {
                            id: e.id,
                            lower_bound: 0.0,
                            payload: e.payload,
                        })
                        .collect(),
                ),
                Err(e) => Response::Error(e.to_string()),
            },
            // The ops surface: both answers come from ServerTelemetry's
            // atomics and side locks — never the index — so they stay
            // fast while an insert holds an index write lock (the
            // integration test pins this by probing mid-insert).
            Request::Health => self
                .telemetry
                .health_response(u32::try_from(self.index.shard_count()).unwrap_or(u32::MAX)),
            Request::MetricsSnapshot => Response::MetricsSnapshot(self.telemetry.metrics_text()),
        };
        self.telemetry
            .encode_response(&StagedResponse::Other(response), trace)
    }
}

/// The inline-budget rule of the phase-1 wire: **every** header ships
/// (they are the ranked answer), and sealed payloads are inlined in bound
/// order while the encoded response stays within `budget` — the client
/// decrypts in exactly that order, so the inlined prefix is the part it is
/// most likely to need. Inlining stops at the first candidate that would
/// overflow the budget (the wire carries a positional prefix, not a
/// best-fit subset); `None` inlines everything. Returns how many leading
/// payloads ship, given every candidate's payload length in rank order.
fn inline_prefix(
    payload_lens: impl ExactSizeIterator<Item = usize>,
    budget: Option<usize>,
) -> usize {
    let Some(budget) = budget else {
        return payload_lens.len();
    };
    // Encoded list size so far: tag + header count + 16 per header +
    // payload count; each inline payload adds 4 + len.
    let mut used = 1 + 4 + 16 * payload_lens.len() + 4;
    let mut inline = 0;
    for len in payload_lens {
        if used + 4 + len > budget {
            break;
        }
        used += 4 + len;
        inline += 1;
    }
    inline
}

/// Stages ranked candidate views for the phase-1 wire under the
/// [`inline_prefix`] rule, borrowing every byte from the cursors' arenas.
fn stage_views(views: Vec<CandidateView<'_>>, budget: Option<usize>) -> StagedList<'_> {
    let inline = inline_prefix(views.iter().map(|v| v.payload.len()), budget);
    StagedList::new(views, inline)
}

/// The engine's staging rule for an **owned** ranked candidate set: every
/// header ships, and payloads are inlined in rank order while the encoded
/// list stays within `budget` (`None` inlines everything) — the owned
/// adapter outside callers replay a server's staging with.
pub fn stage_candidates(entries: Vec<(IndexEntry, f64)>, budget: Option<usize>) -> CandidateList {
    let inline = inline_prefix(entries.iter().map(|(e, _)| e.payload.len()), budget);
    let mut headers = Vec::with_capacity(entries.len());
    let mut payloads = Vec::with_capacity(inline);
    for (e, lower_bound) in entries {
        headers.push(CandidateHeader {
            id: e.id,
            lower_bound,
        });
        if payloads.len() < inline {
            payloads.push(e.payload);
        }
    }
    CandidateList { headers, payloads }
}

/// The phase-2 answer for `ids` given the index's by-id lookup result, in
/// request order; an id the index does not hold fails the whole fetch.
fn objects_response(ids: &[u64], entries: Vec<Option<IndexEntry>>) -> Response {
    let mut objects = Vec::with_capacity(ids.len());
    for (id, entry) in ids.iter().zip(entries) {
        match entry {
            Some(e) => objects.push(FetchedObject {
                id: *id,
                payload: e.payload,
            }),
            None => return Response::Error(format!("unknown object id {id}")),
        }
    }
    Response::Objects(objects)
}

/// Refuses a `cand_size` whose phase-1 header list could not fit the
/// protocol's decode cap even with zero payloads inlined — the requester
/// itself could never decode the answer, so the server rejects the
/// request up front ([`Response::Error`]) instead of doing the search
/// work and shipping an undecodable frame.
fn check_cand_size(cand_size: u32) -> Result<(), String> {
    if cand_size as usize > MAX_CANDIDATE_HEADERS {
        Err(format!(
            "cand_size {cand_size} exceeds the {MAX_CANDIDATE_HEADERS}-header response cap"
        ))
    } else {
        Ok(())
    }
}

/// Builds the promise evaluator a k-NN request's routing implies.
pub fn evaluator_for(routing: Routing) -> PromiseEvaluator {
    match routing {
        Routing::Distances(ds) => {
            PromiseEvaluator::from_distances(ds.iter().map(|&d| d as f64).collect())
        }
        Routing::Permutation(p) => PromiseEvaluator::from_permutation(p),
    }
}

impl<I: SearchIndex> SharedRequestHandler for ServerEngine<I> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        let mut trace = self.telemetry.trace();
        let decoded = {
            let _decode = trace.span("decode", self.telemetry.decode_hist());
            Request::decode(request)
        };
        let bytes = match decoded {
            Ok(req) => {
                trace.set_label(request_label(&req));
                self.respond(req, &mut trace)
            }
            Err(e) => {
                trace.set_label("undecodable");
                let refused = StagedResponse::Other(Response::Error(e.to_string()));
                self.telemetry.encode_response(&refused, &mut trace)
            }
        };
        self.telemetry.finish(trace);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::KnnQuery;
    use simcloud_mindex::RoutingStrategy;
    use simcloud_storage::{BucketId, MemoryStore, Record};

    fn server() -> CloudServer<MemoryStore> {
        CloudServer::new(
            MIndexConfig {
                num_pivots: 3,
                max_level: 2,
                bucket_capacity: 4,
                strategy: RoutingStrategy::Distances,
            },
            MemoryStore::new(),
        )
        .unwrap()
    }

    fn entry(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![id as u8; 3])
    }

    /// `request`'s answer, through the byte path every server answers on.
    fn ask(server: &impl SharedRequestHandler, request: Request) -> Response {
        Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
    }

    /// `request`'s answer and the search stats it added to the server's
    /// totals — the request's own stats.
    fn answer_and_stats(s: &CloudServer<MemoryStore>, request: Request) -> (Response, SearchStats) {
        let before = s.total_search_stats();
        let response = ask(s, request);
        (response, s.total_search_stats().since(&before))
    }

    #[test]
    fn insert_then_info() {
        let s = server();
        let resp = ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.9, 0.1, 0.5])]),
        );
        assert_eq!(resp, Response::Inserted(2));
        match ask(&s, Request::Info) {
            Response::Info {
                entries, leaves, ..
            } => {
                assert_eq!(entries, 2);
                assert_eq!(leaves, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn range_returns_candidates() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.12, 0.52, 0.88]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        let (resp, stats) = answer_and_stats(
            &s,
            Request::Range {
                distances: vec![0.11, 0.51, 0.89],
                radius: 0.05,
            },
        );
        match resp {
            Response::CandidateList(list) => {
                let ids: Vec<u64> = list.headers.iter().map(|h| h.id).collect();
                assert!(ids.contains(&1) && ids.contains(&2));
                assert!(!ids.contains(&3), "far object filtered: {ids:?}");
                assert_eq!(
                    list.payloads.len(),
                    list.headers.len(),
                    "no budget: everything inlined"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(stats.entries_scanned >= 2);
    }

    #[test]
    fn knn_via_bytes_round_trip() {
        let s = server();
        s.handle_shared(
            &Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ])
            .encode(),
        );
        let resp_bytes = s.handle_shared(
            &Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 2,
            }
            .encode(),
        );
        match Response::decode(&resp_bytes).unwrap() {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 2);
                assert_eq!(
                    list.headers[0].id, 1,
                    "query matches object 1's distances exactly"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn malformed_request_yields_error_response() {
        let s = server();
        let resp = Response::decode(&s.handle_shared(&[0xFF, 0x00])).unwrap();
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn wrong_strategy_yields_error_response() {
        let s = server();
        let resp = ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::permutation_prefix(&[0.3, 0.2, 0.1], 2),
                cand_size: 5,
            },
        );
        // Permutation queries are fine against a distances index — the
        // evaluator just ranks cells by permutation. But inserts must match:
        let bad_insert = ask(
            &s,
            Request::Insert(vec![IndexEntry::new(
                9,
                Routing::permutation_prefix(&[0.1, 0.2, 0.3], 2),
                vec![],
            )]),
        );
        assert!(matches!(bad_insert, Response::InsertError { .. }));
        // and the knn above returned an empty candidate set, not an error
        assert!(matches!(resp, Response::CandidateList(_)));
    }

    /// Candidate sets leave the server sorted by their wire lower bound
    /// with the bounds attached — the contract the lazy client exits on.
    #[test]
    fn knn_response_carries_ascending_lower_bounds() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.4, 0.6, 0.7]),
                entry(3, &[0.9, 0.1, 0.2]),
                entry(4, &[0.11, 0.52, 0.9]),
            ]),
        );
        let resp = ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 4,
            },
        );
        match resp {
            Response::CandidateList(list) => {
                let h = &list.headers;
                assert_eq!(h.len(), 4);
                assert!(
                    h.windows(2).all(|w| w[0].lower_bound <= w[1].lower_bound),
                    "bounds not ascending: {:?}",
                    h.iter().map(|x| x.lower_bound).collect::<Vec<_>>()
                );
                assert!(h[0].lower_bound < h[3].lower_bound, "bounds all equal");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate_across_queries() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.2, 0.6, 0.8])]),
        );
        let knn = || Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 2,
        };
        for _ in 0..2 {
            ask(&s, knn());
        }
        let (_, last) = answer_and_stats(&s, knn());
        assert_eq!(s.total_search_stats().candidates, 6);
        assert_eq!(last.candidates, 2);
    }

    #[test]
    fn partial_insert_reports_stored_prefix() {
        let s = server();
        // Second entry has a dimension mismatch: the first one stays.
        let resp = ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        match resp {
            Response::InsertError { inserted, message } => {
                assert_eq!(inserted, 1, "exactly the prefix before the bad entry");
                assert!(message.contains("pivot distances"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match ask(&s, Request::Info) {
            Response::Info { entries, .. } => assert_eq!(entries, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_search_zeroes_last_stats() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.2, 0.6, 0.8])]),
        );
        let (ok, stats) = answer_and_stats(
            &s,
            Request::Range {
                distances: vec![0.1, 0.5, 0.9],
                radius: 1.0,
            },
        );
        assert!(matches!(ok, Response::CandidateList(_)));
        assert!(stats.entries_scanned > 0);
        // Dimension mismatch: the search fails before doing any work.
        let (bad, stats) = answer_and_stats(
            &s,
            Request::Range {
                distances: vec![0.1],
                radius: 1.0,
            },
        );
        assert!(matches!(bad, Response::Error(_)));
        assert_eq!(
            stats,
            SearchStats::default(),
            "failed searches add nothing to the totals"
        );
    }

    #[test]
    fn batch_knn_returns_one_set_per_query_in_order() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        let (resp, stats) = answer_and_stats(
            &s,
            Request::BatchKnn(vec![
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                    cand_size: 1,
                },
                KnnQuery {
                    routing: Routing::from_distances(&[0.9, 0.1, 0.2]),
                    cand_size: 2,
                },
            ]),
        );
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].as_ref().unwrap().headers[0].id, 1);
                assert_eq!(sets[1].as_ref().unwrap().headers[0].id, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The batch's full volume lands in the totals.
        assert_eq!(stats.candidates, 3);
        assert_eq!(s.total_search_stats().candidates, 3);
    }

    /// A budgeted server ships every header but only the payload prefix
    /// that fits; an unlimited server inlines everything.
    #[test]
    fn inline_budget_bounds_payload_prefix() {
        let s = CloudServer::with_config(
            MIndexConfig {
                num_pivots: 3,
                max_level: 2,
                bucket_capacity: 4,
                strategy: RoutingStrategy::Distances,
            },
            // Fixed budget: headers (4 × 16 + 9 framing) + two 3-byte
            // payloads (4 + 3 each) fit; the third does not.
            ServerConfig::budgeted(1 + 4 + 16 * 4 + 4 + 2 * (4 + 3)),
            MemoryStore::new(),
        )
        .unwrap();
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.11, 0.51, 0.89]),
                entry(3, &[0.4, 0.6, 0.7]),
                entry(4, &[0.9, 0.1, 0.2]),
            ]),
        );
        let resp = ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 4,
            },
        );
        match resp {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 4, "headers always ship in full");
                assert_eq!(list.payloads.len(), 2, "payload prefix capped by budget");
                // The response encoding itself respects the budget.
                assert!(
                    Response::CandidateList(list).encode().len()
                        <= s.server_config().max_inline_response_bytes.unwrap()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A budget too small for any payload still ships all headers.
    #[test]
    fn tiny_budget_ships_headers_only() {
        let s = CloudServer::with_config(
            MIndexConfig {
                num_pivots: 3,
                max_level: 2,
                bucket_capacity: 4,
                strategy: RoutingStrategy::Distances,
            },
            ServerConfig::budgeted(0),
            MemoryStore::new(),
        )
        .unwrap();
        ask(&s, Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        match ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 1,
            },
        ) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 1);
                assert!(list.payloads.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A restart keeps the server configuration: rebuilt over the store a
    /// budgeted server filled, the new server still ships headers only
    /// beyond its budget (and reports the recovered entries on the ops
    /// surface without a single insert).
    #[test]
    fn rebuilt_budgeted_server_keeps_its_budget() {
        let config = MIndexConfig {
            num_pivots: 3,
            max_level: 2,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        };
        // Two 3-byte payloads fit beside the four headers; the rest do not.
        let budgeted = ServerConfig::budgeted(1 + 4 + 16 * 4 + 4 + 2 * (4 + 3));
        // The store a crashed server left behind (any bucket layout).
        let mut store = MemoryStore::new();
        for e in [
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.11, 0.51, 0.89]),
            entry(3, &[0.4, 0.6, 0.7]),
            entry(4, &[0.9, 0.1, 0.2]),
        ] {
            store
                .append(BucketId(0), Record::new(e.id, e.encode_payload()))
                .unwrap();
        }
        let s = CloudServer::rebuilt(config, budgeted, store).unwrap();
        assert_eq!(s.server_config(), budgeted);
        assert!(matches!(
            ask(&s, Request::Health),
            Response::Health { entries: 4, .. }
        ));
        match ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 4,
            },
        ) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 4, "headers always ship in full");
                assert_eq!(list.payloads.len(), 2, "the budget survived the restart");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Phase 2: fetches return payloads by id in request order, error on
    /// unknown ids, and work through `&self` (stateless between phases).
    #[test]
    fn fetch_objects_by_id() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        match ask(&s, Request::FetchObjects { ids: vec![3, 1] }) {
            Response::Objects(objs) => {
                assert_eq!(objs.len(), 2);
                assert_eq!(objs[0].id, 3);
                assert_eq!(objs[0].payload, vec![3u8; 3]);
                assert_eq!(objs[1].id, 1);
                assert_eq!(objs[1].payload, vec![1u8; 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match ask(&s, Request::FetchObjects { ids: vec![1, 99] }) {
            Response::Error(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        // Fetches are not searches: the search totals stay untouched.
        assert_eq!(s.total_search_stats(), SearchStats::default());
    }

    /// One failing query in a batch answers in its own slot; its siblings'
    /// candidate sets still ship, and the batch stats cover exactly the
    /// successful queries.
    #[test]
    fn batch_query_failure_is_isolated_to_its_slot() {
        let s = server();
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.2, 0.6, 0.8])]),
        );
        let (resp, stats) = answer_and_stats(
            &s,
            Request::BatchKnn(vec![
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                    cand_size: 2,
                },
                KnnQuery {
                    // Dimension mismatch: this query fails on its own.
                    routing: Routing::from_distances(&[0.1, 0.5]),
                    cand_size: 2,
                },
                KnnQuery {
                    routing: Routing::from_distances(&[0.2, 0.6, 0.8]),
                    cand_size: 1,
                },
            ]),
        );
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 3);
                assert_eq!(sets[0].as_ref().unwrap().headers.len(), 2);
                let msg = sets[1].as_ref().unwrap_err();
                assert!(msg.contains("pivot distances"), "{msg}");
                assert_eq!(sets[2].as_ref().unwrap().headers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            stats.candidates, 3,
            "stats cover the successful queries only"
        );
        assert_eq!(s.total_search_stats().candidates, 3);
    }

    /// A `cand_size` whose headers alone would bust the 64 MiB decode cap
    /// is refused before any search work — solo requests get an error
    /// response (adding nothing to the search totals), batch slots carry
    /// the clamp error while their siblings still answer.
    #[test]
    fn oversized_cand_size_refused_before_search() {
        let s = server();
        ask(&s, Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        let (_, stats) = answer_and_stats(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 1,
            },
        );
        assert_eq!(stats.candidates, 1);
        let over = u32::try_from(MAX_CANDIDATE_HEADERS + 1).unwrap();
        let (resp, stats) = answer_and_stats(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: over,
            },
        );
        match resp {
            Response::Error(msg) => assert!(msg.contains("header response cap"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats, SearchStats::default());
        let (resp, stats) = answer_and_stats(
            &s,
            Request::BatchKnn(vec![
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                    cand_size: over,
                },
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                    cand_size: 1,
                },
            ]),
        );
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                let msg = sets[0].as_ref().unwrap_err();
                assert!(msg.contains("header response cap"), "{msg}");
                assert_eq!(sets[1].as_ref().unwrap().headers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.candidates, 1, "successes only");
    }

    #[test]
    fn shared_handle_serves_reads_from_many_threads() {
        let s = std::sync::Arc::new(server());
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.2, 0.6, 0.8])]),
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let bytes = s.handle_shared(
                            &Request::ApproxKnn {
                                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                                cand_size: 2,
                            }
                            .encode(),
                        );
                        match Response::decode(&bytes).unwrap() {
                            Response::CandidateList(list) => assert_eq!(list.headers.len(), 2),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(s.total_search_stats().candidates, 4 * 10 * 2);
    }
}
