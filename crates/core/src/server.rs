//! The similarity-cloud server: an M-Index that never sees plaintext.
//!
//! [`CloudServer`] implements both handler traits of the transport layer:
//! the classic `&mut self` [`RequestHandler`] and the *shared-read*
//! [`SharedRequestHandler`], so one `Arc<CloudServer>` can answer any
//! number of concurrent client connections (paper §4.4 serves independent
//! clients). Internally the index sits behind a reader–writer lock —
//! searches take shared read access and run in parallel, inserts take the
//! write lock — and all statistics live in atomics/locks so the whole
//! request path needs only `&self`. The server holds **no key material** —
//! compromising it yields sealed payloads and routing information only
//! (§4.3).

use parking_lot::{RwLock, RwLockReadGuard};
use simcloud_mindex::{
    knn_cap, CandidateCursor, CandidateView, IndexEntry, MIndex, MIndexConfig, MIndexError,
    PromiseEvaluator, Routing, SearchStats,
};
use simcloud_storage::BucketStore;
use simcloud_telemetry::Trace;
use simcloud_transport::{RequestHandler, SharedRequestHandler};

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

/// Server half of the Encrypted M-Index.
pub struct CloudServer<S: BucketStore> {
    index: RwLock<MIndex<S>>,
    config: ServerConfig,
    telemetry: ServerTelemetry,
}

impl<S: BucketStore> std::fmt::Debug for CloudServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudServer").finish_non_exhaustive()
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
        Ok(Self {
            index: RwLock::new(MIndex::new(config, store)?),
            config: server_config,
            telemetry: ServerTelemetry::new(),
        })
    }

    /// Creates a server over a store that already holds records (e.g. a
    /// crash-recovered [`DiskStore`]), rebuilding the in-memory cell tree
    /// from the stored entries via [`MIndex::rebuild`].
    ///
    /// [`DiskStore`]: https://docs.rs/simcloud-storage
    pub fn rebuilt(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        let index = MIndex::rebuild(config, store)?;
        let telemetry = ServerTelemetry::new();
        // Seed the ops-surface gauge: Health answers from this atomic,
        // never from the index lock.
        telemetry.set_entries(index.len());
        Ok(Self {
            index: RwLock::new(index),
            config: ServerConfig::default(),
            telemetry,
        })
    }

    /// The server configuration.
    pub fn server_config(&self) -> ServerConfig {
        self.config
    }

    /// Read access to the underlying index (shape and storage inspection).
    /// Holds the shared lock for the guard's lifetime — keep it short.
    pub fn index(&self) -> RwLockReadGuard<'_, MIndex<S>> {
        self.index.read()
    }

    /// Commits the store to durable storage (see [`MIndex::flush`]).
    /// Takes the index write lock, so in-flight queries drain first.
    pub fn flush(&self) -> Result<(), MIndexError> {
        self.index.write().flush()
    }

    /// Statistics of the most recent search request. Zeroed when the most
    /// recent search *failed*, so cost accounting never attributes a
    /// previous query's work to a failed request.
    pub fn last_search_stats(&self) -> SearchStats {
        self.telemetry.last_search_stats()
    }

    /// Accumulated statistics over all search requests (lock-free atomic
    /// counters; exact once in-flight queries finish).
    pub fn total_search_stats(&self) -> SearchStats {
        self.telemetry.total_search_stats()
    }

    /// The server's telemetry: registry, phase histograms, slow-query
    /// log, the enabled switch and the [`Request::Health`] /
    /// [`Request::MetricsSnapshot`] answer path.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Stages ranked candidate views for the phase-1 wire (see
    /// [`stage_views`]) under this server's inline budget.
    fn stage<'a>(&self, views: Vec<CandidateView<'a>>) -> StagedList<'a> {
        stage_views(views, self.config.max_inline_response_bytes)
    }

    /// Pulls a freshly opened cursor's capped selection and stages it —
    /// the shared tail of every search. The cursor owns its arena, so no
    /// index guard is live here.
    fn select_and_stage<'c>(
        &self,
        cursor: &'c CandidateCursor,
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> (StagedList<'c>, SearchStats) {
        let (views, stats) = {
            let _pull = trace.span("pull", self.telemetry.pull_hist());
            cursor.select_up_to(cap)
        };
        let _stage = trace.span("stage", self.telemetry.stage_hist());
        (self.stage(views), stats)
    }

    /// Answers a single-list search from its opened cursor.
    fn answer_search<R>(
        &self,
        opened: Result<CandidateCursor, MIndexError>,
        cap: Option<usize>,
        trace: &mut Trace,
        sink: impl FnOnce(StagedResponse<'_>, &mut Trace) -> R,
    ) -> R {
        match opened {
            Ok(cursor) => {
                let (list, stats) = self.select_and_stage(&cursor, cap, trace);
                self.telemetry.record_search(stats);
                sink(StagedResponse::List(list), trace)
            }
            Err(e) => {
                // A failed search did no accountable work: zero the
                // per-request stats instead of leaving the previous
                // query's numbers in place.
                self.telemetry.record_failed_search();
                sink(StagedResponse::Other(Response::Error(e.to_string())), trace)
            }
        }
    }

    /// Processes one decoded request (the typed core of the handler).
    /// Needs only `&self`: searches share the index read lock, inserts
    /// briefly take the write lock. Runs [`CloudServer::process_with`] in
    /// its own request trace, so direct callers (in-process transports,
    /// tests) feed the same histograms as the byte handler.
    pub fn process(&self, request: Request) -> Response {
        let mut trace = self.telemetry.trace_labeled(request_label(&request));
        let response = self.process_with(request, &mut trace, |staged, _| staged.into_response());
        self.telemetry.note_response(&response);
        self.telemetry.finish(trace);
        response
    }

    /// Runs one request and hands its answer to `sink` — the one request
    /// path behind both the typed [`CloudServer::process`] (sink: copy the
    /// staged lists out into a [`Response`]) and the byte handler (sink:
    /// write them straight into the response frame). Search answers reach
    /// the sink still borrowed from their cursors' arenas, which is why
    /// this is a callback and not a return value. Each lifecycle phase
    /// (route → open → pull → stage, or insert) is timed into its
    /// histogram and the trace's phase breakdown.
    fn process_with<R>(
        &self,
        request: Request,
        trace: &mut Trace,
        sink: impl FnOnce(StagedResponse<'_>, &mut Trace) -> R,
    ) -> R {
        let response = match request {
            Request::Insert(entries) => {
                let n_entries;
                let response = {
                    let _insert = trace.span("insert", self.telemetry.insert_hist());
                    let mut index = self.index.write();
                    let mut n = 0u32;
                    let mut failure = None;
                    for e in entries {
                        match index.insert(e) {
                            Ok(()) => n += 1,
                            // Bulk inserts are not atomic: the already-
                            // inserted prefix stays, so the error must
                            // carry the count.
                            Err(e) => {
                                failure = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    n_entries = u64::from(n);
                    match failure {
                        Some(message) => Response::InsertError {
                            inserted: n,
                            message,
                        },
                        None => Response::Inserted(n),
                    }
                };
                // The ops surface answers `entries` from this gauge, so
                // Health never waits on the write lock above.
                self.telemetry.add_entries(n_entries);
                response
            }
            Request::Range { distances, radius } => {
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.index.read().range_cursor(&distances, radius)
                };
                return self.answer_search(opened, None, trace, sink);
            }
            Request::ApproxKnn { routing, cand_size } => match check_cand_size(cand_size) {
                // An oversized request is refused before any index work:
                // its answer could never be decoded by the requester. A
                // refused search did no accountable work, so the
                // per-request stats are zeroed like any failed search.
                Err(msg) => {
                    self.telemetry.record_failed_search();
                    Response::Error(msg)
                }
                Ok(()) => {
                    let evaluator = {
                        let _route = trace.span("route", self.telemetry.route_hist());
                        evaluator_for(routing)
                    };
                    let cand_size = cand_size as usize;
                    let opened = {
                        let _open = trace.span("open", self.telemetry.open_hist());
                        self.index.read().knn_cursor(&evaluator, cand_size)
                    };
                    return self.answer_search(opened, knn_cap(cand_size), trace, sink);
                }
            },
            Request::BatchKnn(queries) => {
                // One read-lock acquisition opens every query's cursor;
                // queries from other connections still interleave freely.
                // Cursors own their staged records, so the guard is
                // released before any view is pulled or staged (lock
                // discipline: no guard across staging, no pull under a
                // guard). Oversized queries are refused up front and never
                // reach the index — their slots carry the clamp error.
                let opened: Vec<Result<(CandidateCursor, Option<usize>), String>> = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    let index = self.index.read();
                    queries
                        .into_iter()
                        .map(|q| {
                            check_cand_size(q.cand_size)?;
                            let evaluator = evaluator_for(q.routing);
                            let cand_size = q.cand_size as usize;
                            index
                                .knn_cursor(&evaluator, cand_size)
                                .map(|cursor| (cursor, knn_cap(cand_size)))
                                .map_err(|e| e.to_string())
                        })
                        .collect()
                };
                let mut sets = Vec::with_capacity(opened.len());
                let mut batch_stats = SearchStats::default();
                for result in &opened {
                    sets.push(match result {
                        Ok((cursor, cap)) => {
                            let (list, stats) = self.select_and_stage(cursor, *cap, trace);
                            batch_stats.merge(&stats);
                            Ok(list)
                        }
                        // A failing query answers in its own slot; its
                        // siblings' candidate sets still ship. The failed
                        // query did no accountable work, so the batch stats
                        // are exactly the successful queries' sum.
                        Err(e) => Err(e.clone()),
                    });
                }
                self.telemetry.record_search(batch_stats);
                return sink(StagedResponse::Sets(sets), trace);
            }
            Request::FetchObjects { ids } => {
                // Phase 2 of the two-phase fetch: stateless re-read by id
                // through the same shared read lock as searches — nothing
                // was pinned when phase 1 answered, so any number of
                // interleaved fetches from concurrent connections are safe.
                // Not a search: the search stats are left untouched.
                match self.index.read().fetch_entries(&ids) {
                    Ok(entries) => objects_response(&ids, entries),
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Info => {
                let index = self.index.read();
                let shape = index.shape();
                Response::Info {
                    entries: index.len(),
                    leaves: u32::try_from(shape.leaves).unwrap_or(u32::MAX),
                    depth: u32::try_from(shape.max_depth).unwrap_or(u32::MAX),
                }
            }
            Request::ExportAll => match self.index.read().all_entries() {
                // An export has no query, hence no bounds: every candidate
                // ships a trivial lower bound of zero ("could be anywhere").
                Ok(entries) => {
                    Response::Candidates(entries.into_iter().map(|e| candidate((e, 0.0))).collect())
                }
                Err(e) => Response::Error(e.to_string()),
            },
            // The ops surface: both answers come from ServerTelemetry's
            // atomics and side locks — never `self.index` — so they stay
            // fast while an insert holds the index write lock (the
            // integration test pins this by probing mid-insert).
            Request::Health => self.telemetry.health_response(1),
            Request::MetricsSnapshot => Response::MetricsSnapshot(self.telemetry.metrics_text()),
        };
        sink(StagedResponse::Other(response), trace)
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
///
/// Public because every server front end — [`CloudServer`] and the sharded
/// scatter-gather server — must stage identically for the wire to be
/// byte-compatible between deployments.
pub fn stage_views(views: Vec<CandidateView<'_>>, budget: Option<usize>) -> StagedList<'_> {
    let inline = inline_prefix(views.iter().map(|v| v.payload.len()), budget);
    StagedList::new(views, inline)
}

/// [`stage_views`] for an owned ranked candidate set: the same rule,
/// filling an owned [`CandidateList`].
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
pub fn objects_response(ids: &[u64], entries: Vec<Option<IndexEntry>>) -> Response {
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

fn candidate((e, lower_bound): (IndexEntry, f64)) -> Candidate {
    Candidate {
        id: e.id,
        lower_bound,
        payload: e.payload,
    }
}

/// Refuses a `cand_size` whose phase-1 header list could not fit the
/// protocol's decode cap even with zero payloads inlined — the requester
/// itself could never decode the answer, so the server rejects the
/// request up front ([`Response::Error`]) instead of doing the search
/// work and shipping an undecodable frame. Shared by every server front
/// end so single and sharded deployments clamp identically.
pub fn check_cand_size(cand_size: u32) -> Result<(), String> {
    if cand_size as usize > MAX_CANDIDATE_HEADERS {
        Err(format!(
            "cand_size {cand_size} exceeds the {MAX_CANDIDATE_HEADERS}-header response cap"
        ))
    } else {
        Ok(())
    }
}

/// Builds the promise evaluator a k-NN request's routing implies — shared
/// by every server front end so sharded and single deployments rank cells
/// identically.
pub fn evaluator_for(routing: Routing) -> PromiseEvaluator {
    match routing {
        Routing::Distances(ds) => {
            PromiseEvaluator::from_distances(ds.iter().map(|&d| d as f64).collect())
        }
        Routing::Permutation(p) => PromiseEvaluator::from_permutation(p),
    }
}

impl<S: BucketStore> SharedRequestHandler for CloudServer<S> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        let mut trace = self.telemetry.trace();
        let decoded = {
            let _decode = trace.span("decode", self.telemetry.decode_hist());
            Request::decode(request)
        };
        let response = |staged: StagedResponse<'_>, trace: &mut Trace| {
            self.telemetry.encode_response(&staged, trace)
        };
        let bytes = match decoded {
            Ok(req) => {
                trace.set_label(request_label(&req));
                self.process_with(req, &mut trace, response)
            }
            Err(e) => {
                trace.set_label("undecodable");
                response(
                    StagedResponse::Other(Response::Error(e.to_string())),
                    &mut trace,
                )
            }
        };
        self.telemetry.finish(trace);
        bytes
    }
}

/// `&mut self` adapter so existing single-threaded call sites (in-process
/// transports, tests) keep working unchanged.
impl<S: BucketStore> RequestHandler for CloudServer<S> {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::KnnQuery;
    use simcloud_mindex::RoutingStrategy;
    use simcloud_storage::MemoryStore;

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

    #[test]
    fn insert_then_info() {
        let s = server();
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
        ]));
        assert_eq!(resp, Response::Inserted(2));
        match s.process(Request::Info) {
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
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.12, 0.52, 0.88]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        let resp = s.process(Request::Range {
            distances: vec![0.11, 0.51, 0.89],
            radius: 0.05,
        });
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
        assert!(s.last_search_stats().entries_scanned >= 2);
    }

    #[test]
    fn knn_via_bytes_round_trip() {
        let mut s = server();
        s.handle(
            &Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ])
            .encode(),
        );
        let resp_bytes = s.handle(
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
        let mut s = server();
        let resp = Response::decode(&s.handle(&[0xFF, 0x00])).unwrap();
        assert!(matches!(resp, Response::Error(_)));
    }

    #[test]
    fn wrong_strategy_yields_error_response() {
        let s = server();
        let resp = s.process(Request::ApproxKnn {
            routing: Routing::permutation_prefix(&[0.3, 0.2, 0.1], 2),
            cand_size: 5,
        });
        // Permutation queries are fine against a distances index — the
        // evaluator just ranks cells by permutation. But inserts must match:
        let bad_insert = s.process(Request::Insert(vec![IndexEntry::new(
            9,
            Routing::permutation_prefix(&[0.1, 0.2, 0.3], 2),
            vec![],
        )]));
        assert!(matches!(bad_insert, Response::InsertError { .. }));
        // and the knn above returned an empty candidate set, not an error
        assert!(matches!(resp, Response::CandidateList(_)));
    }

    /// Candidate sets leave the server sorted by their wire lower bound
    /// with the bounds attached — the contract the lazy client exits on.
    #[test]
    fn knn_response_carries_ascending_lower_bounds() {
        let s = server();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.4, 0.6, 0.7]),
            entry(3, &[0.9, 0.1, 0.2]),
            entry(4, &[0.11, 0.52, 0.9]),
        ]));
        let resp = s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 4,
        });
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
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        for _ in 0..3 {
            s.process(Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 2,
            });
        }
        assert_eq!(s.total_search_stats().candidates, 6);
        assert_eq!(s.last_search_stats().candidates, 2);
    }

    #[test]
    fn partial_insert_reports_stored_prefix() {
        let s = server();
        // Second entry has a dimension mismatch: the first one stays.
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        match resp {
            Response::InsertError { inserted, message } => {
                assert_eq!(inserted, 1, "exactly the prefix before the bad entry");
                assert!(message.contains("pivot distances"), "{message}");
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.process(Request::Info) {
            Response::Info { entries, .. } => assert_eq!(entries, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn failed_search_zeroes_last_stats() {
        let s = server();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        let ok = s.process(Request::Range {
            distances: vec![0.1, 0.5, 0.9],
            radius: 1.0,
        });
        assert!(matches!(ok, Response::CandidateList(_)));
        let before_total = s.total_search_stats();
        assert!(s.last_search_stats().entries_scanned > 0);
        // Dimension mismatch: the search fails before doing any work.
        let bad = s.process(Request::Range {
            distances: vec![0.1],
            radius: 1.0,
        });
        assert!(matches!(bad, Response::Error(_)));
        assert_eq!(
            s.last_search_stats(),
            SearchStats::default(),
            "stale stats must not be attributed to the failed request"
        );
        assert_eq!(
            s.total_search_stats(),
            before_total,
            "failed searches add nothing to the totals"
        );
    }

    #[test]
    fn batch_knn_returns_one_set_per_query_in_order() {
        let s = server();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        let resp = s.process(Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 1,
            },
            KnnQuery {
                routing: Routing::from_distances(&[0.9, 0.1, 0.2]),
                cand_size: 2,
            },
        ]));
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].as_ref().unwrap().headers[0].id, 1);
                assert_eq!(sets[1].as_ref().unwrap().headers[0].id, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The batch counts as one search request in the per-request stats
        // and its full volume lands in the totals.
        assert_eq!(s.last_search_stats().candidates, 3);
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
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.11, 0.51, 0.89]),
            entry(3, &[0.4, 0.6, 0.7]),
            entry(4, &[0.9, 0.1, 0.2]),
        ]));
        let resp = s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 4,
        });
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
        s.process(Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        match s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 1,
        }) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 1);
                assert!(list.payloads.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Phase 2: fetches return payloads by id in request order, error on
    /// unknown ids, and work through `&self` (stateless between phases).
    #[test]
    fn fetch_objects_by_id() {
        let s = server();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        match s.process(Request::FetchObjects { ids: vec![3, 1] }) {
            Response::Objects(objs) => {
                assert_eq!(objs.len(), 2);
                assert_eq!(objs[0].id, 3);
                assert_eq!(objs[0].payload, vec![3u8; 3]);
                assert_eq!(objs[1].id, 1);
                assert_eq!(objs[1].payload, vec![1u8; 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.process(Request::FetchObjects { ids: vec![1, 99] }) {
            Response::Error(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        // Fetches are not searches: per-request search stats untouched.
        assert_eq!(s.last_search_stats(), SearchStats::default());
    }

    /// One failing query in a batch answers in its own slot; its siblings'
    /// candidate sets still ship, and the batch stats cover exactly the
    /// successful queries.
    #[test]
    fn batch_query_failure_is_isolated_to_its_slot() {
        let s = server();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        let resp = s.process(Request::BatchKnn(vec![
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
        ]));
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
            s.last_search_stats().candidates,
            3,
            "stats cover the successful queries only"
        );
        assert_eq!(s.total_search_stats().candidates, 3);
    }

    /// A `cand_size` whose headers alone would bust the 64 MiB decode cap
    /// is refused before any search work — solo requests get an error
    /// response (with zeroed per-request stats), batch slots carry the
    /// clamp error while their siblings still answer.
    #[test]
    fn oversized_cand_size_refused_before_search() {
        let s = server();
        s.process(Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 1,
        });
        assert_eq!(s.last_search_stats().candidates, 1);
        let before_total = s.total_search_stats();
        let over = u32::try_from(MAX_CANDIDATE_HEADERS + 1).unwrap();
        match s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: over,
        }) {
            Response::Error(msg) => assert!(msg.contains("header response cap"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats(), SearchStats::default());
        assert_eq!(s.total_search_stats(), before_total);
        match s.process(Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: over,
            },
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 1,
            },
        ])) {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                let msg = sets[0].as_ref().unwrap_err();
                assert!(msg.contains("header response cap"), "{msg}");
                assert_eq!(sets[1].as_ref().unwrap().headers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 1, "successes only");
    }

    #[test]
    fn shared_handle_serves_reads_from_many_threads() {
        let s = std::sync::Arc::new(server());
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
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
