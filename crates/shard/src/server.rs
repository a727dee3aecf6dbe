//! The sharded similarity-cloud server.
//!
//! [`ShardedCloudServer`] speaks **exactly** the wire protocol of
//! `simcloud_core::CloudServer` — same requests, same responses, same
//! candidate staging — so today's unmodified `EncryptedClient` works
//! against it byte for byte. The difference is entirely behind the wire:
//! the index is a [`ShardedMIndex`], so inserts take one shard's write
//! lock instead of a global one and searches scatter-gather across all
//! shards in parallel.

use simcloud_core::protocol::{Candidate, Request, Response, StagedList, StagedResponse};
use simcloud_core::telemetry::{request_label, ServerTelemetry};
use simcloud_core::{check_cand_size, evaluator_for, objects_response, stage_views, ServerConfig};
use simcloud_mindex::{CandidateCursor, CandidateView, MIndexConfig, MIndexError, SearchStats};
use simcloud_storage::BucketStore;
use simcloud_telemetry::Trace;
use simcloud_transport::{RequestHandler, SharedRequestHandler};

use crate::index::ShardedMIndex;
use crate::router::ShardRouter;

/// Server half of the sharded Encrypted M-Index. Drop-in wire-compatible
/// with `CloudServer`; holds no key material. All self-reporting goes
/// through the **same** [`ServerTelemetry`] implementation as the single
/// server, so both deployments expose identically shaped metrics (the
/// shard layer adds its own `shard.*` histograms to the shared registry).
pub struct ShardedCloudServer<S: BucketStore> {
    index: ShardedMIndex<S>,
    config: ServerConfig,
    telemetry: ServerTelemetry,
}

impl<S: BucketStore> std::fmt::Debug for ShardedCloudServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCloudServer").finish_non_exhaustive()
    }
}

impl<S: BucketStore> ShardedCloudServer<S> {
    /// Creates a sharded server with one shard per store and the default
    /// [`ServerConfig`] (no inline budget).
    pub fn new(
        config: MIndexConfig,
        router: Box<dyn ShardRouter>,
        stores: Vec<S>,
    ) -> Result<Self, MIndexError> {
        Self::with_config(config, ServerConfig::default(), router, stores)
    }

    /// Creates a sharded server with an explicit [`ServerConfig`].
    pub fn with_config(
        config: MIndexConfig,
        server_config: ServerConfig,
        router: Box<dyn ShardRouter>,
        stores: Vec<S>,
    ) -> Result<Self, MIndexError> {
        let telemetry = ServerTelemetry::new();
        let mut index = ShardedMIndex::new(config, router, stores)?;
        // Shard-layer timings land in the same registry, so one
        // MetricsSnapshot answer carries the whole picture; the entries
        // gauge is seeded here so Health never touches shard locks.
        index.bind_telemetry(telemetry.registry());
        telemetry.set_entries(index.len());
        Ok(Self {
            index,
            config: server_config,
            telemetry,
        })
    }

    /// Overrides the index's fan-out mode (see
    /// `ShardedMIndex::with_parallel_fanout`).
    pub fn with_parallel_fanout(mut self, parallel: bool) -> Self {
        self.index = self.index.with_parallel_fanout(parallel);
        self
    }

    /// The server configuration.
    pub fn server_config(&self) -> ServerConfig {
        self.config
    }

    /// The sharded index (shard inspection, aggregate shape/IO stats).
    pub fn index(&self) -> &ShardedMIndex<S> {
        &self.index
    }

    /// Commits every shard's store to durable storage (see
    /// [`ShardedMIndex::flush`]).
    pub fn flush(&self) -> Result<(), MIndexError> {
        self.index.flush()
    }

    /// Statistics of the most recent search request — per-shard cost
    /// counters summed, `candidates` the merged (capped) answer size.
    /// Zeroed when the most recent search failed.
    pub fn last_search_stats(&self) -> SearchStats {
        self.telemetry.last_search_stats()
    }

    /// Accumulated statistics over all search requests.
    pub fn total_search_stats(&self) -> SearchStats {
        self.telemetry.total_search_stats()
    }

    /// The server's telemetry: registry (including the shard-layer
    /// histograms), phase histograms, slow-query log, the enabled switch
    /// and the `Health` / `MetricsSnapshot` answer path — the same type
    /// the single server exposes.
    pub fn telemetry(&self) -> &ServerTelemetry {
        &self.telemetry
    }

    /// Stages merged candidate views for the phase-1 wire — the same
    /// rule, budget and layout as the single server.
    fn stage<'a>(&self, views: Vec<CandidateView<'a>>) -> StagedList<'a> {
        stage_views(views, self.config.max_inline_response_bytes)
    }

    /// Merges the opened cursors' frontiers up to `cap` and stages the
    /// result — the shared tail of every search. Shard guards were
    /// released with the fan-out: this runs lock-free over owned cursors.
    fn merge_and_stage<'c>(
        &self,
        cursors: &'c [CandidateCursor],
        cap: Option<usize>,
        trace: &mut Trace,
    ) -> (StagedList<'c>, SearchStats) {
        let (views, stats) = {
            let _pull = trace.span("pull", self.telemetry.pull_hist());
            self.index.merge(cursors, cap)
        };
        let _stage = trace.span("stage", self.telemetry.stage_hist());
        (self.stage(views), stats)
    }

    /// Answers a single-list search from its opened per-shard cursors.
    fn answer_search<R>(
        &self,
        opened: Result<(Vec<CandidateCursor>, Option<usize>), MIndexError>,
        trace: &mut Trace,
        sink: impl FnOnce(StagedResponse<'_>, &mut Trace) -> R,
    ) -> R {
        match opened {
            Ok((cursors, cap)) => {
                let (list, stats) = self.merge_and_stage(&cursors, cap, trace);
                self.telemetry.record_search(stats);
                sink(StagedResponse::List(list), trace)
            }
            Err(e) => {
                self.telemetry.record_failed_search();
                sink(StagedResponse::Other(Response::Error(e.to_string())), trace)
            }
        }
    }

    /// Processes one decoded request. Needs only `&self`: searches fan out
    /// over the shards' read locks, an insert takes exactly one shard's
    /// write lock. Runs [`Self::process_with`] in its own request trace,
    /// so direct callers feed the same histograms as the byte handler.
    pub fn process(&self, request: Request) -> Response {
        let mut trace = self.telemetry.trace_labeled(request_label(&request));
        let response = self.process_with(request, &mut trace, |staged, _| staged.into_response());
        self.telemetry.note_response(&response);
        self.telemetry.finish(trace);
        response
    }

    /// Runs one request and hands its answer to `sink` (see
    /// `CloudServer::process_with`: typed callers copy the staged lists
    /// out, the byte handler writes them straight into the response
    /// frame). The same phase vocabulary as the single server (route →
    /// open → pull → stage, or insert), with the scatter-gather specifics
    /// — per-shard opens, frontier pull runs, the coordinator merge —
    /// landing in the registry's `shard.*` histograms underneath the
    /// `open`/`pull` phases.
    fn process_with<R>(
        &self,
        request: Request,
        trace: &mut Trace,
        sink: impl FnOnce(StagedResponse<'_>, &mut Trace) -> R,
    ) -> R {
        let response = match request {
            Request::Insert(entries) => {
                // Same non-atomic bulk *error* semantics as the single
                // server (the stored prefix stays and is reported), but a
                // weaker isolation level: each entry takes only its target
                // shard's write lock, so a concurrent search may observe a
                // partially applied bulk — the single server applies the
                // whole bulk under one write lock and exposes none-or-all.
                // This is the deliberate price of removing the global
                // write lock; deployments needing bulk atomicity against
                // readers must quiesce searches around the bulk.
                let n_entries;
                let response = {
                    let _insert = trace.span("insert", self.telemetry.insert_hist());
                    let mut n = 0u32;
                    let mut failure = None;
                    for e in entries {
                        match self.index.insert(e) {
                            Ok(()) => n += 1,
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
                // Health never waits on any shard's write lock.
                self.telemetry.add_entries(n_entries);
                response
            }
            Request::Range { distances, radius } => {
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.index.open_range_cursors(&distances, radius)
                };
                return self.answer_search(opened.map(|cursors| (cursors, None)), trace, sink);
            }
            Request::ApproxKnn { routing, cand_size } => match check_cand_size(cand_size) {
                // Refused before any fan-out: the answer could never be
                // decoded by the requester. Per-request stats are zeroed
                // like any failed search.
                Err(msg) => {
                    self.telemetry.record_failed_search();
                    Response::Error(msg)
                }
                Ok(()) => {
                    let evaluator = {
                        let _route = trace.span("route", self.telemetry.route_hist());
                        evaluator_for(routing)
                    };
                    let opened = {
                        let _open = trace.span("open", self.telemetry.open_hist());
                        self.index.open_knn_cursors(&evaluator, cand_size as usize)
                    };
                    return self.answer_search(opened, trace, sink);
                }
            },
            Request::BatchKnn(queries) => {
                // Partition first: oversized queries are refused up front
                // and never reach the index; every admissible query runs
                // in **one** batch fan-out — each shard is locked once and
                // opens all of the batch's cursors under that single guard
                // (`ShardedMIndex::open_batch_knn`), then the coordinator
                // merges each query's frontier lock-free.
                let mut slots: Vec<Option<String>> = Vec::with_capacity(queries.len());
                let mut plans = Vec::new();
                for q in queries {
                    match check_cand_size(q.cand_size) {
                        Ok(()) => {
                            slots.push(None);
                            plans.push((evaluator_for(q.routing), q.cand_size as usize));
                        }
                        Err(msg) => slots.push(Some(msg)),
                    }
                }
                let opened = {
                    let _open = trace.span("open", self.telemetry.open_hist());
                    self.index.open_batch_knn(&plans)
                };
                let mut results = opened.iter();
                let mut sets = Vec::with_capacity(slots.len());
                let mut batch_stats = SearchStats::default();
                for slot in slots {
                    sets.push(match slot {
                        Some(msg) => Err(msg),
                        None => match results.next() {
                            Some(Ok((cursors, cap))) => {
                                let (list, stats) = self.merge_and_stage(cursors, *cap, trace);
                                batch_stats.merge(&stats);
                                Ok(list)
                            }
                            // A failing query answers in its own slot;
                            // batch stats cover exactly the successful
                            // queries.
                            Some(Err(e)) => Err(e.to_string()),
                            // open_batch_knn answers one slot per plan; a
                            // short answer would be a coordinator bug —
                            // surface it per slot, never panic.
                            None => Err("batch answer missing a query slot".into()),
                        },
                    });
                }
                self.telemetry.record_search(batch_stats);
                return sink(StagedResponse::Sets(sets), trace);
            }
            Request::FetchObjects { ids } => match self.index.fetch_entries(&ids) {
                Ok(entries) => objects_response(&ids, entries),
                Err(e) => Response::Error(e.to_string()),
            },
            Request::Info => {
                let shape = self.index.shape();
                Response::Info {
                    entries: shape.entries,
                    leaves: u32::try_from(shape.leaves).unwrap_or(u32::MAX),
                    depth: u32::try_from(shape.max_depth).unwrap_or(u32::MAX),
                }
            }
            Request::ExportAll => match self.index.all_entries() {
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
            // atomics and side locks — never a shard lock — so they stay
            // fast while inserts hold shard write locks.
            Request::Health => self
                .telemetry
                .health_response(u32::try_from(self.index.shard_count()).unwrap_or(u32::MAX)),
            Request::MetricsSnapshot => Response::MetricsSnapshot(self.telemetry.metrics_text()),
        };
        sink(StagedResponse::Other(response), trace)
    }
}

impl<S: BucketStore> SharedRequestHandler for ShardedCloudServer<S> {
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

/// `&mut self` adapter for single-threaded call sites (in-process
/// transports, tests).
impl<S: BucketStore> RequestHandler for ShardedCloudServer<S> {
    fn handle(&mut self, request: &[u8]) -> Vec<u8> {
        self.handle_shared(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HashRouter, PivotRouter};
    use simcloud_core::protocol::KnnQuery;
    use simcloud_mindex::{IndexEntry, Routing, RoutingStrategy};
    use simcloud_storage::MemoryStore;

    fn cfg() -> MIndexConfig {
        MIndexConfig {
            num_pivots: 3,
            max_level: 2,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        }
    }

    fn server(shards: usize) -> ShardedCloudServer<MemoryStore> {
        ShardedCloudServer::new(
            cfg(),
            Box::new(HashRouter),
            (0..shards).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap()
    }

    fn entry(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![id as u8; 3])
    }

    #[test]
    fn insert_then_info_aggregates_shards() {
        let s = server(3);
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
            entry(3, &[0.5, 0.9, 0.1]),
        ]));
        assert_eq!(resp, Response::Inserted(3));
        match s.process(Request::Info) {
            Response::Info {
                entries, leaves, ..
            } => {
                assert_eq!(entries, 3);
                assert!(leaves >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn knn_response_is_sorted_and_counts_stats() {
        let s = server(2);
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.4, 0.6, 0.7]),
            entry(3, &[0.9, 0.1, 0.2]),
            entry(4, &[0.11, 0.52, 0.9]),
        ]));
        match s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 3,
        }) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 3, "merged list capped at cand_size");
                assert!(list
                    .headers
                    .windows(2)
                    .all(|w| w[0].lower_bound <= w[1].lower_bound));
                assert_eq!(list.payloads.len(), 3, "no budget: everything inlined");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 3);
        assert_eq!(s.total_search_stats().candidates, 3);
    }

    #[test]
    fn partial_insert_reports_prefix_across_shards() {
        let s = server(2);
        let resp = s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6]), // dimension mismatch
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        match resp {
            Response::InsertError { inserted, message } => {
                assert_eq!(inserted, 1);
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
        let s = server(2);
        s.process(Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        assert!(matches!(
            s.process(Request::Range {
                distances: vec![0.1, 0.5, 0.9],
                radius: 1.0,
            }),
            Response::CandidateList(_)
        ));
        let before_total = s.total_search_stats();
        let bad = s.process(Request::Range {
            distances: vec![0.1],
            radius: 1.0,
        });
        assert!(matches!(bad, Response::Error(_)));
        assert_eq!(s.last_search_stats(), SearchStats::default());
        assert_eq!(s.total_search_stats(), before_total);
    }

    #[test]
    fn batch_failure_isolated_to_slot_with_summed_stats() {
        let s = server(3);
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        match s.process(Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 2,
            },
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5]), // malformed
                cand_size: 2,
            },
            KnnQuery {
                routing: Routing::from_distances(&[0.2, 0.6, 0.8]),
                cand_size: 1,
            },
        ])) {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 3);
                assert_eq!(sets[0].as_ref().unwrap().headers.len(), 2);
                assert!(sets[1].as_ref().unwrap_err().contains("pivot distances"));
                assert_eq!(sets[2].as_ref().unwrap().headers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 3, "successes only");
    }

    /// The sharded server applies the same `cand_size` clamp as the single
    /// server: oversized solo requests are refused with zeroed stats,
    /// oversized batch slots never reach the fan-out while their siblings
    /// still answer.
    #[test]
    fn oversized_cand_size_refused_before_fanout() {
        let s = server(2);
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
        ]));
        let over = u32::try_from(simcloud_core::protocol::MAX_CANDIDATE_HEADERS + 1).unwrap();
        match s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: over,
        }) {
            Response::Error(msg) => assert!(msg.contains("header response cap"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats(), SearchStats::default());
        match s.process(Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 2,
            },
            KnnQuery {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: over,
            },
        ])) {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].as_ref().unwrap().headers.len(), 2);
                let msg = sets[1].as_ref().unwrap_err();
                assert!(msg.contains("header response cap"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats().candidates, 2, "successes only");
    }

    #[test]
    fn fetch_objects_mirror_request_and_unknown_id_errors() {
        let s = server(3);
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.2, 0.6, 0.8]),
            entry(3, &[0.9, 0.1, 0.2]),
        ]));
        match s.process(Request::FetchObjects { ids: vec![3, 1, 3] }) {
            Response::Objects(objs) => {
                assert_eq!(
                    objs.iter().map(|o| o.id).collect::<Vec<_>>(),
                    vec![3, 1, 3],
                    "request order and duplicates preserved"
                );
                assert_eq!(objs[0].payload, vec![3u8; 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match s.process(Request::FetchObjects { ids: vec![1, 99] }) {
            Response::Error(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.last_search_stats(), SearchStats::default());
    }

    #[test]
    fn budgeted_sharded_server_ships_headers_only() {
        let s = ShardedCloudServer::with_config(
            cfg(),
            ServerConfig::budgeted(0),
            Box::new(PivotRouter),
            vec![MemoryStore::new(), MemoryStore::new()],
        )
        .unwrap();
        s.process(Request::Insert(vec![
            entry(1, &[0.1, 0.5, 0.9]),
            entry(2, &[0.9, 0.1, 0.5]),
        ]));
        match s.process(Request::ApproxKnn {
            routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
            cand_size: 2,
        }) {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 2);
                assert!(list.payloads.is_empty(), "budget 0 inlines nothing");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_handler_serves_bytes_from_many_threads() {
        let s = std::sync::Arc::new(server(4));
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
