//! The sharded similarity-cloud server: `simcloud_core`'s request engine
//! over a [`ShardedMIndex`].
//!
//! There is one request dispatch in the repository
//! ([`simcloud_core::ServerEngine`]); this module only builds the engine
//! over N shards. Wire protocol, candidate staging, statistics, telemetry
//! and the ops surface are therefore the single server's by construction
//! — an unmodified `EncryptedClient` works against either byte for byte. What differs is entirely behind the
//! [`simcloud_core::SearchIndex`] trait: inserts take one shard's write
//! lock instead of a global one, and a search opens one cursor over every
//! shard's cells.

use simcloud_core::{ServerConfig, ServerEngine, ServerTelemetry};
use simcloud_mindex::{MIndexConfig, MIndexError, SearchStats};
use simcloud_storage::BucketStore;
use simcloud_transport::SharedRequestHandler;

use crate::index::ShardedMIndex;
use crate::router::ShardRouter;

/// Server half of the sharded Encrypted M-Index: the request engine over
/// a [`ShardedMIndex`]. Holds no key material. (A local type rather than
/// an alias of the engine so that this crate can give it constructors.)
pub struct ShardedCloudServer<S: BucketStore>(ServerEngine<ShardedMIndex<S>>);

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
        Ok(Self(ServerEngine::from_index(
            ShardedMIndex::new(config, router, stores)?,
            server_config,
            ServerTelemetry::new(),
        )))
    }

    /// The sharded index (shard inspection, aggregate shape/IO stats).
    pub fn index(&self) -> &ShardedMIndex<S> {
        self.0.search_index()
    }

    /// The server configuration.
    pub fn server_config(&self) -> ServerConfig {
        self.0.server_config()
    }

    /// Commits every shard's store (see [`ServerEngine::flush`]).
    pub fn flush(&self) -> Result<(), MIndexError> {
        self.0.flush()
    }

    /// See [`ServerEngine::total_search_stats`].
    pub fn total_search_stats(&self) -> SearchStats {
        self.0.total_search_stats()
    }

    /// The server's telemetry (see [`ServerEngine::telemetry`]).
    pub fn telemetry(&self) -> &ServerTelemetry {
        self.0.telemetry()
    }
}

impl<S: BucketStore> SharedRequestHandler for ShardedCloudServer<S> {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        self.0.handle_shared(request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HashRouter, PivotRouter};
    use simcloud_core::protocol::{KnnQuery, Request, Response};
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

    /// `request`'s answer, through the byte path every server answers on.
    fn ask(server: &impl SharedRequestHandler, request: Request) -> Response {
        Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
    }

    /// `request`'s answer and the search stats it added to the server's
    /// totals — the request's own stats.
    fn answer_and_stats(
        s: &ShardedCloudServer<MemoryStore>,
        request: Request,
    ) -> (Response, SearchStats) {
        let before = s.total_search_stats();
        let response = ask(s, request);
        (response, s.total_search_stats().since(&before))
    }

    #[test]
    fn insert_then_info_aggregates_shards() {
        let s = server(3);
        let resp = ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.9, 0.1, 0.5]),
                entry(3, &[0.5, 0.9, 0.1]),
            ]),
        );
        assert_eq!(resp, Response::Inserted(3));
        match ask(&s, Request::Info) {
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
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.4, 0.6, 0.7]),
                entry(3, &[0.9, 0.1, 0.2]),
                entry(4, &[0.11, 0.52, 0.9]),
            ]),
        );
        let (resp, stats) = answer_and_stats(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 3,
            },
        );
        match resp {
            Response::CandidateList(list) => {
                assert_eq!(list.headers.len(), 3, "list capped at cand_size");
                assert!(list
                    .headers
                    .windows(2)
                    .all(|w| w[0].lower_bound <= w[1].lower_bound));
                assert_eq!(list.payloads.len(), 3, "no budget: everything inlined");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.candidates, 3);
        assert_eq!(s.total_search_stats().candidates, 3);
    }

    #[test]
    fn partial_insert_reports_prefix_across_shards() {
        let s = server(2);
        let resp = ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6]), // dimension mismatch
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        match resp {
            Response::InsertError { inserted, message } => {
                assert_eq!(inserted, 1);
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
        let s = server(2);
        ask(&s, Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9])]));
        assert!(matches!(
            ask(
                &s,
                Request::Range {
                    distances: vec![0.1, 0.5, 0.9],
                    radius: 1.0,
                }
            ),
            Response::CandidateList(_)
        ));
        let (bad, stats) = answer_and_stats(
            &s,
            Request::Range {
                distances: vec![0.1],
                radius: 1.0,
            },
        );
        assert!(matches!(bad, Response::Error(_)));
        assert_eq!(stats, SearchStats::default());
    }

    #[test]
    fn batch_failure_isolated_to_slot_with_summed_stats() {
        let s = server(3);
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
                    routing: Routing::from_distances(&[0.1, 0.5]), // malformed
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
                assert!(sets[1].as_ref().unwrap_err().contains("pivot distances"));
                assert_eq!(sets[2].as_ref().unwrap().headers.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.candidates, 3, "successes only");
    }

    /// The sharded server applies the same `cand_size` clamp as the single
    /// server: oversized solo requests are refused and add nothing to the
    /// search totals, oversized batch slots never reach the open while
    /// their siblings still answer.
    #[test]
    fn oversized_cand_size_refused_before_fanout() {
        let s = server(2);
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.2, 0.6, 0.8])]),
        );
        let over = u32::try_from(simcloud_core::protocol::MAX_CANDIDATE_HEADERS + 1).unwrap();
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
                    cand_size: 2,
                },
                KnnQuery {
                    routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                    cand_size: over,
                },
            ]),
        );
        match resp {
            Response::CandidateSets(sets) => {
                assert_eq!(sets.len(), 2);
                assert_eq!(sets[0].as_ref().unwrap().headers.len(), 2);
                let msg = sets[1].as_ref().unwrap_err();
                assert!(msg.contains("header response cap"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(stats.candidates, 2, "successes only");
    }

    #[test]
    fn fetch_objects_mirror_request_and_unknown_id_errors() {
        let s = server(3);
        ask(
            &s,
            Request::Insert(vec![
                entry(1, &[0.1, 0.5, 0.9]),
                entry(2, &[0.2, 0.6, 0.8]),
                entry(3, &[0.9, 0.1, 0.2]),
            ]),
        );
        match ask(&s, Request::FetchObjects { ids: vec![3, 1, 3] }) {
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
        match ask(&s, Request::FetchObjects { ids: vec![1, 99] }) {
            Response::Error(msg) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s.total_search_stats(), SearchStats::default());
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
        ask(
            &s,
            Request::Insert(vec![entry(1, &[0.1, 0.5, 0.9]), entry(2, &[0.9, 0.1, 0.5])]),
        );
        match ask(
            &s,
            Request::ApproxKnn {
                routing: Routing::from_distances(&[0.1, 0.5, 0.9]),
                cand_size: 2,
            },
        ) {
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

    /// The exposition and the totals read the same `search.*` counters:
    /// after four threads of kNN / range / batch requests against a
    /// 4-shard server, every `counter search.<name>` line equals its
    /// `total_search_stats()` field, and the totals equal a serial replay
    /// of the same requests on an identical server.
    #[test]
    fn search_totals_match_exposition_and_serial_replay() {
        fn filled() -> ShardedCloudServer<MemoryStore> {
            let s = server(4);
            let tenth = |i: u64, m: u64| (i * m % 10) as f64 / 10.0;
            let entries = (0..60)
                .map(|i| entry(i, &[tenth(i, 7), tenth(i, 3), tenth(i, 9)]))
                .collect();
            assert_eq!(ask(&s, Request::Insert(entries)), Response::Inserted(60));
            s
        }
        let thread_requests = |t: u64| -> Vec<Vec<u8>> {
            let ds = [t as f64 / 4.0, 0.5, 1.0 - t as f64 / 4.0];
            let knn = |cand_size| KnnQuery {
                routing: Routing::from_distances(&ds),
                cand_size,
            };
            let requests = [
                Request::ApproxKnn {
                    routing: Routing::from_distances(&ds),
                    cand_size: 5 + t as u32,
                },
                Request::Range {
                    distances: ds.to_vec(),
                    radius: 0.3,
                },
                Request::BatchKnn(vec![knn(3), knn(12)]),
            ];
            let rounds = std::iter::repeat_n(requests, 5).flatten();
            rounds.map(|r| r.encode()).collect()
        };

        let concurrent = filled();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (s, requests) = (&concurrent, thread_requests(t));
                scope.spawn(move || {
                    for request in requests {
                        s.handle_shared(&request);
                    }
                });
            }
        });
        let totals = concurrent.total_search_stats();
        assert!(totals.candidates > 0 && totals.entries_scanned > 0);

        let text = concurrent.telemetry().metrics_text();
        let mut lines = 0;
        for line in text.lines() {
            let Some(counter) = line.strip_prefix("counter search.") else {
                continue;
            };
            let (name, value) = counter.split_once(' ').unwrap();
            let field = match name {
                "cells_visited" => totals.cells_visited,
                "pruned_hyperplane" => totals.pruned_hyperplane,
                "pruned_range_pivot" => totals.pruned_range_pivot,
                "entries_scanned" => totals.entries_scanned,
                "entries_filtered" => totals.entries_filtered,
                "candidates" => totals.candidates,
                "candidates_generated" => totals.candidates_generated,
                other => panic!("unknown search counter {other}"),
            };
            assert_eq!(value.parse::<u64>().unwrap(), field, "{line}");
            lines += 1;
        }
        assert_eq!(lines, 7, "one line per SearchStats field:\n{text}");

        let serial = filled();
        for request in (0..4).flat_map(thread_requests) {
            serial.handle_shared(&request);
        }
        assert_eq!(serial.total_search_stats(), totals);
    }
}
