//! The **one** telemetry snapshot path the server engine routes
//! through.
//!
//! [`ServerTelemetry`] owns everything a server reports about itself:
//! the metric [`Registry`], the request/phase latency histograms, the
//! `search.*` counters that accumulate every successful search's
//! [`SearchStats`], the entries gauge the ops surface answers from, and
//! the slow-query log. Every number has one accumulator in the registry:
//! [`ServerTelemetry::total_search_stats`] and the exposition read the
//! same counters, and a request's own search stats are the delta of the
//! totals around it. The request engine holds one of these
//! whichever index it serves — single and sharded deployments report
//! identically *shaped* metrics by construction, because there is no
//! second implementation to drift (the stats-sampling inconsistencies
//! between them were exactly such drift).
//!
//! The [`Request::Health`] / [`Request::MetricsSnapshot`] answers are
//! assembled **entirely from pre-aggregated atomics and side locks**
//! owned by this struct — never from the index behind its
//! reader–writer lock — so the ops surface stays responsive while a
//! bulk insert holds the index write lock. This module is part of the
//! analyzer's zero-panic server zone.

use std::sync::Arc;

use simcloud_mindex::SearchStats;
use simcloud_telemetry::{Counter, Gauge, Histogram, Registry, SlowLog, SlowQuery, Trace};

use crate::protocol::{Request, Response, StagedResponse, PROTOCOL_VERSION};

/// Worst-N slow-query retention (per server).
pub const SLOW_LOG_CAPACITY: usize = 16;

/// The `search.*` counter names, in [`SearchStats`] field order.
const SEARCH_COUNTERS: [&str; 7] = [
    "cells_visited",
    "pruned_hyperplane",
    "pruned_range_pivot",
    "entries_scanned",
    "entries_filtered",
    "candidates",
    "candidates_generated",
];

/// Wire label of a request, used for trace labels and the slow-query
/// log.
pub fn request_label(request: &Request) -> &'static str {
    match request {
        Request::Insert(_) => "insert",
        Request::Range { .. } => "range",
        Request::ApproxKnn { .. } => "knn",
        Request::Info => "info",
        Request::ExportAll => "export",
        Request::BatchKnn(_) => "batch_knn",
        Request::FetchObjects { .. } => "fetch",
        Request::Health => "health",
        Request::MetricsSnapshot => "metrics",
    }
}

/// Unified per-server telemetry: registry, request/phase histograms,
/// search-stat accounting, entries gauge and slow-query log.
#[derive(Debug)]
pub struct ServerTelemetry {
    registry: Registry,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    entries: Arc<Gauge>,
    request_hist: Arc<Histogram>,
    decode_hist: Arc<Histogram>,
    route_hist: Arc<Histogram>,
    open_hist: Arc<Histogram>,
    pull_hist: Arc<Histogram>,
    stage_hist: Arc<Histogram>,
    encode_hist: Arc<Histogram>,
    insert_hist: Arc<Histogram>,
    /// One counter per [`SEARCH_COUNTERS`] name.
    search: [Arc<Counter>; 7],
    slow: SlowLog,
}

impl Default for ServerTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerTelemetry {
    /// Fresh telemetry with its own registry (the usual case: one
    /// registry per server process).
    pub fn new() -> Self {
        Self::with_registry(Registry::new())
    }

    /// Telemetry over an existing registry (lets a deployment aggregate
    /// server, storage and transport metrics into one exposition).
    pub fn with_registry(registry: Registry) -> Self {
        ServerTelemetry {
            requests: registry.counter("server", "requests"),
            errors: registry.counter("server", "errors"),
            entries: registry.gauge("server", "entries"),
            request_hist: registry.histogram("server", "request"),
            decode_hist: registry.histogram("server", "phase_decode"),
            route_hist: registry.histogram("server", "phase_route"),
            open_hist: registry.histogram("server", "phase_open"),
            pull_hist: registry.histogram("server", "phase_pull"),
            stage_hist: registry.histogram("server", "phase_stage"),
            encode_hist: registry.histogram("server", "phase_encode"),
            insert_hist: registry.histogram("server", "phase_insert"),
            search: SEARCH_COUNTERS.map(|name| registry.counter("search", name)),
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
            registry,
        }
    }

    /// The underlying registry (bind storage/shard/transport metrics
    /// here, or render it directly).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Turns span timing (and slow-query capture) on or off.
    pub fn set_enabled(&self, on: bool) {
        self.registry.set_enabled(on);
    }

    /// Whether span timing is on.
    pub fn enabled(&self) -> bool {
        self.registry.enabled()
    }

    /// Opens a per-request trace (disabled ⇒ zero clock reads); the
    /// handler labels it once the request is decoded.
    pub fn trace(&self) -> Trace {
        if self.registry.enabled() {
            Trace::started("request")
        } else {
            Trace::disabled()
        }
    }

    /// Closes a request: counts it, records whole-request latency and
    /// offers the phase breakdown to the slow-query log.
    pub fn finish(&self, trace: Trace) {
        self.requests.inc();
        if let Some(record) = trace.finish() {
            self.request_hist.record(record.total_nanos);
            self.slow.offer(record);
        }
    }

    /// The request path's last step: counts an error-shaped answer, then
    /// encodes under the `encode` span — a staged search answer goes from
    /// the cursors' arenas straight into the exactly-sized response frame.
    pub fn encode_response(&self, staged: &StagedResponse<'_>, trace: &mut Trace) -> Vec<u8> {
        if let StagedResponse::Other(Response::Error(_) | Response::InsertError { .. }) = staged {
            self.errors.inc();
        }
        let _encode = trace.span("encode", self.encode_hist());
        staged.encode()
    }

    /// Adds a completed search's stats to the `search.*` counters. Only
    /// successful searches are recorded, so a failed one adds zero.
    pub fn record_search(&self, stats: SearchStats) {
        let values = [
            stats.cells_visited,
            stats.pruned_hyperplane,
            stats.pruned_range_pivot,
            stats.entries_scanned,
            stats.entries_filtered,
            stats.candidates,
            stats.candidates_generated,
        ];
        for (counter, value) in self.search.iter().zip(values) {
            counter.add(value);
        }
    }

    /// Accumulated statistics over all successful searches, read from the
    /// `search.*` counters (relaxed atomics: exact once in-flight searches
    /// finish). A request's own stats are the [`SearchStats::since`] delta
    /// of two readings around it.
    pub fn total_search_stats(&self) -> SearchStats {
        let [cells_visited, pruned_hyperplane, pruned_range_pivot, entries_scanned, entries_filtered, candidates, candidates_generated] =
            self.search.each_ref().map(|counter| counter.get());
        SearchStats {
            cells_visited,
            pruned_hyperplane,
            pruned_range_pivot,
            entries_scanned,
            entries_filtered,
            candidates,
            candidates_generated,
        }
    }

    /// Sets the entries gauge (on construction over a recovered store).
    pub fn set_entries(&self, n: u64) {
        self.entries.set(n);
    }

    /// Raises the entries gauge (after successful inserts).
    pub fn add_entries(&self, n: u64) {
        self.entries.add(n);
    }

    /// Current entries gauge (what `Health` reports).
    pub fn entries(&self) -> u64 {
        self.entries.get()
    }

    /// The retained slow queries, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.snapshot()
    }

    /// Answers [`Request::Health`] from atomics only — by construction
    /// this cannot block on the index lock.
    pub fn health_response(&self, shards: u32) -> Response {
        Response::Health {
            status: 0,
            protocol: PROTOCOL_VERSION,
            entries: self.entries.get(),
            shards,
            uptime_nanos: self.registry.uptime_nanos(),
        }
    }

    /// Answers [`Request::MetricsSnapshot`]: the registry exposition
    /// (counters — `search.*` among them — then gauges, then histograms,
    /// each section sorted by name) followed by the slow-query log (see
    /// the README's metric catalog). Reads atomics and the telemetry side
    /// locks only — never the index lock.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        self.registry.render_into(&mut out);
        self.slow.render_into(&mut out);
        out
    }

    /// Phase histogram: request decode.
    pub fn decode_hist(&self) -> &Histogram {
        &self.decode_hist
    }

    /// Phase histogram: routing/evaluator construction.
    pub fn route_hist(&self) -> &Histogram {
        &self.route_hist
    }

    /// Phase histogram: cursor open (tree walk + staging) under the
    /// read lock.
    pub fn open_hist(&self) -> &Histogram {
        &self.open_hist
    }

    /// Phase histogram: frontier pull (lazy candidate decode).
    pub fn pull_hist(&self) -> &Histogram {
        &self.pull_hist
    }

    /// Phase histogram: phase-1 staging under the inline budget.
    pub fn stage_hist(&self) -> &Histogram {
        &self.stage_hist
    }

    /// Phase histogram: response encode.
    pub fn encode_hist(&self) -> &Histogram {
        &self.encode_hist
    }

    /// Phase histogram: bulk insert under the write lock.
    pub fn insert_hist(&self) -> &Histogram {
        &self.insert_hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_response_is_lock_free_data() {
        let t = ServerTelemetry::new();
        t.set_entries(41);
        t.add_entries(1);
        match t.health_response(4) {
            Response::Health {
                status,
                protocol,
                entries,
                shards,
                ..
            } => {
                assert_eq!(status, 0);
                assert_eq!(protocol, PROTOCOL_VERSION);
                assert_eq!(entries, 42);
                assert_eq!(shards, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The totals are the registry's `search.*` counters: every field
    /// round-trips through its own counter, and a counter bumped in the
    /// registry shows up in the totals.
    #[test]
    fn search_totals_are_registry_counters() {
        let registry = Registry::new();
        let t = ServerTelemetry::with_registry(registry.clone());
        let stats = SearchStats {
            cells_visited: 1,
            pruned_hyperplane: 2,
            pruned_range_pivot: 3,
            entries_scanned: 4,
            entries_filtered: 5,
            candidates: 6,
            candidates_generated: 7,
        };
        t.record_search(stats);
        t.record_search(stats);
        let mut twice = stats;
        twice.merge(&stats);
        assert_eq!(t.total_search_stats(), twice);
        registry.counter("search", "entries_scanned").add(1);
        assert_eq!(t.total_search_stats().entries_scanned, 9);
        assert!(registry
            .render()
            .contains("counter search.candidates_generated 14"));
    }

    #[test]
    fn metrics_text_has_all_three_sections() {
        let t = ServerTelemetry::new();
        t.record_search(SearchStats {
            candidates: 3,
            ..SearchStats::default()
        });
        let mut trace = t.trace();
        trace.set_label("knn");
        {
            let _s = trace.span("stage", t.stage_hist());
        }
        t.finish(trace);
        let text = t.metrics_text();
        assert!(text.contains("counter server.requests 1"), "{text}");
        assert!(text.contains("histogram server.request count=1"), "{text}");
        assert!(text.contains("counter search.candidates 3"), "{text}");
        assert!(text.contains("slow_query rank=1 label=knn"), "{text}");
    }

    #[test]
    fn disabled_telemetry_still_counts_requests() {
        let t = ServerTelemetry::new();
        t.set_enabled(false);
        let trace = t.trace();
        t.finish(trace);
        let text = t.metrics_text();
        assert!(text.contains("counter server.requests 1"), "{text}");
        assert!(text.contains("histogram server.request count=0"), "{text}");
        assert!(t.slow_queries().is_empty(), "no spans when disabled");
    }

    #[test]
    fn request_labels_cover_every_variant() {
        assert_eq!(request_label(&Request::Health), "health");
        assert_eq!(request_label(&Request::MetricsSnapshot), "metrics");
        assert_eq!(request_label(&Request::Info), "info");
    }
}
