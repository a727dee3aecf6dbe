//! The **one** telemetry snapshot path the server engine routes
//! through.
//!
//! [`ServerTelemetry`] owns everything a server reports about itself:
//! the metric [`Registry`], the request/phase latency histograms, the
//! per-request and accumulated [`SearchStats`] (including the
//! zero-on-failure rule), the entries gauge the ops surface answers
//! from, and the slow-query log. The request engine holds one of these
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

use parking_lot::Mutex;
use simcloud_mindex::{SearchStats, SharedSearchStats};
use simcloud_telemetry::{Counter, Gauge, Histogram, Registry, SlowLog, SlowQuery, Trace};

use crate::protocol::{Request, Response, StagedResponse, PROTOCOL_VERSION};

/// Worst-N slow-query retention (per server).
pub const SLOW_LOG_CAPACITY: usize = 16;

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
    slow: SlowLog,
    last_search_stats: Mutex<SearchStats>,
    total_search_stats: SharedSearchStats,
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
            slow: SlowLog::new(SLOW_LOG_CAPACITY),
            last_search_stats: Mutex::new(SearchStats::default()),
            total_search_stats: SharedSearchStats::new(),
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

    /// Opens a per-request trace (disabled ⇒ zero clock reads).
    pub fn trace(&self) -> Trace {
        self.trace_labeled("request")
    }

    /// [`ServerTelemetry::trace`] with the request kind already known.
    pub fn trace_labeled(&self, label: &'static str) -> Trace {
        if self.registry.enabled() {
            Trace::started(label)
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

    /// Counts error-shaped responses.
    pub fn note_response(&self, response: &Response) {
        if matches!(response, Response::Error(_) | Response::InsertError { .. }) {
            self.errors.inc();
        }
    }

    /// The byte handlers' response sink: counts an error answer, then
    /// encodes under the `encode` span — a staged search answer goes from
    /// the cursors' arenas straight into the exactly-sized response frame.
    pub fn encode_response(&self, staged: &StagedResponse<'_>, trace: &mut Trace) -> Vec<u8> {
        if let StagedResponse::Other(response) = staged {
            self.note_response(response);
        }
        let _encode = trace.span("encode", self.encode_hist());
        staged.encode()
    }

    /// Records a completed search's stats: per-request snapshot replaced,
    /// totals accumulated.
    pub fn record_search(&self, stats: SearchStats) {
        *self.last_search_stats.lock() = stats;
        self.total_search_stats.add(&stats);
    }

    /// Records a failed (or refused) search: the per-request stats are
    /// **zeroed** — a failed search did no accountable work, and stale
    /// numbers must not be attributed to it — and the totals are left
    /// untouched.
    pub fn record_failed_search(&self) {
        *self.last_search_stats.lock() = SearchStats::default();
    }

    /// Statistics of the most recent search request (zeroed when it
    /// failed).
    pub fn last_search_stats(&self) -> SearchStats {
        *self.last_search_stats.lock()
    }

    /// Accumulated statistics over all successful searches.
    pub fn total_search_stats(&self) -> SearchStats {
        self.total_search_stats.snapshot()
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

    /// Answers [`Request::MetricsSnapshot`]: the registry exposition,
    /// the accumulated search counters and the slow-query log, in that
    /// order (see the README's metric catalog). Reads atomics and the
    /// telemetry side locks only — never the index lock.
    pub fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        self.registry.render_into(&mut out);
        let t = self.total_search_stats();
        for (name, value) in [
            ("cells_visited", t.cells_visited),
            ("pruned_hyperplane", t.pruned_hyperplane),
            ("pruned_range_pivot", t.pruned_range_pivot),
            ("entries_scanned", t.entries_scanned),
            ("entries_filtered", t.entries_filtered),
            ("candidates", t.candidates),
            ("candidates_generated", t.candidates_generated),
        ] {
            let _ = writeln!(out, "counter search.{name} {value}");
        }
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

    #[test]
    fn failed_search_zeroes_last_but_not_totals() {
        let t = ServerTelemetry::new();
        let stats = SearchStats {
            candidates: 5,
            entries_scanned: 9,
            ..SearchStats::default()
        };
        t.record_search(stats);
        assert_eq!(t.last_search_stats().candidates, 5);
        t.record_failed_search();
        assert_eq!(t.last_search_stats(), SearchStats::default());
        assert_eq!(t.total_search_stats().candidates, 5);
    }

    #[test]
    fn metrics_text_has_all_three_sections() {
        let t = ServerTelemetry::new();
        t.record_search(SearchStats {
            candidates: 3,
            ..SearchStats::default()
        });
        let mut trace = t.trace_labeled("knn");
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
