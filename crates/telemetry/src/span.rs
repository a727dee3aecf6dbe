//! RAII phase timing: a [`Trace`] follows one request through its
//! lifecycle, and each [`PhaseSpan`] opened on it times one phase,
//! recording the elapsed nanoseconds into a [`Histogram`] *and* into the
//! trace's own phase list (which feeds the slow-query log).
//!
//! A disabled trace (telemetry off) costs one branch per span and never
//! reads the clock. Spans borrow the trace mutably, so phases are
//! naturally sequential and cannot overlap by construction.

use std::time::Instant;

use crate::metrics::Histogram;

/// Per-request phase timeline. Create one per request with
/// [`Trace::started`] (or [`Trace::disabled`] when telemetry is off),
/// open a [`PhaseSpan`] around each phase, then [`Trace::finish`] it.
#[derive(Debug)]
pub struct Trace {
    start: Option<Instant>,
    label: &'static str,
    phases: Vec<(&'static str, u64)>,
}

impl Trace {
    /// A live trace: the clock starts now.
    pub fn started(label: &'static str) -> Self {
        Trace {
            start: Some(Instant::now()),
            label,
            // A request records a handful of phases; reserving up front
            // keeps span drops realloc-free on the hot path.
            phases: Vec::with_capacity(8),
        }
    }

    /// A no-op trace: spans on it never read the clock or record.
    pub fn disabled() -> Self {
        Trace {
            start: None,
            label: "",
            phases: Vec::new(),
        }
    }

    /// Whether this trace is recording.
    pub fn is_live(&self) -> bool {
        self.start.is_some()
    }

    /// Replaces the label (set once the request kind is known, i.e.
    /// after the decode phase).
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }

    /// Opens a span timing one phase; the phase ends when the guard
    /// drops, recording into `hist` and the trace's phase list.
    pub fn span<'a>(&'a mut self, name: &'static str, hist: &'a Histogram) -> PhaseSpan<'a> {
        if self.is_live() {
            PhaseSpan {
                trace: Some(self),
                hist,
                name,
                start: Some(Instant::now()),
            }
        } else {
            PhaseSpan {
                trace: None,
                hist,
                name,
                start: None,
            }
        }
    }

    /// Closes the trace. `None` when the trace was disabled.
    pub fn finish(self) -> Option<TraceRecord> {
        let start = self.start?;
        Some(TraceRecord {
            label: self.label,
            total_nanos: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            phases: self.phases,
        })
    }
}

/// RAII guard for one phase of a [`Trace`].
#[derive(Debug)]
#[must_use = "a span times until dropped; binding it to _ ends the phase immediately"]
pub struct PhaseSpan<'a> {
    trace: Option<&'a mut Trace>,
    hist: &'a Histogram,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        let (Some(trace), Some(start)) = (self.trace.take(), self.start) else {
            return;
        };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.record(nanos);
        trace.phases.push((self.name, nanos));
    }
}

/// Completed trace: the request's label, wall time and per-phase
/// breakdown, ready for the slow-query log.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Request kind (`"knn"`, `"insert"`, ...).
    pub label: &'static str,
    /// Whole-request wall time in nanoseconds.
    pub total_nanos: u64,
    /// `(phase name, nanoseconds)` in execution order.
    pub phases: Vec<(&'static str, u64)>,
}

/// Standalone RAII timer for components without a per-request trace
/// (storage flushes, transport dials): records into a histogram on drop,
/// and reads the clock only when constructed enabled.
#[derive(Debug)]
#[must_use = "a span timer measures until dropped"]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing into `hist` when `enabled`; a disabled timer is
    /// free.
    pub fn new(hist: &'a Histogram, enabled: bool) -> Self {
        SpanTimer {
            hist,
            start: enabled.then(Instant::now),
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record_since(start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn live_trace_records_phases_and_histogram() {
        let hist = Histogram::new();
        let mut trace = Trace::started("knn");
        {
            let _s = trace.span("decode", &hist);
            std::thread::sleep(Duration::from_millis(1));
        }
        {
            let _s = trace.span("stage", &hist);
        }
        let rec = trace.finish().expect("live trace yields a record");
        assert_eq!(rec.label, "knn");
        assert_eq!(rec.phases.len(), 2);
        assert_eq!(rec.phases.first().map(|p| p.0), Some("decode"));
        assert!(rec.phases.first().is_some_and(|p| p.1 >= 1_000_000));
        assert!(rec.total_nanos >= rec.phases.iter().map(|p| p.1).sum::<u64>());
        assert_eq!(hist.snapshot().count, 2);
    }

    #[test]
    fn disabled_trace_is_inert() {
        let hist = Histogram::new();
        let mut trace = Trace::disabled();
        {
            let _s = trace.span("decode", &hist);
        }
        assert!(trace.finish().is_none());
        assert_eq!(hist.snapshot().count, 0);
    }

    #[test]
    fn span_timer_gates_on_enabled() {
        let hist = Histogram::new();
        {
            let _t = SpanTimer::new(&hist, false);
        }
        assert_eq!(hist.snapshot().count, 0);
        {
            let _t = SpanTimer::new(&hist, true);
        }
        assert_eq!(hist.snapshot().count, 1);
    }
}
