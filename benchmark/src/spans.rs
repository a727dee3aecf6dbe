//! In-memory span log for the traced run.
//!
//! Every span carries name, start, end, parent and the query it belongs to.
//! The traced passes keep **one request in flight**, so at any instant at
//! most one span is open per layer and a span's parent is simply the open
//! span of the nearest shallower layer — which also holds when a sharded
//! server reads its stores from parallel threads (siblings, same parent).
//! Self time = duration − the part of the interval its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layer of a span; the number is its nesting depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Client = 0,
    Transport = 1,
    Server = 2,
    Storage = 3,
}

const LAYERS: usize = 4;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 = root.
    pub parent: u32,
    pub name: &'static str,
    pub query: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work the span covered (records read, objects appended…).
    pub count: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU32,
    query: AtomicU32,
    open: Mutex<[u32; LAYERS]>,
    spans: Mutex<Vec<Span>>,
    /// `TracedMetric` accumulates here instead of opening a span per
    /// distance (two clock reads would rival the ~300 ns being timed, and
    /// a query makes 130 of them).
    metric_ns: AtomicU64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            query: AtomicU32::new(0),
            open: Mutex::new([0; LAYERS]),
            spans: Mutex::new(Vec::new()),
            metric_ns: AtomicU64::new(0),
        }
    }
}

impl SpanLog {
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Tags the spans that follow with a query id.
    pub fn set_query(&self, query: u32) {
        self.query.store(query, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it is recorded when the guard drops. `None` while the
    /// log is off, so an idle decorator costs one atomic load.
    pub fn enter(&self, name: &'static str, layer: Layer) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let depth = layer as usize;
        let parent = {
            let mut open = self.open.lock().expect("span log poisoned");
            let parent = open[..depth].iter().rev().copied().find(|&p| p != 0);
            open[depth] = id;
            parent.unwrap_or(0)
        };
        Some(SpanGuard {
            log: self,
            span: Span {
                id,
                parent,
                name,
                query: self.query.load(Ordering::Relaxed),
                start_ns: self.now_ns(),
                end_ns: 0,
                count: 0,
            },
            depth,
        })
    }

    pub fn add_metric_ns(&self, ns: u64) {
        self.metric_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Takes (and zeroes) the time `TracedMetric` has accumulated.
    pub fn take_metric_ns(&self) -> u64 {
        self.metric_ns.swap(0, Ordering::SeqCst)
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

#[derive(Debug)]
pub struct SpanGuard<'a> {
    log: &'a SpanLog,
    span: Span,
    depth: usize,
}

impl SpanGuard<'_> {
    pub fn set_count(&mut self, count: usize) {
        self.span.count = count as u32;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.log.now_ns();
        if let Ok(mut open) = self.log.open.lock() {
            if open[self.depth] == self.span.id {
                open[self.depth] = 0;
            }
        }
        if let Ok(mut spans) = self.log.spans.lock() {
            spans.push(self.span.clone());
        }
    }
}

/// Nanoseconds of `span` not covered by any of `children` (which may
/// overlap each other and are clipped to the parent's interval).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut cuts: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    cuts.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in cuts {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.dur_ns() - covered
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub spans: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub count: u64,
    pub durs: Vec<u64>,
}

impl NameTotals {
    pub fn mean_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.dur_ns as f64 / self.spans as f64 / 1e3
        }
    }

    pub fn mean_self_us(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.spans as f64 / 1e3
        }
    }
}

#[derive(Debug, Default)]
pub struct Summary {
    pub by_name: HashMap<&'static str, NameTotals>,
    /// Number of root spans (spans without a parent).
    pub roots: u64,
    pub root_ns: u64,
    /// Σ self time over every span ÷ Σ root duration.
    pub closure_ratio: f64,
}

impl Summary {
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Totals over every span whose name starts with `prefix`.
    pub fn prefixed(&self, prefix: &str) -> NameTotals {
        let mut out = NameTotals::default();
        for (name, t) in &self.by_name {
            if name.starts_with(prefix) {
                out.spans += t.spans;
                out.dur_ns += t.dur_ns;
                out.self_ns += t.self_ns;
                out.count += t.count;
                out.durs.extend_from_slice(&t.durs);
            }
        }
        out
    }
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out = Summary::default();
    let mut self_total = 0u64;
    for s in spans {
        let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
        let self_ns = self_time_ns(s, kids);
        self_total += self_ns;
        let t = out.by_name.entry(s.name).or_default();
        t.spans += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.count += u64::from(s.count);
        t.durs.push(s.dur_ns());
        if s.parent == 0 {
            out.roots += 1;
            out.root_ns += s.dur_ns();
        }
    }
    if out.root_ns > 0 {
        out.closure_ratio = self_total as f64 / out.root_ns as f64;
    }
    out
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.name, s.query, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            query: 0,
            start_ns,
            end_ns,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(1, 0, 100, 200);
        let a = span(2, 1, 110, 150);
        let b = span(3, 1, 140, 170); // overlaps a by 10
        let c = span(4, 1, 180, 260); // runs past the parent: clipped to 200
        assert_eq!(self_time_ns(&parent, &[&a, &b, &c]), 100 - 60 - 20);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // A child nested inside another adds nothing.
        let inner = span(5, 1, 120, 130);
        assert_eq!(self_time_ns(&parent, &[&a, &inner]), 60);
    }

    #[test]
    fn parents_follow_layers_and_closure_is_one_without_overlap() {
        let log = SpanLog::default();
        assert!(log.enter("off", Layer::Client).is_none());
        log.set_on(true);
        log.set_query(7);
        {
            let _root = log.enter("client", Layer::Client);
            {
                let _rt = log.enter("transport", Layer::Transport);
                let _h = log.enter("server", Layer::Server);
                // Two sibling storage reads under the same handler.
                drop(log.enter("storage", Layer::Storage));
                drop(log.enter("storage", Layer::Storage));
            }
        }
        let spans = log.drain();
        assert_eq!(spans.len(), 5);
        let by = |name: &str| spans.iter().find(|s| s.name == name).unwrap();
        assert_eq!(by("client").parent, 0);
        assert_eq!(by("transport").parent, by("client").id);
        assert_eq!(by("server").parent, by("transport").id);
        assert!(spans
            .iter()
            .filter(|s| s.name == "storage")
            .all(|s| s.parent == by("server").id && s.query == 7));
        let summary = summarize(&spans);
        assert_eq!(summary.roots, 1);
        assert!((summary.closure_ratio - 1.0).abs() < 1e-9);
        assert_eq!(summary.get("storage").spans, 2);
    }
}
