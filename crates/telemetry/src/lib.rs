//! # simcloud-telemetry — lock-free metrics, phase spans, slow-query log
//!
//! The observability substrate for the whole workspace, dependency-free
//! by policy (this container has no registry access; everything here is
//! plain `std`). Three layers:
//!
//! * [`metrics`] — atomic [`Counter`]s, [`Gauge`]s and log-bucketed
//!   latency [`Histogram`]s whose [`HistogramSnapshot`]s carry
//!   p50/p95/p99/max estimates and merge by summation (per-shard
//!   distributions aggregate exactly like per-shard `SearchStats` do);
//! * [`span`] — RAII phase timing: a [`Trace`] per request, a
//!   [`PhaseSpan`] per lifecycle phase (decode → route → open → pull →
//!   stage → encode), plus the trace-free [`SpanTimer`] for storage and
//!   transport internals;
//! * [`registry`] / [`slowlog`] — the `Arc`-shared, global-free
//!   [`Registry`] keyed by `(component, name)` with a deterministic
//!   plaintext exposition renderer, and the bounded worst-N [`SlowLog`]
//!   retaining full phase breakdowns of the slowest requests.
//!
//! Everything in this crate sits inside the static-analysis gate's
//! server zone (`cargo run -p simcloud-analyze -- check`): no panics, no
//! slice indexing, no narrowing casts — a metrics bug must never take
//! down the request path it observes. Recording is wait-free (relaxed
//! atomics); only registration (startup) and snapshot/render (the ops
//! surface) take locks.

#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod slowlog;
pub mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use registry::Registry;
pub use slowlog::{SlowLog, SlowQuery};
pub use span::{PhaseSpan, SpanTimer, Trace, TraceRecord};
