//! # simcloud-bench — experiment harness
//!
//! Shared machinery for regenerating the paper's evaluation (Tables 1–9)
//! and its ablations (`pivots`, `strategy`, `transform`, `k`, `network`).
//! The `repro` binary is the entry point:
//!
//! ```text
//! cargo run --release -p simcloud-bench --bin repro -- --all
//! cargo run --release -p simcloud-bench --bin repro -- --table 5
//! cargo run --release -p simcloud-bench --bin repro -- --ablation pivots
//! cargo run --release -p simcloud-bench --bin repro -- --scale paper --table 6
//! ```
//!
//! Every encrypted deployment of the harness is built by one function,
//! [`outsource`] (key, client over any transport, bulk inserts of
//! [`BULK`]); the experiments differ only in the server and the client
//! configuration they hand it. `tests/harness.rs` runs every experiment
//! twice at tiny scale and checks that the counts and recall repeat.
//!
//! Two benches live in `benches/`: `components` (ns-scale primitives:
//! distance kernels, pivot filters, the page and query data paths, the
//! client's crypto) and `obs` (telemetry overhead on the steady-state
//! query path of [`steady`], against a server the bench builds itself).

pub mod experiments;
pub mod scale;
pub mod steady;
pub mod tables;

pub use experiments::*;
pub use scale::Scale;
pub use steady::{prebuild, steady_state_encrypted, PreBuilt, SteadyState};
pub use tables::Table;
