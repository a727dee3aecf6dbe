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
//! Criterion micro/meso benches live in `benches/` (one per cost center:
//! crypto, construction, search, baselines, components).

pub mod experiments;
pub mod scale;
pub mod shardperf;
pub mod steady;
pub mod tables;

pub use experiments::*;
pub use scale::Scale;
pub use shardperf::{concurrent_insert_throughput, InsertThroughput, LatencyStore};
pub use steady::{
    prebuild, prebuild_sharded, prebuild_with, shards_arg, shards_suffix, steady_state_batch,
    steady_state_encrypted, steady_state_encrypted_tcp, steady_state_encrypted_with, PreBuilt,
    RouterKind, SteadyServer, SteadyState,
};
pub use tables::Table;
