//! # simcloud-mindex — the M-Index (Novak & Batko) and its plain deployment
//!
//! The M-Index [5, 6 in the paper] is a dynamic metric index built on
//! *recursive Voronoi partitioning*: every object is assigned to its closest
//! pivot (level 1); overflowing cells are re-partitioned by the next-closest
//! pivot (level 2), and so on — equivalently, objects are indexed by a
//! prefix of their **pivot permutation**. This crate implements:
//!
//! * [`CellTree`](tree::CellTree) — the dynamic Voronoi cell tree
//!   (paper Figures 2–3) with capacity-triggered splits;
//! * [`MIndex`] — the routing-only server structure: insert (Alg. 1 server
//!   part), precise range candidates with double-pivot / range-pivot
//!   pruning and object pivot filtering (Alg. 3), and pre-ranked
//!   approximate k-NN candidates by cell promise (Alg. 4);
//! * [`CandidateCursor`] — the ranked form of both candidate searches:
//!   open walks the cells and ranks the staged records, readers borrow
//!   views and decode nothing; [`MIndex::knn_cursor_over`] /
//!   [`MIndex::range_cursor_over`] open one cursor over several indexes
//!   (the shards of a deployment);
//! * [`PlainMIndex`] — the non-encrypted deployment used as the paper's
//!   efficiency baseline (Tables 4, 7, 8): the server owns pivots, metric
//!   and plaintext objects and refines results itself;
//! * [`recall`] — the paper's result-quality measure (re-exported from
//!   `simcloud_metric`).
//!
//! The crucial property the Encrypted M-Index exploits (§4.2): **nothing in
//! [`MIndex`] ever evaluates the metric** — insertion and candidate
//! selection need only permutations (or client-computed distances), so the
//! structure runs unchanged on an untrusted server that cannot compute
//! `d(·,·)`.

#![warn(missing_docs)]

pub mod config;
pub mod cursor;
pub mod entry;
pub mod index;
pub mod plain;
pub mod promise;
pub mod pruning;
pub mod stats;
pub mod tree;

pub use config::{MIndexConfig, RoutingStrategy};
pub use cursor::{owned_entries, CandidateCursor, CandidateView};
pub use entry::{IndexEntry, RecordBody, Routing};
pub use index::{knn_cap, MIndex, MIndexError, FIRST_CELL_ONLY};
pub use plain::{Neighbor, PlainMIndex};
pub use promise::PromiseEvaluator;
pub use simcloud_metric::recall;
pub use stats::SearchStats;
