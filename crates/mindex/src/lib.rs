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
//! * [`CandidateCursor`] — the lazy, bound-ordered streaming form of both
//!   candidate searches: open walks the same cells and ranks the staged
//!   records, yield decodes payloads on demand — a scatter-gather
//!   coordinator pulls the global frontier and stops at the budget;
//! * [`PlainMIndex`] — the non-encrypted deployment used as the paper's
//!   efficiency baseline (Tables 4, 7, 8): the server owns pivots, metric
//!   and plaintext objects and refines results itself;
//! * [`recall`] — the paper's result-quality measure.
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
pub mod keys;
pub mod plain;
pub mod promise;
pub mod pruning;
pub mod stats;
pub mod tree;

pub use config::{MIndexConfig, RoutingStrategy};
pub use cursor::{owned_entries, CandidateCursor, CandidateView};
pub use entry::{IndexEntry, Routing};
pub use index::{knn_cap, MIndex, MIndexError, FIRST_CELL_ONLY};
pub use plain::{recall, Neighbor, PlainMIndex};
pub use promise::PromiseEvaluator;
pub use stats::SearchStats;
