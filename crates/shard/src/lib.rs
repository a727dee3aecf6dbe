//! # simcloud-shard — sharded M-Index, scatter-gather similarity cloud
//!
//! A single M-Index keeps everything behind one reader–writer lock:
//! searches share it, but **every insert takes the one write lock**, and
//! every search walks one index. This crate removes both ceilings with a
//! second implementation of `simcloud_core`'s `SearchIndex` trait — the
//! request engine, the wire and the client are the single server's,
//! unchanged (the single index is simply the 1-shard case):
//!
//! * [`ShardedMIndex`] — N fully independent M-Index shards, each with its
//!   own `BucketStore` and its own write lock. An insert blocks 1/N of the
//!   key space; searches fan out to all shards (scoped threads over
//!   `&self`, reusing the shared-read path), each shard *opening* a lazy
//!   `CandidateCursor`, and the coordinator drains the merged frontier by
//!   wire lower bound until `cand_size` candidates are pulled globally
//!   ([`merge::merge_frontier`]) — per-shard generation work drops toward
//!   `cand_size / N` instead of every shard materializing a full list.
//!   Phase-2 fetches are routed to the owning shard through a shard-aware
//!   id map.
//! * [`ShardedCloudServer`] — `simcloud_core::ServerEngine` over a
//!   `ShardedMIndex`: construction from `(config, router, stores)` and the
//!   shard-layer telemetry binding, nothing else. The unmodified
//!   `EncryptedClient` (including lazy refinement and phase-2
//!   `FetchObjects`) works against it byte for byte.
//! * [`ShardRouter`] — pluggable placement: [`HashRouter`] (uniform by id)
//!   or [`PivotRouter`] (nearest global pivot — a coarse Voronoi partition
//!   of the metric space, cf. distributed metric indexes like DIMS).
//!
//! Only the server's constructor differs from a single server's
//! (`ShardedCloudServer::new(config, router, stores)`): clients attach
//! with the same `EncryptedClient::new` over an `InProcessTransport` or a
//! `TcpTransport`, and the server is exposed with the same
//! `simcloud_transport::serve_tcp_shared`.
//!
//! **Exactness.** Range queries return byte-identical answers to a single
//! index: each true result lives in exactly one shard and survives that
//! shard's triangle-inequality-safe pruning, so the merged candidate list
//! is a superset of the true results and client refinement does the rest.
//! Approximate k-NN merges each shard's locally best `cand_size`
//! candidates; when `cand_size` covers the collection the candidate sets
//! coincide with the single index's and answers are byte-identical (the
//! property test pins this), otherwise the sharded set draws from at least
//! as many promising cells. With one shard every response frame equals the
//! single server's at any `cand_size`.

#![warn(missing_docs)]

pub mod index;
pub mod merge;
pub mod router;
pub mod server;
pub mod telemetry;

pub use index::ShardedMIndex;
pub use router::{HashRouter, PivotRouter, ShardRouter};
pub use server::ShardedCloudServer;
pub use telemetry::ShardTiming;
