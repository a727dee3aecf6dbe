//! # simcloud-shard — sharded M-Index, one open over every shard
//!
//! A single M-Index keeps everything behind one reader–writer lock:
//! searches share it, but **every insert takes the one write lock**. This
//! crate removes that ceiling with a second implementation of
//! `simcloud_core`'s `SearchIndex` trait — the request engine, the wire
//! and the client are the single server's, unchanged (the single index is
//! simply the 1-shard case):
//!
//! * [`ShardedMIndex`] — N fully independent M-Index shards, each with its
//!   own `BucketStore` and its own write lock. An insert blocks 1/N of the
//!   key space. A search is one open on the calling thread: it takes every
//!   shard's read guard in shard order, walks each shard's tree to that
//!   shard's `⌈cand_size / N⌉` budget (the whole shard when `cand_size`
//!   covers the collection), stages every picked cell into one arena and
//!   ranks it with one stable sort, and drops the guards. The result is
//!   one `CandidateCursor`, as a single index answers, so the engine
//!   selects `cand_size` candidates from it the same way. Phase-2 fetches
//!   are routed to the owning shard through a shard-aware id map.
//! * [`ShardedCloudServer`] — `simcloud_core::ServerEngine` over a
//!   `ShardedMIndex`: construction from `(config, router, stores)`,
//!   nothing else. The unmodified `EncryptedClient` (including lazy
//!   refinement and phase-2 `FetchObjects`) works against it byte for
//!   byte.
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
//! shard's triangle-inequality-safe pruning, so the candidate list is a
//! superset of the true results and client refinement does the rest.
//! Approximate k-NN keeps the `cand_size` best bounds of the shards'
//! budgeted cells; when `cand_size` covers the collection the candidate
//! sets coincide with the single index's and answers are byte-identical
//! (the property test pins this), otherwise the sharded set draws from at
//! least as many promising cells. Bound ties rank in shard order, then in
//! cell-visit order. With one shard every response frame equals the
//! single server's at any `cand_size`.

#![warn(missing_docs)]

pub mod index;
pub mod router;
pub mod server;

pub use index::ShardedMIndex;
pub use router::{HashRouter, PivotRouter, ShardRouter};
pub use server::ShardedCloudServer;
