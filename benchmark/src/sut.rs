//! The pinned API surface: every item of the `simcloud` facade the benchmark
//! names, in one place. The rest of the benchmark imports from here only, so
//! a refactor of the repository knows exactly what must stay nameable (or
//! what this one file must be updated to).

pub use simcloud::core::protocol::{Request, Response};
pub use simcloud::core::{
    evaluator_for, stage_candidates, ClientConfig, CloudServer, CostReport, EncryptedClient,
    Neighbor, SecretKey, ServerConfig, ServerTelemetry,
};
pub use simcloud::datasets::{
    cophir_like, parallel_knn_ground_truth, DatasetMetric, QueryWorkload,
};
pub use simcloud::metric::{Metric, ObjectId, PivotSelection, Vector};
pub use simcloud::mindex::{
    IndexEntry, MIndexConfig, MIndexError, PromiseEvaluator, Routing, SearchStats,
};
pub use simcloud::shard::{HashRouter, ShardedCloudServer};
pub use simcloud::storage::{
    BucketId, BucketStore, DiskStore, IoStats, MemoryStore, Record, StorageError,
};
pub use simcloud::transport::tcp::TcpServerHandle;
pub use simcloud::transport::{
    serve_tcp_shared, RequestClass, SharedRequestHandler, TcpTransport, Transport, TransportError,
    TransportStats,
};

/// Named by the benchmark's unit tests only.
#[cfg(test)]
pub use simcloud::core::protocol::{CandidateHeader, CandidateList};
