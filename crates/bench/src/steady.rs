//! Steady-state search throughput — the harness of the telemetry-overhead
//! bench (`--bench obs`).
//!
//! The index is built **once**, then encrypted approximate k-NN queries
//! are driven against it and reported as queries/second
//! ([`steady_state_encrypted`]). Every run works against a
//! [`SteadyServer`] — a single `CloudServer` or a hash-routed
//! `ShardedCloudServer` behind the same wire — so both deployments are
//! measured by the *same* code path.
//!
//! Throughput is end-to-end per query: pivot distances + server candidate
//! selection + decryption + refinement, i.e. the paper's whole Alg. 2 loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_core::{ClientConfig, CloudServer, EncryptedClient, SecretKey, ServerTelemetry};
use simcloud_datasets::{Dataset, DatasetMetric, QueryWorkload};
use simcloud_metric::PivotSelection;
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::{InProcessTransport, SharedRequestHandler};

use crate::experiments::BULK;

/// Result of one steady-state run.
#[derive(Debug, Clone, Copy)]
pub struct SteadyState {
    /// Queries executed.
    pub queries: u64,
    /// Wall-clock time of the query phase (construction excluded).
    pub elapsed: Duration,
}

impl SteadyState {
    /// Throughput in queries per second.
    pub fn queries_per_second(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64()
    }
}

/// A steady-state server under test: one index or N shards, same wire.
#[derive(Clone, Debug)]
pub enum SteadyServer {
    /// The classic single `CloudServer`.
    Single(Arc<CloudServer<MemoryStore>>),
    /// A `ShardedCloudServer` (one open over every shard).
    Sharded(Arc<ShardedCloudServer<MemoryStore>>),
}

impl SteadyServer {
    /// An in-process client sharing this server.
    pub fn client(
        &self,
        key: SecretKey,
        metric: DatasetMetric,
        config: ClientConfig,
    ) -> EncryptedClient<DatasetMetric, InProcessTransport<Arc<SteadyServer>>> {
        EncryptedClient::new(
            key,
            metric,
            InProcessTransport::new(Arc::new(self.clone())),
            config,
        )
    }

    /// The server's telemetry (same type on either variant).
    pub fn telemetry(&self) -> &ServerTelemetry {
        match self {
            SteadyServer::Single(s) => s.telemetry(),
            SteadyServer::Sharded(s) => s.telemetry(),
        }
    }
}

/// Both variants speak the same wire through the same request engine, so
/// a run drives a [`SteadyServer`] without looking inside.
impl SharedRequestHandler for SteadyServer {
    fn handle_shared(&self, request: &[u8]) -> Vec<u8> {
        match self {
            SteadyServer::Single(s) => s.handle_shared(request),
            SteadyServer::Sharded(s) => s.handle_shared(request),
        }
    }
}

/// A pre-built encrypted deployment: shared server + the key/workload
/// needed to drive queries against it.
pub struct PreBuilt {
    /// The shared server holding the fully built index.
    pub server: SteadyServer,
    /// The data owner's key (clients clone it).
    pub key: SecretKey,
    /// Member queries drawn from the indexed data.
    pub workload: QueryWorkload,
    /// Dataset the index was built from.
    pub dataset: Dataset,
}

impl std::fmt::Debug for PreBuilt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreBuilt").finish_non_exhaustive()
    }
}

fn prebuild_into(ds: Dataset, queries: usize, seed: u64, server: SteadyServer) -> PreBuilt {
    let cfg = crate::experiments::dataset_config(&ds);
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let mut owner = server
        .client(key.clone(), ds.metric.clone(), ClientConfig::distances())
        .with_rng_seed(seed ^ 1);
    for chunk in crate::experiments::id_objects(&ds.vectors).chunks(BULK) {
        owner.insert_bulk(chunk).expect("insert");
    }
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 3);
    PreBuilt {
        server,
        key,
        workload,
        dataset: ds,
    }
}

/// Builds a single-index deployment once (outside any timed region) with
/// the default server configuration (everything inlined — single-phase
/// responses).
pub fn prebuild(ds: Dataset, queries: usize, seed: u64) -> PreBuilt {
    let cfg = crate::experiments::dataset_config(&ds);
    let server = SteadyServer::Single(Arc::new(
        CloudServer::new(cfg, MemoryStore::new()).expect("valid config"),
    ));
    prebuild_into(ds, queries, seed, server)
}

/// [`prebuild`] for a **sharded** deployment: same data, same key
/// derivation, same wire — `shards` hash-routed M-Index shards.
pub fn prebuild_sharded(ds: Dataset, queries: usize, seed: u64, shards: usize) -> PreBuilt {
    let cfg = crate::experiments::dataset_config(&ds);
    let server = SteadyServer::Sharded(Arc::new(
        ShardedCloudServer::new(
            cfg,
            Box::new(HashRouter),
            (0..shards).map(|_| MemoryStore::new()).collect(),
        )
        .expect("valid config"),
    ));
    prebuild_into(ds, queries, seed, server)
}

/// Runs `rounds` passes over the workload from one client against
/// `pre.server` and returns the steady-state throughput.
pub fn steady_state_encrypted(
    pre: &PreBuilt,
    cand_size: usize,
    k: usize,
    rounds: usize,
    seed: u64,
) -> SteadyState {
    let mut client = pre
        .server
        .client(
            pre.key.clone(),
            pre.dataset.metric.clone(),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed);
    let mut run = |rounds: usize| {
        for _ in 0..rounds {
            for q in &pre.workload.queries {
                let (res, _) = client.knn_approx(q, k, cand_size).expect("search");
                std::hint::black_box(res);
            }
        }
    };
    // One untimed pass over the workload first: a freshly built server pays
    // first-touch costs (page faults, lazy allocations, cold caches) on its
    // first queries, and a *steady-state* measurement should not charge
    // them to round one.
    run(1);
    let start = Instant::now();
    run(rounds);
    SteadyState {
        queries: (rounds * pre.workload.len()) as u64,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Which;

    #[test]
    fn steady_state_smoke() {
        let pre = prebuild(Which::Yeast.dataset(300, 11), 4, 5);
        let single = steady_state_encrypted(&pre, 50, 10, 1, 7);
        assert_eq!(single.queries, 4);
        assert!(single.queries_per_second() > 0.0);
        let twice = steady_state_encrypted(&pre, 50, 10, 2, 7);
        assert_eq!(twice.queries, 8);
    }

    #[test]
    fn steady_state_sharded_smoke() {
        let pre = prebuild_sharded(Which::Yeast.dataset(300, 11), 4, 5, 4);
        let SteadyServer::Sharded(server) = &pre.server else {
            panic!("prebuild_sharded built a single server");
        };
        assert_eq!(server.index().shard_count(), 4);
        let run = steady_state_encrypted(&pre, 50, 10, 2, 7);
        assert_eq!(run.queries, 8);
        assert!(
            pre.server
                .telemetry()
                .total_search_stats()
                .candidates_generated
                > 0
        );
    }
}
