//! Steady-state search throughput — the harness of the telemetry-overhead
//! bench (`--bench obs`).
//!
//! The index is built **once** ([`prebuild`], through [`outsource`])
//! into whatever server the caller hands in — a `CloudServer`, a
//! `ShardedCloudServer`, anything that answers the wire — then encrypted
//! approximate k-NN queries are driven against it and reported as
//! queries/second ([`steady_state_encrypted`]).
//!
//! Throughput is end-to-end per query: pivot distances + server candidate
//! selection + decryption + refinement, i.e. the paper's whole Alg. 2 loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_core::{ClientConfig, EncryptedClient, SecretKey};
use simcloud_datasets::{Dataset, QueryWorkload};
use simcloud_transport::{InProcessTransport, SharedRequestHandler};

use crate::experiments::{dataset_config, outsource};

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

/// A pre-built encrypted deployment: shared server + the key/workload
/// needed to drive queries against it.
pub struct PreBuilt<H: ?Sized> {
    /// The shared server holding the fully built index.
    pub server: Arc<H>,
    /// The data owner's key (clients clone it).
    pub key: SecretKey,
    /// Member queries drawn from the indexed data.
    pub workload: QueryWorkload,
    /// Dataset the index was built from.
    pub dataset: Dataset,
}

impl<H: ?Sized> std::fmt::Debug for PreBuilt<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreBuilt").finish_non_exhaustive()
    }
}

/// Outsources `ds` into `server` once (outside any timed region), with
/// the dataset's Table 2 pivot count, key seed `seed` and IV seed
/// `seed ^ 1`, and draws `queries` member queries.
pub fn prebuild<H: SharedRequestHandler + ?Sized>(
    ds: Dataset,
    queries: usize,
    seed: u64,
    server: Arc<H>,
) -> PreBuilt<H> {
    let (owner, _) = outsource(
        &ds.vectors,
        &ds.metric,
        dataset_config(&ds).num_pivots,
        InProcessTransport::new(Arc::clone(&server)),
        ClientConfig::distances(),
        (seed, seed ^ 1),
    );
    PreBuilt {
        server,
        key: owner.key().clone(),
        workload: QueryWorkload::members(&ds.vectors, queries, seed ^ 3),
        dataset: ds,
    }
}

/// Runs `rounds` passes over the workload from one client against
/// `pre.server` and returns the steady-state throughput.
pub fn steady_state_encrypted<H: SharedRequestHandler + ?Sized>(
    pre: &PreBuilt<H>,
    cand_size: usize,
    k: usize,
    rounds: usize,
    seed: u64,
) -> SteadyState {
    let mut client = EncryptedClient::new(
        pre.key.clone(),
        pre.dataset.metric.clone(),
        InProcessTransport::new(Arc::clone(&pre.server)),
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
    use simcloud_core::CloudServer;
    use simcloud_shard::{HashRouter, ShardedCloudServer};
    use simcloud_storage::MemoryStore;

    #[test]
    fn steady_state_smoke() {
        let ds = Which::Yeast.dataset(300, 11);
        let server = CloudServer::new(dataset_config(&ds), MemoryStore::new()).unwrap();
        let pre = prebuild(ds, 4, 5, Arc::new(server));
        let single = steady_state_encrypted(&pre, 50, 10, 1, 7);
        assert_eq!(single.queries, 4);
        assert!(single.queries_per_second() > 0.0);
        let twice = steady_state_encrypted(&pre, 50, 10, 2, 7);
        assert_eq!(twice.queries, 8);
    }

    #[test]
    fn steady_state_sharded_smoke() {
        let ds = Which::Yeast.dataset(300, 11);
        let stores = (0..4).map(|_| MemoryStore::new()).collect();
        let server =
            ShardedCloudServer::new(dataset_config(&ds), Box::new(HashRouter), stores).unwrap();
        let pre = prebuild(ds, 4, 5, Arc::new(server));
        assert_eq!(pre.server.index().shard_count(), 4);
        let run = steady_state_encrypted(&pre, 50, 10, 2, 7);
        assert_eq!(run.queries, 8);
        let stats = pre.server.telemetry().total_search_stats();
        assert!(stats.candidates_generated > 0);
    }
}
