//! Insert-path throughput of single vs sharded servers — the measurement
//! behind `BENCH_shard.json`.
//!
//! The single `CloudServer` takes **one global write lock** per insert; the
//! sharded server takes the write lock of exactly one shard. On a
//! single-vCPU container a CPU-bound insert cannot speed up with threads
//! regardless of locking (physics), so the lock *structure* is made
//! visible with a [`LatencyStore`]: every `append` sleeps a configurable
//! write delay **while the owning index's write lock is held**, modelling
//! an I/O-bound bucket write (the disk-store regime). Under a global lock
//! the sleeps serialize; under per-shard locks they overlap — so the
//! sharded/single ratio measures exactly "inserts to distinct shards do
//! not serialize", independent of core count.

use std::time::{Duration, Instant};

use simcloud_core::protocol::{Request, Response};
use simcloud_core::CloudServer;
use simcloud_mindex::{IndexEntry, MIndexConfig, Routing, RoutingStrategy};
use simcloud_shard::ShardedCloudServer;
use simcloud_storage::{BucketId, BucketStore, IoStats, MemoryStore, Record, StorageError};
use simcloud_transport::SharedRequestHandler;

use crate::steady::RouterKind;

/// A bucket store whose writes cost wall-clock time: delegates everything
/// to a [`MemoryStore`], sleeping `write_delay` inside each `append` —
/// i.e. inside the index write lock of whichever server owns it.
#[derive(Debug)]
pub struct LatencyStore {
    inner: MemoryStore,
    write_delay: Duration,
}

impl LatencyStore {
    /// Wraps a fresh in-memory store with the given per-append delay.
    pub fn new(write_delay: Duration) -> Self {
        Self {
            inner: MemoryStore::new(),
            write_delay,
        }
    }
}

impl BucketStore for LatencyStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        if !self.write_delay.is_zero() {
            std::thread::sleep(self.write_delay);
        }
        self.inner.append(bucket, record)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.inner.read_bucket(bucket)
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        self.inner.read_matching(bucket, wanted)
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.inner.bucket_len(bucket)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.inner.delete_bucket(bucket)
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.inner.bucket_ids()
    }

    fn total_records(&self) -> u64 {
        self.inner.total_records()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn backend_name(&self) -> &'static str {
        "Latency-modelled memory storage"
    }
}

/// Result of one concurrent-insert run.
#[derive(Debug, Clone, Copy)]
pub struct InsertThroughput {
    /// Entries inserted across all threads.
    pub inserts: u64,
    /// Wall-clock time of the insert phase.
    pub elapsed: Duration,
}

impl InsertThroughput {
    /// Aggregate inserts per second.
    pub fn inserts_per_second(&self) -> f64 {
        self.inserts as f64 / self.elapsed.as_secs_f64()
    }
}

const PIVOTS: usize = 8;

fn insert_config() -> MIndexConfig {
    MIndexConfig {
        num_pivots: PIVOTS,
        max_level: 2,
        bucket_capacity: 64,
        strategy: RoutingStrategy::Distances,
    }
}

fn entries_for_thread(thread: u64, n: usize, seed: u64) -> Vec<IndexEntry> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed ^ (thread << 17));
    (0..n)
        .map(|i| {
            let ds: Vec<f64> = (0..PIVOTS).map(|_| rng.gen_range(0.0..10.0)).collect();
            IndexEntry::new(
                1 + thread * 1_000_000 + i as u64,
                Routing::from_distances(&ds),
                vec![0xab; 64],
            )
        })
        .collect()
}

/// Drives `threads` concurrent connections, each inserting `per_thread`
/// entries **one request at a time** (the streaming-insert pattern — each
/// request takes and releases the write lock once) against a server with
/// `shards` shards (1 = the single `CloudServer`). `write_delay` is the
/// per-append cost inside the lock; `Duration::ZERO` measures the pure
/// CPU-bound path.
pub fn concurrent_insert_throughput(
    threads: usize,
    per_thread: usize,
    shards: usize,
    router: RouterKind,
    write_delay: Duration,
    seed: u64,
) -> InsertThroughput {
    // One request engine behind both: only construction differs.
    let server: Box<dyn SharedRequestHandler> = if shards <= 1 {
        Box::new(CloudServer::new(insert_config(), LatencyStore::new(write_delay)).expect("config"))
    } else {
        let stores = (0..shards)
            .map(|_| LatencyStore::new(write_delay))
            .collect();
        Box::new(ShardedCloudServer::new(insert_config(), router.build(), stores).expect("config"))
    };
    let server = &server;
    // Workloads are generated *before* the clock starts — the run measures
    // concurrent inserts, not serial entry generation on the main thread.
    let workloads: Vec<Vec<IndexEntry>> = (0..threads as u64)
        .map(|t| entries_for_thread(t, per_thread, seed))
        .collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for entries in workloads {
            scope.spawn(move || {
                for e in entries {
                    let answer = server.handle_shared(&Request::Insert(vec![e]).encode());
                    match Response::decode(&answer) {
                        Ok(Response::Inserted(1)) => {}
                        other => panic!("insert failed: {other:?}"),
                    }
                }
            });
        }
    });
    InsertThroughput {
        inserts: (threads * per_thread) as u64,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With a per-append write delay, four threads against four shards must
    /// overlap their (lock-held) writes, while the single server's global
    /// write lock serializes them — the structural claim of the sharding
    /// subsystem, verifiable on any core count because sleeps don't consume
    /// CPU.
    #[test]
    fn sharded_inserts_overlap_latency_bound_writes() {
        let delay = Duration::from_micros(300);
        let single = concurrent_insert_throughput(4, 20, 1, RouterKind::Hash, delay, 3);
        let sharded = concurrent_insert_throughput(4, 20, 4, RouterKind::Hash, delay, 3);
        let speedup = sharded.inserts_per_second() / single.inserts_per_second();
        assert!(
            speedup > 1.5,
            "4 shards should overlap latency-bound inserts (speedup {speedup:.2}x)"
        );
    }

    #[test]
    fn zero_delay_run_completes_and_counts() {
        let r = concurrent_insert_throughput(2, 10, 2, RouterKind::Pivot, Duration::ZERO, 5);
        assert_eq!(r.inserts, 20);
        assert!(r.inserts_per_second() > 0.0);
    }
}
