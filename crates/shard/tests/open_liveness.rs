//! Liveness of the all-shards open, and of inserts on distinct shards.
//!
//! A sharded search holds every shard's read guard for its open; an
//! insert holds one shard's write guard at a time. Writer threads insert
//! into every shard of a 4-shard server — with buckets small enough that
//! cells split under them — while two reader threads run kNN, range and
//! batch requests against it. Nothing may deadlock: a watchdog fails the
//! test after 30 s without progress. Every answer must rank its bounds
//! ascending and name only ids that were inserted, and at the end the
//! server holds exactly the inserted ids.
//!
//! An insert takes only its own shard's write lock, so two inserts routed
//! to different shards hold their locks at the same time. That is checked
//! by structure, not by wall clock: each shard's store makes its append
//! wait for the other shard's append, which can only arrive while the
//! first insert still holds its lock.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use simcloud_core::protocol::{KnnQuery, Request, Response};
use simcloud_mindex::{IndexEntry, MIndexConfig, Routing, RoutingStrategy};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::{BucketId, BucketStore, IoStats, MemoryStore, Record, StorageError};
use simcloud_transport::SharedRequestHandler;

const SHARDS: usize = 4;
const PRELOADED: u64 = 40;
const WRITERS: u64 = 4;
const PER_WRITER: u64 = 200;
const READERS: u64 = 2;
const READER_ROUNDS: u64 = 150;

fn ask(server: &impl SharedRequestHandler, request: &Request) -> Response {
    Response::decode(&server.handle_shared(&request.encode())).expect("response decodes")
}

/// Deterministic pivot distances spread over four pivots.
fn distances(id: u64) -> Vec<f64> {
    (0..4u64)
        .map(|p| ((id * (2 * p + 3) + p * 7) % 23) as f64 / 2.0)
        .collect()
}

fn entry(id: u64) -> IndexEntry {
    IndexEntry::new(
        id,
        Routing::from_distances(&distances(id)),
        vec![id as u8; 8],
    )
}

/// The ids of a search answer, after checking that its bounds ascend.
fn ranked_ids(answer: &Response) -> Vec<u64> {
    let Response::CandidateList(list) = answer else {
        panic!("expected a candidate list, got {answer:?}");
    };
    assert!(
        list.headers
            .windows(2)
            .all(|w| w[0].lower_bound <= w[1].lower_bound),
        "bounds must ascend"
    );
    list.headers.iter().map(|h| h.id).collect()
}

fn writer_id(writer: u64, i: u64) -> u64 {
    PRELOADED + writer * PER_WRITER + i
}

/// Four pivots, matching [`distances`]; buckets of four entries split
/// early.
fn config() -> MIndexConfig {
    MIndexConfig {
        num_pivots: 4,
        max_level: 3,
        bucket_capacity: 4,
        strategy: RoutingStrategy::Distances,
    }
}

#[test]
fn searches_and_inserts_on_every_shard_make_progress() {
    let stores = (0..SHARDS).map(|_| MemoryStore::new()).collect();
    let server = Arc::new(ShardedCloudServer::new(config(), Box::new(HashRouter), stores).unwrap());
    let preload = Request::Insert((0..PRELOADED).map(entry).collect());
    assert_eq!(
        ask(&*server, &preload),
        Response::Inserted(PRELOADED as u32)
    );
    let all_ids: BTreeSet<u64> = (0..PRELOADED + WRITERS * PER_WRITER).collect();

    let (done_tx, done_rx) = mpsc::channel();
    let mut threads = Vec::new();
    for writer in 0..WRITERS {
        let (server, done_tx) = (Arc::clone(&server), done_tx.clone());
        threads.push(std::thread::spawn(move || {
            for i in 0..PER_WRITER {
                let insert = Request::Insert(vec![entry(writer_id(writer, i))]);
                assert_eq!(ask(&*server, &insert), Response::Inserted(1));
            }
            // A panicking thread drops its sender without reporting, which
            // the collector below sees as a disconnect.
            let _ = done_tx.send(());
        }));
    }
    for reader in 0..READERS {
        let (server, done_tx, all_ids) = (Arc::clone(&server), done_tx.clone(), all_ids.clone());
        threads.push(std::thread::spawn(move || {
            for round in 0..READER_ROUNDS {
                let ds = distances(reader * 1000 + round);
                let knn = |cand_size| KnnQuery {
                    routing: Routing::from_distances(&ds),
                    cand_size,
                };
                let mut ids = ranked_ids(&ask(
                    &*server,
                    &Request::ApproxKnn {
                        routing: Routing::from_distances(&ds),
                        cand_size: 5 + round as u32 % 40,
                    },
                ));
                ids.extend(ranked_ids(&ask(
                    &*server,
                    &Request::Range {
                        distances: ds.clone(),
                        radius: 2.0,
                    },
                )));
                match ask(&*server, &Request::BatchKnn(vec![knn(3), knn(25), knn(0)])) {
                    Response::CandidateSets(sets) => {
                        assert_eq!(sets.len(), 3);
                        for set in sets {
                            let list = set.expect("every batch slot answers");
                            ids.extend(ranked_ids(&Response::CandidateList(list)));
                        }
                    }
                    other => panic!("expected candidate sets, got {other:?}"),
                }
                assert!(ids.iter().all(|id| all_ids.contains(id)), "unknown id");
            }
            let _ = done_tx.send(());
        }));
    }
    drop(done_tx);

    for _ in 0..WRITERS + READERS {
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("searches and inserts stalled for 30 s")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("a worker thread failed"),
        }
    }
    // Every worker has reported, so these joins cannot block.
    for thread in threads {
        thread.join().expect("worker thread");
    }

    match ask(&*server, &Request::Info) {
        Response::Info { entries, .. } => assert_eq!(entries, all_ids.len() as u64),
        other => panic!("expected info, got {other:?}"),
    }
    assert!(
        (0..SHARDS).all(|i| server
            .index()
            .shard(i)
            .is_some_and(|s| s.shape().internal > 0)),
        "every shard must have split: the inserts ran into full cells"
    );
    match ask(&*server, &Request::ExportAll) {
        Response::Candidates(all) => {
            let exported: BTreeSet<u64> = all.iter().map(|c| c.id).collect();
            assert_eq!(exported, all_ids, "exactly the inserted ids are stored");
            assert_eq!(all.len(), all_ids.len());
        }
        other => panic!("expected the export, got {other:?}"),
    }
}

/// How long an append waits for the other party before giving up: a
/// serialising regression fails the test after this, instead of hanging.
const RENDEZVOUS_WAIT: Duration = Duration::from_secs(5);

/// A two-party meeting point shared by two stores.
#[derive(Default)]
struct Rendezvous {
    arrived: Mutex<usize>,
    changed: Condvar,
    /// Parties that saw the other one arrive before their wait ran out.
    met: AtomicUsize,
}

impl Rendezvous {
    fn arrive(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.changed.notify_all();
        let (_arrived, wait) = self
            .changed
            .wait_timeout_while(arrived, RENDEZVOUS_WAIT, |arrived| *arrived < 2)
            .unwrap();
        if !wait.timed_out() {
            self.met.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// A memory store whose appends wait at the rendezvous, that is, inside
/// the write lock of the shard that owns the store.
struct RendezvousStore {
    inner: MemoryStore,
    rendezvous: Arc<Rendezvous>,
}

impl BucketStore for RendezvousStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.rendezvous.arrive();
        self.inner.append(bucket, record)
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.inner.read_bucket(bucket)
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
        "Rendezvous memory storage"
    }
}

#[test]
fn inserts_on_two_shards_hold_their_write_locks_at_once() {
    let rendezvous = Arc::new(Rendezvous::default());
    let stores = (0..2)
        .map(|_| RendezvousStore {
            inner: MemoryStore::new(),
            rendezvous: Arc::clone(&rendezvous),
        })
        .collect();
    let server = Arc::new(ShardedCloudServer::new(config(), Box::new(HashRouter), stores).unwrap());
    // The hash router puts id 0 on shard 0 and id 2 on shard 1 (checked
    // below), so each insert takes a different shard's write lock.
    let inserts = [0, 2].map(|id| {
        let server = Arc::clone(&server);
        std::thread::spawn(move || ask(&*server, &Request::Insert(vec![entry(id)])))
    });
    for insert in inserts {
        assert_eq!(insert.join().unwrap(), Response::Inserted(1));
    }
    for shard in 0..2 {
        assert_eq!(server.index().shard(shard).unwrap().len(), 1);
    }
    assert_eq!(
        rendezvous.met.load(Ordering::SeqCst),
        2,
        "one insert waited {RENDEZVOUS_WAIT:?} for the other: inserts to distinct \
         shards are serialising"
    );
}
