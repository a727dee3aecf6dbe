//! Concurrent readers against an adversarially small buffer pool.
//!
//! `DiskStore` reads take `&self`, fetch missed pages outside the pool
//! latch and install them afterwards, so several threads hammer the same
//! store here — whole-bucket reads, borrowed scans, bulk reads into a
//! caller's buffer and filtered reads, over flushed data *and* a tail of
//! unflushed (dirty, pinned) pages — with pools of 2, 8 and
//! 64 frames against ≥ 200 pages of data. Checked: every answer equals the
//! single-threaded one; each page visit is counted exactly once as a hit or
//! a miss; dirty pages are always served from the pool (they are not in the
//! file yet, so an eviction would surface as an error or stale bytes); and
//! nothing deadlocks (a watchdog fails the test after 30 s without
//! progress).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_storage::pagefmt::PAGE_CAP;
use simcloud_storage::{
    BucketId, BucketStore, DiskStore, DiskStoreOptions, FileEnv, IoStats, Record,
};

const THREADS: u64 = 4;
const OPS_PER_THREAD: usize = 2_000;
const BUCKETS: u64 = 40;

fn rec(id: u64, len: usize) -> Record {
    Record::new(
        id,
        (0..len)
            .map(|i| ((id as usize * 7 + i) % 256) as u8)
            .collect(),
    )
}

/// Pages a chain of `bytes` record bytes occupies (appends fill each page
/// before linking the next).
fn chain_pages(bytes: usize) -> u64 {
    bytes.div_ceil(PAGE_CAP) as u64
}

struct Bucket {
    records: Vec<Record>,
    /// Chain length in pages, and how many of those pages were written
    /// after the last flush.
    pages: u64,
    dirty_pages: u64,
}

/// Builds the store: every bucket gets ~5–7 pages of flushed records; every
/// third bucket then gets an unflushed tail that dirties its last flushed
/// page and allocates new ones.
fn build(path: &std::path::Path, pool: usize) -> (DiskStore, BTreeMap<u64, Bucket>) {
    let mut rng = StdRng::seed_from_u64(pool as u64);
    let mut store = DiskStore::create_opts(path, DiskStoreOptions { pool_pages: pool }).unwrap();
    let mut model = BTreeMap::new();
    let mut next_id = 0u64;
    for b in 0..BUCKETS {
        let mut records = Vec::new();
        let mut flushed_bytes = 0;
        while flushed_bytes < 5 * PAGE_CAP {
            let r = rec(next_id, rng.gen_range(40..2600));
            next_id += 1;
            flushed_bytes += r.encoded_len();
            store.append(BucketId(b), r.clone()).unwrap();
            records.push(r);
        }
        model.insert(b, (records, flushed_bytes, 0usize));
    }
    store.flush().unwrap();
    for (b, (records, _, tail_bytes)) in &mut model {
        if b % 3 != 0 {
            continue;
        }
        while *tail_bytes < 2 * PAGE_CAP {
            let r = rec(next_id, rng.gen_range(40..2600));
            next_id += 1;
            *tail_bytes += r.encoded_len();
            store.append(BucketId(*b), r.clone()).unwrap();
            records.push(r);
        }
    }
    let model = model
        .into_iter()
        .map(|(b, (records, flushed, tail))| {
            let pages = chain_pages(flushed + tail);
            // The old tail page is dirtied too (bytes land in it, or its
            // link is set), plus every page allocated since.
            let dirty_pages = if tail > 0 {
                pages - chain_pages(flushed) + 1
            } else {
                0
            };
            (
                b,
                Bucket {
                    records,
                    pages,
                    dirty_pages,
                },
            )
        })
        .collect();
    (store, model)
}

/// A bucket through the borrowed scan, collected for comparison.
fn scanned(store: &DiskStore, bucket: u64) -> Vec<Record> {
    let mut out = Vec::new();
    store
        .scan_bucket(BucketId(bucket), &mut |id, payload| {
            out.push(Record::new(id, payload.to_vec()));
        })
        .unwrap();
    out
}

/// A bucket through the bulk read, decoded back out of the caller's
/// buffer (which already held something) for comparison.
fn bulk_read(store: &DiskStore, bucket: u64) -> Vec<Record> {
    let mut stream = vec![0xA5; 7];
    let records = store
        .read_bucket_into(BucketId(bucket), &mut stream)
        .unwrap();
    let mut out = Vec::with_capacity(records);
    let mut rest = &stream[7..];
    while let Some((record, used)) = Record::decode(rest) {
        out.push(record);
        rest = &rest[used..];
    }
    assert!(rest.is_empty(), "bucket {bucket}: stream ends mid-record");
    assert_eq!(out.len(), records, "bucket {bucket}: reported record count");
    out
}

fn delta(after: IoStats, before: IoStats) -> (u64, u64) {
    (
        after.page_reads - before.page_reads,
        after.pool_hits - before.pool_hits,
    )
}

fn hammer(pool: usize) {
    let path = std::env::temp_dir().join(format!(
        "simcloud-concurrent-{pool}-{}.db",
        std::process::id()
    ));
    let (store, model) = build(&path, pool);
    let total_pages: u64 = model.values().map(|b| b.pages).sum();
    assert!(total_pages >= 200, "only {total_pages} pages of data");
    let dirty_total: u64 = model.values().map(|b| b.dirty_pages).sum();
    assert!(dirty_total > 20, "schedule must leave dirty pages behind");

    // Single-threaded reference pass (also the model check).
    // `scan_bucket` lends, and `read_bucket_into` appends, exactly the
    // records `read_bucket` returns, and both count them as read the same
    // way.
    for (b, bucket) in &model {
        let before = store.stats().records_read;
        assert_eq!(store.read_bucket(BucketId(*b)).unwrap(), bucket.records);
        let read = store.stats().records_read - before;
        assert_eq!(scanned(&store, *b), bucket.records);
        assert_eq!(store.stats().records_read - before, 2 * read);
        assert_eq!(bulk_read(&store, *b), bucket.records);
        assert_eq!(store.stats().records_read - before, 3 * read);
        assert_eq!(read, bucket.records.len() as u64);
    }

    let store = Arc::new(store);
    let model = Arc::new(model);
    let before = store.stats();
    let (done_tx, done_rx) = mpsc::channel();
    let mut readers = Vec::new();
    for t in 0..THREADS {
        let store = Arc::clone(&store);
        let model = Arc::clone(&model);
        let done_tx = done_tx.clone();
        readers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1_000 * pool as u64 + t);
            let (mut visited, mut dirty_visited) = (0u64, 0u64);
            for _ in 0..OPS_PER_THREAD {
                let b = rng.gen_range(0..BUCKETS);
                let bucket = &model[&b];
                let op = rng.gen_range(0..4u8);
                if op == 0 {
                    let got = store.read_bucket(BucketId(b)).unwrap();
                    assert_eq!(got, bucket.records, "bucket {b} (pool {pool})");
                } else if op == 1 {
                    assert_eq!(scanned(&store, b), bucket.records, "scan of bucket {b}");
                } else if op == 2 {
                    assert_eq!(bulk_read(&store, b), bucket.records, "bulk read of {b}");
                } else {
                    let k = rng.gen_range(0..3u64);
                    let got = store.read_matching(BucketId(b), &|id| id % 3 == k).unwrap();
                    let want: Vec<&Record> =
                        bucket.records.iter().filter(|r| r.id % 3 == k).collect();
                    assert!(got.iter().eq(want), "bucket {b} filter {k} (pool {pool})");
                }
                visited += bucket.pages;
                dirty_visited += bucket.dirty_pages;
            }
            // A panicking thread drops its sender without reporting, which
            // the collector below sees as a disconnect.
            let _ = done_tx.send((visited, dirty_visited));
        }));
    }
    drop(done_tx);

    let (mut visited, mut dirty_visited) = (0u64, 0u64);
    for _ in 0..THREADS {
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok((v, d)) => {
                visited += v;
                dirty_visited += d;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("readers stalled for 30 s with a pool of {pool} frames")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("a reader thread failed (pool of {pool} frames)")
            }
        }
    }

    // Every reader has reported, so these joins cannot block.
    for reader in readers {
        reader.join().expect("reader thread");
    }

    let (page_reads, pool_hits) = delta(store.stats(), before);
    assert_eq!(
        page_reads + pool_hits,
        visited,
        "every page visit is exactly one hit or one miss (pool {pool})"
    );
    assert!(
        pool_hits >= dirty_visited,
        "dirty pages must always be pool hits: {pool_hits} hits for {dirty_visited} dirty \
         visits of {visited} (pool {pool})"
    );
    assert!(
        store.resident_pages() as u64 >= dirty_total,
        "dirty frames stay pinned"
    );
    if pool < 64 {
        assert!(page_reads > 0, "a pool of {pool} frames must miss");
    }

    // The unflushed tail commits, the pool trims, and it all reads back.
    let mut store = Arc::try_unwrap(store).expect("readers are done");
    store.flush().unwrap();
    assert!(store.resident_pages() <= pool);
    store.verify().unwrap();
    for (b, bucket) in model.iter() {
        assert_eq!(store.read_bucket(BucketId(*b)).unwrap(), bucket.records);
    }
    drop(store);
    FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn concurrent_readers_pool_2() {
    hammer(2);
}

#[test]
fn concurrent_readers_pool_8() {
    hammer(8);
}

#[test]
fn concurrent_readers_pool_64() {
    hammer(64);
}
