//! `BucketStore::scan_bucket` — the borrowed scan a search reads cells
//! through — hands out exactly what `read_bucket` returns, in the same
//! order, with the same `records_read` accounting and the same errors:
//! for the in-memory store (which visits its records in place), for the
//! disk store (which visits them in the chain bytes; the buffer-pool cases
//! live in `concurrent_reads.rs`), and for an outside store that
//! implements only the required methods and so inherits the provided body.

use simcloud_storage::{
    BucketId, BucketStore, DiskStore, DiskStoreOptions, FileEnv, IoStats, MemoryStore, Record,
    StorageError,
};

/// A store written against the trait as it was before `scan_bucket`
/// existed: required methods only.
struct OwnedOnly(MemoryStore);

impl BucketStore for OwnedOnly {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.0.append(bucket, record)
    }
    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.0.read_bucket(bucket)
    }
    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.0.bucket_len(bucket)
    }
    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.0.delete_bucket(bucket)
    }
    fn bucket_ids(&self) -> Vec<BucketId> {
        self.0.bucket_ids()
    }
    fn total_records(&self) -> u64 {
        self.0.total_records()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.flush()
    }
    fn stats(&self) -> IoStats {
        self.0.stats()
    }
    fn backend_name(&self) -> &'static str {
        "owned only"
    }
}

fn rec(id: u64) -> Record {
    // Sizes from empty to multi-page.
    let len = [0, 1, 37, 900, 5000][id as usize % 5];
    Record::new(id, (0..len).map(|i| (id as usize + i) as u8).collect())
}

fn scan_equals_read(mut store: impl BucketStore) {
    for id in 0..23 {
        store.append(BucketId(id % 3), rec(id)).unwrap();
    }
    store.flush().unwrap();
    store.append(BucketId(1), rec(99)).unwrap(); // unflushed tail
    for b in 0..3 {
        let before = store.stats().records_read;
        let owned = store.read_bucket(BucketId(b)).unwrap();
        let read = store.stats().records_read - before;
        assert_eq!(read, owned.len() as u64);

        let mut lent = Vec::new();
        store
            .scan_bucket(BucketId(b), &mut |id, payload| {
                lent.push(Record::new(id, payload.to_vec()));
            })
            .unwrap();
        assert_eq!(lent, owned, "bucket {b} on {}", store.backend_name());
        assert_eq!(
            store.stats().records_read - before,
            2 * read,
            "a scan counts every record it hands out"
        );
    }
    let mut visited = 0;
    assert!(matches!(
        store.scan_bucket(BucketId(77), &mut |_, _| visited += 1),
        Err(StorageError::UnknownBucket(BucketId(77)))
    ));
    assert_eq!(visited, 0);
}

#[test]
fn memory_store_scan_equals_read() {
    scan_equals_read(MemoryStore::new());
}

#[test]
fn provided_scan_equals_read_for_a_read_bucket_only_store() {
    scan_equals_read(OwnedOnly(MemoryStore::new()));
}

#[test]
fn disk_store_scan_equals_read() {
    let path = std::env::temp_dir().join(format!("simcloud-scan-{}.db", std::process::id()));
    scan_equals_read(DiskStore::create_opts(&path, DiskStoreOptions { pool_pages: 4 }).unwrap());
    FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(&path);
}
