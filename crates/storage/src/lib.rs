//! # simcloud-storage — bucket storage backing the M-Index
//!
//! The M-Index stores data objects in *buckets* attached to the leaves of
//! its Voronoi cell tree. The paper's evaluation runs YEAST/HUMAN on
//! "Memory storage" and CoPhIR on "Disk storage" (Table 2); this crate
//! provides both behind one trait:
//!
//! * [`MemoryStore`] — each bucket one contiguous in-memory run of bytes
//!   (fast, volatile);
//! * [`DiskStore`] — a single-file paged store (4 KiB pages, per-bucket page
//!   chains, free-list reuse, LRU buffer pool) with I/O statistics.
//!
//! Both keep a bucket as the same thing — its records back to back in the
//! **record stream** encoding `id ‖ u32 len ‖ payload` ([`Record::encode`])
//! — so a whole cell leaves either store as one run of bytes
//! ([`BucketStore::read_bucket_into`]).
//!
//! Records are opaque `(u64 id, bytes)` pairs: the index layer stores its
//! routing information (pivot permutation or distances) and the sealed
//! object payload inside the byte blob, so the storage layer never sees
//! plaintext structure — consistent with the paper's layering where storage
//! is the least trusted component.

#![warn(missing_docs)]

pub mod backend;
pub mod disk;
pub mod memory;
pub mod meta;
pub mod pagefmt;
mod pool;
pub mod record;
pub mod telemetry;
pub mod wal;

pub use backend::{
    Backend, BitFlip, CrashMode, FaultEnv, FaultHandle, FaultPlan, FileEnv, StorageEnv,
    SurvivingImage,
};
pub use disk::{DiskStore, DiskStoreOptions};
pub use memory::MemoryStore;
pub use record::{Record, RecordStream, StreamRecord, StreamTruncated};
pub use telemetry::StorageTiming;

/// Identifier of a bucket (an M-Index leaf owns exactly one bucket).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct BucketId(pub u64);

impl std::fmt::Display for BucketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Storage-level errors.
#[derive(Debug)]
pub enum StorageError {
    /// Bucket does not exist.
    UnknownBucket(BucketId),
    /// Underlying I/O failure (disk store only).
    Io(std::io::Error),
    /// File content is not a valid store (bad magic/version) or is corrupt.
    Corrupt(String),
    /// A record exceeds the maximum encodable size.
    RecordTooLarge(usize),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownBucket(b) => write!(f, "unknown bucket {b}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(s) => write!(f, "corrupt store: {s}"),
            StorageError::RecordTooLarge(n) => write!(f, "record of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Cumulative I/O statistics of a store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read from the backing file (buffer-pool misses).
    pub page_reads: u64,
    /// Pages written to the backing file.
    pub page_writes: u64,
    /// Buffer-pool hits (page served from memory).
    pub pool_hits: u64,
    /// Records appended.
    pub records_appended: u64,
    /// Records read back.
    pub records_read: u64,
    /// Write-ahead-log frames appended (disk store with WAL enabled).
    pub wal_appends: u64,
    /// Page images replayed from the WAL during `open()` recovery.
    pub pages_recovered: u64,
    /// Checksum verification failures observed (each surfaced as a typed
    /// [`StorageError::Corrupt`], never silent).
    pub crc_failures: u64,
}

impl IoStats {
    /// Folds another store's counters in — the aggregation a sharded
    /// deployment needs, where each shard owns an independent store and
    /// the reported I/O cost must be the **sum** of per-shard page reads
    /// and record reads, not the last shard's numbers.
    pub fn merge_from(&mut self, shard: &IoStats) {
        self.page_reads += shard.page_reads;
        self.page_writes += shard.page_writes;
        self.pool_hits += shard.pool_hits;
        self.records_appended += shard.records_appended;
        self.records_read += shard.records_read;
        self.wal_appends += shard.wal_appends;
        self.pages_recovered += shard.pages_recovered;
        self.crc_failures += shard.crc_failures;
    }
}

/// Abstract bucket storage; the M-Index is generic over this.
///
/// The access pattern the index needs is deliberately narrow: append a
/// record, stream a whole bucket (search reads entire candidate cells),
/// and drop a bucket (splits re-distribute its records).
///
/// Reads take `&self` so many queries can stream buckets concurrently
/// while writes keep exclusive access; implementations use interior
/// mutability where the backing medium needs it (read statistics, the
/// disk store's buffer pool).
pub trait BucketStore: Send + Sync {
    /// Appends a record to `bucket`, creating the bucket if new.
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError>;

    /// Appends a record whose payload is the `len` bytes `write` appends
    /// to the buffer it is handed (it must only append, and exactly `len`
    /// bytes) — for a caller that would otherwise build the payload just
    /// to hand it over. The default does build it, into an exactly-sized
    /// `Vec`, for [`BucketStore::append`]; [`MemoryStore`] has the payload
    /// written straight into the bucket's run.
    fn append_with(
        &mut self,
        bucket: BucketId,
        id: u64,
        len: usize,
        write: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), StorageError> {
        let mut payload = Vec::with_capacity(len);
        write(&mut payload);
        self.append(bucket, Record::new(id, payload))
    }

    /// Reads every record in `bucket` (order = insertion order).
    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError>;

    /// Visits every record of `bucket` in insertion order, lending each
    /// one's `(id, payload)` to `visit` for the duration of the call — the
    /// scan a search uses, which copies out of the store only the bytes it
    /// keeps. Counts as reading the whole bucket, exactly like
    /// [`BucketStore::read_bucket`]. The default walks an owned
    /// `read_bucket`; the in-tree stores visit their records in place.
    /// On an error some records may already have been visited.
    fn scan_bucket(
        &self,
        bucket: BucketId,
        visit: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StorageError> {
        for record in self.read_bucket(bucket)? {
            visit(record.id, &record.payload);
        }
        Ok(())
    }

    /// Appends the record stream of `bucket` — every record in insertion
    /// order, each as [`Record::encode`] writes it — to `out` and returns
    /// the number of records appended: the bulk read an unfiltered search
    /// takes a whole cell with. Counts as reading the whole bucket,
    /// exactly like [`BucketStore::read_bucket`]. The default encodes an
    /// owned `read_bucket`; the in-tree stores copy the bytes they already
    /// hold in this form. On an error `out` is left as it was.
    fn read_bucket_into(&self, bucket: BucketId, out: &mut Vec<u8>) -> Result<usize, StorageError> {
        let records = self.read_bucket(bucket)?;
        for record in &records {
            record.encode(out);
        }
        Ok(records.len())
    }

    /// Reads only the records of `bucket` whose id satisfies `wanted`
    /// (order = insertion order) — the point-lookup path of the two-phase
    /// candidate fetch, which pulls a few records out of large buckets.
    /// The default filters a full [`BucketStore::read_bucket`];
    /// memory-backed implementations override it to avoid materializing
    /// the records the caller discards.
    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        Ok(self
            .read_bucket(bucket)?
            .into_iter()
            .filter(|r| wanted(r.id))
            .collect())
    }

    /// Number of records in `bucket` (0 if absent).
    fn bucket_len(&self, bucket: BucketId) -> usize;

    /// Deletes `bucket`, releasing its space. Deleting a non-existent bucket
    /// is a no-op.
    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError>;

    /// All existing bucket ids (unspecified order).
    fn bucket_ids(&self) -> Vec<BucketId>;

    /// Total records across buckets.
    fn total_records(&self) -> u64;

    /// Flushes to durable media where applicable.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Point-in-time I/O statistics.
    fn stats(&self) -> IoStats;

    /// Human-readable backend name (appears in experiment reports, cf.
    /// "Storage type" column of the paper's Table 2).
    fn backend_name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_id_display() {
        assert_eq!(BucketId(17).to_string(), "b17");
    }

    #[test]
    fn io_stats_merge_from_sums_all_counters() {
        let mut total = IoStats {
            page_reads: 1,
            page_writes: 2,
            pool_hits: 3,
            records_appended: 4,
            records_read: 5,
            wal_appends: 6,
            pages_recovered: 7,
            crc_failures: 8,
        };
        total.merge_from(&IoStats {
            page_reads: 10,
            page_writes: 20,
            pool_hits: 30,
            records_appended: 40,
            records_read: 50,
            wal_appends: 60,
            pages_recovered: 70,
            crc_failures: 80,
        });
        assert_eq!(
            total,
            IoStats {
                page_reads: 11,
                page_writes: 22,
                pool_hits: 33,
                records_appended: 44,
                records_read: 55,
                wal_appends: 66,
                pages_recovered: 77,
                crc_failures: 88,
            }
        );
    }

    #[test]
    fn errors_display() {
        assert!(StorageError::UnknownBucket(BucketId(1))
            .to_string()
            .contains("unknown bucket"));
        assert!(StorageError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        assert!(StorageError::RecordTooLarge(9).to_string().contains("9"));
        let io: StorageError = std::io::Error::other("x").into();
        assert!(io.to_string().contains("I/O"));
    }
}
