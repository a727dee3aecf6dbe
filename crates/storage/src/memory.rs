//! In-memory bucket store — the paper's "Memory storage" (Table 2, YEAST and
//! HUMAN configurations).
//!
//! A bucket is one **run**: its records back to back in the record-stream
//! encoding `id ‖ u32 len ‖ payload` ([`Record::encode`]) — the stream a
//! [`DiskStore`](crate::DiskStore) chain holds — so a search that takes a
//! whole cell reads sequential memory and copies it out in a handful of
//! `memcpy`s ([`BucketStore::read_bucket_into`]), and an insert costs no
//! allocation of its own ([`BucketStore::append_with`] writes the record
//! where it will stay). The run is kept in a few chunks of at most 64 KiB
//! that no record straddles; a chunk is allocated once at its final size
//! and never moved, so growing a bucket copies nothing and a deleted
//! bucket hands back ordinary-sized blocks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::record::MAX_PAYLOAD;
use crate::{BucketId, BucketStore, IoStats, Record, StorageError};

/// Largest chunk of a run. A record longer than this gets a chunk of its
/// own.
const CHUNK: usize = 64 * 1024;

/// One bucket's records as a record stream, in insertion order.
#[derive(Debug, Default)]
struct Run {
    /// The full chunks.
    sealed: Vec<Vec<u8>>,
    /// The chunk appends go to.
    tail: Vec<u8>,
    records: usize,
    /// Σ chunk lengths.
    stream_bytes: usize,
}

impl Run {
    fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        self.sealed
            .iter()
            .chain(std::iter::once(&self.tail))
            .map(Vec::as_slice)
    }

    /// The chunk the next record of `need` encoded bytes goes to: the
    /// tail while the record fits what the tail was allocated with, a new
    /// chunk otherwise. A chunk is allocated once, at its final size, and
    /// never moved: as large as the run before it (so a small bucket is
    /// not charged a whole [`CHUNK`], and the sealed objects of one
    /// collection, all one size, fill every chunk to the byte), at most
    /// `CHUNK`, at least the record.
    fn tail_for(&mut self, need: usize) -> &mut Vec<u8> {
        if self.tail.capacity() - self.tail.len() < need {
            let size = self.stream_bytes.clamp(need, CHUNK.max(need));
            let mut full = std::mem::replace(&mut self.tail, Vec::with_capacity(size));
            if !full.is_empty() {
                full.shrink_to_fit();
                self.sealed.push(full);
            }
        }
        &mut self.tail
    }

    /// Lends every record's `(id, payload)` to `visit`, in insertion order.
    fn walk<'a>(
        &'a self,
        bucket: BucketId,
        mut visit: impl FnMut(u64, &'a [u8]),
    ) -> Result<(), StorageError> {
        for chunk in self.chunks() {
            for record in Record::stream(chunk) {
                let record = record.map_err(|_| {
                    StorageError::Corrupt(format!("bucket {bucket} run does not end on a record"))
                })?;
                visit(record.id, record.payload);
            }
        }
        Ok(())
    }
}

/// Volatile bucket store; every bucket is a contiguous run of record bytes
/// (see the module docs).
///
/// Reads are `&self` and fully concurrent: the only mutation on the read
/// path is the `records_read` statistic, kept in an atomic so parallel
/// queries never contend on a lock.
#[derive(Debug, Default)]
pub struct MemoryStore {
    buckets: HashMap<BucketId, Run>,
    records_appended: u64,
    records_read: AtomicU64,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn run(&self, bucket: BucketId) -> Result<&Run, StorageError> {
        self.buckets
            .get(&bucket)
            .ok_or(StorageError::UnknownBucket(bucket))
    }

    fn count_read(&self, records: usize) {
        self.records_read
            .fetch_add(records as u64, Ordering::Relaxed);
    }

    /// Approximate resident bytes (payload only), for reporting.
    pub fn payload_bytes(&self) -> usize {
        // A record's stream bytes are its header and its payload.
        self.buckets
            .values()
            .map(|run| run.stream_bytes - Record::HEADER_LEN * run.records)
            .sum()
    }
}

impl BucketStore for MemoryStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.append_with(bucket, record.id, record.payload.len(), &mut |out| {
            out.extend_from_slice(&record.payload);
        })
    }

    fn append_with(
        &mut self,
        bucket: BucketId,
        id: u64,
        len: usize,
        write: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), StorageError> {
        // A longer payload would frame a stream `Record::peek` refuses.
        let len_field = u32::try_from(len)
            .ok()
            .filter(|_| len <= MAX_PAYLOAD)
            .ok_or(StorageError::RecordTooLarge(len))?;
        let run = self.buckets.entry(bucket).or_default();
        let tail = run.tail_for(Record::HEADER_LEN + len);
        let start = tail.len();
        tail.extend_from_slice(&id.to_le_bytes());
        tail.extend_from_slice(&len_field.to_le_bytes());
        write(tail);
        if tail.len() != start + Record::HEADER_LEN + len {
            let wrote = tail.len().saturating_sub(start + Record::HEADER_LEN);
            tail.truncate(start);
            return Err(StorageError::Corrupt(format!(
                "record {id}: {wrote} bytes written for a {len}-byte payload"
            )));
        }
        run.records += 1;
        run.stream_bytes += Record::HEADER_LEN + len;
        self.records_appended += 1;
        Ok(())
    }

    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        let mut out = Vec::with_capacity(self.bucket_len(bucket));
        self.scan_bucket(bucket, &mut |id, payload| {
            out.push(Record::new(id, payload.to_vec()));
        })?;
        Ok(out)
    }

    fn scan_bucket(
        &self,
        bucket: BucketId,
        visit: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StorageError> {
        let run = self.run(bucket)?;
        self.count_read(run.records);
        run.walk(bucket, visit)
    }

    fn read_bucket_into(&self, bucket: BucketId, out: &mut Vec<u8>) -> Result<usize, StorageError> {
        let run = self.run(bucket)?;
        self.count_read(run.records);
        out.reserve(run.stream_bytes);
        for chunk in run.chunks() {
            out.extend_from_slice(chunk);
        }
        Ok(run.records)
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        // Only the returned records count as read back: the id scan never
        // touches (or clones) the other payloads — that is the point.
        let mut out = Vec::new();
        self.run(bucket)?.walk(bucket, |id, payload| {
            if wanted(id) {
                out.push(Record::new(id, payload.to_vec()));
            }
        })?;
        self.count_read(out.len());
        Ok(out)
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.buckets.get(&bucket).map_or(0, |run| run.records)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.buckets.remove(&bucket);
        Ok(())
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.buckets.keys().copied().collect()
    }

    fn total_records(&self) -> u64 {
        self.buckets.values().map(|run| run.records as u64).sum()
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn stats(&self) -> IoStats {
        IoStats {
            records_appended: self.records_appended,
            records_read: self.records_read.load(Ordering::Relaxed),
            ..IoStats::default()
        }
    }

    fn backend_name(&self) -> &'static str {
        "Memory storage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, len: usize) -> Record {
        Record::new(id, vec![id as u8; len])
    }

    #[test]
    fn append_and_read_back_in_order() {
        let mut s = MemoryStore::new();
        s.append(BucketId(1), rec(10, 4)).unwrap();
        s.append(BucketId(1), rec(11, 2)).unwrap();
        s.append(BucketId(2), rec(20, 1)).unwrap();
        let b1 = s.read_bucket(BucketId(1)).unwrap();
        assert_eq!(b1.iter().map(|r| r.id).collect::<Vec<_>>(), vec![10, 11]);
        assert_eq!(s.bucket_len(BucketId(1)), 2);
        assert_eq!(s.bucket_len(BucketId(2)), 1);
        assert_eq!(s.total_records(), 3);
    }

    /// The targeted read returns only matching records (insertion order)
    /// and counts only those as read back.
    #[test]
    fn read_matching_materializes_only_wanted_records() {
        let mut s = MemoryStore::new();
        for id in [10u64, 11, 12, 13] {
            s.append(BucketId(1), rec(id, 64)).unwrap();
        }
        let got = s
            .read_matching(BucketId(1), &|id| id == 11 || id == 13)
            .unwrap();
        assert_eq!(got.iter().map(|r| r.id).collect::<Vec<_>>(), vec![11, 13]);
        assert_eq!(got[0].payload, vec![11u8; 64]);
        assert_eq!(s.stats().records_read, 2, "untouched payloads not counted");
        assert!(s.read_matching(BucketId(1), &|_| false).unwrap().is_empty());
        assert!(matches!(
            s.read_matching(BucketId(7), &|_| true),
            Err(StorageError::UnknownBucket(_))
        ));
    }

    #[test]
    fn unknown_bucket_is_error() {
        let s = MemoryStore::new();
        assert!(matches!(
            s.read_bucket(BucketId(9)),
            Err(StorageError::UnknownBucket(BucketId(9)))
        ));
        assert_eq!(s.bucket_len(BucketId(9)), 0);
    }

    #[test]
    fn delete_bucket_frees_records() {
        let mut s = MemoryStore::new();
        s.append(BucketId(1), rec(1, 8)).unwrap();
        s.delete_bucket(BucketId(1)).unwrap();
        assert_eq!(s.total_records(), 0);
        assert!(s.read_bucket(BucketId(1)).is_err());
        // deleting again is a no-op
        s.delete_bucket(BucketId(1)).unwrap();
    }

    #[test]
    fn stats_track_reads_and_appends() {
        let mut s = MemoryStore::new();
        s.append(BucketId(1), rec(1, 1)).unwrap();
        s.append(BucketId(1), rec(2, 1)).unwrap();
        let _ = s.read_bucket(BucketId(1)).unwrap();
        let st = s.stats();
        assert_eq!(st.records_appended, 2);
        assert_eq!(st.records_read, 2);
        assert_eq!(st.page_reads, 0);
    }

    #[test]
    fn payload_bytes_accounting() {
        let mut s = MemoryStore::new();
        s.append(BucketId(1), rec(1, 10)).unwrap();
        s.append(BucketId(2), rec(2, 5)).unwrap();
        assert_eq!(s.payload_bytes(), 15);
        assert_eq!(s.backend_name(), "Memory storage");
    }

    #[test]
    fn concurrent_reads_count_all_records() {
        let mut s = MemoryStore::new();
        for i in 0..10 {
            s.append(BucketId(1), rec(i, 1)).unwrap();
        }
        let s = std::sync::Arc::new(s);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = std::sync::Arc::clone(&s);
                scope.spawn(move || {
                    for _ in 0..5 {
                        assert_eq!(s.read_bucket(BucketId(1)).unwrap().len(), 10);
                    }
                });
            }
        });
        assert_eq!(s.stats().records_read, 4 * 5 * 10);
    }
}
