//! In-memory bucket store — the paper's "Memory storage" (Table 2, YEAST and
//! HUMAN configurations).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{BucketId, BucketStore, IoStats, Record, StorageError};

/// Volatile bucket store; all data lives in a hash map of vectors.
///
/// Reads are `&self` and fully concurrent: the only mutation on the read
/// path is the `records_read` statistic, kept in an atomic so parallel
/// queries never contend on a lock.
#[derive(Debug, Default)]
pub struct MemoryStore {
    buckets: HashMap<BucketId, Vec<Record>>,
    records_appended: u64,
    records_read: AtomicU64,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn records(&self, bucket: BucketId) -> Result<&[Record], StorageError> {
        self.buckets
            .get(&bucket)
            .map(Vec::as_slice)
            .ok_or(StorageError::UnknownBucket(bucket))
    }

    /// Approximate resident bytes (payload only), for reporting.
    pub fn payload_bytes(&self) -> usize {
        self.buckets
            .values()
            .flat_map(|v| v.iter())
            .map(|r| r.payload.len())
            .sum()
    }
}

impl BucketStore for MemoryStore {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.records_appended += 1;
        self.buckets.entry(bucket).or_default().push(record);
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
        let recs = self.records(bucket)?;
        self.records_read
            .fetch_add(recs.len() as u64, Ordering::Relaxed);
        for r in recs {
            visit(r.id, &r.payload);
        }
        Ok(())
    }

    fn read_matching(
        &self,
        bucket: BucketId,
        wanted: &dyn Fn(u64) -> bool,
    ) -> Result<Vec<Record>, StorageError> {
        // Only the returned records count as read back: the id scan never
        // touches (or clones) the other payloads — that is the point.
        let out: Vec<Record> = self
            .records(bucket)?
            .iter()
            .filter(|r| wanted(r.id))
            .cloned()
            .collect();
        self.records_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn bucket_len(&self, bucket: BucketId) -> usize {
        self.buckets.get(&bucket).map_or(0, Vec::len)
    }

    fn delete_bucket(&mut self, bucket: BucketId) -> Result<(), StorageError> {
        self.buckets.remove(&bucket);
        Ok(())
    }

    fn bucket_ids(&self) -> Vec<BucketId> {
        self.buckets.keys().copied().collect()
    }

    fn total_records(&self) -> u64 {
        self.buckets.values().map(|v| v.len() as u64).sum()
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
