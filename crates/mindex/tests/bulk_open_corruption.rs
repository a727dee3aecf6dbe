//! The unfiltered open takes each cell as one bulk read
//! (`BucketStore::read_bucket_into`) and only then looks at the records, so
//! everything the per-record path checked while it was being lent records
//! must now be checked on the arena copy. A store whose bulk read appends a
//! truncated stream, reports a wrong record count, or holds a record whose
//! routing header does not parse makes `knn_cursor` return
//! `MIndexError::Corrupt` — never a panic — and on a bad record it names
//! the record the per-record path (the filtered range open) names.

use std::sync::Mutex;

use simcloud_mindex::{
    IndexEntry, MIndex, MIndexConfig, MIndexError, PromiseEvaluator, Routing, RoutingStrategy,
};
use simcloud_storage::{BucketId, BucketStore, IoStats, MemoryStore, Record, StorageError};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    None,
    /// The bulk read drops the stream's last byte.
    Truncated,
    /// The bulk read reports this many records more than it appended.
    Miscounted(isize),
    /// Both read paths hand out this record with its routing tag overwritten.
    BadRouting(u64),
}

/// A `MemoryStore` that lies on its read paths when told to.
struct Faulty {
    inner: MemoryStore,
    fault: Mutex<Fault>,
}

impl Faulty {
    fn fault(&self) -> Fault {
        *self.fault.lock().unwrap()
    }
}

impl BucketStore for Faulty {
    fn append(&mut self, bucket: BucketId, record: Record) -> Result<(), StorageError> {
        self.inner.append(bucket, record)
    }
    fn read_bucket(&self, bucket: BucketId) -> Result<Vec<Record>, StorageError> {
        self.inner.read_bucket(bucket)
    }
    fn scan_bucket(
        &self,
        bucket: BucketId,
        visit: &mut dyn FnMut(u64, &[u8]),
    ) -> Result<(), StorageError> {
        let fault = self.fault();
        self.inner.scan_bucket(bucket, &mut |id, body| {
            if fault == Fault::BadRouting(id) {
                let mut bad = body.to_vec();
                bad[0] = 9;
                visit(id, &bad);
            } else {
                visit(id, body);
            }
        })
    }
    fn read_bucket_into(&self, bucket: BucketId, out: &mut Vec<u8>) -> Result<usize, StorageError> {
        let start = out.len();
        let records = self.inner.read_bucket_into(bucket, out)?;
        match self.fault() {
            Fault::None => Ok(records),
            Fault::Truncated => {
                out.pop();
                Ok(records)
            }
            Fault::Miscounted(by) => Ok(records.saturating_add_signed(by)),
            Fault::BadRouting(victim) => {
                let mut off = start;
                while let Some((id, body_off, used)) = Record::peek(&out[off..]) {
                    if id == victim {
                        out[off + body_off] = 9;
                    }
                    off += used;
                }
                Ok(records)
            }
        }
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
        "faulty memory"
    }
}

const QUERY: [f64; 2] = [4.0, 6.0];

/// 11 entries on a line between two pivots, split over several cells.
fn index() -> MIndex<Faulty> {
    let store = Faulty {
        inner: MemoryStore::new(),
        fault: Mutex::new(Fault::None),
    };
    let cfg = MIndexConfig {
        num_pivots: 2,
        max_level: 2,
        bucket_capacity: 4,
        strategy: RoutingStrategy::Distances,
    };
    let mut idx = MIndex::new(cfg, store).unwrap();
    for x in 0..=10u64 {
        let routing = Routing::from_distances(&[x as f64, 10.0 - x as f64]);
        idx.insert(IndexEntry::new(x, routing, vec![x as u8; x as usize]))
            .unwrap();
    }
    idx
}

fn knn_ids(idx: &MIndex<Faulty>) -> Result<Vec<u64>, MIndexError> {
    let cursor = idx.knn_cursor(&PromiseEvaluator::from_distances(QUERY.to_vec()), 11)?;
    Ok(cursor.views().map(|v| v.id).collect())
}

#[test]
fn an_honest_bulk_read_opens_the_whole_collection() {
    let idx = index();
    assert!(idx.shape().leaves > 1, "the open must cross cells");
    let mut ids = knn_ids(&idx).unwrap();
    assert_eq!(ids[0], 4, "the query point itself ranks first");
    ids.sort_unstable();
    assert_eq!(ids, (0..=10).collect::<Vec<u64>>());
}

#[test]
fn a_truncated_or_miscounted_stream_is_corrupt_not_a_panic() {
    let idx = index();
    for fault in [
        Fault::Truncated,
        Fault::Miscounted(1),
        Fault::Miscounted(-1),
    ] {
        *idx.store().fault.lock().unwrap() = fault;
        assert!(
            matches!(knn_ids(&idx), Err(MIndexError::Corrupt(_))),
            "{fault:?}"
        );
    }
    *idx.store().fault.lock().unwrap() = Fault::None;
    assert_eq!(knn_ids(&idx).unwrap().len(), 11, "the index itself is fine");
}

#[test]
fn a_bad_routing_header_is_rejected_on_the_record_the_per_record_path_rejects() {
    let idx = index();
    for victim in [0u64, 4, 10] {
        *idx.store().fault.lock().unwrap() = Fault::BadRouting(victim);
        let bulk = knn_ids(&idx).unwrap_err();
        let per_record = idx.range_cursor(&QUERY, 100.0).unwrap_err();
        assert!(matches!(bulk, MIndexError::Corrupt(_)), "{bulk}");
        assert_eq!(bulk.to_string(), per_record.to_string());
        assert!(bulk.to_string().contains(&format!("record {victim} ")));
    }
}
