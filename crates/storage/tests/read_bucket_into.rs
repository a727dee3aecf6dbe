//! `BucketStore::read_bucket_into` — the bulk read an unfiltered search
//! takes a whole cell with — appends exactly the record stream of what
//! `read_bucket` returns (each record as `Record::encode` writes it, in
//! order), behind whatever the buffer already holds, with the same
//! `records_read` accounting and the same errors: for the in-memory store
//! (whose buckets *are* that stream), for the disk store under pools of 2,
//! 8 and 64 frames over flushed and dirty pages, and for an outside store
//! that implements only the required methods and so inherits the provided
//! body. A model test then drives `MemoryStore`'s runs through random
//! appends (both entry points), deletes and re-appends, with empty
//! payloads, chunk-filling records and records larger than a chunk.

use std::collections::HashMap;

use proptest::prelude::*;
use simcloud_storage::{
    BucketId, BucketStore, DiskStore, DiskStoreOptions, FileEnv, IoStats, MemoryStore, Record,
    StorageError,
};

/// A store written against the trait as it was before the borrowed and
/// bulk reads existed: required methods only.
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

fn rec(id: u64, len: usize) -> Record {
    Record::new(id, (0..len).map(|i| (id as usize + i) as u8).collect())
}

fn stream_of(records: &[Record]) -> Vec<u8> {
    let mut stream = Vec::new();
    for r in records {
        r.encode(&mut stream);
    }
    stream
}

fn into_equals_read(mut store: impl BucketStore) {
    for id in 0..23 {
        // Sizes from empty to multi-page.
        let len = [0, 1, 37, 900, 5000][id as usize % 5];
        store.append(BucketId(id % 3), rec(id, len)).unwrap();
    }
    store.flush().unwrap();
    store.append(BucketId(1), rec(99, 700)).unwrap(); // unflushed tail
    let name = store.backend_name();
    for b in 0..3 {
        let before = store.stats().records_read;
        let owned = store.read_bucket(BucketId(b)).unwrap();
        let read = store.stats().records_read - before;
        assert_eq!(read, owned.len() as u64);

        let mut out = b"already here".to_vec();
        let records = store.read_bucket_into(BucketId(b), &mut out).unwrap();
        assert_eq!(records, owned.len(), "bucket {b} on {name}");
        let (kept, appended) = out.split_at(12);
        assert_eq!(kept, b"already here", "the stream goes behind the content");
        assert_eq!(appended, stream_of(&owned), "bucket {b} on {name}");
        assert_eq!(
            store.stats().records_read - before,
            2 * read,
            "a bulk read counts the whole bucket, as read_bucket does"
        );
    }
    let mut out = b"untouched".to_vec();
    assert!(matches!(
        store.read_bucket_into(BucketId(77), &mut out),
        Err(StorageError::UnknownBucket(BucketId(77)))
    ));
    assert_eq!(out, b"untouched");
}

#[test]
fn memory_store_bulk_read_equals_read() {
    into_equals_read(MemoryStore::new());
}

#[test]
fn provided_bulk_read_equals_read_for_a_read_bucket_only_store() {
    into_equals_read(OwnedOnly(MemoryStore::new()));
}

#[test]
fn disk_store_bulk_read_equals_read_under_small_and_roomy_pools() {
    for pool in [2, 8, 64] {
        let path = std::env::temp_dir().join(format!(
            "simcloud-bulk-read-{pool}-{}.db",
            std::process::id()
        ));
        into_equals_read(
            DiskStore::create_opts(&path, DiskStoreOptions { pool_pages: pool }).unwrap(),
        );
        FileEnv::remove_sidecars(&path);
        let _ = std::fs::remove_file(&path);
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Through `append` or, with `written`, through `append_with`.
    Append {
        bucket: u8,
        len: usize,
        written: bool,
    },
    Delete {
        bucket: u8,
    },
    ReadMatching {
        bucket: u8,
        modulus: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Chunks are 64 KiB: three of the 20–30 KB records fill one, the
    // 70 KB record is larger than any.
    let len = prop_oneof![
        1 => Just(0usize),
        6 => 0usize..3000,
        3 => 20_000usize..30_000,
        1 => Just(70_000usize),
    ];
    prop_oneof![
        8 => (any::<u8>(), len, any::<bool>()).prop_map(|(bucket, len, written)| Op::Append {
            bucket: bucket % 4,
            len,
            written,
        }),
        1 => any::<u8>().prop_map(|bucket| Op::Delete { bucket: bucket % 4 }),
        2 => (any::<u8>(), 1u64..4).prop_map(|(bucket, modulus)| Op::ReadMatching {
            bucket: bucket % 4,
            modulus,
        }),
    ]
}

/// Every way of reading `store` agrees with the model.
fn check_against_model(
    store: &MemoryStore,
    model: &HashMap<BucketId, Vec<Record>>,
) -> Result<(), TestCaseError> {
    let mut ids = store.bucket_ids();
    ids.sort();
    let mut want_ids: Vec<BucketId> = model.keys().copied().collect();
    want_ids.sort();
    prop_assert_eq!(ids, want_ids);
    let all = model.values().flatten();
    prop_assert_eq!(store.total_records(), all.clone().count() as u64);
    prop_assert_eq!(
        store.payload_bytes(),
        all.map(|r| r.payload.len()).sum::<usize>()
    );
    for (&b, records) in model {
        prop_assert_eq!(store.bucket_len(b), records.len());
        prop_assert_eq!(&store.read_bucket(b).unwrap(), records);
        let mut lent = Vec::new();
        store
            .scan_bucket(b, &mut |id, payload| {
                lent.push(Record::new(id, payload.to_vec()));
            })
            .unwrap();
        prop_assert_eq!(&lent, records);
        let mut stream = Vec::new();
        prop_assert_eq!(
            store.read_bucket_into(b, &mut stream).unwrap(),
            records.len()
        );
        prop_assert_eq!(stream, stream_of(records));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memory_store_runs_match_a_vec_model(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut store = MemoryStore::new();
        let mut model: HashMap<BucketId, Vec<Record>> = HashMap::new();
        let mut next_id = 0u64;
        for op in &ops {
            match *op {
                Op::Append { bucket, len, written } => {
                    let b = BucketId(u64::from(bucket));
                    let r = rec(next_id, len);
                    next_id += 1;
                    if written {
                        store
                            .append_with(b, r.id, len, &mut |out| out.extend_from_slice(&r.payload))
                            .unwrap();
                    } else {
                        store.append(b, r.clone()).unwrap();
                    }
                    model.entry(b).or_default().push(r);
                }
                Op::Delete { bucket } => {
                    let b = BucketId(u64::from(bucket));
                    store.delete_bucket(b).unwrap();
                    model.remove(&b);
                }
                Op::ReadMatching { bucket, modulus } => {
                    let b = BucketId(u64::from(bucket));
                    let got = store.read_matching(b, &|id| id % modulus == 0);
                    match model.get(&b) {
                        Some(records) => {
                            let want: Vec<&Record> =
                                records.iter().filter(|r| r.id % modulus == 0).collect();
                            prop_assert!(got.unwrap().iter().eq(want));
                        }
                        None => prop_assert!(matches!(got, Err(StorageError::UnknownBucket(_)))),
                    }
                }
            }
        }
        check_against_model(&store, &model)?;
        prop_assert_eq!(store.stats().records_appended, next_id);
    }
}

/// A writer that does not deliver the payload it announced is refused and
/// leaves the bucket's stream as it was; so is a payload no record stream
/// can frame.
#[test]
fn memory_store_refuses_a_miswritten_or_unframeable_record() {
    let mut store = MemoryStore::new();
    store.append(BucketId(1), rec(1, 10)).unwrap();
    for wrote in [3usize, 8] {
        let short_or_long = store.append_with(BucketId(1), 2, 5, &mut |out| {
            out.extend_from_slice(&vec![0xEE; wrote]);
        });
        assert!(matches!(short_or_long, Err(StorageError::Corrupt(_))));
    }
    assert!(matches!(
        store.append_with(BucketId(1), 3, usize::MAX, &mut |_| ()),
        Err(StorageError::RecordTooLarge(_))
    ));
    assert_eq!(store.read_bucket(BucketId(1)).unwrap(), vec![rec(1, 10)]);
    assert_eq!(store.stats().records_appended, 1);
}
