//! Model-based property test of the paged disk store: an arbitrary
//! sequence of appends/reads/deletes/flush/reopen must behave exactly like
//! a hash-map model, under an adversarially small buffer pool (2–7 frames:
//! every read evicts) and under a roomy one (64: the slab still has free
//! frames, nothing is ever evicted).

use std::collections::HashMap;

use proptest::prelude::*;
use simcloud_storage::{BucketId, BucketStore, DiskStore, DiskStoreOptions, Record};

#[derive(Debug, Clone)]
enum Op {
    Append { bucket: u8, len: u16 },
    Read { bucket: u8 },
    Delete { bucket: u8 },
    Flush,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), 0u16..2200).prop_map(|(bucket, len)| Op::Append { bucket: bucket % 6, len }),
        3 => any::<u8>().prop_map(|bucket| Op::Read { bucket: bucket % 6 }),
        1 => any::<u8>().prop_map(|bucket| Op::Delete { bucket: bucket % 6 }),
        1 => Just(Op::Flush),
        1 => Just(Op::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn disk_store_matches_model(
        ops in proptest::collection::vec(arb_op(), 1..60),
        pool in prop_oneof![2usize..8, Just(64usize)],
    ) {
        let path = std::env::temp_dir().join(format!(
            "simcloud-model-{}-{}.db",
            std::process::id(),
            rand_suffix(&ops)
        ));
        let opts = DiskStoreOptions { pool_pages: pool };
        let mut store = DiskStore::create_opts(&path, opts).unwrap();
        let mut model: HashMap<BucketId, Vec<Record>> = HashMap::new();
        let mut next_id = 0u64;

        for op in &ops {
            match op {
                Op::Append { bucket, len } => {
                    let b = BucketId(*bucket as u64);
                    let rec = Record::new(
                        next_id,
                        (0..*len).map(|i| ((next_id as usize + i as usize) % 256) as u8).collect(),
                    );
                    next_id += 1;
                    store.append(b, rec.clone()).unwrap();
                    model.entry(b).or_default().push(rec);
                }
                Op::Read { bucket } => {
                    let b = BucketId(*bucket as u64);
                    match model.get(&b) {
                        Some(expected) => {
                            let got = store.read_bucket(b).unwrap();
                            prop_assert_eq!(&got, expected);
                        }
                        None => prop_assert!(store.read_bucket(b).is_err()),
                    }
                }
                Op::Delete { bucket } => {
                    let b = BucketId(*bucket as u64);
                    store.delete_bucket(b).unwrap();
                    model.remove(&b);
                }
                Op::Flush => {
                    store.flush().unwrap();
                    prop_assert!(store.resident_pages() <= pool, "flush trims the pool");
                }
                Op::Reopen => {
                    store.flush().unwrap();
                    drop(store);
                    store = DiskStore::open_opts(&path, opts).unwrap();
                }
            }
            prop_assert_eq!(
                store.total_records(),
                model.values().map(|v| v.len() as u64).sum::<u64>()
            );
        }
        // Final full check.
        for (b, expected) in &model {
            let got = store.read_bucket(*b).unwrap();
            prop_assert_eq!(&got, expected);
        }
        drop(store);
        simcloud_storage::FileEnv::remove_sidecars(&path);
        let _ = std::fs::remove_file(path);
    }
}

/// Injected corruption: a store file truncated or bit-flipped on disk must
/// surface as `Err(StorageError)` on reopen or read — never a panic. This
/// pins the policy behind the `read_*_at` helpers in `disk.rs`.
#[test]
fn corrupted_file_errors_instead_of_panicking() {
    let path = std::env::temp_dir().join(format!("simcloud-corrupt-{}.db", std::process::id(),));
    let opts = DiskStoreOptions { pool_pages: 4 };
    // Build a store with a few pages of real data, flushed to disk.
    {
        let mut store = DiskStore::create_opts(&path, opts).unwrap();
        for i in 0..40u64 {
            let body: Vec<u8> = (0..200u16)
                .map(|j| ((i + u64::from(j)) % 256) as u8)
                .collect();
            store.append(BucketId(i % 3), Record::new(i, body)).unwrap();
        }
        store.flush().unwrap();
    }
    let full = std::fs::read(&path).unwrap();
    assert!(full.len() > 4096, "expect multiple pages on disk");

    // Truncation at every page-ish boundary plus a few odd offsets: the
    // header parse or directory/chain walk must return an error.
    for keep in [0usize, 7, 24, 4095, 4096, 4097, full.len() / 2] {
        std::fs::write(&path, &full[..keep.min(full.len())]).unwrap();
        match DiskStore::open_opts(&path, opts) {
            Err(_) => {}
            Ok(reopened) => {
                // A truncated tail can leave the header intact; the damage
                // must then surface as Err on bucket reads, not a panic.
                for b in 0..3u64 {
                    let _ = reopened.read_bucket(BucketId(b));
                }
            }
        }
    }

    // Bit-flip the page-count / directory-head header fields.
    for off in [12usize, 20] {
        let mut bytes = full.clone();
        bytes[off] ^= 0xff;
        bytes[off + 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(reopened) = DiskStore::open_opts(&path, opts) {
            for b in 0..3u64 {
                let _ = reopened.read_bucket(BucketId(b));
            }
        }
    }
    simcloud_storage::FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(&path);
}

/// Cheap deterministic suffix so parallel proptest cases do not collide on
/// one file.
fn rand_suffix(ops: &[Op]) -> u64 {
    let mut h = 1469598103934665603u64;
    for op in ops {
        let tag = match op {
            Op::Append { bucket, len } => 1u64 ^ ((*bucket as u64) << 8) ^ ((*len as u64) << 16),
            Op::Read { bucket } => 2u64 ^ ((*bucket as u64) << 8),
            Op::Delete { bucket } => 3u64 ^ ((*bucket as u64) << 8),
            Op::Flush => 4,
            Op::Reopen => 5,
        };
        h = (h ^ tag).wrapping_mul(1099511628211);
    }
    h
}
