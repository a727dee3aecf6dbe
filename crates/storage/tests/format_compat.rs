//! Format compatibility, proven rather than assumed: `fixtures/pr8_store.db`
//! (+ `.meta`) were written and flushed by the code *before* the read-path
//! rebuild (bytewise CRC, seek + read I/O, HashMap pool) running the
//! schedule in [`write_schedule`]. The current code must open them as a
//! clean store, read the same records back, still catch a flipped bit —
//! and, running the same schedule itself, produce the very same bytes.

use std::path::{Path, PathBuf};

use simcloud_storage::{BucketId, BucketStore, DiskStore, FileEnv, Record, StorageError};

const PAGES: &[u8] = include_bytes!("fixtures/pr8_store.db");
const META: &[u8] = include_bytes!("fixtures/pr8_store.db.meta");

fn rec(id: u64, len: usize) -> Record {
    Record::new(
        id,
        (0..len).map(|i| ((id as usize + i) % 256) as u8).collect(),
    )
}

/// The schedule the fixture was written with.
fn write_schedule(path: &Path) {
    let mut s = DiskStore::create(path).unwrap();
    for id in 0..3u64 {
        s.append(BucketId(1), rec(id, 1500)).unwrap();
    }
    s.append(BucketId(2), rec(10, 5000)).unwrap();
    s.append(BucketId(3), rec(20, 100)).unwrap();
    s.append(BucketId(3), rec(21, 4200)).unwrap();
    s.flush().unwrap();
    s.delete_bucket(BucketId(3)).unwrap();
    s.append(BucketId(1), rec(3, 700)).unwrap();
    s.flush().unwrap();
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("simcloud-format-compat");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.db", std::process::id()))
}

fn meta_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".meta");
    PathBuf::from(os)
}

fn place_fixture(name: &str, pages: &[u8]) -> PathBuf {
    let path = scratch(name);
    cleanup(&path);
    std::fs::write(&path, pages).unwrap();
    std::fs::write(meta_path(&path), META).unwrap();
    path
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    FileEnv::remove_sidecars(path);
}

#[test]
fn store_written_before_the_rebuild_opens_clean_and_verifies() {
    let path = place_fixture("open", PAGES);
    let store = DiskStore::open(&path).unwrap();
    assert!(!store.recovered_on_open(), "a flushed store is clean");
    store.verify().unwrap();
    assert_eq!(store.page_count(), 8);
    let mut ids = store.bucket_ids();
    ids.sort();
    assert_eq!(ids, [BucketId(1), BucketId(2)]);
    assert_eq!(
        store.read_bucket(BucketId(1)).unwrap(),
        [rec(0, 1500), rec(1, 1500), rec(2, 1500), rec(3, 700)]
    );
    assert_eq!(store.read_bucket(BucketId(2)).unwrap(), [rec(10, 5000)]);
    assert_eq!(store.stats().crc_failures, 0);
    drop(store);
    cleanup(&path);
}

#[test]
fn the_same_schedule_still_writes_the_same_bytes() {
    let path = scratch("rewrite");
    cleanup(&path);
    write_schedule(&path);
    assert!(
        std::fs::read(&path).unwrap() == PAGES,
        "page file differs from the pre-rebuild fixture"
    );
    assert_eq!(std::fs::read(meta_path(&path)).unwrap(), META);
    cleanup(&path);
}

#[test]
fn one_flipped_bit_in_the_fixture_is_still_caught() {
    // Page 1 is the head of bucket 1's chain; flip one payload bit.
    let mut pages = PAGES.to_vec();
    pages[4096 + 1000] ^= 0x04;
    let path = place_fixture("flip", &pages);
    let store = DiskStore::open(&path).unwrap();
    assert!(matches!(
        store.read_bucket(BucketId(1)),
        Err(StorageError::Corrupt(_))
    ));
    assert_eq!(store.stats().crc_failures, 1);
    // The undamaged bucket still reads.
    assert_eq!(store.read_bucket(BucketId(2)).unwrap(), [rec(10, 5000)]);
    assert!(store.verify().is_err());
    assert_eq!(store.stats().crc_failures, 2);
    drop(store);
    cleanup(&path);
}
