//! Crash recovery end to end: a similarity-cloud server is killed mid
//! bulk-insert and the store is reopened, recovered and queried.
//!
//! The example re-executes itself as a *child process* that inserts
//! encrypted objects into a disk-backed server, committing (flushing)
//! every third batch — then dies abruptly via `abort()` with a batch
//! inserted but not yet committed. The parent reopens the store:
//! `DiskStore::open` notices the unclean shutdown, replays the write-ahead
//! log, and serves exactly the committed prefix; the index layer rebuilds
//! its Voronoi cell tree from the recovered records and queries work.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```

use simcloud::prelude::*;
use simcloud::storage::{BucketStore, FileEnv};

const BATCH: usize = 100;
const FLUSH_EVERY: usize = 3; // commit after batches 2, 5, 8, …
const CRASH_AT_BATCH: usize = 10; // die before this batch is committed
const CHILD_ENV: &str = "SIMCLOUD_CRASH_CHILD_STORE";

/// Deterministic collection + key: the parent and the child derive the
/// same secrets independently, like an owner restarting its client.
fn owner_setup() -> (Vec<Vector>, SecretKey, MIndexConfig) {
    let dataset = simcloud::datasets::yeast_like(42, Some(1500));
    let (key, _master) = SecretKey::generate(&dataset.vectors, 30, &L1, PivotSelection::Random, 7);
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;
    (dataset.vectors, key, cfg)
}

/// Child: bulk-insert with periodic commits, then crash hard.
fn run_child(store_path: &std::path::Path) {
    let (data, key, cfg) = owner_setup();
    let store = DiskStore::create(store_path).expect("create store");
    let server = std::sync::Arc::new(CloudServer::new(cfg, store).expect("server"));
    let mut cloud = EncryptedClient::new(
        key,
        L1,
        InProcessTransport::new(std::sync::Arc::clone(&server)),
        ClientConfig::distances(),
    );

    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    for (i, chunk) in objects.chunks(BATCH).enumerate() {
        if i == CRASH_AT_BATCH {
            println!(
                "child: crashing hard with batch {} inserted but NOT committed",
                i - 1
            );
            // No destructors, no flush — the process just dies.
            std::process::abort();
        }
        cloud.insert_bulk(chunk).expect("insert");
        if i % FLUSH_EVERY == FLUSH_EVERY - 1 {
            server.flush().expect("flush");
            println!("child: committed through object {}", (i + 1) * BATCH - 1);
        }
    }
}

fn main() {
    if let Some(path) = std::env::var_os(CHILD_ENV) {
        run_child(std::path::Path::new(&path));
        return;
    }

    let store_path = std::env::temp_dir().join(format!("simcloud-crash-{}.db", std::process::id()));

    // --- Act 1: the child process dies mid-insert --------------------------
    let exe = std::env::current_exe().expect("own path");
    let status = std::process::Command::new(exe)
        .env(CHILD_ENV, &store_path)
        .status()
        .expect("spawn child");
    println!("\nparent: child exited with {status} (crash expected)\n");
    assert!(!status.success(), "the child is supposed to die");

    // --- Act 2: reopen, recover, rebuild ------------------------------------
    let (data, key, cfg) = owner_setup();
    let store = DiskStore::open(&store_path).expect("reopen after crash");
    let stats = store.stats();
    if store.recovered_on_open() {
        println!(
            "parent: unclean shutdown detected — WAL replayed ({} pages), CRC failures: {}",
            stats.pages_recovered, stats.crc_failures
        );
    } else {
        // The engine only touches the file inside `flush`: a crash landing
        // *between* commits leaves the disk exactly at the last commit, so
        // there is nothing to repair. Only a crash inside the flush window
        // itself (after the WAL commit record, before the checkpoint
        // finishes) needs — and gets — a WAL replay.
        println!(
            "parent: on-disk state is exactly the last commit — no repair needed \
             (the crash fell between flushes)"
        );
    }
    store.verify().expect("recovered store verifies CRC-clean");

    // The restarted server keeps the configuration it ran with (the child
    // used the default: no inline budget).
    let mut cloud = EncryptedClient::new(
        key,
        L1,
        InProcessTransport::new(
            CloudServer::rebuilt(cfg, simcloud::core::ServerConfig::default(), store)
                .expect("rebuild index from recovered records"),
        ),
        ClientConfig::distances(),
    );
    let (entries, leaves, depth) = cloud.server_info().expect("info");
    let committed = (CRASH_AT_BATCH / FLUSH_EVERY) * FLUSH_EVERY * BATCH;
    println!(
        "parent: rebuilt cell tree serves {entries} sealed objects \
         ({leaves} leaf cells, depth {depth}) — the committed prefix is {committed}\n"
    );
    assert_eq!(
        entries, committed as u64,
        "exactly the committed prefix survives"
    );

    // --- Act 3: queries over the recovered index ----------------------------
    // An object committed before the crash is found exactly…
    let (res, _) = cloud.knn_approx(&data[10], 5, 200).expect("knn");
    println!(
        "query for committed object 10 → nearest {:?} at distance {:.4}",
        res[0].0, res[0].1
    );
    assert_eq!(res[0].0, ObjectId(10));
    assert!(res[0].1.abs() < 1e-6);

    // …while an object from the uncommitted tail is gone (its nearest
    // surviving neighbor is someone else, at non-zero distance).
    let lost = committed + 50;
    let (res, _) = cloud.knn_approx(&data[lost], 1, 200).expect("knn");
    println!(
        "query for uncommitted object {lost} → nearest survivor {:?} at distance {:.4}",
        res[0].0, res[0].1
    );
    assert_ne!(res[0].0, ObjectId(lost as u64));

    println!("\ncrash, recovery, rebuild: all invariants held.");
    FileEnv::remove_sidecars(&store_path);
    let _ = std::fs::remove_file(&store_path);
}
