//! Component micro-benchmarks: the algorithmic primitives inside the
//! M-Index hot paths (permutation computation, promise ranking, pivot
//! filtering, cell-tree routing), the distance kernels on both sides of
//! the wire (per pair, one object against a pivot table, the server's
//! bound from stored routing bytes), the paged store's read path (page
//! CRC, buffer-pool hit, buffer-pool miss) and the query data path a
//! candidate's sealed bytes travel (owned, lent and bulk bucket reads, the
//! kNN cursor open, request → finished response frame for kNN and for the
//! filtered range open, the client's in-place frame parse), and the
//! client's crypto behind the paper's "Encryption time" and "Decryption
//! time" rows (one AES-128 block, SHA-256, envelope seal / unseal and its
//! two halves: the CTR keystream and the MAC).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{Request, Response, SearchAnswerView};
use simcloud_core::{evaluator_for, CloudServer};
use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::hmac::HmacSha256;
use simcloud_crypto::modes::ctr_apply;
use simcloud_crypto::{Aes, CipherKey, Sha256};
use simcloud_metric::{
    permutation_from_distances, CombinedMetric, Metric, PivotTable, TableScratch, Vector, L1,
};
use simcloud_mindex::pruning::{
    pivot_filter_keep, pivot_filter_lower_bound, pivot_filter_safe_lower_bound,
};
use simcloud_mindex::{IndexEntry, MIndexConfig, PromiseEvaluator, Routing};
use simcloud_storage::{pagefmt, BucketId, BucketStore, DiskStore, FileEnv, MemoryStore, Record};
use simcloud_transport::SharedRequestHandler;

fn bench_permutation(c: &mut Criterion) {
    let mut g = c.benchmark_group("pivot_permutation");
    for n in [30usize, 50, 100] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let ds: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &ds, |b, ds| {
            b.iter(|| std::hint::black_box(permutation_from_distances(ds)));
        });
    }
    g.finish();
}

fn bench_promise(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let ds: Vec<f64> = (0..100).map(|_| rng.gen_range(0.0..100.0)).collect();
    let ev = PromiseEvaluator::from_distances(ds.clone());
    let prefix: Vec<u16> = vec![17, 42, 63, 8];
    c.bench_function("promise_prefix_penalty", |b| {
        b.iter(|| std::hint::black_box(ev.prefix_penalty(&prefix)));
    });
    let perm = permutation_from_distances(&ds);
    let pev = PromiseEvaluator::from_permutation(perm);
    c.bench_function("promise_prefix_penalty_permutation", |b| {
        b.iter(|| std::hint::black_box(pev.prefix_penalty(&prefix)));
    });
}

fn bench_pivot_filter(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let q: Vec<f64> = (0..100).map(|_| rng.gen_range(0.0..100.0)).collect();
    let objects: Vec<Vec<f32>> = (0..1000)
        .map(|_| (0..100).map(|_| rng.gen_range(0.0f32..100.0)).collect())
        .collect();
    c.bench_function("pivot_filter_1000_objects", |b| {
        b.iter(|| {
            let mut kept = 0usize;
            for o in &objects {
                if pivot_filter_keep(&q, o, 30.0) {
                    kept += 1;
                }
            }
            std::hint::black_box(kept)
        });
    });
    c.bench_function("pivot_filter_lower_bound", |b| {
        b.iter(|| std::hint::black_box(pivot_filter_lower_bound(&q, &objects[0])));
    });
    // The variant the request path calls: every scanned record is ranked by
    // its wire-safe bound over the index's 100 pivots.
    c.bench_function("pivot_filter_safe_lower_bound/100", |b| {
        b.iter(|| {
            std::hint::black_box(pivot_filter_safe_lower_bound(
                std::hint::black_box(&q),
                &objects[0],
            ))
        });
    });
}

fn bench_metric_eval(c: &mut Criterion) {
    // The L1/CombinedMetric costs that dominate the paper's CoPhIR rows.
    let mut rng = StdRng::seed_from_u64(7);
    let mut mk =
        |dim: usize| Vector::new((0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect());
    let a17 = mk(17);
    let b17 = mk(17);
    c.bench_function("l1_17d", |b| {
        b.iter(|| std::hint::black_box(L1.distance(&a17, &b17)));
    });
    let comb = CombinedMetric::cophir_default();
    let a282 = mk(282);
    let b282 = mk(282);
    c.bench_function("combined_282d", |b| {
        b.iter(|| std::hint::black_box(comb.distance(&a282, &b282)));
    });

    // One object against a 100-pivot table through the batch entry — the
    // client's set-up cost of every insert and query. Integer-grid
    // components, like MPEG-7 descriptors. One iteration is 100 distances:
    // ns per distance = time / 100.
    let mut grid =
        |dim: usize| Vector::new((0..dim).map(|_| rng.gen_range(0..256) as f32).collect());
    let object = grid(282);
    let table = PivotTable::new((0..100).map(|_| grid(282)).collect());
    let mut scratch = TableScratch::default();
    let mut g = c.benchmark_group("combined_282d");
    g.throughput(Throughput::Elements(100));
    g.bench_function("x100_pivots", |b| {
        b.iter(|| {
            comb.distances_to_table(std::hint::black_box(&object), &table, &mut scratch);
            scratch.distances().iter().sum::<f64>()
        });
    });
    g.finish();
}

/// The three costs a `DiskStore` page access is made of, in ns per 4 KiB
/// page: the checksum every miss re-verifies, a read served from a pool
/// frame, and a miss served from the OS page cache (`pread` + CRC +
/// install). One-page buckets read through `read_matching(.., none)` keep
/// record decoding out of the number.
fn bench_disk_pool(c: &mut Criterion) {
    let page: Vec<u8> = (0..pagefmt::PAGE_SIZE).map(|i| (i % 251) as u8).collect();
    c.bench_function("crc32/4KiB", |b| {
        b.iter(|| std::hint::black_box(pagefmt::crc32(std::hint::black_box(&page))));
    });

    // `buckets` one-page buckets behind the default 1024-frame pool, read
    // round-robin: all hits when they fit, all misses (LRU's worst case)
    // when the data is 8x the pool.
    let mut g = c.benchmark_group("disk_pool");
    for (row, buckets) in [("hit", 256u64), ("miss", 8192)] {
        let path = std::env::temp_dir().join(format!(
            "simcloud-components-{row}-{}.db",
            std::process::id()
        ));
        let mut store = DiskStore::create(&path).expect("create");
        for b in 0..buckets {
            let payload = vec![(b % 256) as u8; pagefmt::PAGE_CAP - 64];
            store
                .append(BucketId(b), Record::new(b, payload))
                .expect("append");
            if b % 256 == 255 {
                store.flush().expect("flush");
            }
        }
        store.flush().expect("flush");
        let mut next = 0u64;
        g.bench_function(row, |b| {
            b.iter(|| {
                next = (next + 1) % buckets;
                store
                    .read_matching(BucketId(next), &|_| false)
                    .expect("read")
                    .len()
            });
        });
        let io = store.stats();
        println!(
            "disk_pool/{row}: {} page reads, {} pool hits over the run",
            io.page_reads, io.pool_hits
        );
        drop(store);
        FileEnv::remove_sidecars(&path);
        let _ = std::fs::remove_file(&path);
    }
    g.finish();
}

/// A stored record of the paper-scale benchmark: 100 `f32` pivot
/// distances of routing and a 1.2 KB sealed object.
fn cophir_sized_entry(id: u64, closest: usize, rng: &mut StdRng) -> IndexEntry {
    let mut ds: Vec<f64> = (0..100).map(|_| rng.gen_range(50.0..100.0)).collect();
    ds[closest] = rng.gen_range(0.0..10.0);
    let payload = (0..1200).map(|_| rng.gen()).collect();
    IndexEntry::new(id, Routing::from_distances(&ds), payload)
}

/// Reading one 650-record cell (≈1 MB of records) out of a bucket store:
/// `read_bucket` hands back an owned `Vec<Record>`, `scan_bucket` lends
/// each record to a visitor that copies every byte it is lent into an
/// arena (what a filtered open does to a survivor), `read_bucket_into`
/// appends the cell's whole record stream to the arena (the unfiltered
/// open). The rows differ by the per-record allocation, the per-record
/// copy loop and the bulk copy alone.
fn bench_bucket_scan(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let records: Vec<Record> = (0..650)
        .map(|id| Record::new(id, cophir_sized_entry(id, 0, &mut rng).encode_payload()))
        .collect();
    let mut memory = MemoryStore::new();
    let path = std::env::temp_dir().join(format!(
        "simcloud-components-scan-{}.db",
        std::process::id()
    ));
    let mut disk = DiskStore::create(&path).expect("create");
    for r in &records {
        memory.append(BucketId(1), r.clone()).expect("append");
        disk.append(BucketId(1), r.clone()).expect("append");
    }
    disk.flush().expect("flush");
    let stores: [(&str, &dyn BucketStore); 2] = [("memory", &memory), ("disk", &disk)];
    for (row, store) in stores {
        c.bench_function(&format!("read_bucket/{row}"), |b| {
            b.iter(|| {
                let owned = store.read_bucket(BucketId(1)).expect("read");
                owned.iter().map(|r| r.payload.len()).sum::<usize>()
            });
        });
        let mut arena: Vec<u8> = Vec::new();
        c.bench_function(&format!("scan_bucket/{row}"), |b| {
            b.iter(|| {
                arena.clear();
                store
                    .scan_bucket(BucketId(1), &mut |_, payload| {
                        arena.extend_from_slice(payload);
                    })
                    .expect("scan");
                arena.len()
            });
        });
        c.bench_function(&format!("read_bucket_into/{row}"), |b| {
            b.iter(|| {
                arena.clear();
                store
                    .read_bucket_into(BucketId(1), &mut arena)
                    .expect("bulk read");
                arena.len()
            });
        });
    }
    drop(disk);
    FileEnv::remove_sidecars(&path);
    let _ = std::fs::remove_file(&path);
}

/// One encrypted-kNN answer at the benchmark's operating point, server
/// side and client side: request bytes → finished response frame through
/// `handle_shared` (1300 records scanned in two cells, 1000 candidates
/// with their 1.2 KB payloads inlined), the cursor open inside it on its
/// own (`cursor_open/1300_records`: pick the cells, bulk-read them into
/// the arena, bound and rank every record), and the 1.2 MB frame parsed
/// the way a refining client reads it (in place) next to the owned decode.
/// `range_frame/memory/*` is the filtered open through the same handler:
/// a radius whose pivot filter rejects every record of the one cell it
/// visits, and one that lets ≈6 % of what it scans through.
/// The index holds 48 cells (≈50 MB of records) and the requests rotate
/// over them, so — as on a real collection — the records a query scans
/// are not in the cache when it arrives.
fn bench_query_frame(c: &mut Criterion) {
    const CELLS: u64 = 48;
    /// The radius at which the pivot filter keeps ≈6 % of the records a
    /// range query scans in this store (coordinates uniform in [50, 100)).
    const RANGE_RADIUS_6PCT: f64 = 44.5;
    let mut rng = StdRng::seed_from_u64(23);
    let server = CloudServer::new(MIndexConfig::cophir(), MemoryStore::new()).expect("server");
    // 650-record cells, one per closest pivot.
    let entries: Vec<IndexEntry> = (0..CELLS * 650)
        .map(|id| cophir_sized_entry(id, (id % CELLS) as usize, &mut rng))
        .collect();
    let bulks: Vec<Vec<IndexEntry>> = entries.chunks(1000).map(<[_]>::to_vec).collect();
    drop(entries);
    let build = std::time::Instant::now();
    for bulk in bulks {
        match Response::decode(&server.handle_shared(&Request::Insert(bulk).encode())) {
            Ok(Response::Inserted(_)) => {}
            other => panic!("insert failed: {other:?}"),
        }
    }
    println!(
        "knn_frame store: {} server-side inserts in {:.0} ms",
        CELLS * 650,
        build.elapsed().as_secs_f64() * 1e3
    );
    let queries: Vec<Routing> = (0..CELLS)
        .map(|cell| cophir_sized_entry(0, cell as usize, &mut rng).routing)
        .collect();
    let requests: Vec<Vec<u8>> = queries
        .iter()
        .map(|routing| {
            Request::ApproxKnn {
                routing: routing.clone(),
                cand_size: 1000,
            }
            .encode()
        })
        .collect();
    // The request's own search stats: the delta of the server's totals.
    let before = server.total_search_stats();
    let frame = server.handle_shared(&requests[0]);
    let stats = server.total_search_stats().since(&before);
    println!(
        "knn_frame: {} records scanned in {} cells, {} candidates, {} byte frame",
        stats.entries_scanned,
        stats.cells_visited,
        stats.candidates,
        frame.len()
    );
    let mut next = 0usize;
    c.bench_function("knn_frame/1000x1.2KB", |b| {
        b.iter(|| {
            next = (next + 1) % requests.len();
            server
                .handle_shared(std::hint::black_box(&requests[next]))
                .len()
        });
    });
    // Where a kNN request's server time went, from the server's own phase
    // histograms (only the requests above have recorded into them).
    let phases = server.telemetry();
    println!(
        "knn_frame phases, mean µs: open {:.0}, pull+stage {:.0}, encode {:.0}",
        phases.open_hist().snapshot().mean() as f64 / 1e3,
        (phases.pull_hist().snapshot().mean() + phases.stage_hist().snapshot().mean()) as f64 / 1e3,
        phases.encode_hist().snapshot().mean() as f64 / 1e3,
    );
    let evaluators: Vec<_> = queries.iter().cloned().map(evaluator_for).collect();
    c.bench_function("cursor_open/1300_records", |b| {
        b.iter(|| {
            next = (next + 1) % evaluators.len();
            let cursor = server.index().knn_cursor(&evaluators[next], 1000);
            cursor.expect("open").len()
        });
    });
    for (row, radius) in [("reject_all", 15.0), ("survive_6pct", RANGE_RADIUS_6PCT)] {
        let ranges: Vec<Vec<u8>> = queries
            .iter()
            .map(|routing| {
                let distances = routing.distances().expect("distance routing");
                Request::Range {
                    distances: distances.iter().map(|&d| f64::from(d)).collect(),
                    radius,
                }
                .encode()
            })
            .collect();
        let before = server.total_search_stats();
        for request in &ranges {
            server.handle_shared(request);
        }
        let after = server.total_search_stats();
        println!(
            "range_frame/memory/{row}: per request {} records scanned in {} cells, {} candidates",
            (after.entries_scanned - before.entries_scanned) / CELLS,
            (after.cells_visited - before.cells_visited) / CELLS,
            (after.candidates - before.candidates) / CELLS,
        );
        c.bench_function(&format!("range_frame/memory/{row}"), |b| {
            b.iter(|| {
                next = (next + 1) % ranges.len();
                server
                    .handle_shared(std::hint::black_box(&ranges[next]))
                    .len()
            });
        });
    }
    c.bench_function("resp_decode_owned/1.2MB", |b| {
        b.iter(|| match Response::decode(std::hint::black_box(&frame)) {
            Ok(Response::CandidateList(list)) => list.payloads.len(),
            other => panic!("unexpected {other:?}"),
        });
    });
    c.bench_function("resp_view_parse/1.2MB", |b| {
        b.iter(
            || match SearchAnswerView::parse(std::hint::black_box(&frame)) {
                Ok(SearchAnswerView::List(list)) => list.payloads().len(),
                other => panic!("unexpected {other:?}"),
            },
        );
    });
}

fn bench_aes_block(c: &mut Criterion) {
    let aes = Aes::new(b"0123456789abcdef").unwrap();
    c.bench_function("aes128_encrypt_block", |b| {
        let mut block = [0x42u8; 16];
        b.iter(|| {
            aes.encrypt_block(&mut block);
            std::hint::black_box(&block);
        });
    });
}

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xA5u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| std::hint::black_box(Sha256::digest(data)));
        });
    }
    g.finish();
}

/// Seal and unseal of one object, then the two halves of a CoPhIR-sized
/// unseal on their own: the CTR keystream over its 1132 bytes, and the
/// HMAC over that envelope's MAC input (header + ciphertext + the empty
/// aad's length), from a pre-absorbed key as the envelope runs it.
fn bench_seal_unseal(c: &mut Criterion) {
    let key = CipherKey::derive_from_master(b"bench master");
    let mut g = c.benchmark_group("envelope");
    // A YEAST object is 17 floats (~72 B), a CoPhIR object ~1.1 kB.
    for (label, size) in [("yeast_obj", 72usize), ("cophir_obj", 1132)] {
        let plain = vec![0x3Cu8; size];
        let mut rng = StdRng::seed_from_u64(1);
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(BenchmarkId::new("seal_ctr", label), |b| {
            b.iter(|| std::hint::black_box(key.seal(&plain, EnvelopeMode::Ctr, &mut rng)));
        });
        let sealed = key.seal(&plain, EnvelopeMode::Ctr, &mut rng);
        g.bench_function(BenchmarkId::new("unseal_ctr", label), |b| {
            b.iter(|| std::hint::black_box(key.unseal(&sealed).unwrap()));
        });
    }
    let aes = Aes::new(b"0123456789abcdef").unwrap();
    let mut data = vec![0x3Cu8; 1132];
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function(BenchmarkId::new("ctr_only", "cophir_obj"), |b| {
        b.iter(|| {
            ctr_apply(&aes, &[7u8; 16], &mut data);
            std::hint::black_box(&data);
        });
    });
    let sealed = key.seal(&data, EnvelopeMode::Ctr, &mut StdRng::seed_from_u64(1));
    let body = &sealed[..sealed.len() - 32];
    let mac = HmacSha256::new(&[0x5Au8; 32]);
    g.bench_function(BenchmarkId::new("mac_only", "cophir_obj"), |b| {
        b.iter(|| {
            let mut m = mac.clone();
            m.update(body);
            m.update(&0u32.to_le_bytes());
            std::hint::black_box(m.finalize())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_permutation, bench_promise, bench_pivot_filter, bench_metric_eval,
        bench_disk_pool, bench_bucket_scan, bench_query_frame, bench_aes_block, bench_sha256,
        bench_seal_unseal
}
criterion_main!(benches);
