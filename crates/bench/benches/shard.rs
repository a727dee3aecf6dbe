//! Sharded vs single-index deployment — the bench behind `BENCH_shard.json`.
//!
//! Three measurements over identical YEAST-like data:
//!
//! 1. **Identity** — for hash and pivot routers at 2 and 4 shards, with and
//!    without an inline byte budget, sharded kNN (collection-covering
//!    candidate budget) and range answers must be byte-identical to the
//!    single index's through the unmodified client. Asserted, not just
//!    reported.
//! 2. **Query throughput** — steady-state encrypted 30-NN against 1/2/4
//!    shards (hash and pivot routers) vs the single index. Below a
//!    collection-covering budget each shard walks only its
//!    ⌈`cand_size / N`⌉ share of the candidate budget. The contract is
//!    asserted as an exact count: the summed `entries_scanned` staging
//!    work must show sub-linear amplification (< 1.5× the single index's;
//!    it would be ~N× if every shard walked the whole budget). The
//!    summed `candidates_generated` is printed beside it but is no gate:
//!    the selection takes exactly the single server's list length, so it
//!    reads 1.00× whatever the shards staged. The 4-shard / single
//!    throughput ratio is **reported, not asserted**: it is a wall-clock
//!    ratio of two windows on a shared machine; at CI scale (YEAST
//!    n = 400) it read 1.07× (hash) / 0.86× (pivot) on a 2-vCPU runner.
//! 3. **Insert throughput** — 4 concurrent connections streaming inserts
//!    against 1/2/4 shards over a latency-modelled store (fixed write delay
//!    inside the index write lock). Per-shard locks must overlap the
//!    delays: the bench asserts 4-shard ≥ 1.5× single. The zero-delay
//!    (CPU-bound) numbers are reported unasserted.
//!
//! ```text
//! cargo bench -p simcloud-bench --bench shard            # full scale
//! cargo bench -p simcloud-bench --bench shard -- --quick # CI scale
//! ```

use std::time::Duration;

use simcloud_bench::{
    concurrent_insert_throughput, prebuild, prebuild_sharded, steady_state_encrypted, PreBuilt,
    RouterKind, Which,
};
use simcloud_core::{ClientConfig, Neighbor, ServerConfig};
use simcloud_mindex::SearchStats;

struct Config {
    n: usize,
    queries: usize,
    rounds: usize,
    cand: usize,
    inserts_per_thread: usize,
}

/// Cumulative search work counters (summed across shards) on either
/// deployment kind.
fn search_totals(server: &simcloud_bench::SteadyServer) -> SearchStats {
    server.telemetry().total_search_stats()
}

fn assert_identical(label: &str, sharded: &[Neighbor], single: &[Neighbor]) {
    assert_eq!(
        sharded.len(),
        single.len(),
        "{label}: answer lengths differ"
    );
    for (i, ((si, sd), (ri, rd))) in sharded.iter().zip(single).enumerate() {
        assert_eq!(si, ri, "{label}: id mismatch at rank {i}");
        assert_eq!(
            sd.to_bits(),
            rd.to_bits(),
            "{label}: distance bits differ at rank {i}"
        );
    }
}

/// Drives identical kNN + range workloads against a single and a sharded
/// deployment (same data, same key, same queries) and asserts byte-equal
/// answers.
fn identity_check(single: &PreBuilt, sharded: &PreBuilt, k: usize, label: &str) {
    let client = |pre: &PreBuilt, seed: u64| {
        pre.server
            .client(
                pre.key.clone(),
                pre.dataset.metric.clone(),
                ClientConfig::distances(),
            )
            .with_rng_seed(seed)
    };
    let mut sc = client(single, 17);
    let mut hc = client(sharded, 19);
    let n = single.dataset.len();
    for (qi, q) in single.workload.queries.iter().enumerate() {
        // Collection-covering candidate budget: the regime where sharded
        // and single candidate sets provably coincide.
        let (a, _) = sc.knn_approx(q, k, n).expect("single knn");
        let (b, _) = hc.knn_approx(q, k, n).expect("sharded knn");
        assert_identical(&format!("{label}/knn q{qi}"), &b, &a);
        // Range exactness is structural at any radius; use the k-th
        // distance so the ball is non-trivial and has boundary ties.
        let radius = a.last().map_or(0.0, |(_, d)| *d);
        let (ra, _) = sc.range(q, radius).expect("single range");
        let (rb, _) = hc.range(q, radius).expect("sharded range");
        assert_identical(&format!("{label}/range q{qi}"), &rb, &ra);
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let k = 30;
    let cfg = if quick {
        Config {
            n: 400,
            queries: 6,
            rounds: 2,
            cand: 150,
            inserts_per_thread: 30,
        }
    } else {
        Config {
            n: 1500,
            queries: 20,
            rounds: 4,
            cand: 600,
            inserts_per_thread: 120,
        }
    };
    println!(
        "sharded vs single-index, encrypted {k}-NN, YEAST n={}, {} queries x {} rounds",
        cfg.n, cfg.queries, cfg.rounds
    );
    let ds = Which::Yeast.dataset(cfg.n, 11);
    let mut json = String::from("{\n");

    // ---- 1. identity ----------------------------------------------------
    let single = prebuild(ds.clone(), cfg.queries, 3);
    let mut identity_combos = 0;
    for shards in [2usize, 4] {
        for router in [RouterKind::Hash, RouterKind::Pivot] {
            for budget in [
                None,
                Some(ServerConfig::budgeted(1 + 4 + 16 * cfg.n + 4 + 40 * 160)),
            ] {
                let server_config = budget.unwrap_or_default();
                let sharded =
                    prebuild_sharded(ds.clone(), cfg.queries, 3, server_config, shards, router);
                let label = format!(
                    "{}x{}{}",
                    shards,
                    router.label(),
                    if budget.is_some() { "+budget" } else { "" }
                );
                identity_check(&single, &sharded, k, &label);
                identity_combos += 1;
            }
        }
    }
    println!(
        "  identity: {} router/shard/budget combos byte-identical over {} queries each",
        identity_combos, cfg.queries
    );
    json.push_str(&format!(
        "  \"identity\": {{ \"combos\": {identity_combos}, \"queries_each\": {}, \"byte_identical\": true }},\n",
        cfg.queries
    ));

    // ---- 2. query throughput -------------------------------------------
    let before = search_totals(&single.server);
    let single_q = steady_state_encrypted(&single, cfg.cand, k, 1, cfg.rounds, 7);
    let single_qps = single_q.queries_per_second();
    let single_work = search_totals(&single.server).since(&before);
    let (single_generated, single_scanned) = (
        single_work.candidates_generated,
        single_work.entries_scanned,
    );
    println!(
        "  query  shards=1          {single_qps:>8.1} queries/s (reference, {single_generated} generated, {single_scanned} scanned)"
    );
    json.push_str(&format!(
        "  \"query_yeast_30nn/cand{}/shards1\": {{ \"queries_per_s\": {single_qps:.1}, \"vs_single\": 1.00, \"generated\": {single_generated}, \"scanned\": {single_scanned} }},\n",
        cfg.cand
    ));
    for router in [RouterKind::Hash, RouterKind::Pivot] {
        for shards in [2usize, 4] {
            let pre = prebuild_sharded(
                ds.clone(),
                cfg.queries,
                3,
                ServerConfig::default(),
                shards,
                router,
            );
            let before = search_totals(&pre.server);
            let run = steady_state_encrypted(&pre, cfg.cand, k, 1, cfg.rounds, 7);
            let qps = run.queries_per_second();
            let ratio = qps / single_qps;
            let work = search_totals(&pre.server).since(&before);
            let (gen, scanned) = (work.candidates_generated, work.entries_scanned);
            let amp = gen as f64 / single_generated.max(1) as f64;
            let scan_amp = scanned as f64 / single_scanned.max(1) as f64;
            println!(
                "  query  shards={shards} ({:<5})  {qps:>8.1} queries/s ({ratio:.2}x vs single, {amp:.2}x generated, {scan_amp:.2}x scanned)",
                router.label()
            );
            json.push_str(&format!(
                "  \"query_yeast_30nn/cand{}/shards{shards}/{}\": {{ \"queries_per_s\": {qps:.1}, \"vs_single\": {ratio:.2}, \"generated\": {gen}, \"generated_vs_single\": {amp:.2}, \"scanned\": {scanned}, \"scanned_vs_single\": {scan_amp:.2} }},\n",
                cfg.cand,
                router.label()
            ));
            if shards == 4 && router == RouterKind::Hash {
                // The budget split, asserted as an exact count at
                // both scales: each shard walks only its ceil(cand / N)
                // share of the budget, so the summed staging work shows
                // sub-linear amplification (4 shards would be ~2.5x here
                // if every shard walked the whole budget). The
                // throughput ratio printed above is not a gate: two
                // wall-clock windows on a shared box.
                assert!(
                    scan_amp < 1.5,
                    "4-shard entries_scanned amplification {scan_amp:.2}x >= 1.5x \
                     (shards are staging past their share of the candidate budget again)"
                );
            }
        }
    }

    // ---- 3. insert throughput ------------------------------------------
    let delay = Duration::from_micros(if quick { 200 } else { 300 });
    let threads = 4;
    let mut latency_single = 0.0;
    for shards in [1usize, 2, 4] {
        let run = concurrent_insert_throughput(
            threads,
            cfg.inserts_per_thread,
            shards,
            RouterKind::Hash,
            delay,
            3,
        );
        let ips = run.inserts_per_second();
        if shards == 1 {
            latency_single = ips;
        }
        let ratio = ips / latency_single;
        println!(
            "  insert shards={shards} (write delay {delay:?})  {ips:>8.0} inserts/s ({ratio:.2}x vs single)"
        );
        json.push_str(&format!(
            "  \"insert_latency_bound/threads{threads}/shards{shards}\": {{ \"inserts_per_s\": {ips:.0}, \"vs_single\": {ratio:.2} }},\n"
        ));
        if shards == 4 {
            assert!(
                ratio > 1.5,
                "4 shards must overlap latency-bound inserts (got {ratio:.2}x) — \
                 inserts to distinct shards are serializing"
            );
        }
    }
    let mut cpu_single = 0.0;
    for shards in [1usize, 4] {
        let run = concurrent_insert_throughput(
            threads,
            cfg.inserts_per_thread,
            shards,
            RouterKind::Hash,
            Duration::ZERO,
            5,
        );
        let ips = run.inserts_per_second();
        if shards == 1 {
            cpu_single = ips;
        }
        let ratio = ips / cpu_single;
        println!("  insert shards={shards} (cpu-bound)     {ips:>8.0} inserts/s ({ratio:.2}x vs single, unasserted)");
        json.push_str(&format!(
            "  \"insert_cpu_bound/threads{threads}/shards{shards}\": {{ \"inserts_per_s\": {ips:.0}, \"vs_single\": {ratio:.2} }},\n"
        ));
    }

    json.push_str("  \"scale\": \"");
    json.push_str(if quick { "quick" } else { "full" });
    json.push_str("\"\n}");
    println!("\nJSON summary:\n{json}");
}
