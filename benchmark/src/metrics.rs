//! The names, units, directions and bounds of every metric the benchmark
//! reports. `BENCHMARK.json` at the repository root carries the same table
//! (a unit test holds the two together); the README explains each entry.

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Zero for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// Every workload reports every one of these from its untraced run.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.20),
    e2e("p95_ms", "ms", Lower, 0.25),
    e2e("insert_objs_per_s", "1/s", Higher, 0.15),
    e2e("insert_p95_ms", "ms", Lower, 0.25),
    e2e("wire_bytes_per_op", "B", Lower, 0.01),
    e2e("recall", "frac", Higher, 0.06),
    e2e("store_bytes_per_user_byte", "B/B", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Every workload reports every one of these from its traced run; a layer a
/// workload does not exercise reports 0 (the "flat on" prediction).
pub const PER_LAYER: &[Spec] = &[
    layer("metric.dist_ns", "ns", Lower),
    layer("metric.dists_per_insert", "count", Lower),
    layer("metric.dists_per_query", "count", Lower),
    layer("crypto.seal_us_per_obj", "us", Lower),
    layer("crypto.unseal_us_per_obj", "us", Lower),
    layer("crypto.unsealed_per_query", "count", Lower),
    layer("crypto.early_exit_frac", "frac", Higher),
    layer("client.knn_self_us", "us", Lower),
    layer("client.refine_us", "us", Lower),
    layer("client.pivot_us", "us", Lower),
    layer("client.range_us", "us", Lower),
    layer("client.fetch_rtts_per_query", "count", Lower),
    layer("client.fetched_per_query", "count", Lower),
    layer("client.overfetch_frac", "frac", Lower),
    layer("client.knn_p99_ms", "ms", Lower),
    layer("protocol.req_encode_us", "us", Lower),
    layer("protocol.req_decode_us", "us", Lower),
    layer("protocol.resp_encode_us", "us", Lower),
    layer("protocol.resp_decode_us", "us", Lower),
    layer("protocol.req_bytes", "B", Lower),
    layer("protocol.resp_bytes", "B", Lower),
    layer("transport.rtt_self_us", "us", Lower),
    layer("transport.echo_rtt_us_64B", "us", Lower),
    layer("transport.echo_rtt_us_4MB", "us", Lower),
    layer("transport.retries", "count", Lower),
    layer("transport.reconnects", "count", Lower),
    layer("server.handle_knn_us", "us", Lower),
    layer("server.handle_range_us", "us", Lower),
    layer("server.handle_fetch_us", "us", Lower),
    layer("server.handle_insert_us", "us", Lower),
    layer("server.handle_p99_us", "us", Lower),
    layer("server.self_us", "us", Lower),
    layer("server.decode_us", "us", Lower),
    layer("server.stage_us", "us", Lower),
    layer("server.encode_us", "us", Lower),
    layer("server.closure_ratio", "ratio", Higher),
    layer("mindex.open_us", "us", Lower),
    layer("mindex.pull_us", "us", Lower),
    layer("mindex.cells_visited", "count", Lower),
    layer("mindex.entries_scanned", "count", Lower),
    layer("mindex.generated_per_query", "count", Lower),
    layer("mindex.scanned_per_candidate", "ratio", Lower),
    layer("mindex.fetch_us", "us", Lower),
    layer("mindex.insert_us_per_obj", "us", Lower),
    layer("storage.read_us_per_query", "us", Lower),
    layer("storage.reads_per_query", "count", Lower),
    layer("storage.records_read_per_query", "count", Lower),
    layer("storage.append_us_per_obj", "us", Lower),
    layer("storage.flush_ms_p50", "ms", Lower),
    layer("storage.flush_ms_max", "ms", Lower),
    layer("storage.page_reads_per_query", "count", Lower),
    layer("storage.pool_hit_frac", "frac", Higher),
    layer("storage.page_writes_per_flush", "count", Lower),
    layer("storage.write_amp", "ratio", Lower),
    layer("storage.read_contention_ratio", "ratio", Lower),
    layer("shard.open_us", "us", Lower),
    layer("shard.drain_us", "us", Lower),
    layer("shard.generated_vs_single", "ratio", Lower),
    layer("shard.entries_skew", "ratio", Lower),
    layer("shard.handle_vs_single", "ratio", Lower),
    layer("telemetry.snapshot_us", "us", Lower),
    layer("telemetry.phase_sum_vs_handle", "ratio", Higher),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.closure_ratio", "ratio", Higher),
];

pub fn end_to_end(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::Workload;

    /// `BENCHMARK.json` is written by hand to the driver's schema; it must
    /// name exactly the workloads and metrics the program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let file = Json::parse(&text).expect("valid JSON");
        let workloads: Vec<&str> = file
            .get("workloads")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = file.get(key).map_or(&[][..], Json::as_arr);
            assert_eq!(listed.len(), specs.len(), "{key} length");
            for (entry, spec) in listed.iter().zip(specs) {
                let field = |f| entry.get(f).and_then(Json::as_str);
                assert_eq!(field("name"), Some(spec.name));
                assert_eq!(field("unit"), Some(spec.unit), "{}", spec.name);
                assert_eq!(field("better"), Some(spec.better.as_str()), "{}", spec.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(spec.bound),
                    "{}",
                    spec.name
                );
            }
        }
        let run_seconds = file.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(run_seconds, Some(crate::RUN_SECONDS));
    }

    #[test]
    fn names_are_unique_and_within_the_schema_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
