//! The two kinds of run. `untraced` sets the deployment up (several times,
//! timed), warms it with one checked pass over the hundred queries, then
//! measures the workload's timed window: the end-to-end scoreboard.
//! `traced` rebuilds the same deployment behind the decorators and runs
//! one-request-in-flight passes: the per-layer ledger.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use crate::decorators::{Exchange, RecordingTransport, Tape};
use crate::deploy::{
    connect, connect_via, set_up, Deployment, MakeServer, Plain, Sut, Traced, Wiring,
};
use crate::json::Json;
use crate::load::{
    query_loop, replay_loop, writer_loop, LoopOut, ReadOp, Sample, Until, WriterOut,
};
use crate::oracle::Oracle;
use crate::spans::{summarize, SpanLog, Summary};
use crate::stats::{mean, median, percentile, subwindow_median_rate};
use crate::sut::{CostReport, TcpTransport, Transport};
use crate::{
    connections, micro, Env, Outcome, Res, Workload, CONNECTIONS, K, SETUP_REPS, SUB_WINDOWS,
};

/// Passes over the hundred operations in each traced measurement.
const TRACED_PASSES: usize = 2;

fn is_replay(workload: Workload) -> bool {
    matches!(workload, Workload::ServeShard4 | Workload::ServeDisk)
}

fn read_op(workload: Workload) -> ReadOp {
    if workload == Workload::IngestRw {
        ReadOp::KnnThenRange
    } else {
        ReadOp::Knn
    }
}

/// The checked pass every run starts with: one client, each of the hundred
/// queries once, through a recording transport. It warms the deployment,
/// yields the exact-count metrics (recall, wire bytes per operation) and,
/// for the replay workloads, the tape.
struct WarmPass {
    out: LoopOut,
    tape: Vec<Exchange>,
    sample_response: Option<Vec<u8>>,
    wire_bytes: u64,
    /// Operations whose answer failed a check, plus recorded answers that
    /// were malformed.
    failed: u64,
}

fn warm_pass<H: Sut, W: Wiring>(
    w: &W,
    env: &Env,
    oracle: &Oracle,
    dep: &Deployment<H>,
) -> Res<WarmPass> {
    let tape = Tape::default();
    let mut client = connect_via(w, env, &dep.key, dep.addr(), |inner| RecordingTransport {
        inner,
        tape: tape.clone(),
    })?;
    let out = query_loop(
        w,
        env,
        oracle,
        &mut client,
        read_op(env.workload),
        env.cand(),
        0,
        Until::Passes(1),
        Instant::now(),
    );
    let stats = client.transport().stats();
    let mut tape = std::mem::take(&mut *tape.lock().expect("tape poisoned"));
    let failed = out.samples.iter().filter(|s| !s.ok).count() as u64 + tape.malformed;
    Ok(WarmPass {
        out,
        tape: std::mem::take(&mut tape.exchanges),
        sample_response: tape.sample_response.take(),
        wire_bytes: stats.bytes_sent + stats.bytes_received,
        failed,
    })
}

/// Runs `conns` closed loops side by side, each on its own connection and
/// thread: full client queries, or thin replay of `tape` for the replay
/// workloads. Returns what each loop produced and the seconds they took.
fn closed_loops<H: Sut, W: Wiring>(
    w: &W,
    env: &Env,
    oracle: &Oracle,
    dep: &Deployment<H>,
    tape: &[Exchange],
    conns: usize,
    until: Until,
) -> Res<(Vec<LoopOut>, f64)> {
    enum Conn<W: Wiring> {
        Client(Box<crate::deploy::Client<W>>),
        Replay(W::T),
    }
    let mut connections = Vec::new();
    for _ in 0..conns {
        connections.push(if is_replay(env.workload) {
            Conn::<W>::Replay(w.transport(TcpTransport::connect(dep.addr())?))
        } else {
            Conn::Client(Box::new(connect(w, env, &dep.key, dep.addr())?))
        });
    }
    let per_pass = if is_replay(env.workload) {
        tape.len()
    } else {
        env.queries.len()
    };
    let opened = Instant::now();
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, conn)| {
                let offset = c * per_pass / conns;
                scope.spawn(move || match conn {
                    Conn::Client(mut client) => query_loop(
                        w,
                        env,
                        oracle,
                        &mut client,
                        read_op(env.workload),
                        env.cand(),
                        offset,
                        until,
                        opened,
                    ),
                    Conn::Replay(mut transport) => {
                        replay_loop(w, &mut transport, tape, offset, until, opened)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Ok((outs, opened.elapsed().as_secs_f64()))
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: the end-to-end scoreboard.
pub fn untraced<H: Sut>(env: &Env, oracle: &Oracle, make: MakeServer<'_, H>) -> Res<Outcome> {
    let w = Plain;
    let mut setups = Vec::new();
    let mut dep: Option<Deployment<H>> = None;
    for _ in 0..SETUP_REPS {
        // The previous deployment stops (and frees its memory) first.
        drop(dep.take());
        let (d, report) = set_up(&w, env, make)?;
        setups.push(report);
        dep = Some(d);
    }
    let dep = dep.expect("SETUP_REPS > 0");

    let warm = warm_pass(&w, env, oracle, &dep)?;
    let warm_ops = warm.out.samples.len() as u64;
    if is_replay(env.workload) && warm.tape.is_empty() {
        return Err("recording pass produced no tape".into());
    }

    // The timed window.
    let conns = connections();
    let (window, writer) = if env.workload == Workload::IngestRw {
        let mut writer_client = connect(&w, env, &dep.key, dep.addr())?;
        let mut reader = connect(&w, env, &dep.key, dep.addr())?;
        let opened = Instant::now();
        std::thread::scope(|scope| {
            let server = &*dep.server;
            let writing = scope.spawn(move || {
                writer_loop::<H, Plain, _>(
                    &mut writer_client,
                    server,
                    &env.fresh,
                    env.seconds,
                    opened,
                )
            });
            let reading = query_loop(
                &w,
                env,
                oracle,
                &mut reader,
                ReadOp::KnnThenRange,
                env.cand(),
                0,
                Until::Seconds(env.seconds),
                opened,
            );
            (vec![reading], writing.join().expect("writer panicked"))
        })
    } else {
        let (outs, _) = closed_loops(
            &w,
            env,
            oracle,
            &dep,
            &warm.tape,
            conns,
            Until::Seconds(env.seconds),
        )?;
        (outs, WriterOut::default())
    };
    let first_failure = std::iter::once(&warm.out)
        .chain(&window)
        .find_map(|o| o.first_failure.clone());
    let samples: Vec<Sample> = window.into_iter().flat_map(|o| o.samples).collect();

    // After the window: final flush, entry count, footprint.
    dep.server.flush()?;
    let (entries, _, _) = connect(&w, env, &dep.key, dep.addr())?.server_info()?;
    let expected_entries = (env.n + writer.acked_objects) as u64;
    let sealed_len = micro::sealed_len(env, &dep.key) as f64;
    let store_ratio = dep.stored_bytes() as f64 / (entries as f64 * sealed_len);

    let latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let done: Vec<(f64, f64)> = samples.iter().map(|s| (s.start, s.at)).collect();
    let build_rates: Vec<f64> = setups.iter().map(|s| env.n as f64 / s.build_s).collect();
    let setup_times: Vec<f64> = setups.iter().map(|s| s.setup_s).collect();
    let writer_ms: Vec<f64> = writer.ops.iter().map(|o| o.latency() * 1e3).collect();
    let lateness_ms: Vec<f64> = writer.ops.iter().map(|o| o.lateness() * 1e3).collect();
    let insert_ms: Vec<f64> = if env.workload == Workload::IngestRw {
        writer_ms
    } else {
        setups
            .iter()
            .flat_map(|s| s.bulk_ms.iter().copied())
            .collect()
    };
    let metrics = vec![
        ("setup_s", median(&setup_times)),
        (
            "qps",
            subwindow_median_rate(&done, env.seconds, SUB_WINDOWS),
        ),
        ("p50_ms", percentile(&latencies, 50.0)),
        ("p95_ms", percentile(&latencies, 95.0)),
        ("insert_objs_per_s", median(&build_rates)),
        ("insert_p95_ms", percentile(&insert_ms, 95.0)),
        (
            "wire_bytes_per_op",
            warm.wire_bytes as f64 / warm_ops as f64,
        ),
        (
            "recall",
            warm.out.hits as f64 / (K * env.queries.len()) as f64,
        ),
        ("store_bytes_per_user_byte", store_ratio),
        ("peak_rss_mb", peak_rss_mb()),
    ];

    let bulks = setups.iter().map(|s| s.bulk_ms.len()).sum::<usize>() + writer.ops.len();
    let attempted = warm_ops + samples.len() as u64 + bulks as u64 + 1;
    let failed_window = samples.iter().filter(|s| !s.ok).count() as u64;
    let failed = warm.failed
        + failed_window
        + writer.failed_bulks as u64
        + u64::from(entries != expected_entries);
    let notes = vec![
        ("failed_warm_up", Json::from(warm.failed)),
        ("failed_window", Json::from(failed_window)),
        ("failed_writer_bulks", Json::from(writer.failed_bulks)),
        (
            "first_failure",
            first_failure.map_or(Json::Null, Json::from),
        ),
        ("entries_expected", Json::from(expected_entries)),
        ("connections", Json::from(conns)),
        ("window_samples", Json::from(samples.len())),
        ("insert_samples", Json::from(insert_ms.len())),
        (
            "setup_reps_s",
            Json::Arr(setup_times.iter().map(|&s| s.into()).collect()),
        ),
        ("tape_exchanges", Json::from(warm.tape.len())),
        (
            "tape_fetches",
            Json::from(warm.tape.len().saturating_sub(env.queries.len())),
        ),
        ("writer_bulks", Json::from(writer.ops.len())),
        (
            "writer_lateness_p95_ms",
            Json::from(percentile(&lateness_ms, 95.0)),
        ),
        (
            "writer_lateness_max_ms",
            Json::from(percentile(&lateness_ms, 100.0)),
        ),
        ("entries", Json::from(entries)),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
    })
}

/// What one traced measurement pass yields.
struct Pass {
    ops: usize,
    secs: f64,
    failed: u64,
    outs: Vec<LoopOut>,
    spans: Summary,
    raw_spans: Vec<crate::spans::Span>,
}

#[allow(clippy::too_many_arguments)]
fn traced_pass<H: Sut>(
    w: &Traced,
    env: &Env,
    oracle: &Oracle,
    dep: &Deployment<H>,
    tape: &[Exchange],
    conns: usize,
    log_on: bool,
) -> Res<Pass> {
    w.0.drain();
    w.0.set_on(log_on);
    let ran = closed_loops(
        w,
        env,
        oracle,
        dep,
        tape,
        conns,
        Until::Passes(TRACED_PASSES),
    );
    w.0.set_on(false);
    let (outs, secs) = ran?;
    let raw_spans = w.0.drain();
    Ok(Pass {
        ops: outs.iter().map(|o| o.samples.len()).sum(),
        secs,
        failed: outs
            .iter()
            .flat_map(|o| &o.samples)
            .filter(|s| !s.ok)
            .count() as u64,
        spans: summarize(&raw_spans),
        raw_spans,
        outs,
    })
}

/// One traced pass of a real client over the queries: what it produced, its
/// spans, and the time its metric spent.
fn traced_client_pass<H: Sut>(
    w: &Traced,
    env: &Env,
    oracle: &Oracle,
    dep: &Deployment<H>,
) -> Res<(LoopOut, Summary, u64)> {
    let mut client = connect(w, env, &dep.key, dep.addr())?;
    w.0.take_metric_ns();
    w.0.drain();
    w.0.set_on(true);
    let out = query_loop(
        w,
        env,
        oracle,
        &mut client,
        ReadOp::Knn,
        env.cand(),
        0,
        Until::Passes(TRACED_PASSES),
        Instant::now(),
    );
    w.0.set_on(false);
    Ok((out, summarize(&w.0.drain()), w.0.take_metric_ns()))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run: the per-layer ledger. One set-up, then passes with one
/// request in flight (and one with two, for the contention ratio only).
pub fn traced<H: Sut>(
    env: &Env,
    oracle: &Oracle,
    log: &Arc<SpanLog>,
    make: MakeServer<'_, H>,
) -> Res<Outcome> {
    let w = Traced(log.clone());
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Set-up through the decorators: insert, append and flush spans.
    log.set_on(true);
    let (dep, setup) = set_up(&w, env, make)?;
    log.set_on(false);
    let build = summarize(&log.drain());
    let io_built = dep.server.io_stats();
    let n = env.n as f64;
    let sealed_len = micro::sealed_len(env, &dep.key) as f64;
    let flushes = build.get("storage.flush");
    let flush_ms: Vec<f64> = flushes.durs.iter().map(|&d| d as f64 / 1e6).collect();
    m.insert(
        "metric.dists_per_insert",
        setup.costs.distance_computations as f64 / n,
    );
    m.insert(
        "server.handle_insert_us",
        build.get("server.handle.insert").mean_us(),
    );
    m.insert(
        "storage.append_us_per_obj",
        build.get("storage.append").dur_ns as f64 / 1e3 / n,
    );
    m.insert("storage.flush_ms_p50", percentile(&flush_ms, 50.0));
    m.insert("storage.flush_ms_max", percentile(&flush_ms, 100.0));
    m.insert(
        "storage.page_writes_per_flush",
        ratio(io_built.page_writes as f64, flushes.spans as f64),
    );
    m.insert(
        "storage.write_amp",
        (io_built.page_writes + io_built.wal_appends) as f64 * 4096.0 / (n * sealed_len),
    );

    // Warm-up: the checked, recorded client pass (spans off).
    let warm = warm_pass(&w, env, oracle, &dep)?;
    let tape = &warm.tape;
    let replay = is_replay(env.workload);

    // Tracing overhead: the same single-connection pass with spans off, then on.
    let off = traced_pass(&w, env, oracle, &dep, tape, 1, false)?;
    let search_before = dep.server.search_totals();
    let io_before = dep.server.io_stats();
    let own_before = dep.server.own_phase_ns();
    log.take_metric_ns();
    let on = traced_pass(&w, env, oracle, &dep, tape, 1, true)?;
    let metric_ns = log.take_metric_ns();
    let own_phase_ns = dep.server.own_phase_ns() - own_before;
    let search = dep.server.search_totals();
    let io = dep.server.io_stats();
    let ops = on.ops as f64;
    m.insert(
        "trace.overhead_frac",
        1.0 - ratio(on.ops as f64 / on.secs, off.ops as f64 / off.secs),
    );
    m.insert("trace.closure_ratio", on.spans.closure_ratio);

    // The client's side: from the traced pass itself, or, for the replay
    // workloads (whose window has no client in it), from a traced client pass
    // that regenerates the tape's traffic.
    let regenerated = if replay {
        Some(traced_client_pass(&w, env, oracle, &dep)?)
    } else {
        None
    };
    let (client_outs, client_spans, client_metric_ns) = match &regenerated {
        Some((out, spans, ns)) => (std::slice::from_ref(out), spans, *ns),
        None => (on.outs.as_slice(), &on.spans, metric_ns),
    };
    let costs: Vec<CostReport> = client_outs
        .iter()
        .flat_map(|o| o.knn_costs.iter().copied())
        .collect();
    let mut total = CostReport::default();
    costs.iter().for_each(|c| total.merge(c));
    let knn_ops = costs.len() as f64;
    let knn_ms: Vec<f64> = client_outs
        .iter()
        .flat_map(|o| o.knn_ms.iter().copied())
        .collect();
    let range_ms: Vec<f64> = client_outs
        .iter()
        .flat_map(|o| o.range_ms.iter().copied())
        .collect();
    let client_self_ns = client_spans
        .prefixed("client.")
        .self_ns
        .saturating_sub(client_metric_ns);
    m.insert(
        "metric.dists_per_query",
        ratio(total.distance_computations as f64, knn_ops),
    );
    m.insert(
        "crypto.unsealed_per_query",
        ratio(total.decrypted as f64, knn_ops),
    );
    m.insert(
        "crypto.early_exit_frac",
        1.0 - ratio(total.decrypted as f64, total.candidates as f64),
    );
    m.insert(
        "client.knn_self_us",
        ratio(client_self_ns as f64 / 1e3, knn_ops),
    );
    m.insert(
        "client.refine_us",
        ratio(total.decryption.as_secs_f64() * 1e6, knn_ops),
    );
    m.insert(
        "client.pivot_us",
        ratio(total.distance.as_secs_f64() * 1e6, knn_ops),
    );
    m.insert("client.range_us", mean(&range_ms) * 1e3);
    m.insert(
        "client.fetch_rtts_per_query",
        ratio(total.fetch_requests as f64, knn_ops),
    );
    m.insert(
        "client.fetched_per_query",
        ratio(total.fetched as f64, knn_ops),
    );
    m.insert("client.knn_p99_ms", percentile(&knn_ms, 99.0));
    // Over-fetch, from the warm pass (whose kNN answers are on the tape in
    // query order): fetched beyond what refinement went on to unseal.
    let tags = crate::decorators::RequestTags::default();
    let inlined: Vec<usize> = tape
        .iter()
        .filter(|e| tags.is_knn(&e.request))
        .map(|e| e.inlined)
        .collect();
    let needed: u64 = warm
        .out
        .knn_costs
        .iter()
        .zip(&inlined)
        .map(|(c, &inl)| c.decrypted.saturating_sub(inl as u64).min(c.fetched))
        .sum();
    let fetched: u64 = warm.out.knn_costs.iter().map(|c| c.fetched).sum();
    m.insert(
        "client.overfetch_frac",
        ratio(fetched.saturating_sub(needed) as f64, fetched as f64),
    );

    // Transport and server, from the spans of the traced pass.
    let handles = on.spans.prefixed("server.handle.");
    let handle_us: Vec<f64> = handles.durs.iter().map(|&d| d as f64 / 1e3).collect();
    let handle_knn_us = on.spans.get("server.handle.knn").mean_us();
    m.insert(
        "transport.rtt_self_us",
        on.spans.get("transport.round_trip").mean_self_us(),
    );
    m.insert("server.handle_knn_us", handle_knn_us);
    m.insert(
        "server.handle_range_us",
        on.spans.get("server.handle.range").mean_us(),
    );
    m.insert(
        "server.handle_fetch_us",
        on.spans.get("server.handle.fetch").mean_us(),
    );
    m.insert("server.handle_p99_us", percentile(&handle_us, 99.0));
    m.insert("server.self_us", handles.mean_self_us());
    m.insert(
        "telemetry.phase_sum_vs_handle",
        ratio(own_phase_ns as f64, handles.dur_ns as f64),
    );

    // Index and storage: the program's own counters over the traced pass.
    let scanned = (search.entries_scanned - search_before.entries_scanned) as f64;
    m.insert(
        "mindex.cells_visited",
        (search.cells_visited - search_before.cells_visited) as f64 / ops,
    );
    m.insert("mindex.entries_scanned", scanned / ops);
    m.insert(
        "mindex.generated_per_query",
        (search.candidates_generated - search_before.candidates_generated) as f64 / ops,
    );
    m.insert(
        "mindex.scanned_per_candidate",
        ratio(
            scanned,
            (search.candidates - search_before.candidates) as f64,
        ),
    );
    let reads = on.spans.prefixed("storage.read");
    let page_reads = (io.page_reads - io_before.page_reads) as f64;
    let pool_hits = (io.pool_hits - io_before.pool_hits) as f64;
    m.insert("storage.read_us_per_query", reads.dur_ns as f64 / 1e3 / ops);
    m.insert("storage.reads_per_query", reads.spans as f64 / ops);
    m.insert("storage.records_read_per_query", reads.count as f64 / ops);
    m.insert("storage.page_reads_per_query", page_reads / ops);
    m.insert(
        "storage.pool_hit_frac",
        ratio(pool_hits, pool_hits + page_reads),
    );

    // Two connections, for the contention ratio only.
    let two = traced_pass(&w, env, oracle, &dep, tape, CONNECTIONS, true)?;
    m.insert(
        "storage.read_contention_ratio",
        ratio(
            two.spans.prefixed("storage.read").mean_us(),
            reads.mean_us(),
        ),
    );

    // One request through the server's public pieces, from outside.
    let knn_requests: Vec<&[u8]> = tape
        .iter()
        .filter(|e| tags.is_knn(&e.request))
        .map(|e| e.request.as_slice())
        .collect();
    let replays: Vec<_> = knn_requests
        .iter()
        .filter_map(|r| dep.server.replay_knn(r))
        .collect();
    let avg = |f: fn(&crate::deploy::ReplayTimes) -> f64| {
        mean(&replays.iter().map(f).collect::<Vec<_>>())
    };
    let lens = dep.server.shard_lens();
    let (open_name, pull_name) = if lens.len() > 1 {
        ("shard.open_us", "shard.drain_us")
    } else {
        ("mindex.open_us", "mindex.pull_us")
    };
    m.insert("server.decode_us", avg(|r| r.decode_us));
    m.insert(open_name, avg(|r| r.open_us));
    m.insert(pull_name, avg(|r| r.pull_us));
    m.insert("server.stage_us", avg(|r| r.stage_us));
    m.insert("server.encode_us", avg(|r| r.encode_us));
    m.insert(
        "server.closure_ratio",
        ratio(avg(|r| r.total_us()), handle_knn_us),
    );
    let first_ids: Vec<u64> = tape
        .first()
        .map_or(Vec::new(), |e| e.ids.iter().take(32).copied().collect());
    let fetch_start = Instant::now();
    let fetch_ok = dep.server.fetch_entries_ok(&first_ids);
    m.insert("mindex.fetch_us", fetch_start.elapsed().as_secs_f64() * 1e6);
    let max_len = lens.iter().copied().max().unwrap_or(0) as f64;
    m.insert(
        "shard.entries_skew",
        ratio(max_len * lens.len() as f64, lens.iter().sum::<u64>() as f64),
    );
    if env.workload == Workload::ServeShard4 {
        let (handle, generated) = micro::sharded_vs_single(env, &dep, &knn_requests)?;
        m.insert("shard.handle_vs_single", handle);
        m.insert("shard.generated_vs_single", generated);
    }

    // Retries and reconnects of every connection of the measured passes.
    let nets = [&off, &on, &two].map(|p| p.outs.iter().map(|o| (o.net.retries, o.net.reconnects)));
    let (retries, reconnects) = nets
        .into_iter()
        .flatten()
        .fold((0, 0), |(r, c), (dr, dc)| (r + dr, c + dc));
    m.insert("transport.retries", retries as f64);
    m.insert("transport.reconnects", reconnects as f64);

    // Layer costs measured on their own, over this run's own data.
    let client_side = micro::client_side(env, &dep.key)?;
    m.insert("metric.dist_ns", client_side.dist_ns);
    m.insert("crypto.seal_us_per_obj", client_side.seal_us);
    m.insert("crypto.unseal_us_per_obj", client_side.unseal_us);
    m.insert(
        "mindex.insert_us_per_obj",
        (m["server.handle_insert_us"] - client_side.insert_decode_us).max(0.0)
            / crate::deploy::BUILD_BULK as f64,
    );
    let codec = micro::codec(tape, warm.sample_response.as_deref());
    m.insert("protocol.req_encode_us", codec.req_encode_us);
    m.insert("protocol.req_decode_us", codec.req_decode_us);
    m.insert("protocol.resp_encode_us", codec.resp_encode_us);
    m.insert("protocol.resp_decode_us", codec.resp_decode_us);
    m.insert("protocol.req_bytes", codec.req_bytes);
    m.insert("protocol.resp_bytes", codec.resp_bytes);
    let (echo_small, echo_large) = micro::echo_rtt()?;
    m.insert("transport.echo_rtt_us_64B", echo_small);
    m.insert("transport.echo_rtt_us_4MB", echo_large);
    m.insert("telemetry.snapshot_us", micro::snapshot_us(&w, env, &dep)?);

    let mut spans = on.raw_spans;
    spans.extend(two.raw_spans);
    let trace_file = crate::out_dir().join(format!("trace-{}.jsonl", env.workload.name()));
    crate::spans::write_jsonl(&trace_file, &spans)?;

    let metrics = crate::metrics::PER_LAYER
        .iter()
        .map(|spec| (spec.name, m.get(spec.name).copied().unwrap_or(0.0)))
        .collect();
    let attempted = warm.out.samples.len() as u64 + (off.ops + on.ops + two.ops) as u64;
    let failed = warm.failed + off.failed + on.failed + two.failed + u64::from(!fetch_ok);
    let notes = vec![
        ("traced_ops", Json::from(on.ops)),
        ("spans_written", Json::from(spans.len())),
        ("trace_file", Json::from(trace_file.display().to_string())),
        (
            "untraced_pass_ops_per_s",
            Json::from(off.ops as f64 / off.secs),
        ),
        ("traced_pass_ops_per_s", Json::from(on.ops as f64 / on.secs)),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
    })
}
