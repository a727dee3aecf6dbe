//! Load generators: closed-loop query, reader and replay loops, and the
//! open-loop writer. Each returns one [`Sample`] per operation.

use std::time::{Duration, Instant};

use crate::decorators::{response_ids, Exchange};
use crate::deploy::{Client, Sut, Wiring};
use crate::oracle::Oracle;
use crate::spans::Layer;
use crate::stats::OpenLoopOp;
use crate::sut::{CostReport, Neighbor, ObjectId, Transport, TransportStats, Vector};
use crate::{Env, K};

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start and completion, seconds since the window opened (throughput).
    pub start: f64,
    pub at: f64,
    /// The latency that goes into the percentiles. For the `ingest_rw`
    /// reader this is the kNN half of the operation: a range query's cost
    /// varies several-fold from query to query, so with a hundred queries
    /// the tail of kNN + range is set by the five heaviest ranges of the
    /// seed's data, not by the system. The range half still runs, is checked
    /// and is part of the operation's throughput.
    pub ms: f64,
    pub ok: bool,
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// This long after the window opened.
    Seconds(f64),
    /// This many passes over the hundred queries (or the tape).
    Passes(usize),
}

impl Until {
    fn reached(&self, ops: usize, per_pass: usize, opened: Instant) -> bool {
        match *self {
            Until::Seconds(s) => opened.elapsed().as_secs_f64() >= s,
            Until::Passes(p) => ops >= p * per_pass,
        }
    }
}

/// What a client loop produced.
#[derive(Debug, Default)]
pub struct LoopOut {
    pub samples: Vec<Sample>,
    /// Latency of the kNN half and the range half of reader operations.
    pub knn_ms: Vec<f64>,
    pub range_ms: Vec<f64>,
    /// Cost report of each kNN operation, in order.
    pub knn_costs: Vec<CostReport>,
    /// First kNN answer per query index.
    pub answers: Vec<Option<Vec<Neighbor>>>,
    /// Oracle neighbours found, over the first answer of each query.
    pub hits: usize,
    /// The connection's transport statistics when the loop ended.
    pub net: TransportStats,
    /// What the first failed operation got wrong, for the result file.
    pub first_failure: Option<String>,
}

/// What each reader operation does after its kNN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadOp {
    /// `knn_approx` only (the `knn_mem` operation).
    Knn,
    /// `knn_approx` then `range(q, r_q)` (the `ingest_rw` reader).
    KnnThenRange,
}

/// Closed loop of full client queries, starting at query `offset`; every
/// answer is checked against the oracle.
#[allow(clippy::too_many_arguments)]
pub fn query_loop<W: Wiring, T: Transport>(
    w: &W,
    env: &Env,
    oracle: &Oracle,
    client: &mut Client<W, T>,
    op: ReadOp,
    cand: usize,
    offset: usize,
    until: Until,
    opened: Instant,
) -> LoopOut {
    let queries = &env.queries;
    let mut out = LoopOut {
        answers: vec![None; queries.len()],
        ..LoopOut::default()
    };
    let mut ops = 0;
    while !until.reached(ops, queries.len(), opened) {
        let qi = (offset + ops) % queries.len();
        let q = &queries[qi];
        ops += 1;
        if let Some(log) = w.log() {
            log.set_query(qi as u32);
        }
        let start = opened.elapsed().as_secs_f64();
        let op_start = Instant::now();
        let knn = {
            let _span = w.log().and_then(|l| l.enter("client.knn", Layer::Client));
            client.knn_approx(q, K, cand)
        };
        let knn_ms = op_start.elapsed().as_secs_f64() * 1e3;
        out.knn_ms.push(knn_ms);
        let mut failure = None;
        match &knn {
            Ok((res, costs)) => {
                out.knn_costs.push(*costs);
                if out.answers[qi].is_none() {
                    out.hits += oracle.hits(qi, res);
                    out.answers[qi] = Some(res.clone());
                }
                if !oracle.knn_ok(env, qi, res) {
                    let head: Vec<_> = res.iter().take(3).collect();
                    failure = Some(format!(
                        "query {qi}: kNN answer of {} starts {head:?}",
                        res.len()
                    ));
                }
            }
            Err(e) => failure = Some(format!("query {qi}: kNN failed: {e}")),
        }
        if op == ReadOp::KnnThenRange {
            let t = Instant::now();
            let range = {
                let _span = w.log().and_then(|l| l.enter("client.range", Layer::Client));
                client.range(q, oracle.radius(qi))
            };
            out.range_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match range {
                Ok((res, _)) if oracle.range_ok(qi, &res) => {}
                Ok((res, _)) => {
                    let ids: Vec<u64> = res.iter().map(|n| n.0 .0).collect();
                    failure.get_or_insert(format!("query {qi}: range answer {ids:?}"));
                }
                Err(e) => {
                    failure.get_or_insert(format!("query {qi}: range failed: {e}"));
                }
            }
        }
        out.samples.push(Sample {
            start,
            at: opened.elapsed().as_secs_f64(),
            ms: knn_ms,
            ok: failure.is_none(),
        });
        if out.first_failure.is_none() {
            out.first_failure = failure;
        }
    }
    out.net = client.transport().stats();
    out
}

/// Closed loop of thin replay: the recorded request bytes through
/// `Transport::round_trip`; answers are decoded and shape-checked and must
/// carry the recorded ids, never unsealed. The latency is the round trip's.
pub fn replay_loop<W: Wiring, T: Transport>(
    w: &W,
    transport: &mut T,
    tape: &[Exchange],
    offset: usize,
    until: Until,
    opened: Instant,
) -> LoopOut {
    let mut samples = Vec::new();
    let mut first_failure = None;
    let mut ops = 0;
    while !until.reached(ops, tape.len(), opened) {
        let i = (offset + ops) % tape.len();
        let exchange = &tape[i];
        ops += 1;
        if let Some(log) = w.log() {
            log.set_query(i as u32);
        }
        let start = opened.elapsed().as_secs_f64();
        let t = Instant::now();
        let response = transport.round_trip(&exchange.request);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let at = opened.elapsed().as_secs_f64();
        let ok = response.is_ok_and(|bytes| {
            bytes.len() == exchange.response_len
                && response_ids(&bytes).is_ok_and(|(ids, _)| ids == exchange.ids)
        });
        samples.push(Sample { start, at, ms, ok });
        if !ok && first_failure.is_none() {
            first_failure = Some(format!(
                "exchange {i}: the replayed answer is not the recorded one"
            ));
        }
    }
    LoopOut {
        samples,
        net: transport.stats(),
        first_failure,
        ..LoopOut::default()
    }
}

/// Objects per `insert_bulk` of the open-loop writer.
pub const WRITER_BULK: usize = 100;
/// The writer's fixed rate, objects per second.
pub const WRITER_RATE: f64 = 2000.0;
#[derive(Debug, Default)]
pub struct WriterOut {
    pub ops: Vec<OpenLoopOp>,
    pub acked_objects: usize,
    pub failed_bulks: usize,
}

/// Open-loop writer: bulk `i` is due at `i × WRITER_BULK / WRITER_RATE`
/// whatever happened to the bulks before it, and is timed from that due
/// time. Every bulk due inside the window is sent, however late. The server
/// commits after every bulk, as in the build (see `deploy::build`): a flush
/// only now and then stalls a few percent of the reader's and the writer's
/// operations, right where a 95th percentile is read, and the percentile
/// flips between the two modes from seed to seed.
pub fn writer_loop<H: Sut, W: Wiring, T: Transport>(
    client: &mut Client<W, T>,
    server: &H,
    fresh: &[(ObjectId, Vector)],
    window_s: f64,
    opened: Instant,
) -> WriterOut {
    let mut out = WriterOut::default();
    let period = WRITER_BULK as f64 / WRITER_RATE;
    for (i, bulk) in fresh.chunks(WRITER_BULK).enumerate() {
        let due = i as f64 * period;
        if due >= window_s {
            break;
        }
        if let Some(wait) = Duration::from_secs_f64(due).checked_sub(opened.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = opened.elapsed().as_secs_f64();
        let ok = client.insert_bulk(bulk).is_ok() && server.flush().is_ok();
        let done = opened.elapsed().as_secs_f64();
        out.ops.push(OpenLoopOp { due, sent, done });
        if ok {
            out.acked_objects += bulk.len();
        } else {
            out.failed_bulks += 1;
        }
    }
    out
}
