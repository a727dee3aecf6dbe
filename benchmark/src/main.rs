//! The repository's benchmark: four named workloads over the encrypted
//! M-Index served on TCP loopback, an end-to-end scoreboard from an
//! untraced run and a per-layer ledger from a separate traced run.
//! See `README.md` next to this package.
//!
//! ```text
//! simcloud-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! simcloud-benchmark all [--seed <n>] [--runs <r>] [--quick] [--out <file>]
//! simcloud-benchmark compare <parent.json> <change.json>
//! ```

mod decorators;
mod deploy;
mod json;
mod load;
mod metrics;
mod micro;
mod oracle;
mod report;
mod spans;
mod stats;
mod sut;
mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use decorators::TracedStore;
use json::Json;
use oracle::Oracle;
use spans::SpanLog;
use sut::{
    cophir_like, CloudServer, DatasetMetric, DiskStore, HashRouter, MIndexConfig, MemoryStore,
    ObjectId, QueryWorkload, ServerConfig, ShardedCloudServer, Vector,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Collection size. The paper's CoPhIR runs use 200 000 and up; the driver's
/// cap on the whole series of runs (92 of them, three set-ups each) leaves
/// room for a quarter of that. One size for all four workloads.
pub const N: usize = 50_000;
/// Collection size of `--quick`, the smoke mode.
pub const QUICK_N: usize = 5_000;
/// The timed window the driver asks for (`run_seconds` in BENCHMARK.json).
pub const RUN_SECONDS: f64 = 10.0;
/// The window is cut into this many sub-windows; throughput is their median.
pub const SUB_WINDOWS: usize = 10;
pub const PIVOTS: usize = 100;
pub const K: usize = 30;
pub const QUERIES: usize = 100;
/// Closed-loop connections, capped by the cores there are.
pub const CONNECTIONS: usize = 2;
/// Timed set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
pub const SHARDS: usize = 4;
/// `serve_disk`'s phase-1 inline budget.
pub const DISK_INLINE_BUDGET: usize = 256 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KnnMem,
    ServeShard4,
    ServeDisk,
    IngestRw,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::KnnMem,
        Workload::ServeShard4,
        Workload::ServeDisk,
        Workload::IngestRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KnnMem => "knn_mem",
            Workload::ServeShard4 => "serve_shard4",
            Workload::ServeDisk => "serve_disk",
            Workload::IngestRw => "ingest_rw",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything a run is given: the arguments and the inputs generated from
/// the seed. The program under test only ever sees these inputs.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub n: usize,
    pub metric: DatasetMetric,
    /// The initial collection; object `i` has id `i`.
    pub data: Vec<Vector>,
    pub queries: Vec<Vector>,
    /// The open-loop writer's objects (ids from `n` up), `ingest_rw` only.
    pub fresh: Vec<(ObjectId, Vector)>,
    pub gen_s: f64,
}

impl Env {
    fn generate(workload: Workload, seed: u64, seconds: f64, n: usize) -> Self {
        let start = Instant::now();
        let dataset = cophir_like(seed, n);
        let queries = QueryWorkload::members(&dataset.vectors, QUERIES, seed).queries;
        let fresh = if workload == Workload::IngestRw {
            let wanted = (seconds * load::WRITER_RATE).ceil() as usize;
            let ids = (n as u64..).map(ObjectId);
            ids.zip(cophir_like(seed + 1, wanted).vectors).collect()
        } else {
            Vec::new()
        };
        Self {
            workload,
            seed,
            seconds,
            n,
            metric: dataset.metric,
            data: dataset.vectors,
            queries,
            fresh,
            gen_s: start.elapsed().as_secs_f64(),
        }
    }

    /// A small hand-made environment (L1 metric) for the unit tests.
    #[cfg(test)]
    pub fn for_tests(data: Vec<Vector>, queries: Vec<Vector>) -> Self {
        Self {
            workload: Workload::KnnMem,
            seed: 0,
            seconds: 1.0,
            n: data.len(),
            metric: DatasetMetric::L1,
            data,
            queries,
            fresh: Vec::new(),
            gen_s: 0.0,
        }
    }

    /// The object with this id: initial collection first, then the writer's.
    pub fn object(&self, id: u64) -> Option<&Vector> {
        let id = usize::try_from(id).ok()?;
        self.data
            .get(id)
            .or_else(|| self.fresh.get(id - self.n).map(|(_, v)| v))
    }

    /// Candidate budget of the workload's kNN requests: 2 % of the
    /// collection (the paper's Table 6 point), 1 % for the mixed reader;
    /// never below 4·k, which only the smoke size reaches.
    pub fn cand(&self) -> usize {
        let share = match self.workload {
            Workload::IngestRw => self.n / 100,
            _ => self.n / 50,
        };
        share.max(4 * K)
    }
}

/// The benchmark's scratch and result directory, inside its own package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Closed-loop connections of a window: one thread each, no more than cores.
pub fn connections() -> usize {
    CONNECTIONS.min(cores())
}

/// What one run produced.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Provenance and diagnostics for the result file.
    pub notes: Vec<(&'static str, Json)>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

/// The value following `flag` on the command line.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let workload = flag_value(args, "--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = flag_value(args, "--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = match flag_value(args, "--seconds") {
        Some(s) => s.parse().map_err(|e| format!("--seconds: {e}"))?,
        None if quick => 2.0,
        None => RUN_SECONDS,
    };
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let trace = match flag_value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// Runs one workload once and prints its result line.
fn run_one(args: &Args) -> Res<()> {
    let n = if args.quick { QUICK_N } else { N };
    let env = Env::generate(args.workload, args.seed, args.seconds, n);
    let oracle = Oracle::build(&env.data, &env.queries, &env.metric, connections());
    std::fs::create_dir_all(deploy::data_dir())?;
    let outcome = dispatch(&env, &oracle, args.trace);
    // The disk stores are scratch: gone whether the run worked or not.
    let _ = std::fs::remove_dir_all(deploy::data_dir());
    let outcome = outcome?;
    let result = report::result_json(&env, &oracle, args.trace, args.quick, &outcome);
    report::print_human(&env, args.trace, &outcome);
    report::write_result_file(&env, args.trace, args.quick, &result)?;
    println!("{}", report::driver_line(&outcome).render());
    Ok(())
}

/// Picks the deployment of the workload and hands it to the untraced or
/// the traced run. The untraced run sees no decorator of any kind.
fn dispatch(env: &Env, oracle: &Oracle, trace: bool) -> Res<Outcome> {
    let config = MIndexConfig::cophir();
    let disk_path = || {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let i = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        deploy::data_dir().join(format!(
            "{}-{}-{i}.db",
            env.workload.name(),
            std::process::id()
        ))
    };
    let disk_config = match env.workload {
        Workload::ServeDisk => ServerConfig::budgeted(DISK_INLINE_BUDGET),
        _ => ServerConfig::default(),
    };
    let log = Arc::new(SpanLog::default());
    fn traced_store<S>(inner: S, log: &Arc<SpanLog>) -> TracedStore<S> {
        TracedStore {
            inner,
            log: log.clone(),
        }
    }
    match (env.workload, trace) {
        (Workload::KnnMem, false) => workloads::untraced(env, oracle, &|| {
            Ok((
                Arc::new(CloudServer::new(config, MemoryStore::new())?),
                None,
            ))
        }),
        (Workload::KnnMem, true) => workloads::traced(env, oracle, &log, &|| {
            Ok((
                Arc::new(CloudServer::new(
                    config,
                    traced_store(MemoryStore::new(), &log),
                )?),
                None,
            ))
        }),
        (Workload::ServeShard4, false) => workloads::untraced(env, oracle, &|| {
            let stores = (0..SHARDS).map(|_| MemoryStore::new()).collect();
            let server = ShardedCloudServer::new(config, Box::new(HashRouter), stores)?;
            Ok((Arc::new(server), None))
        }),
        (Workload::ServeShard4, true) => workloads::traced(env, oracle, &log, &|| {
            let stores = (0..SHARDS)
                .map(|_| traced_store(MemoryStore::new(), &log))
                .collect();
            let server = ShardedCloudServer::new(config, Box::new(HashRouter), stores)?;
            Ok((Arc::new(server), None))
        }),
        (Workload::ServeDisk | Workload::IngestRw, false) => {
            workloads::untraced(env, oracle, &|| {
                let path = disk_path();
                let store = DiskStore::create(&path)?;
                let server = CloudServer::with_config(config, disk_config, store)?;
                Ok((Arc::new(server), Some(path)))
            })
        }
        (Workload::ServeDisk | Workload::IngestRw, true) => {
            workloads::traced(env, oracle, &log, &|| {
                let path = disk_path();
                let store = traced_store(DiskStore::create(&path)?, &log);
                let server = CloudServer::with_config(config, disk_config, store)?;
                Ok((Arc::new(server), Some(path)))
            })
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => report::compare_command(&args[1..]),
        Some("all") => report::all_command(&args[1..]),
        _ => parse_run_args(&args)
            .map_err(Into::into)
            .and_then(|a| run_one(&a).map(|()| true)),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("simcloud-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
