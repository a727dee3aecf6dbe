//! Experiment implementations — one function per paper table group.
//!
//! Every function returns structured rows; the `repro` binary renders them
//! in the paper's table layout. Seeds are fixed so runs are reproducible.
//!
//! Every encrypted deployment is built by [`outsource`], every encrypted
//! k-NN column is one query loop averaged into a [`SearchRow`], and every
//! exact answer set is one ground-truth pass on every core: experiments
//! differ only in the server, the client configuration and the seeds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use simcloud_core::{
    costs::timed, ClientConfig, CloudServer, CostReport, EncryptedClient, SecretKey,
};
use simcloud_datasets::{
    parallel_knn_ground_truth, Dataset, DatasetMetric, GroundTruth, QueryWorkload,
};
use simcloud_metric::{Metric, ObjectId, PivotSelection, Vector};
use simcloud_mindex::{MIndexConfig, PlainMIndex, RoutingStrategy, FIRST_CELL_ONLY};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::{InProcessTransport, NetworkModel, SharedRequestHandler, Transport};

use simcloud_baselines::{
    ehi::EhiConfig, fdh::FdhConfig, mpt::MptConfig, EhiScheme, FdhScheme, MptScheme, SecureScheme,
    TrivialScheme,
};

/// Which of the paper's datasets an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// YEAST (Table 1 row 1).
    Yeast,
    /// HUMAN (Table 1 row 2).
    Human,
    /// CoPhIR (Table 1 row 3).
    Cophir,
}

impl Which {
    /// Generates the dataset at the requested cardinality.
    pub fn dataset(self, n: usize, seed: u64) -> Dataset {
        match self {
            Which::Yeast => simcloud_datasets::yeast_like(seed, Some(n)),
            Which::Human => simcloud_datasets::human_like(seed, Some(n)),
            Which::Cophir => simcloud_datasets::cophir_like(seed, n),
        }
    }
}

/// A metric wrapper that accumulates wall time spent in `distance` — used
/// to attribute server-side distance-computation time in the plain-index
/// experiments (the paper's Tables 4, 7, 8 break this out).
pub struct TimedMetric<M> {
    inner: M,
    nanos: std::sync::atomic::AtomicU64,
}

impl<M> std::fmt::Debug for TimedMetric<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedMetric").finish_non_exhaustive()
    }
}

impl<M> TimedMetric<M> {
    /// Wraps a metric.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            nanos: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Accumulated time in `distance`.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Resets the accumulator.
    pub fn reset(&self) {
        self.nanos.store(0, std::sync::atomic::Ordering::Relaxed);
    }
}

impl<M: Metric<Vector>> Metric<Vector> for TimedMetric<M> {
    fn distance(&self, a: &Vector, b: &Vector) -> f64 {
        let t = Instant::now();
        let d = self.inner.distance(a, b);
        self.nanos.fetch_add(
            t.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        d
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Pairs each vector with its zero-based [`ObjectId`] — the id assignment
/// of every deployment in the harness, defined once so every experiment
/// indexes identically.
fn id_objects(vectors: &[Vector]) -> Vec<(ObjectId, Vector)> {
    vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect()
}

/// Bulk size of the paper's construction phase (§5.2).
pub const BULK: usize = 1000;

/// Outsources `vectors` the one way every encrypted deployment of the
/// harness is built: a key of `num_pivots` random pivots drawn with
/// `key_seed`, a client over `transport` whose IV stream is seeded with
/// `iv_seed`, and bulk inserts of [`BULK`] objects with ids `0..n`.
/// Returns the client and the summed cost of the construction.
pub fn outsource<T: Transport>(
    vectors: &[Vector],
    metric: &DatasetMetric,
    num_pivots: usize,
    transport: T,
    config: ClientConfig,
    (key_seed, iv_seed): (u64, u64),
) -> (EncryptedClient<DatasetMetric, T>, CostReport) {
    let (key, _) = SecretKey::generate(
        vectors,
        num_pivots,
        metric,
        PivotSelection::Random,
        key_seed,
    );
    let mut cloud =
        EncryptedClient::new(key, metric.clone(), transport, config).with_rng_seed(iv_seed);
    let mut build = CostReport::default();
    for chunk in id_objects(vectors).chunks(BULK) {
        build.merge(&cloud.insert_bulk(chunk).expect("insert"));
    }
    (cloud, build)
}

/// An in-process transport to a fresh single-index server.
fn in_memory(cfg: MIndexConfig) -> InProcessTransport<CloudServer<MemoryStore>> {
    InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("valid config"))
}

/// Exact k-NN of every query over `data`, on every core.
fn truth(data: &[Vector], queries: &[Vector], metric: &DatasetMetric, k: usize) -> GroundTruth {
    let threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    parallel_knn_ground_truth(data, queries, metric, k, threads)
}

// ---------------------------------------------------------------------
// Tables 3 & 4: index construction
// ---------------------------------------------------------------------

/// Encrypted M-Index construction (Table 3): bulk inserts of 1000 through
/// the encryption client.
pub fn construction_encrypted(ds: &Dataset, seed: u64) -> CostReport {
    let cfg = dataset_config(ds);
    let (_, build) = outsource(
        &ds.vectors,
        &ds.metric,
        cfg.num_pivots,
        in_memory(cfg),
        ClientConfig::distances(),
        (seed, seed ^ 1),
    );
    build
}

/// Basic (non-encrypted) M-Index construction (Table 4): the client ships
/// raw vectors; the server computes pivot distances and builds the index.
pub fn construction_plain(ds: &Dataset, seed: u64) -> CostReport {
    let cfg = dataset_config(ds);
    let pivots = simcloud_metric::select_pivots(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let metric = TimedMetric::new(ds.metric.clone());
    let mut index = PlainMIndex::new(cfg, pivots, metric, MemoryStore::new()).expect("config");
    let model = NetworkModel::loopback();
    let mut costs = CostReport::default();

    // Client side: serialize the raw vectors per bulk.
    let mut bulks: Vec<Vec<u8>> = Vec::new();
    timed(&mut costs.client, || {
        for chunk in ds.vectors.chunks(BULK) {
            let mut buf = Vec::new();
            for v in chunk {
                v.encode(&mut buf);
            }
            bulks.push(buf);
        }
    });
    for b in &bulks {
        costs.bytes_sent += (b.len() + 4) as u64;
        costs.bytes_received += 5 + 4; // ack
        costs.communication += model.transfer_time((b.len() + 4) as u64) + model.transfer_time(9);
    }
    // Server side: distance computations + tree building.
    let t = Instant::now();
    for (i, v) in ds.vectors.iter().enumerate() {
        index.insert(ObjectId(i as u64), v).expect("insert");
    }
    costs.server = t.elapsed();
    // Attribute the distance-computation share (Table 4's sub-row).
    costs.distance = index.metric().inner().elapsed();
    costs.distance_computations = index.distance_computations();
    costs
}

/// The paper's M-Index parameters for a generated dataset (Table 2),
/// matched by name.
///
/// # Panics
///
/// If `ds` is not one of the three generated datasets.
pub fn dataset_config(ds: &Dataset) -> MIndexConfig {
    match ds.name.as_str() {
        "YEAST" => MIndexConfig::yeast(),
        "HUMAN" => MIndexConfig::human(),
        "CoPhIR" => MIndexConfig::cophir(),
        other => panic!("no Table 2 parameters for dataset {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Tables 5–8: approximate k-NN search
// ---------------------------------------------------------------------

/// One column of a search table.
#[derive(Debug, Clone)]
pub struct SearchRow {
    /// Candidate set size requested.
    pub cand_size: usize,
    /// Per-query average costs.
    pub costs: CostReport,
    /// Mean recall over the query batch (%).
    pub recall: f64,
}

/// Runs every query as an encrypted approximate k-NN at `cand_size` and
/// averages the costs and the recall against `truth`.
fn knn_row<T: Transport>(
    cloud: &mut EncryptedClient<DatasetMetric, T>,
    queries: &[Vector],
    truth: &GroundTruth,
    k: usize,
    cand_size: usize,
) -> SearchRow {
    let mut total = CostReport::default();
    let mut answers = Vec::with_capacity(queries.len());
    for q in queries {
        let (res, costs) = cloud.knn_approx(q, k, cand_size).expect("search");
        total.merge(&costs);
        answers.push(res);
    }
    SearchRow {
        cand_size,
        costs: total.averaged(queries.len() as u32),
        recall: truth.mean_recall(&answers),
    }
}

/// Encrypted M-Index approximate k-NN sweep (Tables 5 and 6) against a
/// single index (`shards <= 1`) or the collection spread over `shards`
/// hash-routed shards: same key derivation, same workload and ground
/// truth, same wire — only the server's construction differs, so
/// `repro --shards N` rows are comparable to the single-index tables by
/// construction.
pub fn search_encrypted(
    ds: &Dataset,
    cand_sizes: &[usize],
    queries: usize,
    k: usize,
    seed: u64,
    shards: usize,
) -> Vec<SearchRow> {
    let cfg = dataset_config(ds);
    let server: Arc<dyn SharedRequestHandler> = if shards <= 1 {
        Arc::new(CloudServer::new(cfg, MemoryStore::new()).expect("valid config"))
    } else {
        let stores = (0..shards).map(|_| MemoryStore::new()).collect();
        Arc::new(ShardedCloudServer::new(cfg, Box::new(HashRouter), stores).expect("valid config"))
    };
    let (mut cloud, _) = outsource(
        &ds.vectors,
        &ds.metric,
        cfg.num_pivots,
        InProcessTransport::new(server),
        ClientConfig::distances(),
        (seed, seed ^ 2),
    );
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 3);
    let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
    cand_sizes
        .iter()
        .map(|&cand| knn_row(&mut cloud, &workload.queries, &truth, k, cand))
        .collect()
}

/// Basic (non-encrypted) M-Index approximate k-NN sweep (Tables 7 and 8):
/// the search runs fully server-side and only the k result objects travel
/// back.
pub fn search_plain(
    ds: &Dataset,
    cand_sizes: &[usize],
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<SearchRow> {
    let cfg = dataset_config(ds);
    let pivots = simcloud_metric::select_pivots(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let metric = TimedMetric::new(ds.metric.clone());
    let mut index = PlainMIndex::new(cfg, pivots, metric, MemoryStore::new()).expect("config");
    for (i, v) in ds.vectors.iter().enumerate() {
        index.insert(ObjectId(i as u64), v).expect("insert");
    }
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 3);
    let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
    let model = NetworkModel::loopback();
    let per_obj_bytes = ds.vectors[0].encoded_len() as u64 + 8; // object + id
    let mut rows = Vec::new();
    for &cand in cand_sizes {
        let mut total = CostReport::default();
        let mut answers = Vec::with_capacity(workload.len());
        for q in &workload.queries {
            let mut costs = CostReport::default();
            index.metric().inner().reset();
            let dc_before = index.distance_computations();
            let t = Instant::now();
            let (res, _) = index.knn_approx(q, k, cand).expect("search");
            costs.server = t.elapsed();
            // Distance time (pivot distances + refinement) is server-side
            // here — Tables 7/8 report it as a server sub-row.
            costs.distance = index.metric().inner().elapsed();
            costs.distance_computations = index.distance_computations() - dc_before;
            // Request: query object + parameters; response: k result objects.
            costs.bytes_sent = q.encoded_len() as u64 + 4 + 12;
            costs.bytes_received = res.len() as u64 * per_obj_bytes + 4;
            costs.communication =
                model.transfer_time(costs.bytes_sent) + model.transfer_time(costs.bytes_received);
            total.merge(&costs);
            answers.push(res);
        }
        rows.push(SearchRow {
            cand_size: cand,
            costs: total.averaged(workload.len() as u32),
            recall: truth.mean_recall(&answers),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Table 9: 1-NN comparison with EHI / MPT / FDH / trivial
// ---------------------------------------------------------------------

/// One scheme's Table 9 column.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Scheme name.
    pub name: &'static str,
    /// Per-query average costs.
    pub costs: CostReport,
    /// Construction cost (total).
    pub build: CostReport,
    /// 1-NN recall (% of queries whose true NN was returned).
    pub recall: f64,
    /// Whether the scheme's k-NN is exact by construction.
    pub exact: bool,
}

/// Approximate 1-NN comparison on held-out queries (paper §5.4): the
/// Encrypted M-Index restricted to a single Voronoi cell versus the
/// baselines.
pub fn comparison_1nn(ds: &Dataset, queries: usize, seed: u64) -> Vec<ComparisonRow> {
    let workload = QueryWorkload::held_out(&ds.vectors, queries, seed ^ 40);
    let truth = truth(&workload.indexed, &workload.queries, &ds.metric, 1);

    // --- Encrypted M-Index, single-cell candidate sets -----------------
    let cfg = dataset_config(ds);
    let (mut cloud, build) = outsource(
        &workload.indexed,
        &ds.metric,
        cfg.num_pivots,
        in_memory(cfg),
        ClientConfig::distances(),
        (seed, seed ^ 41),
    );
    let row = knn_row(&mut cloud, &workload.queries, &truth, 1, FIRST_CELL_ONLY);
    let mut rows = vec![ComparisonRow {
        name: "Encrypted M-Index",
        costs: row.costs,
        build,
        recall: row.recall,
        exact: false,
    }];

    // --- Baselines -------------------------------------------------------
    let indexed = id_objects(&workload.indexed);
    let schemes: Vec<Box<dyn SecureScheme>> = {
        let mk_key = |s: u64| {
            SecretKey::generate(&workload.indexed, 2, &ds.metric, PivotSelection::Random, s).0
        };
        vec![
            Box::new(EhiScheme::new(
                mk_key(seed ^ 50),
                ds.metric.clone(),
                EhiConfig::default(),
                seed ^ 51,
            )),
            Box::new(MptScheme::new(
                mk_key(seed ^ 52),
                ds.metric.clone(),
                MptConfig::default(),
                seed ^ 53,
            )),
            Box::new(FdhScheme::new(
                mk_key(seed ^ 54),
                ds.metric.clone(),
                FdhConfig {
                    bits: 16,
                    // Match the Encrypted M-Index's average single-cell
                    // candidate volume for a fair recall comparison.
                    min_candidates: 42,
                },
                seed ^ 55,
            )),
            Box::new(TrivialScheme::new(
                mk_key(seed ^ 56),
                ds.metric.clone(),
                seed ^ 57,
            )),
        ]
    };
    for mut scheme in schemes {
        let build = scheme.build(&indexed).expect("build");
        let mut total = CostReport::default();
        let mut answers = Vec::with_capacity(workload.len());
        for q in &workload.queries {
            let (res, costs) = scheme.knn(q, 1).expect("search");
            total.merge(&costs);
            answers.push(res);
        }
        rows.push(ComparisonRow {
            name: scheme.name(),
            costs: total.averaged(workload.len() as u32),
            build,
            recall: truth.mean_recall(&answers),
            exact: scheme.is_exact(),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Pivot-count sweep on YEAST: recall & costs at fixed CandSize.
pub fn ablation_pivots(
    ds: &Dataset,
    pivot_counts: &[usize],
    cand_size: usize,
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<(usize, SearchRow)> {
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 60);
    let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
    pivot_counts
        .iter()
        .map(|&np| {
            let mut cfg = dataset_config(ds);
            cfg.num_pivots = np;
            cfg.max_level = cfg.max_level.min(np);
            let (mut cloud, _) = outsource(
                &ds.vectors,
                &ds.metric,
                np,
                in_memory(cfg),
                ClientConfig::distances(),
                (seed, seed ^ 61),
            );
            let row = knn_row(&mut cloud, &workload.queries, &truth, k, cand_size);
            (np, row)
        })
        .collect()
}

/// Distances-vs-permutation routing comparison (privacy/efficiency trade of
/// §4.2): identical queries under the two strategies.
pub fn ablation_strategy(
    ds: &Dataset,
    cand_size: usize,
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<(&'static str, SearchRow)> {
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 70);
    let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
    [
        (
            "distances",
            RoutingStrategy::Distances,
            ClientConfig::distances(),
        ),
        (
            "permutation",
            RoutingStrategy::Permutation,
            ClientConfig::permutations(),
        ),
    ]
    .into_iter()
    .map(|(label, strategy, client_cfg)| {
        let mut cfg = dataset_config(ds);
        cfg.strategy = strategy;
        let (mut cloud, _) = outsource(
            &ds.vectors,
            &ds.metric,
            cfg.num_pivots,
            in_memory(cfg),
            client_cfg,
            (seed, seed ^ 71),
        );
        let row = knn_row(&mut cloud, &workload.queries, &truth, k, cand_size);
        (label, row)
    })
    .collect()
}

/// Level-4 distance-transformation ablation: candidate inflation on range
/// queries at equal exactness.
pub fn ablation_transform(
    ds: &Dataset,
    radii_quantiles: &[f64],
    queries: usize,
    seed: u64,
) -> Vec<(f64, u64, u64)> {
    use simcloud_core::DistanceTransform;
    use simcloud_metric::analysis::DistanceHistogram;
    let cfg = dataset_config(ds);
    let hist = DistanceHistogram::sample(&ds.vectors, &ds.metric, 2000, 64, seed ^ 80);
    let d_max = hist.stats().max * 1.5;
    let transform = DistanceTransform::from_seed(seed ^ 81, d_max, 8);
    let deploy = |config, iv_seed| {
        let seeds = (seed, iv_seed);
        outsource(
            &ds.vectors,
            &ds.metric,
            cfg.num_pivots,
            in_memory(cfg),
            config,
            seeds,
        )
        .0
    };
    let mut base = deploy(ClientConfig::distances(), seed ^ 82);
    let mut transformed = deploy(
        ClientConfig::distances().with_transform(transform),
        seed ^ 83,
    );
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 84);
    let mut out = Vec::new();
    for &quant in radii_quantiles {
        let radius = hist.quantile(quant);
        let mut base_cands = 0u64;
        let mut tr_cands = 0u64;
        for q in &workload.queries {
            let (b_res, b_costs) = base.range(q, radius).expect("range");
            let (t_res, t_costs) = transformed.range(q, radius).expect("range");
            assert_eq!(
                b_res.iter().map(|x| x.0).collect::<Vec<_>>(),
                t_res.iter().map(|x| x.0).collect::<Vec<_>>(),
                "transform must not change results"
            );
            base_cands += b_costs.candidates;
            tr_cands += t_costs.candidates;
        }
        out.push((
            radius,
            base_cands / queries as u64,
            tr_cands / queries as u64,
        ));
    }
    out
}

/// k sweep (the paper: "We varied the parameter k but the results were
/// similar and we present only results for k = 30").
pub fn ablation_k(
    ds: &Dataset,
    ks: &[usize],
    cand_size: usize,
    queries: usize,
    seed: u64,
) -> Vec<(usize, f64)> {
    let cfg = dataset_config(ds);
    let (mut cloud, _) = outsource(
        &ds.vectors,
        &ds.metric,
        cfg.num_pivots,
        in_memory(cfg),
        ClientConfig::distances(),
        (seed, seed ^ 90),
    );
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 91);
    ks.iter()
        .map(|&k| {
            let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
            let row = knn_row(&mut cloud, &workload.queries, &truth, k, cand_size);
            (k, row.recall)
        })
        .collect()
}

/// Network-model ablation: overall time of encrypted vs plain search when
/// the similarity cloud moves from loopback to LAN to WAN.
pub fn ablation_network(
    ds: &Dataset,
    cand_size: usize,
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<(&'static str, Duration, Duration)> {
    let cfg = dataset_config(ds);
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 95);
    let truth = truth(&ds.vectors, &workload.queries, &ds.metric, k);
    [
        ("loopback", NetworkModel::loopback()),
        ("lan", NetworkModel::lan()),
        ("wan", NetworkModel::wan()),
    ]
    .into_iter()
    .map(|(label, model)| {
        let server = CloudServer::new(cfg, MemoryStore::new()).expect("valid config");
        let (mut cloud, _) = outsource(
            &ds.vectors,
            &ds.metric,
            cfg.num_pivots,
            InProcessTransport::with_model(server, model),
            ClientConfig::distances(),
            (seed, seed ^ 96),
        );
        let costs = knn_row(&mut cloud, &workload.queries, &truth, k, cand_size).costs;
        // Plain comparison: k objects over the same model.
        let per_obj = ds.vectors[0].encoded_len() as u64 + 8;
        let plain_comm = model.transfer_time(ds.vectors[0].encoded_len() as u64 + 16)
            + model.transfer_time(k as u64 * per_obj + 4);
        (label, costs.overall(), costs.server + plain_comm)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_config_maps_the_generated_datasets_to_table_2() {
        for (which, cfg) in [
            (Which::Yeast, MIndexConfig::yeast()),
            (Which::Human, MIndexConfig::human()),
            (Which::Cophir, MIndexConfig::cophir()),
        ] {
            assert_eq!(dataset_config(&which.dataset(50, 1)), cfg);
        }
    }

    #[test]
    #[should_panic(expected = "no Table 2 parameters for dataset \"SIFT\"")]
    fn dataset_config_refuses_an_unknown_dataset() {
        let mut ds = Which::Yeast.dataset(50, 1);
        ds.name = "SIFT".into();
        dataset_config(&ds);
    }
}
