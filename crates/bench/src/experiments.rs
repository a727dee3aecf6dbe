//! Experiment implementations — one function per paper table group.
//!
//! Every function returns structured rows; the `repro` binary renders them
//! in the paper's table layout. Seeds are fixed so runs are reproducible.

use std::time::{Duration, Instant};

use simcloud_core::{
    costs::timed, ClientConfig, CloudServer, CostReport, EncryptedClient, SecretKey,
};
use simcloud_datasets::{parallel_knn_ground_truth, Dataset, QueryWorkload};
use simcloud_metric::{Metric, ObjectId, PivotSelection, Vector};
use simcloud_mindex::{MIndexConfig, PlainMIndex, RoutingStrategy, FIRST_CELL_ONLY};
use simcloud_shard::ShardedCloudServer;
use simcloud_storage::MemoryStore;
use simcloud_transport::{InProcessTransport, NetworkModel};

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
/// every experiment and bench uses, defined once so cross-bench runs index
/// identically.
pub(crate) fn id_objects(vectors: &[Vector]) -> Vec<(ObjectId, Vector)> {
    vectors
        .iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v.clone()))
        .collect()
}

/// Bulk size of the paper's construction phase (§5.2).
pub const BULK: usize = 1000;

// ---------------------------------------------------------------------
// Tables 3 & 4: index construction
// ---------------------------------------------------------------------

/// Encrypted M-Index construction (Table 3): bulk inserts of 1000 through
/// the encryption client.
pub fn construction_encrypted(ds: &Dataset, seed: u64) -> CostReport {
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        dataset_config(ds).num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let mut cloud = EncryptedClient::new(
        key,
        ds.metric.clone(),
        InProcessTransport::new(
            CloudServer::new(dataset_config(ds), MemoryStore::new()).expect("valid config"),
        ),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 1);
    let objects = id_objects(&ds.vectors);
    let mut total = CostReport::default();
    for chunk in objects.chunks(BULK) {
        total.merge(&cloud.insert_bulk(chunk).expect("insert"));
    }
    total
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
pub fn dataset_config(ds: &Dataset) -> MIndexConfig {
    match ds.name.as_str() {
        "YEAST" => MIndexConfig::yeast(),
        "HUMAN" => MIndexConfig::human(),
        "CoPhIR" => MIndexConfig::cophir(),
        _ => MIndexConfig::yeast(),
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

/// The shared measurement body of the encrypted-search tables: outsources
/// the collection through `cloud`, then sweeps `cand_sizes` over the member
/// workload against exact ground truth.
fn encrypted_search_sweep<T: simcloud_transport::Transport>(
    cloud: &mut simcloud_core::EncryptedClient<simcloud_datasets::DatasetMetric, T>,
    ds: &Dataset,
    cand_sizes: &[usize],
    queries: usize,
    k: usize,
    seed: u64,
) -> Vec<SearchRow> {
    let objects = id_objects(&ds.vectors);
    for chunk in objects.chunks(BULK) {
        cloud.insert_bulk(chunk).expect("insert");
    }
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 3);
    let truth = parallel_knn_ground_truth(
        &ds.vectors,
        &workload.queries,
        &ds.metric,
        k,
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    );
    let mut rows = Vec::new();
    for &cand in cand_sizes {
        let mut total = CostReport::default();
        let mut answers = Vec::with_capacity(workload.len());
        for q in &workload.queries {
            let (res, costs) = cloud.knn_approx(q, k, cand).expect("search");
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
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let metric = ds.metric.clone();
    let client_config = ClientConfig::distances();
    if shards <= 1 {
        let mut cloud = EncryptedClient::new(
            key,
            metric,
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            client_config,
        )
        .with_rng_seed(seed ^ 2);
        encrypted_search_sweep(&mut cloud, ds, cand_sizes, queries, k, seed)
    } else {
        let mut cloud = EncryptedClient::new(
            key,
            metric,
            InProcessTransport::new(
                ShardedCloudServer::new(
                    cfg,
                    Box::new(simcloud_shard::HashRouter),
                    (0..shards).map(|_| MemoryStore::new()).collect(),
                )
                .expect("config"),
            ),
            client_config,
        )
        .with_rng_seed(seed ^ 2);
        encrypted_search_sweep(&mut cloud, ds, cand_sizes, queries, k, seed)
    }
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
    let truth = parallel_knn_ground_truth(
        &ds.vectors,
        &workload.queries,
        &ds.metric,
        k,
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    );
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
    let indexed = id_objects(&workload.indexed);
    let truth = parallel_knn_ground_truth(
        &workload.indexed,
        &workload.queries,
        &ds.metric,
        1,
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    );
    let mut rows = Vec::new();

    // --- Encrypted M-Index, single-cell candidate sets -----------------
    {
        let cfg = dataset_config(ds);
        let (key, _) = SecretKey::generate(
            &workload.indexed,
            cfg.num_pivots,
            &ds.metric,
            PivotSelection::Random,
            seed,
        );
        let mut cloud = EncryptedClient::new(
            key,
            ds.metric.clone(),
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed ^ 41);
        let mut build = CostReport::default();
        for chunk in indexed.chunks(BULK) {
            build.merge(&cloud.insert_bulk(chunk).expect("insert"));
        }
        let mut total = CostReport::default();
        let mut hits = 0usize;
        for (qi, q) in workload.queries.iter().enumerate() {
            let (res, costs) = cloud.knn_approx(q, 1, FIRST_CELL_ONLY).expect("search");
            total.merge(&costs);
            if truth.recall(qi, &res) >= 100.0 {
                hits += 1;
            }
        }
        rows.push(ComparisonRow {
            name: "Encrypted M-Index",
            costs: total.averaged(workload.len() as u32),
            build,
            recall: 100.0 * hits as f64 / workload.len() as f64,
            exact: false,
        });
    }

    // --- Baselines -------------------------------------------------------
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
        let mut hits = 0usize;
        for (qi, q) in workload.queries.iter().enumerate() {
            let (res, costs) = scheme.knn(q, 1).expect("search");
            total.merge(&costs);
            if truth.recall(qi, &res) >= 100.0 {
                hits += 1;
            }
        }
        rows.push(ComparisonRow {
            name: scheme.name(),
            costs: total.averaged(workload.len() as u32),
            build,
            recall: 100.0 * hits as f64 / workload.len() as f64,
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
    let truth = parallel_knn_ground_truth(
        &ds.vectors,
        &workload.queries,
        &ds.metric,
        k,
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    );
    let mut out = Vec::new();
    for &np in pivot_counts {
        let mut cfg = dataset_config(ds);
        cfg.num_pivots = np;
        cfg.max_level = cfg.max_level.min(np);
        let (key, _) =
            SecretKey::generate(&ds.vectors, np, &ds.metric, PivotSelection::Random, seed);
        let mut cloud = EncryptedClient::new(
            key,
            ds.metric.clone(),
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed ^ 61);
        for chunk in id_objects(&ds.vectors).chunks(BULK) {
            cloud.insert_bulk(chunk).expect("insert");
        }
        let mut total = CostReport::default();
        let mut answers = Vec::new();
        for q in &workload.queries {
            let (res, costs) = cloud.knn_approx(q, k, cand_size).expect("search");
            total.merge(&costs);
            answers.push(res);
        }
        out.push((
            np,
            SearchRow {
                cand_size,
                costs: total.averaged(workload.len() as u32),
                recall: truth.mean_recall(&answers),
            },
        ));
    }
    out
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
    let truth = parallel_knn_ground_truth(
        &ds.vectors,
        &workload.queries,
        &ds.metric,
        k,
        std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    );
    let mut out = Vec::new();
    for (label, strategy, client_cfg) in [
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
    ] {
        let mut cfg = dataset_config(ds);
        cfg.strategy = strategy;
        let (key, _) = SecretKey::generate(
            &ds.vectors,
            cfg.num_pivots,
            &ds.metric,
            PivotSelection::Random,
            seed,
        );
        let mut cloud = EncryptedClient::new(
            key,
            ds.metric.clone(),
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            client_cfg,
        )
        .with_rng_seed(seed ^ 71);
        for chunk in id_objects(&ds.vectors).chunks(BULK) {
            cloud.insert_bulk(chunk).expect("insert");
        }
        let mut total = CostReport::default();
        let mut answers = Vec::new();
        for q in &workload.queries {
            let (res, costs) = cloud.knn_approx(q, k, cand_size).expect("search");
            total.merge(&costs);
            answers.push(res);
        }
        out.push((
            label,
            SearchRow {
                cand_size,
                costs: total.averaged(workload.len() as u32),
                recall: truth.mean_recall(&answers),
            },
        ));
    }
    out
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
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let hist = DistanceHistogram::sample(&ds.vectors, &ds.metric, 2000, 64, seed ^ 80);
    let d_max = hist.stats().max * 1.5;
    let transform = DistanceTransform::from_seed(seed ^ 81, d_max, 8);

    let mut base = EncryptedClient::new(
        key.clone(),
        ds.metric.clone(),
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 82);
    let mut transformed = EncryptedClient::new(
        key,
        ds.metric.clone(),
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
        ClientConfig::distances().with_transform(transform),
    )
    .with_rng_seed(seed ^ 83);
    let objects = id_objects(&ds.vectors);
    for chunk in objects.chunks(BULK) {
        base.insert_bulk(chunk).expect("insert");
        transformed.insert_bulk(chunk).expect("insert");
    }
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
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let mut cloud = EncryptedClient::new(
        key,
        ds.metric.clone(),
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
        ClientConfig::distances(),
    )
    .with_rng_seed(seed ^ 90);
    for chunk in id_objects(&ds.vectors).chunks(BULK) {
        cloud.insert_bulk(chunk).expect("insert");
    }
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 91);
    let mut out = Vec::new();
    for &k in ks {
        let truth = parallel_knn_ground_truth(
            &ds.vectors,
            &workload.queries,
            &ds.metric,
            k,
            std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
        );
        let mut answers = Vec::new();
        for q in &workload.queries {
            let (res, _) = cloud.knn_approx(q, k, cand_size).expect("search");
            answers.push(res);
        }
        out.push((k, truth.mean_recall(&answers)));
    }
    out
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
    let (key, _) = SecretKey::generate(
        &ds.vectors,
        cfg.num_pivots,
        &ds.metric,
        PivotSelection::Random,
        seed,
    );
    let workload = QueryWorkload::members(&ds.vectors, queries, seed ^ 95);
    let mut out = Vec::new();
    for (label, model) in [
        ("loopback", NetworkModel::loopback()),
        ("lan", NetworkModel::lan()),
        ("wan", NetworkModel::wan()),
    ] {
        let mut cloud = EncryptedClient::new(
            key.clone(),
            ds.metric.clone(),
            InProcessTransport::with_model(
                CloudServer::new(cfg, MemoryStore::new()).expect("config"),
                model,
            ),
            ClientConfig::distances(),
        )
        .with_rng_seed(seed ^ 96);
        for chunk in id_objects(&ds.vectors).chunks(BULK) {
            cloud.insert_bulk(chunk).expect("insert");
        }
        let mut enc_total = CostReport::default();
        for q in &workload.queries {
            let (_, costs) = cloud.knn_approx(q, k, cand_size).expect("search");
            enc_total.merge(&costs);
        }
        let enc = enc_total.averaged(queries as u32).overall();
        // Plain comparison: k objects over the same model.
        let per_obj = ds.vectors[0].encoded_len() as u64 + 8;
        let plain_comm = model.transfer_time(ds.vectors[0].encoded_len() as u64 + 16)
            + model.transfer_time(k as u64 * per_obj + 4);
        let plain = enc_total.averaged(queries as u32).server + plain_comm;
        out.push((label, enc, plain));
    }
    out
}
