//! Content-based image retrieval at scale — the paper's CoPhIR scenario
//! ("one million images downloaded from Flickr … five MPEG-7 visual
//! descriptors"). Shows the cost profile the paper highlights: with an
//! expensive combined metric, client-side distance computation dominates
//! and the encryption overhead becomes marginal (Tables 3 & 6).
//!
//! ```sh
//! cargo run --release --example image_retrieval            # 30k images
//! N=200000 cargo run --release --example image_retrieval   # bigger run
//! ```

use simcloud::prelude::*;

fn main() {
    let n: usize = std::env::var("N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30_000);
    let dataset = simcloud::datasets::cophir_like(7, n);
    println!("collection: {}", dataset.summary_row());
    let metric = match &dataset.metric {
        simcloud::datasets::DatasetMetric::Combined(m) => m.clone(),
        _ => unreachable!("cophir uses the combined metric"),
    };

    // 100 pivots, disk-backed buckets — the paper's CoPhIR configuration
    // (Table 2).
    let (key, _) = SecretKey::generate(&dataset.vectors, 100, &metric, PivotSelection::Random, 11);
    let store_path =
        std::env::temp_dir().join(format!("simcloud-images-{}.db", std::process::id()));
    let store = DiskStore::create(&store_path).expect("disk store");
    let mut cloud = EncryptedClient::new(
        key,
        metric.clone(),
        InProcessTransport::new(CloudServer::new(MIndexConfig::cophir(), store).expect("config")),
        ClientConfig::distances(),
    );

    println!(
        "indexing {n} image descriptors (this computes 100 distances per image on the client)…"
    );
    let objects: Vec<(ObjectId, Vector)> = dataset
        .vectors
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    let mut build = CostReport::default();
    for chunk in objects.chunks(1000) {
        build.merge(&cloud.insert_bulk(chunk).expect("insert"));
    }
    println!("— construction —");
    println!("{build}");
    println!(
        "note the paper's Table 3 shape: dist. comp. {:.1}% of client time, encryption {:.1}%\n",
        100.0 * build.distance.as_secs_f64() / build.client.as_secs_f64().max(1e-9),
        100.0 * build.encryption.as_secs_f64() / build.client.as_secs_f64().max(1e-9),
    );

    // "Find images visually similar to this one" with increasing candidate
    // budgets — the accuracy/cost dial of Table 6.
    let query = &dataset.vectors[123];
    let truth = simcloud::datasets::parallel_knn_ground_truth(
        &dataset.vectors,
        std::slice::from_ref(query),
        &metric,
        30,
        8,
    );
    println!("— approximate 30-NN at increasing candidate budgets —");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "CandSize", "recall %", "overall s", "kB moved"
    );
    for frac in [0.0005, 0.005, 0.05] {
        let cand = ((n as f64 * frac) as usize).max(30);
        let (res, costs) = cloud.knn_approx(query, 30, cand).expect("knn");
        println!(
            "{:>10} {:>10.1} {:>12.4} {:>10.1}",
            cand,
            truth.recall(0, &res),
            costs.overall().as_secs_f64(),
            costs.communication_kb()
        );
    }

    let (entries, leaves, depth) = cloud.server_info().expect("info");
    println!(
        "\nserver state: {entries} sealed descriptors in {leaves} Voronoi cells (depth {depth})"
    );
    simcloud::storage::FileEnv::remove_sidecars(&store_path);
    let _ = std::fs::remove_file(store_path);
}
