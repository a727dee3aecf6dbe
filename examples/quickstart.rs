//! Quickstart: the full Encrypted M-Index life cycle in one file.
//!
//! Walks the paper's Figures 4 and 5: the data owner derives a secret key
//! (pivots + cipher key), outsources the encrypted collection to the
//! similarity cloud, and an authorized client runs range and k-NN queries —
//! printing the cost decomposition the paper's evaluation tables use.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use simcloud::prelude::*;

fn main() {
    // --- Data owner -------------------------------------------------------
    // A small gene-expression-like collection (YEAST stand-in, 800 rows).
    let dataset = simcloud::datasets::yeast_like(42, Some(800));
    let data = &dataset.vectors;
    println!("dataset: {}", dataset.summary_row());

    // Secret key = pivot set + AES key (paper §4.2). The master secret is
    // what the owner hands to authorized clients.
    let (key, master) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 7);
    println!(
        "secret key: {} pivots + AES-128 (master secret {} bytes)\n",
        key.pivots().len(),
        master.len()
    );

    // --- Deploy the similarity cloud ---------------------------------------
    // In-process server with a modelled loopback network; a `TcpTransport`
    // to a `serve_tcp_shared` server gives the real two-process deployment.
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;
    let mut cloud = EncryptedClient::new(
        key,
        L1,
        InProcessTransport::new(
            CloudServer::new(cfg, MemoryStore::new()).expect("valid configuration"),
        ),
        ClientConfig::distances(),
    );

    // --- Construction phase (Alg. 1, Fig. 4) -------------------------------
    // Client computes object-pivot distances, encrypts each object, ships
    // {routing, ciphertext} in bulks of 1000.
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    let mut build_costs = CostReport::default();
    for chunk in objects.chunks(1000) {
        build_costs.merge(&cloud.insert_bulk(chunk).expect("insert"));
    }
    println!("— construction (encrypted, {} objects) —", objects.len());
    println!("{build_costs}\n");

    let (entries, leaves, depth) = cloud.server_info().expect("info");
    println!("server cell tree: {entries} entries in {leaves} leaf cells, depth {depth}\n");

    // --- Search phase (Alg. 2, Fig. 5) --------------------------------------
    let query = &data[17];

    // Approximate 10-NN with a 200-candidate budget: the server returns 200
    // pre-ranked sealed objects, the client decrypts and refines.
    let (neighbors, costs) = cloud.knn_approx(query, 10, 200).expect("knn");
    println!("— approximate 10-NN (CandSize 200) —");
    for (id, d) in &neighbors[..5.min(neighbors.len())] {
        println!("  {id}  d = {d:.3}");
    }
    println!("{costs}\n");

    // Precise range query: all objects within radius 8 — exact despite the
    // encryption (candidates are guaranteed complete; paper Alg. 3).
    let (in_range, costs) = cloud.range(query, 8.0).expect("range");
    println!("— precise range query R(q, 8.0) —");
    println!("  {} objects within radius", in_range.len());
    println!("{costs}\n");

    // Precise k-NN: approximate pass estimates the k-th distance, a range
    // query completes it (paper §4.2).
    let (exact, costs) = cloud.knn_precise(query, 5).expect("knn precise");
    println!("— precise 5-NN —");
    for (id, d) in &exact {
        println!("  {id}  d = {d:.3}");
    }
    println!("{costs}");
    println!(
        "\ntotal over the session: {:.3} s overall, {:.1} kB moved",
        cloud.total_costs().overall().as_secs_f64(),
        cloud.total_costs().communication_kb()
    );
}
