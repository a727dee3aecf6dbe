//! Outsourced similarity search over sensitive biomedical data — the
//! paper's motivating scenario ("users might not want to expose all their
//! data which might be sensitive (e.g. medicine data)", §1).
//!
//! A lab outsources a lymphoma gene-expression matrix (HUMAN stand-in) to
//! an untrusted cloud, then clinicians run "find expression profiles
//! similar to this patient" queries. The demo contrasts what the
//! *authorized* client gets with what the *server* (and thus an attacker
//! who compromises it) ever sees.
//!
//! ```sh
//! cargo run --release --example gene_expression_search
//! ```

use simcloud::prelude::*;

fn main() {
    // The lab's sensitive matrix: 1,500 patients x 96 conditions.
    let dataset = simcloud::datasets::human_like(2024, Some(1500));
    let data = &dataset.vectors;
    println!("collection: {}\n", dataset.summary_row());

    // Key generation and deployment (50 pivots, paper Table 2 HUMAN row).
    let (key, _master) = SecretKey::generate(data, 50, &L1, PivotSelection::Random, 99);
    let mut cfg = MIndexConfig::human();
    cfg.num_pivots = 50;
    let mut cloud = EncryptedClient::new(
        key.clone(),
        L1,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
        ClientConfig::distances(),
    );

    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    for chunk in objects.chunks(1000) {
        cloud.insert_bulk(chunk).expect("insert");
    }

    // A clinician queries with a new patient profile (held-out mixture of
    // two indexed profiles — similar but not identical to the collection).
    let query = {
        let a = data[3].as_slice();
        let b = data[700].as_slice();
        Vector::new(
            a.iter()
                .zip(b)
                .map(|(x, y)| 0.7 * x + 0.3 * y)
                .collect::<Vec<f32>>(),
        )
    };

    println!("— authorized clinician: 10 most similar expression profiles —");
    let (neighbors, costs) = cloud.knn_approx(&query, 10, 300).expect("knn");
    for (id, d) in &neighbors {
        println!("  patient {id}  L1 distance {d:.2}");
    }
    println!(
        "\ncosts: client {:.4} s (decrypt {:.4} s) | server {:.4} s | {:.1} kB\n",
        costs.client.as_secs_f64(),
        costs.decryption.as_secs_f64(),
        costs.server.as_secs_f64(),
        costs.communication_kb()
    );

    // What the server sees (paper §4.3): pivot permutations/distances and
    // sealed blobs. Demonstrate by sealing one profile and showing the
    // ciphertext tells nothing, while the wrong key cannot open it.
    println!("— what the untrusted server holds —");
    let mut plain = Vec::new();
    data[0].encode(&mut plain);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sealed = key.cipher().seal(&plain, key.mode(), &mut rng);
    println!(
        "  profile 0: {} plaintext bytes -> {} sealed bytes (AES-CTR + HMAC)",
        plain.len(),
        sealed.len()
    );
    println!(
        "  first sealed bytes: {:02x?}...",
        &sealed[..12.min(sealed.len())]
    );

    let attacker_data = simcloud::datasets::human_like(666, Some(100));
    let (attacker_key, _) =
        SecretKey::generate(&attacker_data.vectors, 50, &L1, PivotSelection::Random, 666);
    match attacker_key.cipher().unseal(&sealed) {
        Err(e) => println!("  attacker with wrong key: {e}"),
        Ok(_) => unreachable!("HMAC must reject a wrong key"),
    }

    // Recall sanity: how good was the approximate answer?
    let truth = simcloud::datasets::parallel_knn_ground_truth(data, &[query], &L1, 10, 4);
    println!(
        "\napproximate answer recall vs. exact 10-NN: {:.1} %",
        truth.recall(0, &neighbors)
    );
}
