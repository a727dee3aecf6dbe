//! The paper's taxonomy of privacy levels (§2.3), executable.
//!
//! Walks the four levels on the same small collection, printing what the
//! server stores and what it costs — level by level:
//!
//! 1. no encryption → plain M-Index, server sees everything
//! 2. raw-data encryption → MS objects plaintext, payloads sealed
//! 3. MS-object encryption → the Encrypted M-Index (the paper's system)
//! 4. distribution hiding → level 3 plus the keyed monotone distance
//!    transformation (paper §6 future work)
//!
//! ```sh
//! cargo run --release --example privacy_levels
//! ```

use simcloud::prelude::*;

fn main() {
    let dataset = simcloud::datasets::yeast_like(5, Some(1000));
    let data = &dataset.vectors;
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    let query = &data[10];
    let truth = simcloud::datasets::parallel_knn_ground_truth(
        data,
        std::slice::from_ref(query),
        &L1,
        10,
        4,
    );
    let mut cfg = MIndexConfig::yeast();
    cfg.num_pivots = 30;

    // ---- Level 1: no encryption -------------------------------------------
    {
        let pivots = simcloud::metric::select_pivots(data, 30, &L1, PivotSelection::Random, 1);
        let mut plain = PlainMIndex::new(cfg, pivots, L1, MemoryStore::new()).expect("config");
        for (id, v) in &objects {
            plain.insert(*id, v).expect("insert");
        }
        let t = std::time::Instant::now();
        let (res, _) = plain.knn_approx(query, 10, 300).expect("knn");
        println!("LEVEL 1 — no encryption (plain M-Index)");
        println!("  server sees : raw vectors, pivots, all distances");
        println!("  server does : the entire search");
        println!(
            "  10-NN in {:.4} s, recall {:.0} %\n",
            t.elapsed().as_secs_f64(),
            truth.recall(0, &res)
        );
    }

    // ---- Level 2: raw data encrypted, MS objects plain ---------------------
    {
        println!("LEVEL 2 — raw-data encryption only");
        println!("  server sees : MS objects (plaintext descriptors) + index");
        println!("  raw files   : AES-sealed in a separate raw-data store");
        println!("  search      : identical to level 1 (descriptors are public);");
        println!("                only the final raw-object fetch needs the key.");
        println!("  caveat (§2.3): unusable when descriptors are the sensitive data\n");
    }

    // ---- Level 3: the Encrypted M-Index ------------------------------------
    {
        let (key, _) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 2);
        let mut cloud = EncryptedClient::new(
            key,
            L1,
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            ClientConfig::distances(),
        );
        for chunk in objects.chunks(1000) {
            cloud.insert_bulk(chunk).expect("insert");
        }
        let (res, costs) = cloud.knn_approx(query, 10, 300).expect("knn");
        println!("LEVEL 3 — Encrypted M-Index (the paper's system)");
        println!("  server sees : pivot permutations/distances + sealed objects");
        println!("  server does : cell pruning, ranking, pivot filtering");
        println!("  client does : pivot distances, decryption, refinement");
        println!(
            "  10-NN in {:.4} s overall ({:.1} kB moved), recall {:.0} %\n",
            costs.overall().as_secs_f64(),
            costs.communication_kb(),
            truth.recall(0, &res)
        );
    }

    // ---- Level 4: + hide the distance distribution -------------------------
    {
        let (key, _) = SecretKey::generate(data, 30, &L1, PivotSelection::Random, 3);
        let transform = DistanceTransform::from_seed(77, 200.0, 8);
        println!("LEVEL 4 — + keyed monotone distance transformation (paper §6)");
        println!(
            "  transform   : piecewise-linear, slopes in [0.5, 2.0], inflation ≤ {:.1}x",
            transform.inflation_bound()
        );
        let mut cloud = EncryptedClient::new(
            key,
            L1,
            InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).expect("config")),
            ClientConfig::distances().with_transform(transform),
        );
        for chunk in objects.chunks(1000) {
            cloud.insert_bulk(chunk).expect("insert");
        }
        let (res, costs) = cloud.range(query, 30.0).expect("range");
        println!("  server sees : *transformed* distances — values & distribution hidden");
        println!(
            "  range query : {} exact results, {} candidates shipped ({:.1} kB)",
            res.len(),
            costs.candidates,
            costs.communication_kb()
        );
        println!("  price       : larger candidate sets (pruning works on a distorted scale)");
    }
}
