//! Key rotation / client revocation: after `rekey_into`, the old key is
//! useless against the new deployment, and the new deployment answers
//! queries identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::{ClientConfig, CloudServer, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, RoutingStrategy};
use simcloud_storage::MemoryStore;
use simcloud_transport::InProcessTransport;

fn data(n: usize, seed: u64) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Vector::new((0..4).map(|_| rng.gen_range(-5.0..5.0)).collect()))
        .collect()
}

#[test]
fn rekey_revokes_old_key_and_preserves_answers() {
    let data = data(200, 1);
    let cfg = MIndexConfig {
        num_pivots: 6,
        max_level: 2,
        bucket_capacity: 16,
        strategy: RoutingStrategy::Distances,
    };
    let (old_key, _) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 2);
    let mut old_cloud = EncryptedClient::new(
        old_key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(3);
    let objects: Vec<(ObjectId, Vector)> = data
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    old_cloud.insert_bulk(&objects).unwrap();

    // Export under the old key.
    let (exported, costs) = old_cloud.export_all().unwrap();
    assert_eq!(exported.len(), 200);
    assert_eq!(costs.candidates, 200);
    assert_eq!(exported[7].1, data[7]);

    // Rotate: fresh key (same pivots, new cipher), fresh server.
    let (new_key, new_master) = SecretKey::generate(&data, 6, &L2, PivotSelection::Random, 99);
    let mut new_cloud = EncryptedClient::new(
        new_key.clone(),
        L2,
        InProcessTransport::new(CloudServer::new(cfg, MemoryStore::new()).unwrap()),
        ClientConfig::distances(),
    )
    .with_rng_seed(4);
    old_cloud.rekey_into(&mut new_cloud, 64).unwrap();

    // Answers agree between old and new deployments.
    let q = &data[11];
    let (old_res, _) = old_cloud.knn_approx(q, 5, 200).unwrap();
    let (new_res, _) = new_cloud.knn_approx(q, 5, 200).unwrap();
    assert_eq!(
        old_res.iter().map(|x| x.0).collect::<Vec<_>>(),
        new_res.iter().map(|x| x.0).collect::<Vec<_>>()
    );

    // Revocation: a payload sealed under the new key cannot be opened by
    // the old key (and vice versa).
    use rand::RngCore;
    let mut rng = StdRng::seed_from_u64(5);
    let mut iv = [0u8; 16];
    rng.fill_bytes(&mut iv);
    let sealed_new = new_key.cipher().seal_with_iv(b"obj", new_key.mode(), &iv);
    assert!(old_key.cipher().unseal(&sealed_new).is_err());

    // A client rebuilt from the distributed new master can read it.
    let client_key = SecretKey::from_master(new_key.pivots().to_vec(), &new_master);
    assert_eq!(client_key.cipher().unseal(&sealed_new).unwrap(), b"obj");
}
