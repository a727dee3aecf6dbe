//! `insert_bulk` prepares a bulk (pivot distances, routing, seal) on as
//! many workers as the host offers, and its `Request::Insert` frame must
//! be the serial loop's, byte for byte, for the same seed. These tests
//! rebuild that serial loop from public parts — a seeded `StdRng` drawing
//! one 16-byte IV per object in input order, `seal_with_iv_aad`, and the
//! strategy's `Routing` — and compare frames at bulk sizes on both sides
//! of the per-worker floor.
//!
//! Run them once as is and once pinned to one core
//! (`taskset -c 0 cargo test -p simcloud-core --test bulk_prepare`): the
//! available parallelism honours the affinity mask, so the pinned run
//! takes the one-worker path against the same reference.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simcloud_core::protocol::{Request, Response};
use simcloud_core::{ClientConfig, DistanceTransform, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{IndexEntry, Routing, RoutingStrategy};
use simcloud_transport::{Transport, TransportError, TransportStats};

const PIVOTS: usize = 12;
const RNG_SEED: u64 = 7;

/// Records every request frame and acknowledges an insert of `n` entries
/// with `Inserted(n)`.
#[derive(Default)]
struct Capture {
    frames: Vec<Vec<u8>>,
}

impl Transport for Capture {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        self.frames.push(request.to_vec());
        let answer = match Request::decode(request) {
            Ok(Request::Insert(entries)) => Response::Inserted(entries.len() as u32),
            other => Response::Error(format!("unexpected request {other:?}")),
        };
        Ok(answer.encode())
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

fn random_objects(n: usize, seed: u64) -> Vec<(ObjectId, Vector)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let v = Vector::new((0..6).map(|_| rng.gen_range(-8.0..8.0)).collect());
            (ObjectId(1000 + i as u64), v)
        })
        .collect()
}

fn key() -> SecretKey {
    let sample: Vec<Vector> = random_objects(200, 1).into_iter().map(|(_, v)| v).collect();
    SecretKey::generate(&sample, PIVOTS, &L2, PivotSelection::Random, 2).0
}

fn configs() -> Vec<(&'static str, ClientConfig)> {
    vec![
        ("distances", ClientConfig::distances()),
        ("permutations", ClientConfig::permutations()),
        (
            "transformed",
            ClientConfig::distances().with_transform(DistanceTransform::from_seed(5, 40.0, 6)),
        ),
    ]
}

/// The serial loop `insert_bulk` must match: per object, in input order,
/// one IV from `rng`, the pivot distances, the routing, the id-bound seal.
fn reference_frame(
    key: &SecretKey,
    config: &ClientConfig,
    objects: &[(ObjectId, Vector)],
    rng: &mut StdRng,
) -> Vec<u8> {
    let entries = objects
        .iter()
        .map(|(id, o)| {
            let mut iv = [0u8; 16];
            rng.fill_bytes(&mut iv);
            let ds = key.pivot_distances(&L2, o);
            let routing = match config.strategy {
                RoutingStrategy::Distances => match &config.transform {
                    Some(t) => Routing::from_distances(&t.apply_all(&ds)),
                    None => Routing::from_distances(&ds),
                },
                RoutingStrategy::Permutation => Routing::permutation_prefix(&ds, ds.len()),
            };
            let mut plain = Vec::new();
            o.encode(&mut plain);
            let sealed =
                key.cipher()
                    .seal_with_iv_aad(&plain, &id.0.to_le_bytes(), key.mode(), &iv);
            IndexEntry::new(id.0, routing, sealed)
        })
        .collect();
    Request::Insert(entries).encode()
}

#[test]
fn bulk_frames_equal_the_serial_loop() {
    let key = key();
    for (name, config) in configs() {
        let mut client = EncryptedClient::new(key.clone(), L2, Capture::default(), config.clone())
            .with_rng_seed(RNG_SEED);
        let mut rng = StdRng::seed_from_u64(RNG_SEED);
        let mut sent = 0;
        for (i, n) in [1usize, 63, 64, 65, 129, 1000].into_iter().enumerate() {
            let objects = random_objects(n, 10 + i as u64);
            let costs = client.insert_bulk(&objects).unwrap();
            assert_eq!(
                costs.distance_computations,
                (n * PIVOTS) as u64,
                "{name}: distances of a {n}-object bulk"
            );
            sent += 1;
            let frames = &client.transport().frames;
            assert_eq!(frames.len(), sent, "{name}: one frame per bulk");
            let expected = reference_frame(&key, &config, &objects, &mut rng);
            assert!(
                frames[sent - 1] == expected,
                "{name}: the {n}-object bulk's frame differs from the serial loop's"
            );
        }
    }
}

#[test]
fn bulk_phase_times_stay_inside_client_time() {
    let mut client = EncryptedClient::new(key(), L2, Capture::default(), ClientConfig::distances())
        .with_rng_seed(RNG_SEED);
    let costs = client.insert_bulk(&random_objects(1000, 3)).unwrap();
    assert!(costs.distance > std::time::Duration::ZERO);
    assert!(costs.encryption > std::time::Duration::ZERO);
    assert!(
        costs.distance + costs.encryption <= costs.client,
        "distance {:?} + encryption {:?} exceed client {:?}",
        costs.distance,
        costs.encryption,
        costs.client
    );
}
