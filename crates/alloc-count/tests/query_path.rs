//! Allocation budget of the query data path.
//!
//! A candidate's sealed bytes move store → cursor arena → response frame
//! on the server and are read in place from the frame on the client, so
//! neither side may allocate per candidate. A counting global allocator
//! (per thread, so parallel tests do not disturb each other) pins that:
//!
//! * one `ApproxKnn` through the server's byte handler costs fewer than 64
//!   allocations whether it ships 100, 1000 or 5000 candidates — on the
//!   single server, and on a 4-shard one, whose whole search runs on the
//!   calling thread: the figure covers all four shards' walks, their one
//!   arena and ranking, and the encode;
//! * one `knn_approx` on the client costs a constant plus a few
//!   allocations per candidate it actually *unseals* — independent of how
//!   many payloads the server inlined.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_alloc_count::{allocations_in, uncounted, CountingAllocator};
use simcloud_core::protocol::Request;
use simcloud_core::{ClientConfig, CloudServer, EncryptedClient, SecretKey};
use simcloud_metric::{ObjectId, PivotSelection, Vector, L2};
use simcloud_mindex::{MIndexConfig, Routing, RoutingStrategy};
use simcloud_shard::{HashRouter, ShardedCloudServer};
use simcloud_storage::MemoryStore;
use simcloud_transport::{
    RequestClass, SharedRequestHandler, Transport, TransportError, TransportStats,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const N: usize = 6000;
const PIVOTS: usize = 4;
const CAND_SIZES: [usize; 3] = [100, 1000, 5000];

struct Deployment {
    server: Arc<CloudServer<MemoryStore>>,
    sharded: Arc<ShardedCloudServer<MemoryStore>>,
    key: SecretKey,
    objects: Vec<(ObjectId, Vector)>,
}

/// In-process wiring whose server half is not counted: what remains on
/// the thread's counter is the client alone.
struct ClientOnly<H>(Arc<H>);

impl<H: SharedRequestHandler> Transport for ClientOnly<H> {
    fn round_trip(&mut self, request: &[u8]) -> Result<Vec<u8>, TransportError> {
        Ok(uncounted(|| self.0.handle_shared(request)))
    }

    fn round_trip_with(
        &mut self,
        request: &[u8],
        _class: RequestClass,
        _deadline: Option<Duration>,
    ) -> Result<Vec<u8>, TransportError> {
        self.round_trip(request)
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

fn deploy() -> Deployment {
    let mut rng = StdRng::seed_from_u64(15);
    let vectors: Vec<Vector> = (0..N)
        // Two dimensions against four pivots: tight pivot-filter bounds,
        // so the client's early exit fires after a few unseals.
        .map(|_| Vector::new((0..2).map(|_| rng.gen_range(-4.0f32..4.0)).collect()))
        .collect();
    let (key, _) = SecretKey::generate(&vectors, PIVOTS, &L2, PivotSelection::Random, 3);
    let config = MIndexConfig {
        num_pivots: PIVOTS,
        max_level: 2,
        bucket_capacity: 400,
        strategy: RoutingStrategy::Distances,
    };
    let server = Arc::new(CloudServer::new(config, MemoryStore::new()).unwrap());
    let sharded = Arc::new(
        ShardedCloudServer::new(
            config,
            Box::new(HashRouter),
            (0..4).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap(),
    );
    let objects: Vec<(ObjectId, Vector)> = vectors
        .into_iter()
        .enumerate()
        .map(|(i, v)| (ObjectId(i as u64), v))
        .collect();
    for bulk in objects.chunks(1000) {
        client(&key, &server).insert_bulk(bulk).unwrap();
        client(&key, &sharded).insert_bulk(bulk).unwrap();
    }
    Deployment {
        server,
        sharded,
        key,
        objects,
    }
}

fn client<H: SharedRequestHandler>(
    key: &SecretKey,
    server: &Arc<H>,
) -> EncryptedClient<L2, ClientOnly<H>> {
    EncryptedClient::new(
        key.clone(),
        L2,
        ClientOnly(Arc::clone(server)),
        ClientConfig::distances(),
    )
    .with_rng_seed(1)
}

#[test]
fn query_path_allocations_do_not_scale_with_the_candidate_set() {
    let d = deploy();
    let q = &d.objects[17].1;

    // Server side: request bytes in, finished response frame out.
    let server_allocations = |server: &dyn SharedRequestHandler| -> Vec<u64> {
        CAND_SIZES
            .iter()
            .map(|&cand_size| {
                let request = Request::ApproxKnn {
                    routing: Routing::from_distances(&d.key.pivot_distances(&L2, q)),
                    cand_size: cand_size as u32,
                }
                .encode();
                server.handle_shared(&request); // warm
                let (frame, allocs) = allocations_in(|| server.handle_shared(&request));
                assert!(
                    frame.len() > cand_size * 16,
                    "the frame ships {cand_size} candidates"
                );
                assert!(
                    allocs < 64,
                    "{allocs} server-side allocations for cand_size {cand_size}"
                );
                allocs
            })
            .collect()
    };
    let server_allocs = server_allocations(&*d.server);
    let sharded_allocs = server_allocations(&*d.sharded);

    // Client side: everything inlined, so the frame carries `cand_size`
    // payloads of which the early exit unseals a few.
    let mut client_allocs = Vec::new();
    let mut querier = client(&d.key, &d.server);
    for cand_size in CAND_SIZES {
        querier.knn_approx(q, 5, cand_size).unwrap(); // warm
        let ((neighbors, costs), allocs) =
            allocations_in(|| querier.knn_approx(q, 5, cand_size).unwrap());
        assert_eq!(neighbors[0].0, d.objects[17].0);
        assert_eq!(costs.candidates, cand_size as u64);
        assert!(
            costs.decrypted * 4 < cand_size as u64,
            "the early exit must leave most of the {cand_size} payloads sealed \
             ({} unsealed) for this test to mean anything",
            costs.decrypted
        );
        assert!(
            allocs <= 32 + 8 * costs.decrypted,
            "{allocs} client-side allocations for {cand_size} inlined payloads, \
             {} of them unsealed",
            costs.decrypted
        );
        client_allocs.push((allocs, costs.decrypted));
    }
    println!("allocations per query at cand_size {CAND_SIZES:?}:");
    println!("  server (handle_shared): {server_allocs:?}");
    println!("  4-shard server (all four opens): {sharded_allocs:?}");
    println!("  client (knn_approx; allocations, unsealed): {client_allocs:?}");
}
