//! A server stores an insert frame's record bodies as the bytes they are;
//! the typed path it replaced decoded each entry into an owned
//! `IndexEntry` and inserted that. Both must leave the same index behind.
//!
//! Seeded insert bulks go through `handle_shared` to a single server and
//! to 4-shard hash- and pivot-routed servers, once with distance routing
//! and once with permutation routing. Among them are a malformed entry
//! mid-frame (the whole frame is refused), a routing of the wrong shape
//! mid-bulk and a duplicate id mid-bulk (the prefix before it stays), and
//! entries whose bodies carry bytes past their payload. The reference
//! decodes each frame with `Request::decode` and inserts the entries one
//! by one with `MIndex::insert`, routing a sharded deployment's entries by
//! their owned `Routing`. After every frame the response frame and the
//! entry count must be equal; at the end, every shard's tree render and
//! every bucket's record stream.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud_core::protocol::{Request, Response};
use simcloud_core::CloudServer;
use simcloud_metric::permutation_from_distances;
use simcloud_mindex::{IndexEntry, MIndex, MIndexConfig, MIndexError, Routing, RoutingStrategy};
use simcloud_shard::{HashRouter, PivotRouter, ShardRouter, ShardedCloudServer};
use simcloud_storage::{BucketId, BucketStore, MemoryStore};
use simcloud_transport::SharedRequestHandler;

const PIVOTS: usize = 5;
const SHARDS: usize = 4;

fn config(strategy: RoutingStrategy) -> MIndexConfig {
    MIndexConfig {
        num_pivots: PIVOTS,
        max_level: 3,
        bucket_capacity: 4,
        strategy,
    }
}

/// How the reference picks an entry's shard: the id hash, or the closest
/// pivot of the owned routing's permutation.
#[derive(Clone, Copy, Debug)]
enum Placement {
    Single,
    Hash,
    Pivot,
}

impl Placement {
    fn shard_of(self, e: &IndexEntry) -> usize {
        match self {
            Placement::Single => 0,
            Placement::Hash => (e.id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % SHARDS,
            Placement::Pivot => {
                let closest = match &e.routing {
                    Routing::Distances(ds) => {
                        let ds: Vec<f64> = ds.iter().map(|&d| f64::from(d)).collect();
                        permutation_from_distances(&ds).closest()
                    }
                    Routing::Permutation(p) => p.closest(),
                };
                closest.map_or(0, |p| p as usize % SHARDS)
            }
        }
    }

    fn router(self) -> Box<dyn ShardRouter> {
        match self {
            Placement::Pivot => Box::new(PivotRouter),
            _ => Box::new(HashRouter),
        }
    }
}

/// The typed path: owned entries, inserted one by one.
struct Reference {
    config: MIndexConfig,
    placement: Placement,
    shards: Vec<MIndex<MemoryStore>>,
    ids: HashSet<u64>,
}

impl Reference {
    fn new(config: MIndexConfig, placement: Placement) -> Self {
        let n = if matches!(placement, Placement::Single) {
            1
        } else {
            SHARDS
        };
        Self {
            config,
            placement,
            shards: (0..n)
                .map(|_| MIndex::new(config, MemoryStore::new()).unwrap())
                .collect(),
            ids: HashSet::new(),
        }
    }

    /// One entry, with a sharded insert's precedence: shape, then the
    /// global duplicate check, then the owning shard.
    fn insert(&mut self, e: IndexEntry) -> Result<(), MIndexError> {
        if self.shards.len() == 1 {
            return self.shards[0].insert(e);
        }
        MIndex::new(self.config, MemoryStore::new())
            .unwrap()
            .insert(e.clone())?;
        if !self.ids.insert(e.id) {
            return Err(MIndexError::DuplicateId(e.id));
        }
        let shard = self.placement.shard_of(&e);
        self.shards[shard].insert(e)
    }

    /// The answer the typed path gives `frame`.
    fn answer(&mut self, frame: &[u8]) -> Response {
        let entries = match Request::decode(frame) {
            Ok(Request::Insert(entries)) => entries,
            Ok(other) => panic!("not an insert: {other:?}"),
            Err(e) => return Response::Error(e.to_string()),
        };
        let mut inserted = 0;
        for e in entries {
            if let Err(e) = self.insert(e) {
                return Response::InsertError {
                    inserted,
                    message: e.to_string(),
                };
            }
            inserted += 1;
        }
        Response::Inserted(inserted)
    }

    fn len(&self) -> u64 {
        self.shards.iter().map(MIndex::len).sum()
    }
}

/// Every bucket's record stream, in bucket order.
fn bucket_streams<S: BucketStore>(idx: &MIndex<S>) -> Vec<(BucketId, Vec<u8>)> {
    let mut buckets = idx.store().bucket_ids();
    buckets.sort();
    buckets
        .into_iter()
        .map(|b| {
            let mut stream = Vec::new();
            idx.store().read_bucket_into(b, &mut stream).unwrap();
            (b, stream)
        })
        .collect()
}

/// What one index leaves behind: entry count, tree render, bucket streams.
type IndexState = (u64, String, Vec<(BucketId, Vec<u8>)>);

fn state<S: BucketStore>(idx: &MIndex<S>) -> IndexState {
    (idx.len(), idx.render_tree(), bucket_streams(idx))
}

/// The deployment under test: one engine over one index or four shards.
enum Deployment {
    Single(CloudServer<MemoryStore>),
    Sharded(ShardedCloudServer<MemoryStore>),
}

impl Deployment {
    fn new(config: MIndexConfig, placement: Placement) -> Self {
        match placement {
            Placement::Single => {
                Deployment::Single(CloudServer::new(config, MemoryStore::new()).unwrap())
            }
            _ => Deployment::Sharded(
                ShardedCloudServer::new(
                    config,
                    placement.router(),
                    (0..SHARDS).map(|_| MemoryStore::new()).collect(),
                )
                .unwrap(),
            ),
        }
    }

    fn handle(&self, frame: &[u8]) -> Vec<u8> {
        match self {
            Deployment::Single(s) => s.handle_shared(frame),
            Deployment::Sharded(s) => s.handle_shared(frame),
        }
    }

    fn len(&self) -> u64 {
        match self {
            Deployment::Single(s) => s.index().len(),
            Deployment::Sharded(s) => s.index().len(),
        }
    }

    fn states(&self) -> Vec<IndexState> {
        match self {
            Deployment::Single(s) => vec![state(&s.index())],
            Deployment::Sharded(s) => (0..SHARDS)
                .map(|i| state(&s.index().shard(i).unwrap()))
                .collect(),
        }
    }
}

/// One frame entry: the id and the body bytes it ships, which may run
/// past the encoded payload.
type WireEntry = (u64, Vec<u8>);

/// An insert frame as the wire lays it out.
fn frame(entries: &[WireEntry]) -> Vec<u8> {
    let mut out = vec![0x01];
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (id, body) in entries {
        out.extend_from_slice(&(8 + body.len() as u32).to_le_bytes());
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(body);
    }
    out
}

fn routing(rng: &mut StdRng, strategy: RoutingStrategy, pivots: usize) -> Routing {
    let ds: Vec<f64> = (0..pivots).map(|_| rng.gen_range(0.0..10.0)).collect();
    match strategy {
        RoutingStrategy::Distances => Routing::from_distances(&ds),
        RoutingStrategy::Permutation => Routing::permutation_prefix(&ds, pivots),
    }
}

fn other(strategy: RoutingStrategy) -> RoutingStrategy {
    match strategy {
        RoutingStrategy::Distances => RoutingStrategy::Permutation,
        RoutingStrategy::Permutation => RoutingStrategy::Distances,
    }
}

/// A well-formed entry of the server's strategy; one in five carries
/// bytes past its payload.
fn good_entry(rng: &mut StdRng, id: u64, strategy: RoutingStrategy) -> WireEntry {
    let len = rng.gen_range(0..24);
    let payload = (0..len).map(|_| rng.gen()).collect();
    let mut body = IndexEntry::new(id, routing(rng, strategy, PIVOTS), payload).encode_payload();
    if rng.gen_range(0..5) == 0 {
        let slack = rng.gen_range(1..9);
        body.extend((0..slack).map(|_| rng.gen::<u8>()));
    }
    (id, body)
}

/// The seeded frames: clean bulks, then bulks with one defect each.
fn frames(seed: u64, strategy: RoutingStrategy) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = 0u64;
    let mut bulk = |rng: &mut StdRng, n: usize| -> Vec<WireEntry> {
        (0..n)
            .map(|_| {
                next_id += 1;
                good_entry(rng, next_id * 7, strategy)
            })
            .collect()
    };
    let mut out = Vec::new();
    for round in 0..12 {
        let n = rng.gen_range(1..30);
        let mut entries = bulk(&mut rng, n);
        let at = rng.gen_range(0..entries.len());
        match round % 6 {
            // A malformed entry: an unknown routing tag, or a body one
            // byte short of its payload.
            1 => {
                if rng.gen() {
                    entries[at].1[0] = 9;
                } else {
                    let id = entries[at].0;
                    let mut body =
                        IndexEntry::new(id, routing(&mut rng, strategy, PIVOTS), vec![5; 3])
                            .encode_payload();
                    body.pop();
                    entries[at].1 = body;
                }
            }
            // The wrong shape: the other strategy, or too few pivots.
            3 => {
                let id = entries[at].0;
                let bad = if rng.gen() {
                    routing(&mut rng, other(strategy), PIVOTS)
                } else {
                    routing(&mut rng, strategy, 2)
                };
                entries[at].1 = IndexEntry::new(id, bad, vec![1, 2, 3]).encode_payload();
            }
            // A duplicate id: one stored by an earlier frame, or one
            // earlier in this bulk.
            5 => {
                entries[at].0 = if at > 0 && rng.gen() { entries[0].0 } else { 7 };
            }
            _ => {}
        }
        out.push(frame(&entries));
    }
    out
}

#[test]
fn stored_bytes_equal_the_typed_reference() {
    for strategy in [RoutingStrategy::Distances, RoutingStrategy::Permutation] {
        for placement in [Placement::Single, Placement::Hash, Placement::Pivot] {
            for seed in 0..4 {
                let config = config(strategy);
                let server = Deployment::new(config, placement);
                let mut reference = Reference::new(config, placement);
                let mut refused = [0usize; 3];
                for (i, frame) in frames(seed, strategy).iter().enumerate() {
                    let expected = reference.answer(frame);
                    let got = server.handle(frame);
                    let case = format!("{strategy} {placement:?} seed {seed} frame {i}");
                    assert_eq!(Response::decode(&got).unwrap(), expected, "{case}");
                    assert_eq!(got, expected.encode(), "{case}: response frame");
                    assert_eq!(server.len(), reference.len(), "{case}: len");
                    match expected {
                        Response::Error(_) => refused[0] += 1,
                        Response::InsertError { .. } => refused[1] += 1,
                        _ => refused[2] += 1,
                    }
                }
                assert!(
                    refused.iter().all(|&n| n > 0),
                    "every outcome exercised: {refused:?}"
                );
                let want: Vec<_> = reference.shards.iter().map(state).collect();
                assert_eq!(
                    server.states(),
                    want,
                    "{strategy} {placement:?} seed {seed}: trees and record streams"
                );
            }
        }
    }
}
