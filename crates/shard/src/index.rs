//! The sharded M-Index: N fully independent shards, one open per search.
//!
//! Each shard is a complete [`MIndex`] with its **own** bucket store and its
//! own reader–writer lock, so an insert takes the write lock of exactly one
//! shard — 1/N of the key space blocks while inserts on every other shard
//! proceed. A search is **one open** on the calling thread: it takes every
//! shard's read guard in shard order, walks each shard's tree with that
//! shard's budget, stages every picked cell into one arena and ranks it
//! with one stable sort ([`MIndex::knn_cursor_over`] /
//! [`MIndex::range_cursor_over`]), then drops the guards. The opened
//! search is a single [`CandidateCursor`], exactly what the single index
//! returns, so the request engine selects from both the same way.
//!
//! The price is that a search holds every shard's read guard for its open:
//! an insert on any shard waits for the opens in flight. Writers hold one
//! shard lock at a time and readers acquire in shard order, so this cannot
//! deadlock.
//!
//! A shard-aware ownership map (`id → shard`) backs the two operations that
//! address entries by external id: duplicate-id rejection at insert and the
//! two-phase fetch (`fetch_entries`), which routes each requested id to its
//! owning shard instead of asking everyone.

use std::collections::HashMap;

use parking_lot::{RwLock, RwLockReadGuard};
use simcloud_core::{insert_until_error, IndexShape, SearchIndex};
use simcloud_mindex::{
    knn_cap, CandidateCursor, IndexEntry, MIndex, MIndexConfig, MIndexError, PromiseEvaluator,
    RecordBody, SearchStats, FIRST_CELL_ONLY,
};
use simcloud_storage::{BucketStore, IoStats};

use crate::router::ShardRouter;

/// A ranked `(entry, lower_bound)` candidate list plus its search's
/// statistics — what the owned adapters return.
type RankedCandidates = (Vec<(IndexEntry, f64)>, SearchStats);

/// Every shard's read guard, taken in shard order — what one open holds.
/// Shard order is the one acquisition order of every multi-shard reader,
/// and a writer holds one shard lock at a time, so no wait can close a
/// cycle.
type GuardSet<'a, S> = Vec<RwLockReadGuard<'a, MIndex<S>>>;

/// N independent M-Index shards behind one index facade.
pub struct ShardedMIndex<S: BucketStore> {
    /// The (shard-invariant) index configuration — kept here so the insert
    /// path validates entries lock-free instead of taking a shard lock.
    config: MIndexConfig,
    shards: Vec<RwLock<MIndex<S>>>,
    /// External id → owning shard. Guarded by its own lock so inserts to
    /// *different* shards contend only for this map's brief update, never
    /// for each other's index write locks.
    owners: RwLock<HashMap<u64, usize>>,
    router: Box<dyn ShardRouter>,
}

impl<S: BucketStore> std::fmt::Debug for ShardedMIndex<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMIndex")
            .field("shards", &self.shards.len())
            .field("router", &self.router.name())
            .field("entries", &self.len())
            .finish()
    }
}

impl<S: BucketStore> ShardedMIndex<S> {
    /// Creates one shard per store, all with the same index configuration.
    /// At least one store is required; a single store degenerates to a
    /// plain `MIndex` with map-based fetch routing.
    pub fn new(
        config: MIndexConfig,
        router: Box<dyn ShardRouter>,
        stores: Vec<S>,
    ) -> Result<Self, MIndexError> {
        if stores.is_empty() {
            return Err(MIndexError::BadConfig(
                "a sharded index needs at least one store".into(),
            ));
        }
        let shards = stores
            .into_iter()
            .map(|s| Ok(RwLock::new(MIndex::new(config, s)?)))
            .collect::<Result<Vec<_>, MIndexError>>()?;
        Ok(Self {
            config,
            shards,
            owners: RwLock::new(HashMap::new()),
            router,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The router's name ("hash", "pivot", …).
    pub fn router_name(&self) -> &'static str {
        self.router.name()
    }

    /// Total indexed entries (exactly the ownership map's size).
    pub fn len(&self) -> u64 {
        self.owners.read().len() as u64
    }

    /// True when no shard holds anything.
    pub fn is_empty(&self) -> bool {
        self.owners.read().is_empty()
    }

    /// Read access to one shard (shape and storage inspection), `None` for
    /// an out-of-range index. Holds that shard's shared lock for the
    /// guard's lifetime — keep it short.
    pub fn shard(&self, i: usize) -> Option<RwLockReadGuard<'_, MIndex<S>>> {
        self.shards.get(i).map(|s| s.read())
    }

    /// Summed I/O statistics over all shard stores (each shard owns an
    /// independent store, so the deployment's cost is the sum — see
    /// `IoStats::merge_from`).
    pub fn io_stats(&self) -> IoStats {
        let mut total = IoStats::default();
        for s in &self.shards {
            total.merge_from(&s.read().store().stats());
        }
        total
    }

    /// Inserts one record body into the shard the router assigns it to.
    /// Only that shard's write lock is taken, so inserts to distinct shards
    /// proceed in parallel; the global ownership map is updated under its
    /// own brief lock. Error precedence matches a single `MIndex`: shape
    /// validation first, then the (now global) duplicate-id check.
    pub fn insert(&self, id: u64, body: &RecordBody<'_>) -> Result<(), MIndexError> {
        let shard = self.router.route(id, body.routing(), self.shards.len());
        // Lock-free shape validation (the config is shard-invariant): a
        // malformed record is rejected before any lock is touched, and a
        // well-formed one pays exactly one shard-lock acquisition.
        self.config.validate_routing(body.routing())?;
        {
            let mut owners = self.owners.write();
            if owners.contains_key(&id) {
                return Err(MIndexError::DuplicateId(id));
            }
            // Reserve before the shard insert so a concurrent insert of the
            // same id fails fast instead of racing two shards.
            owners.insert(id, shard);
        }
        let Some(slot) = self.shards.get(shard) else {
            self.owners.write().remove(&id);
            return Err(MIndexError::Corrupt(format!(
                "router chose shard {shard} of {}",
                self.shards.len()
            )));
        };
        // Bind the result so the shard write guard (a scrutinee temporary
        // would outlive the match) is released before the ownership map is
        // touched again — the documented order is map before shard.
        let result = slot.write().insert_record(id, body);
        match result {
            Ok(()) => Ok(()),
            Err(e) => {
                self.owners.write().remove(&id);
                Err(e)
            }
        }
    }

    /// Per-shard promise-walk budget for a k-NN open, from the shards the
    /// open holds.
    ///
    /// When the global candidate budget covers the whole collection, every
    /// shard must walk to exhaustion — that is the regime where sharded
    /// and single-index candidate sets provably coincide, and the
    /// byte-identity the equivalence suite pins. Below it each shard
    /// stages only its `ceil(cand_size / N)` share of the budget in
    /// promise order, and the engine's `cand_size` cap selects from the
    /// union. The collection is what the held guards hold: an id an
    /// in-flight insert has reserved in the ownership map but no shard
    /// holds yet is not part of it.
    fn shard_open_budget(shards: &[RwLockReadGuard<'_, MIndex<S>>], cand_size: usize) -> usize {
        if cand_size == FIRST_CELL_ONLY {
            return cand_size;
        }
        let total: u64 = shards.iter().map(|shard| shard.len()).sum();
        if cand_size as u64 >= total {
            cand_size
        } else {
            cand_size.div_ceil(shards.len().max(1))
        }
    }

    /// An approximate k-NN open ([`SearchIndex::open_knn`]) together with
    /// the query's cap, ready for [`Self::drain`] — so an outside caller
    /// can time the open and the selection as distinct phases. The cursor
    /// holds every shard's share of the budget; the cap keeps the
    /// `cand_size` smallest wire lower bounds of it. `FIRST_CELL_ONLY`
    /// yields the union of every shard's most promising cell, untrimmed
    /// (each shard's "first cell" is a fragment of the global one under
    /// pivot routing, and an independent sample under hash routing).
    pub fn open_knn_cursors(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<(CandidateCursor, Option<usize>), MIndexError> {
        Ok((self.open_knn(evaluator, cand_size)?, knn_cap(cand_size)))
    }

    /// The selection as owned entries
    /// ([`CandidateCursor::collect_up_to`]) — the eager list shape.
    pub fn drain(
        &self,
        cursor: CandidateCursor,
        cap: Option<usize>,
    ) -> Result<RankedCandidates, MIndexError> {
        cursor.collect_up_to(cap)
    }

    /// Phase 2 of the two-phase fetch, shard-routed: each requested id is
    /// resolved to its owning shard through the ownership map and its
    /// sealed payload fetched there; ids no shard owns come back as
    /// `None`. One slot per requested id, in request order, duplicates
    /// included — the contract the client's fetch-mismatch detection
    /// relies on.
    pub fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<Vec<u8>>>, MIndexError> {
        let mut out: Vec<Option<Vec<u8>>> = vec![None; ids.len()];
        // Group by owning shard into a flat per-shard vec — shard indices
        // are small and dense, so indexing beats hashing on the phase-2
        // hot path.
        let mut per_shard: Vec<Vec<(usize, u64)>> = vec![Vec::new(); self.shards.len()];
        {
            let owners = self.owners.read();
            for (pos, id) in ids.iter().enumerate() {
                if let Some(&s) = owners.get(id) {
                    match per_shard.get_mut(s) {
                        Some(bucket) => bucket.push((pos, *id)),
                        None => {
                            return Err(MIndexError::Corrupt(format!(
                                "ownership map names shard {s} of {}",
                                self.shards.len()
                            )))
                        }
                    }
                }
            }
        }
        for (shard, items) in per_shard.iter().enumerate() {
            if items.is_empty() {
                continue;
            }
            let Some(slot) = self.shards.get(shard) else {
                return Err(MIndexError::Corrupt(format!(
                    "ownership map names shard {shard} of {}",
                    self.shards.len()
                )));
            };
            let sub: Vec<u64> = items.iter().map(|&(_, id)| id).collect();
            let got = slot.read().fetch_entries(&sub)?;
            for (&(p, _), payload) in items.iter().zip(got) {
                if let Some(dest) = out.get_mut(p) {
                    *dest = payload;
                }
            }
        }
        Ok(out)
    }
}

/// The sharded index behind the request engine. An opened search is one
/// owned cursor over every shard: the guard set drops with the open, so
/// the engine selects from it lock-free.
impl<S: BucketStore> SearchIndex for ShardedMIndex<S> {
    /// One open over every shard, each staging its share of the global
    /// budget; fails on the first failing shard (in shard order,
    /// deterministic).
    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<CandidateCursor, MIndexError> {
        let shards: GuardSet<'_, S> = self.shards.iter().map(|shard| shard.read()).collect();
        let budget = Self::shard_open_budget(&shards, cand_size);
        MIndex::knn_cursor_over(&shards, evaluator, budget)
    }

    /// Every shard's range candidate superset in one cursor; selected
    /// uncapped, it is a superset of the true results — every true result
    /// lives in exactly one shard and survives that shard's (triangle-
    /// inequality-safe) pruning, so client refinement returns exactly what
    /// a single index would.
    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<CandidateCursor, MIndexError> {
        let shards: GuardSet<'_, S> = self.shards.iter().map(|shard| shard.read()).collect();
        MIndex::range_cursor_over(&shards, query_distances, radius)
    }

    /// The guard set is taken once for the whole batch (instead of once
    /// per query); each query then opens its own cursor over it. A failing
    /// query occupies only its own slot.
    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<CandidateCursor, MIndexError>> {
        let shards: GuardSet<'_, S> = self.shards.iter().map(|shard| shard.read()).collect();
        queries
            .iter()
            .map(|(evaluator, cand_size)| {
                let budget = Self::shard_open_budget(&shards, *cand_size);
                MIndex::knn_cursor_over(&shards, evaluator, budget)
            })
            .collect()
    }

    /// One shard guard per entry (see [`ShardedMIndex::insert`]): a
    /// concurrent search may observe a partially applied bulk. This is
    /// the deliberate price of removing the global write lock;
    /// deployments needing bulk atomicity against readers must quiesce
    /// searches around the bulk.
    fn insert_bulk(&self, entries: &[(u64, RecordBody<'_>)]) -> (u32, Option<MIndexError>) {
        insert_until_error(entries, |id, body| self.insert(id, body))
    }

    fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<Vec<u8>>>, MIndexError> {
        // The inherent, shard-routed lookup (inherent methods win the path).
        ShardedMIndex::fetch_entries(self, ids)
    }

    /// Shard by shard: order is per-shard storage order; callers that need
    /// a global order sort.
    fn all_entries(&self) -> Result<Vec<(u64, Vec<u8>)>, MIndexError> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for s in &self.shards {
            out.extend(s.read().all_entries()?);
        }
        Ok(out)
    }

    /// Entries and leaves sum, depth is the deepest shard (each shard's
    /// tree splits independently on its own load).
    fn shape(&self) -> IndexShape {
        let mut out = IndexShape {
            entries: self.len(),
            leaves: 0,
            max_depth: 0,
        };
        for s in &self.shards {
            let shape = s.read().shape();
            out.leaves += shape.leaves;
            out.max_depth = out.max_depth.max(shape.max_depth);
        }
        out
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard by shard, each under its own write lock. Shards commit
    /// independently: a failure on shard `k` leaves shards `< k` committed
    /// and is returned immediately.
    fn flush(&self) -> Result<(), MIndexError> {
        for s in &self.shards {
            s.write().flush()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HashRouter, PivotRouter};
    use simcloud_mindex::{Routing, RoutingStrategy};
    use simcloud_storage::MemoryStore;

    /// A k-NN open over every shard, drained to owned entries.
    fn knn(
        idx: &ShardedMIndex<MemoryStore>,
        ev: &PromiseEvaluator,
        cand: usize,
    ) -> RankedCandidates {
        let (cursors, cap) = idx.open_knn_cursors(ev, cand).unwrap();
        idx.drain(cursors, cap).unwrap()
    }

    /// A range open over every shard, drained uncapped.
    fn range(idx: &ShardedMIndex<MemoryStore>, q: &[f64], radius: f64) -> RankedCandidates {
        idx.drain(idx.open_range(q, radius).unwrap(), None).unwrap()
    }

    fn cfg(pivots: usize) -> MIndexConfig {
        MIndexConfig {
            num_pivots: pivots,
            max_level: 2,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        }
    }

    fn sharded(shards: usize, router: Box<dyn ShardRouter>) -> ShardedMIndex<MemoryStore> {
        ShardedMIndex::new(
            cfg(3),
            router,
            (0..shards).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap()
    }

    fn entry(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![id as u8; 3])
    }

    /// Inserts `e` as the record body it encodes.
    fn insert(idx: &ShardedMIndex<MemoryStore>, e: IndexEntry) -> Result<(), MIndexError> {
        let bytes = e.encode_payload();
        idx.insert(e.id, &RecordBody::parse(&bytes).unwrap())
    }

    #[test]
    fn no_stores_rejected() {
        assert!(matches!(
            ShardedMIndex::<MemoryStore>::new(cfg(3), Box::new(HashRouter), vec![]),
            Err(MIndexError::BadConfig(_))
        ));
    }

    #[test]
    fn inserts_land_on_router_chosen_shards() {
        let idx = sharded(3, Box::new(PivotRouter));
        insert(&idx, entry(1, &[0.1, 0.5, 0.9])).unwrap(); // pivot 0
        insert(&idx, entry(2, &[0.9, 0.1, 0.5])).unwrap(); // pivot 1
        insert(&idx, entry(3, &[0.9, 0.5, 0.1])).unwrap(); // pivot 2
        assert_eq!(idx.len(), 3);
        for i in 0..3 {
            assert_eq!(idx.shard(i).map_or(0, |s| s.len()), 1, "shard {i}");
        }
    }

    #[test]
    fn duplicate_id_rejected_across_shards() {
        // Pivot routing: the same id with different routing would land on a
        // *different* shard — only a global check catches the duplicate.
        let idx = sharded(3, Box::new(PivotRouter));
        insert(&idx, entry(7, &[0.1, 0.5, 0.9])).unwrap(); // shard 0
        assert!(matches!(
            insert(&idx, entry(7, &[0.9, 0.1, 0.5])), // would be shard 1
            Err(MIndexError::DuplicateId(7))
        ));
        assert_eq!(idx.len(), 1);
        assert_eq!(
            idx.shard(1).map_or(u64::MAX, |s| s.len()),
            0,
            "rejected entry must not land"
        );
    }

    #[test]
    fn shape_error_beats_duplicate_and_reservation_rolls_back() {
        let idx = sharded(2, Box::new(HashRouter));
        insert(&idx, entry(1, &[0.1, 0.5, 0.9])).unwrap();
        // Same id *and* wrong dimension: single-index precedence reports
        // the shape problem.
        assert!(matches!(
            insert(&idx, entry(1, &[0.1, 0.5])),
            Err(MIndexError::DimensionMismatch { .. })
        ));
        // Wrong dimension on a fresh id: the ownership reservation must be
        // rolled back so a corrected retry succeeds.
        assert!(matches!(
            insert(&idx, entry(2, &[0.1])),
            Err(MIndexError::DimensionMismatch { .. })
        ));
        insert(&idx, entry(2, &[0.2, 0.6, 0.8])).unwrap();
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn knn_merges_across_shards_sorted_and_capped() {
        let idx = sharded(2, Box::new(HashRouter));
        for x in 0..=10u64 {
            insert(&idx, entry(x, &[x as f64, 10.0 - x as f64, 5.0])).unwrap();
        }
        let ev = PromiseEvaluator::from_distances(vec![3.0, 7.0, 5.0]);
        let (cands, stats) = knn(&idx, &ev, 5);
        assert_eq!(cands.len(), 5);
        assert_eq!(stats.candidates, 5);
        assert!(
            cands.windows(2).all(|w| w[0].1 <= w[1].1),
            "merged list must stay sorted by bound"
        );
        // In this 1-D-style world the bound is exact: the query point wins.
        assert_eq!(cands[0].0.id, 3);
    }

    #[test]
    fn range_returns_union_of_shard_supersets() {
        let idx = sharded(3, Box::new(HashRouter));
        for x in 0..=10u64 {
            insert(&idx, entry(x, &[x as f64, 10.0 - x as f64, 5.0])).unwrap();
        }
        let (cands, stats) = range(&idx, &[2.0, 8.0, 5.0], 1.5);
        let mut ids: Vec<u64> = cands.iter().map(|(e, _)| e.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3], "exact in the 1-D world");
        assert!(stats.entries_scanned >= 3);
        assert!(cands.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn search_stats_sum_over_shards() {
        // Capacity high enough that inserts never split (splits re-read
        // buckets and would blur the read accounting below).
        let idx = ShardedMIndex::new(
            MIndexConfig {
                bucket_capacity: 100,
                ..cfg(3)
            },
            Box::new(HashRouter),
            (0..4).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap();
        for x in 0..20u64 {
            insert(&idx, entry(x, &[x as f64, 20.0 - x as f64, 10.0])).unwrap();
        }
        let (_, stats) = range(&idx, &[10.0, 10.0, 10.0], 30.0);
        assert_eq!(
            stats.entries_scanned, 20,
            "an all-covering radius must scan every shard's entries, \
             i.e. the per-shard counts sum"
        );
        let io = idx.io_stats();
        assert_eq!(io.records_read, 20, "per-shard store reads sum too");
    }

    #[test]
    fn fetch_entries_routes_to_owning_shards() {
        let idx = sharded(3, Box::new(HashRouter));
        for x in 0..12u64 {
            insert(&idx, entry(x, &[x as f64, 12.0 - x as f64, 6.0])).unwrap();
        }
        let got = idx.fetch_entries(&[7, 0, 99, 3, 7]).unwrap();
        let payload = |id: u8| Some(vec![id; 3]);
        assert_eq!(
            got,
            vec![payload(7), payload(0), None, payload(3), payload(7)],
            "unknown ids yield None, duplicates are each answered"
        );
        assert!(idx.fetch_entries(&[]).unwrap().is_empty());
    }

    #[test]
    fn first_cell_only_unions_shard_first_cells() {
        let idx = sharded(2, Box::new(HashRouter));
        for i in 0..6u64 {
            insert(&idx, entry(i, &[0.1, 0.5, 0.9])).unwrap(); // all pivot 0
        }
        let ev = PromiseEvaluator::from_distances(vec![0.1, 0.5, 0.9]);
        let (cands, _) = knn(&idx, &ev, FIRST_CELL_ONLY);
        assert_eq!(
            cands.len(),
            6,
            "the global first cell is split across shards; the union \
             restores it untrimmed"
        );
    }

    /// The one open equals the per-shard opens it replaced, run one
    /// after another: each shard's own `knn_cursor` / `range_cursor` at
    /// the shard budget, concatenated in shard order and stably ranked by
    /// bound, then capped — same entries, same bounds, same statistics.
    #[test]
    fn one_open_equals_per_shard_opens() {
        let idx = sharded(3, Box::new(HashRouter));
        for x in 0..=15u64 {
            insert(&idx, entry(x, &[x as f64, 15.0 - x as f64, 7.5])).unwrap();
        }
        let ev = PromiseEvaluator::from_distances(vec![4.0, 11.0, 7.5]);
        let per_shard = |open: &dyn Fn(&MIndex<MemoryStore>) -> CandidateCursor,
                         cap: Option<usize>| {
            let mut all = Vec::new();
            let mut stats = SearchStats::default();
            for i in 0..idx.shard_count() {
                let cursor = open(&idx.shard(i).unwrap());
                stats.merge(&cursor.stats());
                all.extend(cursor.collect_up_to(None).unwrap().0);
            }
            all.sort_by(|a, b| a.1.total_cmp(&b.1));
            all.truncate(cap.unwrap_or(usize::MAX));
            stats.candidates = all.len() as u64;
            stats.candidates_generated = all.len() as u64;
            (all, stats)
        };
        for cand in [1usize, 4, 6, 16, 40] {
            let budget = if cand >= 16 { cand } else { cand.div_ceil(3) };
            let reference = per_shard(&|ix| ix.knn_cursor(&ev, budget).unwrap(), Some(cand));
            assert_eq!(knn(&idx, &ev, cand), reference, "cand {cand}");
        }
        let q = [4.0, 11.0, 7.5];
        let reference = per_shard(&|ix| ix.range_cursor(&q, 2.0).unwrap(), None);
        assert_eq!(range(&idx, &q, 2.0), reference);
    }

    /// A router that places id `i` on shard `i / 100` — the ported merge
    /// cases pick each entry's shard.
    struct ByHundreds;

    impl ShardRouter for ByHundreds {
        fn route(&self, id: u64, _: &simcloud_mindex::entry::RoutingView<'_>, n: usize) -> usize {
            (id / 100) as usize % n
        }

        fn name(&self) -> &'static str {
            "by-hundreds"
        }
    }

    /// `shards` one-pivot shards holding `(id, distance)` points, placed by
    /// [`ByHundreds`]: the wire bound for query distance 0 is the distance
    /// minus its `f32` slack, so ranks follow the distances.
    fn one_pivot(shards: usize, points: &[(u64, f64)]) -> ShardedMIndex<MemoryStore> {
        let config = MIndexConfig {
            num_pivots: 1,
            max_level: 1,
            bucket_capacity: 1000,
            strategy: RoutingStrategy::Distances,
        };
        let stores = (0..shards).map(|_| MemoryStore::new()).collect();
        let idx = ShardedMIndex::new(config, Box::new(ByHundreds), stores).unwrap();
        for &(id, d) in points {
            insert(
                &idx,
                IndexEntry::new(id, Routing::from_distances(&[d]), vec![id as u8]),
            )
            .unwrap();
        }
        idx
    }

    fn ids(list: &[(IndexEntry, f64)]) -> Vec<u64> {
        list.iter().map(|(e, _)| e.id).collect()
    }

    fn at_zero() -> PromiseEvaluator {
        PromiseEvaluator::from_distances(vec![0.0])
    }

    #[test]
    fn merges_cursor_frontiers_ascending() {
        let idx = one_pivot(
            4,
            &[
                (1, 1.0),
                (2, 5.0),
                (3, 9.0),
                (101, 2.0),
                (102, 6.0),
                (301, 0.5),
            ],
        );
        let (merged, stats) = knn(&idx, &at_zero(), 6);
        assert_eq!(ids(&merged), vec![301, 1, 101, 2, 102, 3]);
        assert!(merged.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(stats.candidates, 6);
    }

    #[test]
    fn cap_keeps_globally_smallest_bounds() {
        let idx = one_pivot(2, &[(1, 3.0), (2, 4.0), (101, 1.0), (102, 2.0), (103, 2.5)]);
        let (merged, stats) = knn(&idx, &at_zero(), 3);
        assert_eq!(ids(&merged), vec![101, 102, 103]);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn ties_resolve_by_shard_order_deterministically() {
        let make = || one_pivot(2, &[(101, 0.5), (1, 0.5)]);
        let (a, _) = knn(&make(), &at_zero(), 2);
        let (b, _) = knn(&make(), &at_zero(), 2);
        assert_eq!(a[0].0.id, 1, "earlier shard wins the tie");
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn empty_and_zero_cap() {
        let (merged, _) = knn(&one_pivot(3, &[]), &at_zero(), 5);
        assert!(merged.is_empty());
        let idx = one_pivot(2, &[(1, 0.1)]);
        let cursor = idx.open_knn(&at_zero(), 1).unwrap();
        let (merged, stats) = idx.drain(cursor, Some(0)).unwrap();
        assert!(merged.is_empty());
        assert_eq!(stats.candidates, 0);
    }

    /// A capped open stages little more than the cap in total, not
    /// `shards × cap`: each shard walks only its `ceil(cap / N)` share.
    #[test]
    fn capped_drain_generates_sublinearly() {
        let config = MIndexConfig {
            num_pivots: 8,
            max_level: 3,
            bucket_capacity: 4,
            strategy: RoutingStrategy::Distances,
        };
        let stores = (0..4).map(|_| MemoryStore::new()).collect();
        let idx = ShardedMIndex::new(config, Box::new(ByHundreds), stores).unwrap();
        let spread = |id: u64, p: u64| ((id * (2 * p + 3) + p * p) % 17) as f64;
        for shard in 0..4u64 {
            for i in 0..60 {
                let id = shard * 100 + i;
                let ds: Vec<f64> = (0..8).map(|p| spread(id, p)).collect();
                insert(&idx, entry(id, &ds)).unwrap();
            }
        }
        let ev = PromiseEvaluator::from_distances((0..8).map(|p| spread(7, p)).collect());
        let (merged, stats) = knn(&idx, &ev, 40);
        assert_eq!(merged.len(), 40);
        assert_eq!(stats.candidates_generated, 40);
        assert!(
            stats.entries_scanned < 2 * 40,
            "scanned {} for a cap of 40 over 4 shards — every shard must \
             stage only its share of the budget",
            stats.entries_scanned
        );
    }

    /// The covering test counts what the held shards hold: an id an
    /// in-flight insert has reserved in the ownership map, but no shard
    /// holds yet, must not turn a collection-covering `cand_size` into
    /// `ceil(cand / N)` budgets that drop entries.
    #[test]
    fn covering_budget_counts_only_what_the_shards_hold() {
        let idx = ShardedMIndex::new(
            cfg(3),
            Box::new(ByHundreds),
            (0..2).map(|_| MemoryStore::new()).collect(),
        )
        .unwrap();
        for x in 0..12u64 {
            let t = x as f64;
            insert(&idx, entry(x, &[t, 12.0 - t, (t * 5.0) % 12.0])).unwrap();
        }
        insert(&idx, entry(100, &[6.0, 6.0, 6.0])).unwrap();
        // What `insert` does before the shard write: reserve the id.
        idx.owners.write().insert(999, 1);
        let held: u64 = (0..2).map(|i| idx.shard(i).map_or(0, |s| s.len())).sum();
        assert_eq!(held, 13);
        let ev = PromiseEvaluator::from_distances(vec![0.0, 12.0, 0.0]);
        let (cands, _) = knn(&idx, &ev, held as usize);
        assert_eq!(cands.len(), 13, "every held entry comes back");
    }

    #[test]
    fn shape_and_export_aggregate() {
        let idx = sharded(2, Box::new(HashRouter));
        for x in 0..8u64 {
            insert(&idx, entry(x, &[x as f64, 8.0 - x as f64, 4.0])).unwrap();
        }
        let shape = idx.shape();
        assert_eq!(shape.entries, 8);
        assert!(shape.leaves >= 2);
        let mut all = idx.all_entries().unwrap();
        all.sort_by_key(|&(id, _)| id);
        assert_eq!(all.len(), 8);
        assert_eq!(all[5], (5, vec![5u8; 3]));
    }

    #[test]
    fn concurrent_inserts_to_distinct_shards_and_searches() {
        let idx = std::sync::Arc::new(sharded(4, Box::new(HashRouter)));
        for x in 0..8u64 {
            insert(&idx, entry(x, &[x as f64, 8.0 - x as f64, 4.0])).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let idx = std::sync::Arc::clone(&idx);
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let id = 100 + t * 100 + i;
                        insert(&idx, entry(id, &[(id % 9) as f64, 4.0, 2.0])).unwrap();
                    }
                });
            }
            let idx = std::sync::Arc::clone(&idx);
            scope.spawn(move || {
                let ev = PromiseEvaluator::from_distances(vec![3.0, 5.0, 4.0]);
                for _ in 0..50 {
                    let (cands, _) = knn(&idx, &ev, 8);
                    assert!(!cands.is_empty());
                }
            });
        });
        assert_eq!(idx.len(), 8 + 4 * 25);
        let total: u64 = (0..4).map(|i| idx.shard(i).map_or(0, |s| s.len())).sum();
        assert_eq!(total, idx.len(), "ownership map and shards agree");
    }
}
