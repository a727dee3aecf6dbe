//! The sharded M-Index: N fully independent shards, scatter-gather reads.
//!
//! Each shard is a complete [`MIndex`] with its **own** bucket store and its
//! own reader–writer lock, so an insert takes the write lock of exactly one
//! shard — 1/N of the key space blocks while searches and inserts on every
//! other shard proceed. Searches fan out to all shards (scoped threads over
//! `&self`, the shared-read path): each shard **opens** a lazy
//! [`CandidateCursor`] under its read guard, the guards drop with the
//! fan-out, and the coordinator then drains the merged bound-ordered
//! frontier lock-free until the global budget is met (see
//! [`crate::merge::merge_frontier`]) — shards never materialize candidates
//! the merge would discard.
//!
//! The index plugs into the one request engine of `simcloud_core` through
//! its [`SearchIndex`] impl: open = the fan-out, select = the frontier
//! merge, bulk insert = one shard guard per entry.
//!
//! A shard-aware ownership map (`id → shard`) backs the two operations that
//! address entries by external id: duplicate-id rejection at insert and the
//! two-phase fetch (`fetch_entries`), which routes each requested id to its
//! owning shard instead of asking everyone.

use std::collections::HashMap;

use parking_lot::{RwLock, RwLockReadGuard};
use simcloud_core::{insert_until_error, IndexShape, SearchIndex};
use simcloud_mindex::{
    knn_cap, owned_entries, CandidateCursor, CandidateView, IndexEntry, MIndex, MIndexConfig,
    MIndexError, PromiseEvaluator, RecordBody, SearchStats, FIRST_CELL_ONLY,
};
use simcloud_storage::{BucketStore, IoStats};
use simcloud_telemetry::Registry;

use crate::merge::merge_frontier;
use crate::router::ShardRouter;
use crate::telemetry::ShardTiming;

/// A ranked `(entry, lower_bound)` candidate list plus its search's
/// statistics — what the owned adapters return.
type RankedCandidates = (Vec<(IndexEntry, f64)>, SearchStats);

/// N independent M-Index shards behind one scatter-gather facade.
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
    /// Whether searches fan out on scoped threads (one per shard) or walk
    /// the shards sequentially on the calling thread. Defaults to the
    /// machine: with a single core the spawns are pure overhead (~tens of
    /// µs per query) and sequential scatter-gather computes the identical
    /// answer.
    parallel_fanout: bool,
    /// Optional shard-layer timing (see [`ShardTiming`]); bound by the
    /// server so opens, pulls and merges land in its registry.
    telemetry: Option<ShardTiming>,
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
            parallel_fanout: std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
                > 1,
            telemetry: None,
        })
    }

    /// Binds shard-layer timing (`shard.open` / `shard.pull` /
    /// `shard.merge` histograms) into `registry`. Timing follows the
    /// registry's enabled switch; an unbound index reads no clocks.
    pub fn bind_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(ShardTiming::bind(registry));
    }

    /// Overrides the fan-out mode (default: parallel iff the machine has
    /// more than one core) so the tests run both paths on any host.
    #[cfg(test)]
    fn with_parallel_fanout(mut self, parallel: bool) -> Self {
        self.parallel_fanout = parallel;
        self
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

    /// Runs `f` against every shard — concurrently on scoped threads over
    /// the shared-read path (shard 0 on the calling thread) when parallel
    /// fan-out is on, sequentially otherwise. Results come back in shard
    /// order either way.
    fn fan_out<R, F>(&self, f: F) -> Vec<Result<R, MIndexError>>
    where
        R: Send,
        F: Fn(&MIndex<S>) -> Result<R, MIndexError> + Sync,
    {
        if self.shards.len() == 1 || !self.parallel_fanout {
            return self.shards.iter().map(|s| f(&s.read())).collect();
        }
        std::thread::scope(|scope| {
            let mut shards = self.shards.iter();
            let first = shards.next();
            let handles: Vec<_> = shards
                .map(|s| {
                    let f = &f;
                    scope.spawn(move || f(&s.read()))
                })
                .collect();
            let mut out = Vec::with_capacity(self.shards.len());
            if let Some(s) = first {
                out.push(f(&s.read()));
            }
            out.extend(handles.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(MIndexError::Corrupt("shard worker panicked".into())))
            }));
            out
        })
    }

    /// Per-shard promise-walk budget for a k-NN cursor open.
    ///
    /// When the global candidate budget covers the whole collection, every
    /// shard must walk to exhaustion — that is the regime where sharded
    /// and single-index candidate sets provably coincide, and the
    /// byte-identity the equivalence suite pins. Below it the frontier
    /// contract applies instead: the coordinator stops after draining
    /// `cand_size` entries globally, so each shard stages only its
    /// `ceil(cand_size / N)` share of the budget in promise order. This is
    /// where the `~N·cand_size` gather-everything amplification actually
    /// fell: staging (walk + routing parse + bound computation), not just
    /// the decode the lazy yield already avoids.
    fn shard_open_budget(&self, cand_size: usize) -> usize {
        if cand_size == FIRST_CELL_ONLY {
            return cand_size;
        }
        let total = self.owners.read().len();
        if cand_size >= total {
            cand_size
        } else {
            cand_size.div_ceil(self.shards.len().max(1))
        }
    }

    /// The scatter half of a scatter-gather approximate k-NN
    /// ([`SearchIndex::open_knn`]) together with the query's global drain
    /// cap, ready for [`Self::drain`] — so an outside caller can time the
    /// open and the drain as distinct phases. Every shard *opens* a cursor
    /// over its own cells in promise order (staging its share of the global
    /// budget without decoding payloads); the drain keeps the `cand_size`
    /// globally smallest wire lower bounds, and entries past the global
    /// stopping point are never materialized. `FIRST_CELL_ONLY` yields the
    /// union of every shard's most promising cell, untrimmed (each shard's
    /// "first cell" is a fragment of the global one under pivot routing,
    /// and an independent sample under hash routing).
    pub fn open_knn_cursors(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<(Vec<CandidateCursor>, Option<usize>), MIndexError> {
        Ok((self.open_knn(evaluator, cand_size)?, knn_cap(cand_size)))
    }

    /// The gather half as owned entries ([`SearchIndex::select`] followed
    /// by [`owned_entries`]) — the eager list shape.
    pub fn drain(
        &self,
        cursors: Vec<CandidateCursor>,
        cap: Option<usize>,
    ) -> Result<RankedCandidates, MIndexError> {
        let (views, stats) = self.select(&cursors, cap);
        Ok((owned_entries(&views)?, stats))
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
/// owned cursor per shard: every shard guard is released with the fan-out
/// that opened them, so [`SearchIndex::select`] runs lock-free.
impl<S: BucketStore> SearchIndex for ShardedMIndex<S> {
    type Opened = Vec<CandidateCursor>;

    /// Fans the open out to every shard, each staging its share of the
    /// global budget; fails on the first failing shard (in shard order,
    /// deterministic).
    fn open_knn(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<Vec<CandidateCursor>, MIndexError> {
        let budget = self.shard_open_budget(cand_size);
        self.fan_out(|ix| {
            let _open = self.telemetry.as_ref().map(ShardTiming::open_timer);
            ix.knn_cursor(evaluator, budget)
        })
        .into_iter()
        .collect()
    }

    /// Every shard's range candidate superset; drained uncapped, their
    /// union is a superset of the true results — every true result lives
    /// in exactly one shard and survives that shard's (triangle-inequality-
    /// safe) pruning, so client refinement returns exactly what a single
    /// index would.
    fn open_range(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<Vec<CandidateCursor>, MIndexError> {
        self.fan_out(|ix| {
            let _open = self.telemetry.as_ref().map(ShardTiming::open_timer);
            ix.range_cursor(query_distances, radius)
        })
        .into_iter()
        .collect()
    }

    /// One fan-out pass for the whole batch: each shard worker opens every
    /// query's cursor under a single guard acquisition (instead of
    /// `batch × shards` lock crossings). A failing query (first failing
    /// shard, deterministic) occupies only its own slot.
    fn open_batch_knn(
        &self,
        queries: &[(PromiseEvaluator, usize)],
    ) -> Vec<Result<Vec<CandidateCursor>, MIndexError>> {
        // Per shard: one cursor per query. The closure itself cannot fail —
        // per-query errors stay in their slots — so a fan-out-level error
        // only arises from a worker panic and poisons the whole batch.
        let budgets: Vec<usize> = queries
            .iter()
            .map(|&(_, cand_size)| self.shard_open_budget(cand_size))
            .collect();
        let per_shard = self.fan_out(|ix| {
            let _open = self.telemetry.as_ref().map(ShardTiming::open_timer);
            Ok(queries
                .iter()
                .zip(&budgets)
                .map(|((evaluator, _), &budget)| ix.knn_cursor(evaluator, budget))
                .collect::<Vec<Result<CandidateCursor, MIndexError>>>())
        });
        // Transpose shard-major cursors into one slot per query. A slot
        // keeps its first failure in shard order (deterministic).
        let mut slots: Vec<Result<Vec<CandidateCursor>, MIndexError>> = queries
            .iter()
            .map(|_| Ok(Vec::with_capacity(self.shards.len())))
            .collect();
        for shard in per_shard {
            let cursors = match shard {
                Ok(cursors) => cursors,
                Err(e) => {
                    let msg = e.to_string();
                    return queries
                        .iter()
                        .map(|_| Err(MIndexError::Corrupt(msg.clone())))
                        .collect();
                }
            };
            for (slot, cursor) in slots.iter_mut().zip(cursors) {
                match (slot.as_mut(), cursor) {
                    (Ok(opened), Ok(c)) => opened.push(c),
                    (Ok(_), Err(e)) => *slot = Err(e),
                    (Err(_), _) => {}
                }
            }
        }
        slots
    }

    /// The gather half of every search: merges the cursors' frontiers
    /// lock-free into borrowed views (see [`merge_frontier`]), timing the
    /// coordinator's merge and its pull runs when telemetry is bound.
    fn select<'o>(
        &self,
        opened: &'o Vec<CandidateCursor>,
        cap: Option<usize>,
    ) -> (Vec<CandidateView<'o>>, SearchStats) {
        let _merge = self.telemetry.as_ref().map(ShardTiming::merge_timer);
        let pull = self.telemetry.as_ref().and_then(ShardTiming::pull_hist);
        merge_frontier(opened, cap, pull)
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

    /// A k-NN scatter-gather, drained to owned entries.
    fn knn(
        idx: &ShardedMIndex<MemoryStore>,
        ev: &PromiseEvaluator,
        cand: usize,
    ) -> RankedCandidates {
        let (cursors, cap) = idx.open_knn_cursors(ev, cand).unwrap();
        idx.drain(cursors, cap).unwrap()
    }

    /// A drained, uncapped range scatter-gather.
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

    /// Parallel and sequential fan-out must compute identical answers —
    /// forced explicitly so both paths run regardless of the host's core
    /// count.
    #[test]
    fn parallel_and_sequential_fanout_agree() {
        let build = |parallel: bool| {
            let idx = sharded(3, Box::new(HashRouter)).with_parallel_fanout(parallel);
            for x in 0..=15u64 {
                insert(&idx, entry(x, &[x as f64, 15.0 - x as f64, 7.5])).unwrap();
            }
            idx
        };
        let par = build(true);
        let seq = build(false);
        let ev = PromiseEvaluator::from_distances(vec![4.0, 11.0, 7.5]);
        let (a, sa) = knn(&par, &ev, 6);
        let (b, sb) = knn(&seq, &ev, 6);
        assert_eq!(
            a.iter().map(|(e, _)| e.id).collect::<Vec<_>>(),
            b.iter().map(|(e, _)| e.id).collect::<Vec<_>>()
        );
        assert_eq!(sa, sb);
        let (ra, _) = range(&par, &[4.0, 11.0, 7.5], 2.0);
        let (rb, _) = range(&seq, &[4.0, 11.0, 7.5], 2.0);
        assert_eq!(ra.len(), rb.len());
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
