//! The M-Index proper: routing-only server-side structure.
//!
//! This is exactly the component that runs inside the *untrusted* similarity
//! cloud in the paper's architecture: it sees routing information (pivot
//! permutations or object–pivot distances) and opaque payloads, never the
//! pivots, the metric, or plaintext objects. Both the encrypted deployment
//! (`simcloud-core`) and the plain one ([`crate::plain::PlainMIndex`], where
//! the "payload" is just the un-encrypted vector) are built on it.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use simcloud_storage::{BucketId, BucketStore, Record, StorageError};

use crate::config::{MIndexConfig, RoutingStrategy};
use crate::cursor::{CandidateCursor, Staging, StoredRecord};
use crate::entry::{IndexEntry, Routing};
use crate::promise::PromiseEvaluator;
use crate::pruning::{
    hyperplane_may_intersect, pivot_filter_keep, pivot_filter_safe_lower_bound,
    range_pivot_may_intersect,
};
use crate::stats::SearchStats;
use crate::tree::{CellTree, LeafCell, Node, TreeShape};

/// M-Index errors.
#[derive(Debug)]
pub enum MIndexError {
    /// Underlying storage failed.
    Storage(StorageError),
    /// A stored record could not be decoded.
    Corrupt(String),
    /// Operation requires the other routing strategy (e.g. precise range
    /// search on a permutation-only index).
    WrongStrategy {
        /// Strategy the operation needs.
        required: RoutingStrategy,
        /// Strategy the index is configured with.
        configured: RoutingStrategy,
    },
    /// An entry with this external id is already indexed. Ids must be
    /// unique: the two-phase fetch addresses sealed payloads by id, and
    /// the client's envelope binds each payload's MAC to its id — with two
    /// entries behind one id, a fetch could only answer with one of them
    /// (undetectably, since both authenticate), silently diverging from
    /// what a fully-inlined response would have shipped.
    DuplicateId(u64),
    /// Routing information shorter than the tree's maximum level.
    PrefixTooShort {
        /// Entries must carry at least this many permutation positions.
        required: usize,
        /// What the entry carried.
        got: usize,
    },
    /// Distance vector length does not match the pivot count.
    DimensionMismatch {
        /// Expected number of pivots.
        expected: usize,
        /// Provided vector length.
        got: usize,
    },
    /// Invalid configuration.
    BadConfig(String),
}

impl std::fmt::Display for MIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MIndexError::Storage(e) => write!(f, "storage error: {e}"),
            MIndexError::Corrupt(s) => write!(f, "corrupt index data: {s}"),
            MIndexError::DuplicateId(id) => {
                write!(f, "object id {id} is already indexed (ids must be unique)")
            }
            MIndexError::WrongStrategy {
                required,
                configured,
            } => write!(
                f,
                "operation requires {required} routing but index stores {configured}"
            ),
            MIndexError::PrefixTooShort { required, got } => write!(
                f,
                "permutation prefix of {got} entries, index needs at least {required}"
            ),
            MIndexError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} pivot distances, got {got}")
            }
            MIndexError::BadConfig(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for MIndexError {}

impl From<StorageError> for MIndexError {
    fn from(e: StorageError) -> Self {
        MIndexError::Storage(e)
    }
}

/// Sentinel `cand_size` for [`MIndex::knn_cursor`]: the whole
/// most-promising Voronoi cell is the candidate set, untrimmed (paper
/// §5.4's 1-NN setting).
pub const FIRST_CELL_ONLY: usize = 0;

/// The drain cap a k-NN `cand_size` implies: [`FIRST_CELL_ONLY`] drains the
/// whole first cell untrimmed, anything else trims to the requested size
/// (Alg. 4 line 5).
pub fn knn_cap(cand_size: usize) -> Option<usize> {
    (cand_size != FIRST_CELL_ONLY).then_some(cand_size)
}

/// The dynamic M-Index over a bucket store.
pub struct MIndex<S: BucketStore> {
    config: MIndexConfig,
    tree: CellTree,
    store: S,
    entries: u64,
    /// External id → bucket currently holding the entry. Maintained by
    /// insert/split so [`MIndex::fetch_entries`] (the two-phase fetch's
    /// phase 2) re-reads exactly one bucket per distinct cell instead of
    /// scanning the store. Re-inserting an id keeps the latest location.
    id_map: HashMap<u64, BucketId>,
}

impl<S: BucketStore> std::fmt::Debug for MIndex<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MIndex")
            .field("config", &self.config)
            .field("entries", &self.entries)
            .field("shape", &self.tree.shape())
            .finish()
    }
}

impl<S: BucketStore> MIndex<S> {
    /// Creates an index over `store` with the given configuration.
    pub fn new(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        config.validate().map_err(MIndexError::BadConfig)?;
        Ok(Self {
            config,
            tree: CellTree::new(),
            store,
            entries: 0,
            id_map: HashMap::new(),
        })
    }

    /// Rebuilds an index over a store that already holds records — the
    /// crash-recovery path. [`DiskStore::open`] replays its write-ahead
    /// log and hands back the last durable snapshot of the buckets; this
    /// constructor re-derives the in-memory cell tree from those records
    /// by reading every bucket, discarding the old bucket layout, and
    /// re-inserting each entry through the normal routing path (splits
    /// replay deterministically because they depend only on the entries
    /// and the configuration). Undecodable payloads or duplicate ids in
    /// the store surface as errors, never panics.
    ///
    /// [`DiskStore::open`]: https://docs.rs/simcloud-storage
    pub fn rebuild(config: MIndexConfig, store: S) -> Result<Self, MIndexError> {
        let mut index = Self::new(config, store)?;
        let mut ids = index.store.bucket_ids();
        ids.sort();
        let mut entries = Vec::new();
        for b in &ids {
            for rec in index.store.read_bucket(*b)? {
                entries.push(IndexEntry::decode_payload(rec.id, &rec.payload).ok_or_else(
                    || {
                        MIndexError::Corrupt(format!(
                            "record {} undecodable during rebuild",
                            rec.id
                        ))
                    },
                )?);
            }
        }
        for b in ids {
            index.store.delete_bucket(b)?;
        }
        for entry in entries {
            index.insert(entry)?;
        }
        Ok(index)
    }

    /// The configuration.
    pub fn config(&self) -> &MIndexConfig {
        &self.config
    }

    /// Number of indexed entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Shape of the dynamic cell tree.
    pub fn shape(&self) -> TreeShape {
        self.tree.shape()
    }

    /// Underlying store (I/O statistics, backend name).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Flushes the underlying store to durable storage. For a disk-backed
    /// store this is the commit point: everything inserted so far survives
    /// a crash after `flush` returns; inserts after it do not until the
    /// next flush.
    pub fn flush(&mut self) -> Result<(), MIndexError> {
        self.store.flush().map_err(MIndexError::from)
    }

    /// ASCII rendering of the cell tree (Fig. 3 reproduction).
    pub fn render_tree(&self) -> String {
        self.tree.render(true)
    }

    fn check_entry(&self, entry: &IndexEntry) -> Result<(), MIndexError> {
        self.config.validate_entry(entry)
    }

    /// Inserts one entry (paper Alg. 1, server part: "locate node, store
    /// encrypted object, split if necessary"). External ids must be unique
    /// (see [`MIndexError::DuplicateId`]); splits re-insert through the
    /// unchecked path, so moving an entry between cells is unaffected.
    pub fn insert(&mut self, entry: IndexEntry) -> Result<(), MIndexError> {
        self.check_entry(&entry)?;
        if self.id_map.contains_key(&entry.id) {
            return Err(MIndexError::DuplicateId(entry.id));
        }
        self.insert_unchecked(entry)
    }

    fn insert_unchecked(&mut self, entry: IndexEntry) -> Result<(), MIndexError> {
        self.place(entry.id, &entry.routing, entry.encoded_len(), &mut |out| {
            entry.encode_payload_into(out);
        })
    }

    /// Routes one record to its leaf and appends it there; `write_body`
    /// writes the `body_len`-byte record body (`routing ‖ u32 len ‖
    /// payload`) once, into the store's own bytes.
    fn place(
        &mut self,
        id: u64,
        routing: &Routing,
        body_len: usize,
        write_body: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), MIndexError> {
        let perm = routing.permutation();
        let prefix: Vec<u16> = perm.prefix(self.config.max_level).to_vec();
        let (level, needs_split) = {
            let leaf = self.tree.locate_mut(&prefix);
            if let Routing::Distances(ds) = routing {
                let pd: Vec<f64> = prefix[..leaf.level]
                    .iter()
                    .map(|&i| ds[i as usize] as f64)
                    .collect();
                leaf.update_bounds(&pd);
            }
            self.store
                .append_with(leaf.bucket, id, body_len, write_body)?;
            self.id_map.insert(id, leaf.bucket);
            leaf.count += 1;
            leaf.stream_bytes += Record::HEADER_LEN + body_len;
            let needs_split =
                leaf.count > self.config.bucket_capacity && leaf.level < self.config.max_level;
            (leaf.level, needs_split)
        };
        self.entries += 1;
        if needs_split {
            self.split(&prefix[..level])?;
        }
        Ok(())
    }

    /// Splits the leaf at `prefix` one level deeper, re-distributing its
    /// records by the next pivot of their permutation (recursive Voronoi
    /// partitioning, Fig. 2b). A record moves as the bytes it is: only its
    /// routing header is decoded, to route it.
    fn split(&mut self, prefix: &[u16]) -> Result<(), MIndexError> {
        let leaf = self.tree.split_leaf(prefix);
        let corrupt = |what: &str| {
            MIndexError::Corrupt(format!("{what} of bucket {} during split", leaf.bucket))
        };
        let mut stream = Vec::with_capacity(leaf.stream_bytes);
        let records = self.store.read_bucket_into(leaf.bucket, &mut stream)?;
        self.store.delete_bucket(leaf.bucket)?;
        self.entries -= records as u64;
        let mut moved = 0;
        for record in Record::stream(&stream) {
            let record = record.map_err(|_| corrupt("truncated stream"))?;
            let body = record.payload;
            let routing = StoredRecord::parse(body)
                .ok_or_else(|| corrupt(&format!("undecodable record {}", record.id)))?
                .into_routing();
            // Depth of recursion is bounded by max_level.
            self.place(record.id, &routing, body.len(), &mut |out| {
                out.extend_from_slice(body);
            })?;
            moved += 1;
        }
        if moved != records {
            return Err(corrupt("miscounted stream"));
        }
        Ok(())
    }

    /// Precise range-query candidates (paper Alg. 3, the full server side).
    ///
    /// Prunes the cell tree with the double-pivot and range-pivot
    /// constraints, then applies per-object pivot filtering. The returned
    /// candidates still require client-side refinement — the server cannot
    /// compute `d(q, o)` — but are guaranteed to contain every true result
    /// (safety comes from the triangle inequality; see `tests/`).
    ///
    /// Each candidate ships with its **wire-safe pivot-filtering lower
    /// bound** on `d(q, o)` and the cursor ranks by it ascending, so a
    /// refining client can stop decrypting as soon as the remaining bounds
    /// exceed the radius. Survivors are only *staged* (filtered and
    /// bounded from their stored distance bytes, the record kept raw); the
    /// cursor owns its data and borrows nothing from the index.
    pub fn range_cursor(
        &self,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<CandidateCursor, MIndexError> {
        if self.config.strategy != RoutingStrategy::Distances {
            return Err(MIndexError::WrongStrategy {
                required: RoutingStrategy::Distances,
                configured: self.config.strategy,
            });
        }
        if query_distances.len() != self.config.num_pivots {
            return Err(MIndexError::DimensionMismatch {
                expected: self.config.num_pivots,
                got: query_distances.len(),
            });
        }
        let mut stats = SearchStats::default();
        let mut staging = Staging::default();
        // Iterative DFS carrying (node, prefix, used-pivot mask).
        let tree = &self.tree;
        let store = &self.store;
        let mut stack: Vec<(&Node, Vec<u16>)> = Vec::new();
        {
            let available_min = query_distances
                .iter()
                .cloned()
                .fold(f64::INFINITY, f64::min);
            for (&k, node) in tree.roots() {
                if hyperplane_may_intersect(query_distances[k as usize], available_min, radius) {
                    stack.push((node, vec![k]));
                } else {
                    stats.pruned_hyperplane += 1;
                }
            }
        }
        while let Some((node, prefix)) = stack.pop() {
            match node {
                Node::Internal { children } => {
                    // Available pivots exclude the prefix.
                    let mut available_min = f64::INFINITY;
                    for (i, &d) in query_distances.iter().enumerate() {
                        if !prefix.contains(&(i as u16)) && d < available_min {
                            available_min = d;
                        }
                    }
                    for (&k, child) in children {
                        if hyperplane_may_intersect(
                            query_distances[k as usize],
                            available_min,
                            radius,
                        ) {
                            let mut p = prefix.clone();
                            p.push(k);
                            stack.push((child, p));
                        } else {
                            stats.pruned_hyperplane += 1;
                        }
                    }
                }
                Node::Leaf(leaf) => {
                    if leaf.count == 0 {
                        continue;
                    }
                    let prefix_ds: Vec<f64> = prefix
                        .iter()
                        .map(|&i| query_distances[i as usize])
                        .collect();
                    if !leaf.dist_bounds.is_empty()
                        && !range_pivot_may_intersect(&prefix_ds, &leaf.dist_bounds, radius)
                    {
                        stats.pruned_range_pivot += 1;
                        continue;
                    }
                    stats.cells_visited += 1;
                    // Filtered: look, then copy the survivors (the rule is
                    // written out in `cursor.rs`). How many survive is not
                    // known, so the arena grows as they come.
                    let mut failed = None;
                    store.scan_bucket(leaf.bucket, &mut |id, record| {
                        if failed.is_some() {
                            return;
                        }
                        stats.entries_scanned += 1;
                        let staged = staging.stage_filtered(
                            id,
                            record,
                            &|stored| pivot_filter_keep(query_distances, stored, radius),
                            |stored| {
                                stored.map_or(0.0, |ds| {
                                    pivot_filter_safe_lower_bound(query_distances, ds)
                                })
                            },
                        );
                        match staged {
                            Ok(true) => {}
                            Ok(false) => stats.entries_filtered += 1,
                            Err(e) => failed = Some(e),
                        }
                    })?;
                    if let Some(e) = failed {
                        return Err(e);
                    }
                }
            }
        }
        Ok(CandidateCursor::new(staging, stats))
    }

    /// Approximate k-NN candidates (paper Alg. 4): enumerates Voronoi cells
    /// in promise order until `cand_size` entries are gathered.
    ///
    /// The candidate set is **ranked and the rank travels with it**: every
    /// view carries its lower bound and the cursor ranks by it ascending.
    /// When query and entries both carry distances the bound is the
    /// *wire-safe* pivot-filtering lower bound on `d(q, o)` (never exceeds
    /// the true distance, so a client may soundly stop refining the moment
    /// its k-th true distance beats every remaining bound). Under
    /// permutation routing no metric bound exists; the value is the
    /// cell-promise penalty — a heuristic ordering only.
    ///
    /// The cursor may hold more than `cand_size` entries (the last cell is
    /// staged whole); a consumer trims with
    /// `select_up_to(knn_cap(cand_size))` (Alg. 4 line 5), and a
    /// scatter-gather coordinator's *global* cap makes the per-shard excess
    /// unreachable. `cand_size == FIRST_CELL_ONLY (0)` reproduces the
    /// paper's §5.4 setting: "the server-side M-Index was limited to access
    /// only one M-Index Voronoi cell which then forms the candidate set" —
    /// the whole most-promising leaf, untrimmed.
    pub fn knn_cursor(
        &self,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<CandidateCursor, MIndexError> {
        // A distance evaluator must cover every pivot: the tree may hold a
        // root cell for any pivot index, and ranking it would read past the
        // end of a short query vector (a remote caller could crash the
        // server). Permutation evaluators are total by construction —
        // missing pivots rank with maximal displacement.
        if let PromiseEvaluator::Distances { distances, .. } = evaluator {
            if distances.len() != self.config.num_pivots {
                return Err(MIndexError::DimensionMismatch {
                    expected: self.config.num_pivots,
                    got: distances.len(),
                });
            }
        }
        let mut stats = SearchStats::default();
        let mut staging = Staging::default();
        let tree = &self.tree;
        let store = &self.store;

        struct Item<'a> {
            penalty: f64,
            prefix: Vec<u16>,
            node: &'a Node,
        }
        impl PartialEq for Item<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.penalty == other.penalty && self.prefix == other.prefix
            }
        }
        impl Eq for Item<'_> {}
        impl PartialOrd for Item<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Item<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                // BinaryHeap is a max-heap; invert for min-penalty-first.
                other
                    .penalty
                    .partial_cmp(&self.penalty)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| other.prefix.cmp(&self.prefix))
            }
        }

        let mut heap = BinaryHeap::new();
        for (&k, node) in tree.roots() {
            heap.push(Item {
                penalty: evaluator.step(k, 0),
                prefix: vec![k],
                node,
            });
        }
        // Pick the cells first: the stop rule reads leaf counts only, never
        // a record, so the arena is reserved once, for exactly what the
        // picked cells hold, before the first byte is read.
        let first_cell_only = cand_size == FIRST_CELL_ONLY;
        let mut cells: Vec<(&LeafCell, f64)> = Vec::new();
        let (mut gathered, mut stream_bytes) = (0usize, 0usize);
        while let Some(item) = heap.pop() {
            match item.node {
                Node::Internal { children } => {
                    for (&k, child) in children {
                        heap.push(Item {
                            penalty: item.penalty + evaluator.step(k, item.prefix.len()),
                            prefix: {
                                let mut p = item.prefix.clone();
                                p.push(k);
                                p
                            },
                            node: child,
                        });
                    }
                }
                Node::Leaf(leaf) => {
                    if leaf.count == 0 {
                        continue;
                    }
                    cells.push((leaf, item.penalty));
                    gathered += leaf.count;
                    stream_bytes += leaf.stream_bytes;
                    if first_cell_only || gathered >= cand_size {
                        break;
                    }
                }
            }
        }
        staging.reserve(gathered, stream_bytes);
        for (leaf, penalty) in cells {
            stats.cells_visited += 1;
            // Rank = wire-safe pivot-filter lower bound when distances are
            // available on both sides; the cell penalty (heuristic)
            // otherwise.
            let staged = staging.stage_cell(
                |arena| store.read_bucket_into(leaf.bucket, arena),
                |stored| match (stored, evaluator) {
                    (Some(ds), PromiseEvaluator::Distances { distances, .. }) => {
                        pivot_filter_safe_lower_bound(distances, ds)
                    }
                    _ => penalty,
                },
            )?;
            stats.entries_scanned += staged as u64;
        }
        Ok(CandidateCursor::new(staging, stats))
    }

    /// Re-reads the stored entries with the given external ids — the server
    /// side of the two-phase candidate fetch (phase 2). Returns one slot per
    /// requested id, in request order; `None` marks ids the index does not
    /// hold.
    ///
    /// Stateless and shared-read (`&self`): nothing is pinned per query —
    /// the ids are resolved through the id→bucket map and each distinct
    /// bucket is streamed **once** even when many requested ids share a
    /// cell (candidate ids do: they come from few promising cells), so a
    /// fetch costs `O(distinct cells)` bucket reads under the same read
    /// lock discipline as a search.
    pub fn fetch_entries(&self, ids: &[u64]) -> Result<Vec<Option<IndexEntry>>, MIndexError> {
        let mut out: Vec<Option<IndexEntry>> = Vec::with_capacity(ids.len());
        out.resize_with(ids.len(), || None);
        // Group request positions by bucket so each bucket is read once.
        let mut by_bucket: HashMap<BucketId, Vec<usize>> = HashMap::new();
        for (pos, id) in ids.iter().enumerate() {
            if let Some(&bucket) = self.id_map.get(id) {
                by_bucket.entry(bucket).or_default().push(pos);
            }
        }
        let mut wanted: HashMap<u64, Vec<usize>> = HashMap::new();
        for (bucket, positions) in by_bucket {
            wanted.clear();
            for &pos in &positions {
                wanted.entry(ids[pos]).or_default().push(pos);
            }
            let records = self
                .store
                .read_matching(bucket, &|id| wanted.contains_key(&id))?;
            for rec in records {
                let Some(positions) = wanted.get(&rec.id) else {
                    continue;
                };
                let entry = IndexEntry::decode_payload(rec.id, &rec.payload).ok_or_else(|| {
                    MIndexError::Corrupt(format!("record {} undecodable", rec.id))
                })?;
                for &pos in positions {
                    if out[pos].is_none() {
                        out[pos] = Some(entry.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// Reads all entries (diagnostics / the trivial baseline's "download
    /// everything" path).
    pub fn all_entries(&self) -> Result<Vec<IndexEntry>, MIndexError> {
        let mut ids: Vec<_> = self.store.bucket_ids();
        ids.sort();
        let mut out = Vec::with_capacity(self.entries as usize);
        for b in ids {
            for rec in self.store.read_bucket(b)? {
                out.push(
                    IndexEntry::decode_payload(rec.id, &rec.payload).ok_or_else(|| {
                        MIndexError::Corrupt(format!("record {} undecodable", rec.id))
                    })?,
                );
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud_storage::MemoryStore;

    fn cfg(pivots: usize, level: usize, cap: usize) -> MIndexConfig {
        MIndexConfig {
            num_pivots: pivots,
            max_level: level,
            bucket_capacity: cap,
            strategy: RoutingStrategy::Distances,
        }
    }

    fn entry_d(id: u64, ds: &[f64]) -> IndexEntry {
        IndexEntry::new(id, Routing::from_distances(ds), vec![id as u8])
    }

    /// A range search's full ranked list, copied out of its cursor.
    fn range_list<S: BucketStore>(
        idx: &MIndex<S>,
        query_distances: &[f64],
        radius: f64,
    ) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), MIndexError> {
        idx.range_cursor(query_distances, radius)?
            .collect_up_to(None)
    }

    /// A k-NN search's ranked list trimmed to `cand_size`, copied out of
    /// its cursor.
    fn knn_list<S: BucketStore>(
        idx: &MIndex<S>,
        evaluator: &PromiseEvaluator,
        cand_size: usize,
    ) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), MIndexError> {
        idx.knn_cursor(evaluator, cand_size)?
            .collect_up_to(knn_cap(cand_size))
    }

    #[test]
    fn insert_and_shape() {
        let mut idx = MIndex::new(cfg(3, 2, 2), MemoryStore::new()).unwrap();
        idx.insert(entry_d(1, &[0.1, 0.5, 0.9])).unwrap();
        idx.insert(entry_d(2, &[0.2, 0.6, 0.8])).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.shape().leaves, 1, "same closest pivot so far");
        idx.insert(entry_d(3, &[0.9, 0.1, 0.5])).unwrap();
        assert_eq!(idx.shape().leaves, 2);
    }

    #[test]
    fn bucket_overflow_splits() {
        let mut idx = MIndex::new(cfg(3, 2, 2), MemoryStore::new()).unwrap();
        // all share closest pivot 0, but differ in second pivot
        idx.insert(entry_d(1, &[0.1, 0.2, 0.9])).unwrap();
        idx.insert(entry_d(2, &[0.1, 0.3, 0.8])).unwrap();
        assert_eq!(idx.shape().max_depth, 1);
        idx.insert(entry_d(3, &[0.1, 0.9, 0.2])).unwrap();
        let shape = idx.shape();
        assert_eq!(shape.max_depth, 2, "third insert splits the level-1 cell");
        assert_eq!(shape.internal, 1);
        assert_eq!(idx.len(), 3, "entries preserved across split");
        assert_eq!(idx.store().total_records(), 3);
    }

    #[test]
    fn split_stops_at_max_level() {
        let mut idx = MIndex::new(cfg(3, 1, 2), MemoryStore::new()).unwrap();
        for i in 0..10 {
            idx.insert(entry_d(i, &[0.1, 0.5, 0.9])).unwrap();
        }
        let shape = idx.shape();
        assert_eq!(shape.max_depth, 1, "max_level 1 forbids splits");
        assert_eq!(shape.leaves, 1);
        assert_eq!(idx.len(), 10);
    }

    #[test]
    fn strategy_mismatch_rejected() {
        let mut idx = MIndex::new(cfg(3, 2, 2), MemoryStore::new()).unwrap();
        let perm_entry =
            IndexEntry::new(1, Routing::permutation_prefix(&[0.1, 0.2, 0.3], 2), vec![]);
        assert!(matches!(
            idx.insert(perm_entry),
            Err(MIndexError::WrongStrategy { .. })
        ));
        let mut pidx = MIndex::new(
            MIndexConfig {
                strategy: RoutingStrategy::Permutation,
                ..cfg(3, 2, 2)
            },
            MemoryStore::new(),
        )
        .unwrap();
        assert!(matches!(
            pidx.insert(entry_d(1, &[0.1, 0.2, 0.3])),
            Err(MIndexError::WrongStrategy { .. })
        ));
        assert!(matches!(
            range_list(&pidx, &[0.0, 0.0, 0.0], 1.0),
            Err(MIndexError::WrongStrategy { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut idx = MIndex::new(cfg(3, 2, 2), MemoryStore::new()).unwrap();
        assert!(matches!(
            idx.insert(entry_d(1, &[0.1, 0.2])),
            Err(MIndexError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            range_list(&idx, &[0.1], 1.0),
            Err(MIndexError::DimensionMismatch { .. })
        ));
    }

    /// Regression: a k-NN query with too few distances must error, not
    /// panic — with a root cell led by a high pivot index, ranking it would
    /// index past the end of the short query vector.
    #[test]
    fn knn_short_distance_query_errors_instead_of_panicking() {
        let mut idx = MIndex::new(cfg(3, 2, 2), MemoryStore::new()).unwrap();
        idx.insert(entry_d(1, &[0.9, 0.5, 0.1])).unwrap(); // root pivot 2
        let short = PromiseEvaluator::from_distances(vec![0.1, 0.2]);
        assert!(matches!(
            knn_list(&idx, &short, 5),
            Err(MIndexError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn short_permutation_prefix_rejected() {
        let mut pidx = MIndex::new(
            MIndexConfig {
                strategy: RoutingStrategy::Permutation,
                ..cfg(4, 3, 2)
            },
            MemoryStore::new(),
        )
        .unwrap();
        let short = IndexEntry::new(
            1,
            Routing::permutation_prefix(&[0.1, 0.2, 0.3, 0.4], 2),
            vec![],
        );
        assert!(matches!(
            pidx.insert(short),
            Err(MIndexError::PrefixTooShort { .. })
        ));
    }

    #[test]
    fn range_candidates_contain_matching_ids() {
        let mut idx = MIndex::new(cfg(2, 1, 100), MemoryStore::new()).unwrap();
        // 1-D line world: pivot 0 at x=0, pivot 1 at x=10.
        // object at x: distances (x, 10-x) for x in 0..=10
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        // query at x=2 (distances 2, 8), radius 1.5 → true matches x ∈ {1,2,3}
        let (cands, stats) = range_list(&idx, &[2.0, 8.0], 1.5).unwrap();
        let ids: Vec<u64> = cands.iter().map(|(e, _)| e.id).collect();
        for want in [1, 2, 3] {
            assert!(ids.contains(&want), "missing {want} in {ids:?}");
        }
        // pivot filtering in 1-D is exact: lower bound equals the true
        // distance, so nothing else survives
        assert_eq!(ids.len(), 3, "{ids:?}");
        assert!(stats.entries_scanned >= 3);
    }

    #[test]
    fn knn_candidates_respects_cand_size_and_ranking() {
        let mut idx = MIndex::new(cfg(2, 1, 4), MemoryStore::new()).unwrap();
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        let ev = PromiseEvaluator::from_distances(vec![2.0, 8.0]);
        let (cands, stats) = knn_list(&idx, &ev, 5).unwrap();
        assert_eq!(cands.len(), 5);
        assert_eq!(stats.candidates, 5);
        // The best candidate should be the exact point x=2.
        assert_eq!(cands[0].0.id, 2);
        assert!(
            cands.windows(2).all(|w| w[0].1 <= w[1].1),
            "candidates must arrive sorted by lower bound"
        );
    }

    #[test]
    fn knn_candidates_with_permutation_queries() {
        let mut idx = MIndex::new(
            MIndexConfig {
                strategy: RoutingStrategy::Permutation,
                ..cfg(3, 2, 2)
            },
            MemoryStore::new(),
        )
        .unwrap();
        for (id, ds) in [
            (0u64, [0.1, 0.5, 0.9]),
            (1, [0.2, 0.4, 0.9]),
            (2, [0.9, 0.1, 0.4]),
            (3, [0.8, 0.2, 0.3]),
            (4, [0.4, 0.9, 0.1]),
        ] {
            idx.insert(IndexEntry::new(
                id,
                Routing::permutation_prefix(&ds, 3),
                vec![],
            ))
            .unwrap();
        }
        let q = simcloud_metric::permutation_from_distances(&[0.15, 0.45, 0.95]);
        let ev = PromiseEvaluator::from_permutation(q);
        let (cands, _) = knn_list(&idx, &ev, 2).unwrap();
        assert_eq!(cands.len(), 2);
        let ids: Vec<u64> = cands.iter().map(|(e, _)| e.id).collect();
        assert!(ids.contains(&0) && ids.contains(&1), "{ids:?}");
    }

    #[test]
    fn first_cell_only_returns_whole_untrimmed_cell() {
        let mut idx = MIndex::new(cfg(3, 1, 100), MemoryStore::new()).unwrap();
        // cell of pivot 0 holds 5 entries, cell of pivot 1 holds 3
        for i in 0..5u64 {
            idx.insert(entry_d(i, &[0.1, 0.5, 0.9])).unwrap();
        }
        for i in 5..8u64 {
            idx.insert(entry_d(i, &[0.9, 0.1, 0.5])).unwrap();
        }
        let ev = PromiseEvaluator::from_distances(vec![0.1, 0.5, 0.9]);
        let (cands, stats) = knn_list(&idx, &ev, FIRST_CELL_ONLY).unwrap();
        assert_eq!(cands.len(), 5, "whole first cell, no trim");
        assert_eq!(stats.cells_visited, 1);
        assert!(cands.iter().all(|(e, _)| e.id < 5));
    }

    /// In the 1-D line world the pivot-filtering bound is exact, so the
    /// returned bounds must (a) arrive ascending and (b) never exceed the
    /// true query–object distance.
    #[test]
    fn knn_candidate_bounds_are_sorted_and_sound() {
        let mut idx = MIndex::new(cfg(2, 1, 100), MemoryStore::new()).unwrap();
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        let ev = PromiseEvaluator::from_distances(vec![3.0, 7.0]); // query at x=3
        let (cands, _) = knn_list(&idx, &ev, 11).unwrap();
        assert_eq!(cands.len(), 11);
        assert!(cands.windows(2).all(|w| w[0].1 <= w[1].1), "not ascending");
        for (e, lb) in &cands {
            let true_d = (e.id as f64 - 3.0).abs();
            assert!(
                *lb <= true_d,
                "bound {lb} exceeds true distance {true_d} for id {}",
                e.id
            );
        }
    }

    /// Range candidates carry the same sorted, sound bounds.
    #[test]
    fn range_candidate_bounds_are_sorted_and_sound() {
        let mut idx = MIndex::new(cfg(2, 1, 100), MemoryStore::new()).unwrap();
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        let (cands, _) = range_list(&idx, &[5.0, 5.0], 2.0).unwrap();
        assert!(!cands.is_empty());
        assert!(cands.windows(2).all(|w| w[0].1 <= w[1].1), "not ascending");
        for (e, lb) in &cands {
            let true_d = (e.id as f64 - 5.0).abs();
            assert!(*lb <= true_d, "bound {lb} > true {true_d} for {}", e.id);
        }
    }

    #[test]
    fn all_entries_roundtrip() {
        let mut idx = MIndex::new(cfg(2, 1, 2), MemoryStore::new()).unwrap();
        for x in 0..6u64 {
            idx.insert(entry_d(x, &[x as f64, 6.0 - x as f64])).unwrap();
        }
        let mut all = idx.all_entries().unwrap();
        all.sort_by_key(|e| e.id);
        assert_eq!(all.len(), 6);
        assert_eq!(all[3].payload, vec![3u8]);
    }

    /// Phase-2 lookups return entries in request order, `None` for unknown
    /// ids, and survive splits moving entries between buckets.
    #[test]
    fn fetch_entries_by_id_in_request_order() {
        let mut idx = MIndex::new(cfg(2, 2, 2), MemoryStore::new()).unwrap();
        // Small capacity forces splits, exercising id_map maintenance.
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        let got = idx.fetch_entries(&[7, 0, 99, 3]).unwrap();
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].as_ref().unwrap().id, 7);
        assert_eq!(got[0].as_ref().unwrap().payload, vec![7u8]);
        assert_eq!(got[1].as_ref().unwrap().id, 0);
        assert!(got[2].is_none(), "unknown id yields None");
        assert_eq!(got[3].as_ref().unwrap().id, 3);
    }

    /// Duplicate ids in one fetch each get their own filled slot, and ids
    /// sharing a cell cost a single bucket read.
    #[test]
    fn fetch_entries_handles_duplicates_and_reads_each_bucket_once() {
        let mut idx = MIndex::new(cfg(3, 1, 100), MemoryStore::new()).unwrap();
        for i in 0..6u64 {
            idx.insert(entry_d(i, &[0.1, 0.5, 0.9])).unwrap(); // one cell
        }
        let reads_before = idx.store().stats().records_read;
        let got = idx.fetch_entries(&[2, 2, 5]).unwrap();
        assert_eq!(got[0].as_ref().unwrap().id, 2);
        assert_eq!(got[1].as_ref().unwrap().id, 2);
        assert_eq!(got[2].as_ref().unwrap().id, 5);
        let reads = idx.store().stats().records_read - reads_before;
        assert_eq!(
            reads, 2,
            "the shared bucket is scanned once and only the two distinct \
             wanted records are materialized"
        );
    }

    /// Duplicate external ids are rejected at insert: the two-phase fetch
    /// addresses payloads by id, so two entries behind one id could not be
    /// faithfully re-served (the envelope also MAC-binds payloads to ids,
    /// which presumes uniqueness).
    #[test]
    fn duplicate_id_insert_rejected() {
        let mut idx = MIndex::new(cfg(2, 2, 4), MemoryStore::new()).unwrap();
        idx.insert(entry_d(7, &[1.0, 9.0])).unwrap();
        assert!(matches!(
            idx.insert(entry_d(7, &[2.0, 8.0])),
            Err(MIndexError::DuplicateId(7))
        ));
        assert_eq!(idx.len(), 1, "rejected entry must not land");
        // Splits (which re-insert moved entries) still work.
        for x in 0..8u64 {
            idx.insert(entry_d(100 + x, &[x as f64, 8.0 - x as f64]))
                .unwrap();
        }
        assert_eq!(idx.len(), 9);
    }

    #[test]
    fn fetch_entries_empty_request() {
        let idx = MIndex::new(cfg(2, 1, 4), MemoryStore::new()).unwrap();
        assert!(idx.fetch_entries(&[]).unwrap().is_empty());
    }

    /// `rebuild` over a store with an arbitrary bucket layout (here: every
    /// record piled into one bucket) re-derives the same tree a fresh
    /// index would build from the same entries, and queries still work.
    #[test]
    fn rebuild_rederives_tree_from_store_records() {
        let mut reference = MIndex::new(cfg(2, 2, 3), MemoryStore::new()).unwrap();
        let mut raw = MemoryStore::new();
        for x in 0..=10u64 {
            let e = entry_d(x, &[x as f64, 10.0 - x as f64]);
            raw.append(BucketId(0), Record::new(e.id, e.encode_payload()))
                .unwrap();
            reference.insert(e).unwrap();
        }
        let rebuilt = MIndex::rebuild(cfg(2, 2, 3), raw).unwrap();
        assert_eq!(rebuilt.len(), reference.len());
        assert_eq!(rebuilt.shape(), reference.shape());
        let (cands, _) = range_list(&rebuilt, &[7.0, 3.0], 0.0).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0.id, 7);
        assert_eq!(
            rebuilt.fetch_entries(&[4]).unwrap()[0].as_ref().unwrap().id,
            4
        );
    }

    /// Corrupt records in the store surface from `rebuild` as a typed
    /// error, never a panic.
    #[test]
    fn rebuild_rejects_undecodable_records() {
        let mut raw = MemoryStore::new();
        raw.append(BucketId(3), Record::new(9, vec![0xff; 3]))
            .unwrap();
        assert!(matches!(
            MIndex::rebuild(cfg(2, 2, 3), raw),
            Err(MIndexError::Corrupt(_))
        ));
    }

    #[test]
    fn zero_radius_query_finds_exact_point() {
        let mut idx = MIndex::new(cfg(2, 2, 3), MemoryStore::new()).unwrap();
        for x in 0..=10u64 {
            idx.insert(entry_d(x, &[x as f64, 10.0 - x as f64]))
                .unwrap();
        }
        let (cands, _) = range_list(&idx, &[7.0, 3.0], 0.0).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].0.id, 7);
    }
}
