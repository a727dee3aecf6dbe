//! Bound-ordered candidate cursors — **the** definition of a search's
//! candidate set.
//!
//! A search *is* a cursor: [`crate::MIndex::knn_cursor`] and
//! [`crate::MIndex::range_cursor`] decide which cells are walked, which
//! records survive and in which order they are yielded. Everything else
//! that returns candidates is an adapter over one: the server's request
//! engine writes a cursor's views straight into its response frame, the
//! sharded merge interleaves several cursors' views, and the owned lists
//! of [`crate::MIndex::knn_candidates`] / [`crate::MIndex::range_candidates`]
//! are `cursor.collect_up_to(..)` — the cursor's yield sequence (trimmed
//! to the candidate budget for k-NN), copied out.
//!
//! A search moves each candidate's sealed bytes **once** on the server
//! before they reach the response frame: from the bucket store into the
//! cursor's arena. Everything after that — ranking, the sharded merge,
//! the cap, the inline budget — works on borrowed [`CandidateView`]s.
//!
//! * **Open** — the cell walk: promise order with a `cand_size` stop
//!   condition for k-NN (the last cell is staged whole), double-pivot /
//!   range-pivot tree pruning plus per-object pivot filtering for range,
//!   counted into [`SearchStats`]. Cells are read through
//!   [`BucketStore::scan_bucket`](simcloud_storage::BucketStore::scan_bucket),
//!   which *lends* each stored record. A record is appended to one
//!   `Vec<u8>` **arena** owned by the cursor — a single streaming read of
//!   bytes that are cold whenever the store outgrows the cache — and then
//!   validated and bounded from that copy (the bound from the stored
//!   little-endian `f32` distances, [`crate::entry::RoutingView`]); only
//!   a range query's pivot filter looks at the lent bytes first, so the
//!   records it rejects are never copied. A staged record is described
//!   by a 32-byte slot `{id, bound, offset, lengths}`. No per-record
//!   buffer exists at any point. A stable sort of the slots by bound then
//!   fixes the yield order (ties keep cell-visit order).
//! * **Yield** — [`CandidateCursor::views`] hands out
//!   `CandidateView { id, bound, payload }` in ascending bound order, the
//!   payload a slice of the arena. Nothing is decoded and nothing is
//!   copied. [`CandidateCursor::select_up_to`] is the capped selection a
//!   server stages; [`CandidateCursor::next_candidate`] and
//!   [`CandidateCursor::collect_up_to`] are the **owned adapters** over
//!   the same views for callers that want [`IndexEntry`] values: they
//!   decode the routing header (kept in the arena beside the payload for
//!   exactly this) and copy the payload out.
//!
//! [`SearchStats::candidates_generated`] counts the candidates handed to
//! the consumer — views selected or entries pulled — and nothing else.
//!
//! Because every consumer reads the same yield sequence, single and
//! sharded servers, borrowed and owned paths agree byte for byte: the
//! sharded merge over per-shard cursors reproduces a single cursor's
//! order wire for wire (same bounds from the same `f32` bits, same stable
//! comparator, lower shard wins ties).

use std::cmp::Ordering;

use crate::entry::{IndexEntry, Routing, RoutingView};
use crate::index::MIndexError;
use crate::stats::SearchStats;

/// One candidate as a cursor yields it: id, wire lower bound and the
/// sealed payload, borrowed from the cursor's arena.
#[derive(Debug, Clone, Copy)]
pub struct CandidateView<'a> {
    /// External object id.
    pub id: u64,
    /// Wire lower bound the candidate ships with.
    pub bound: f64,
    /// Opaque payload (sealed object / encoded vector).
    pub payload: &'a [u8],
    /// The record's encoded routing header; only the owned adapters
    /// decode it.
    routing: &'a [u8],
}

impl CandidateView<'_> {
    /// Builds the owned entry: decodes the routing header and copies the
    /// payload out of the arena.
    pub fn to_entry(&self) -> Result<IndexEntry, MIndexError> {
        let (routing, _) = Routing::decode(self.routing)
            .ok_or_else(|| MIndexError::Corrupt(format!("record {} undecodable", self.id)))?;
        Ok(IndexEntry::new(self.id, routing, self.payload.to_vec()))
    }
}

/// The owned form of a run of views: each routing header decoded, each
/// payload copied out of its arena — what every owned adapter returns.
pub fn owned_entries(views: &[CandidateView<'_>]) -> Result<Vec<(IndexEntry, f64)>, MIndexError> {
    views.iter().map(|v| Ok((v.to_entry()?, v.bound))).collect()
}

/// A stored record body, validated in place: `routing ‖ u32 len ‖ payload`.
pub(crate) struct StoredRecord<'a> {
    routing: RoutingView<'a>,
    routing_len: u32,
    payload_len: u32,
}

impl<'a> StoredRecord<'a> {
    /// Validates a stored record body without copying or decoding any of
    /// it. Accepts exactly the encodings [`IndexEntry::decode_payload`]
    /// accepts (routing header, `u32` payload length, payload in range),
    /// so open-time corruption errors fire on the same records the eager
    /// scan errored on.
    pub(crate) fn parse(record: &'a [u8]) -> Option<Self> {
        let (routing, used) = RoutingView::decode(record)?;
        let len_bytes: [u8; 4] = record.get(used..used.checked_add(4)?)?.try_into().ok()?;
        let payload_len = u32::from_le_bytes(len_bytes);
        if record.len() < (used + 4).checked_add(payload_len as usize)? {
            return None;
        }
        Some(Self {
            routing,
            routing_len: u32::try_from(used).ok()?,
            payload_len,
        })
    }

    /// The record's stored object–pivot distances, still as the bytes the
    /// store lent — what the open phase computes the bound from. `None`
    /// under permutation routing.
    pub(crate) fn stored_distances(&self) -> Option<&'a [[u8; 4]]> {
        match self.routing {
            RoutingView::Distances(le) => Some(le),
            RoutingView::Permutation(_) => None,
        }
    }
}

/// A per-record filter over the stored distance bytes (`true` = keep).
pub(crate) type StoredFilter<'f> = &'f dyn Fn(&[[u8; 4]]) -> bool;

/// One staged record: where its encoding sits in the arena and the bound
/// it ships with.
struct Slot {
    id: u64,
    bound: f64,
    /// Offset of the record body in the arena.
    start: usize,
    routing_len: u32,
    payload_len: u32,
}

/// The open phase's output: the arena and one slot per surviving record,
/// in cell-visit order.
#[derive(Default)]
pub(crate) struct Staging {
    arena: Vec<u8>,
    slots: Vec<Slot>,
}

impl Staging {
    /// Room for `records` more records of `record_len` bytes each.
    pub(crate) fn reserve(&mut self, records: usize, record_len: usize) {
        self.slots.reserve(records);
        self.arena.reserve(records.saturating_mul(record_len));
    }

    /// Stages one lent record: `Some(true)` when it was staged,
    /// `Some(false)` when `filter` rejected it, `None` when it does not
    /// decode.
    ///
    /// The record is copied into the arena **first** — one streaming read
    /// of bytes that are cold in a store much larger than the cache — and
    /// then validated and bounded from that copy, which is hot; reading
    /// the stored distances where they lie instead would pay memory
    /// latency line by line. Only a `filter` (the range query's pivot
    /// filter, which rejects most records within their first few
    /// distances) looks at the lent bytes, so that a rejected record
    /// costs neither the copy nor the bandwidth — and is validated only
    /// as far as its routing header, which the filter reads.
    pub(crate) fn stage(
        &mut self,
        id: u64,
        record: &[u8],
        filter: Option<StoredFilter<'_>>,
        bound_of: impl FnOnce(Option<&[[u8; 4]]>) -> f64,
    ) -> Option<bool> {
        if let Some(keep) = filter {
            if let (RoutingView::Distances(stored), _) = RoutingView::decode(record)? {
                if !keep(stored) {
                    return Some(false);
                }
            }
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(record);
        let staged = self
            .arena
            .get(start..)
            .and_then(StoredRecord::parse)
            .map(|parsed| {
                (
                    bound_of(parsed.stored_distances()),
                    parsed.routing_len,
                    parsed.payload_len,
                )
            });
        let Some((bound, routing_len, payload_len)) = staged else {
            self.arena.truncate(start);
            return None;
        };
        // Nothing past the payload stays in the arena.
        self.arena
            .truncate(start + routing_len as usize + 4 + payload_len as usize);
        self.slots.push(Slot {
            id,
            bound,
            start,
            routing_len,
            payload_len,
        });
        Some(true)
    }
}

/// A lazy, bound-ordered stream of candidates.
///
/// Owned and lock-free: the open phase copies the staged records out of
/// the bucket store into the cursor's arena, so the cursor borrows
/// nothing from the index — a coordinator may hold many cursors from many
/// shards with **no** shard guard live (the lock-discipline lint enforces
/// this).
///
/// Bounds are yielded in nondecreasing order; ties keep the staging
/// (cell-visit) order via the stable sort.
pub struct CandidateCursor {
    arena: Vec<u8>,
    /// The staged records in yield order (stably sorted by bound).
    slots: Vec<Slot>,
    /// Next position in `slots` not yet pulled by an owned adapter.
    pos: usize,
    stats: SearchStats,
}

impl CandidateCursor {
    /// Ranks the staged records.
    pub(crate) fn new(staging: Staging, stats: SearchStats) -> Self {
        let Staging { arena, mut slots } = staging;
        // Identical permutation to the eager `sort_by` over
        // `(entry, bound)` pairs: same comparator, same stable sort,
        // same initial (staging) order.
        slots.sort_by(|a, b| a.bound.partial_cmp(&b.bound).unwrap_or(Ordering::Equal));
        Self {
            arena,
            slots,
            pos: 0,
            stats,
        }
    }

    fn view(&self, s: &Slot) -> CandidateView<'_> {
        let (routing, rest) = self.arena[s.start..].split_at(s.routing_len as usize);
        CandidateView {
            id: s.id,
            bound: s.bound,
            payload: &rest[4..4 + s.payload_len as usize],
            routing,
        }
    }

    /// The candidates not yet pulled, in ascending bound order, borrowed
    /// from the arena. Iterating decodes and copies nothing and does not
    /// advance the cursor.
    pub fn views(&self) -> impl ExactSizeIterator<Item = CandidateView<'_>> + '_ {
        self.slots[self.pos..].iter().map(move |s| self.view(s))
    }

    /// The bound of the next candidate. `None` when the cursor is
    /// exhausted.
    pub fn peek_bound(&self) -> Option<f64> {
        self.slots.get(self.pos).map(|s| s.bound)
    }

    /// Candidates not yet pulled.
    pub fn remaining(&self) -> usize {
        self.slots.len() - self.pos
    }

    /// The open-phase statistics, plus `candidates_generated` for every
    /// entry pulled so far. `candidates` stays 0 — the consumer that
    /// assembles the final list sets it (see [`SearchStats::merge_from`]).
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The first `cap` remaining views (`None` = all) and the statistics
    /// of a consumer that takes exactly those: `candidates` and
    /// `candidates_generated` both count the selection.
    pub fn select_up_to(&self, cap: Option<usize>) -> (Vec<CandidateView<'_>>, SearchStats) {
        let want = cap.map_or(self.remaining(), |c| c.min(self.remaining()));
        let views: Vec<CandidateView<'_>> = self.views().take(want).collect();
        let mut stats = self.stats;
        stats.candidates_generated += views.len() as u64;
        stats.candidates = views.len() as u64;
        (views, stats)
    }

    /// Pulls the next candidate in ascending bound order as an owned
    /// entry. `Ok(None)` = exhausted.
    pub fn next_candidate(&mut self) -> Result<Option<(IndexEntry, f64)>, MIndexError> {
        let Some(view) = self.views().next() else {
            return Ok(None);
        };
        let pulled = (view.to_entry()?, view.bound);
        self.pos += 1;
        self.stats.candidates_generated += 1;
        Ok(Some(pulled))
    }

    /// Drains up to `cap` candidates (`None` = all) into the eager list
    /// shape, setting `stats.candidates` from the result length — this is
    /// exactly the pre-cursor eager function's contract, as the owned
    /// form of [`CandidateCursor::select_up_to`].
    pub fn collect_up_to(
        self,
        cap: Option<usize>,
    ) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), MIndexError> {
        let (views, stats) = self.select_up_to(cap);
        Ok((owned_entries(&views)?, stats))
    }
}

impl std::fmt::Debug for CandidateCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateCursor")
            .field("remaining", &self.remaining())
            .field("next_bound", &self.peek_bound())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cursor_over(records: &[(u64, f64, &[u8])]) -> CandidateCursor {
        let mut staging = Staging::default();
        for &(id, bound, payload) in records {
            let entry = IndexEntry::new(id, Routing::from_distances(&[bound]), payload.to_vec());
            let raw = entry.encode_payload();
            assert_eq!(staging.stage(id, &raw, None, |_| bound), Some(true));
        }
        CandidateCursor::new(staging, SearchStats::default())
    }

    #[test]
    fn yields_in_bound_order_with_stable_ties() {
        let cursor = cursor_over(&[
            (1, 0.5, b"a"),
            (2, 0.1, b"b"),
            (3, 0.5, b"c"),
            (4, 0.0, b"d"),
        ]);
        let (list, stats) = cursor.collect_up_to(None).unwrap();
        let ids: Vec<u64> = list.iter().map(|(e, _)| e.id).collect();
        assert_eq!(ids, vec![4, 2, 1, 3], "ties keep staging order");
        assert_eq!(list[2].0.payload, b"a".to_vec());
        assert_eq!(list[2].0.routing, Routing::from_distances(&[0.5]));
        assert_eq!(stats.candidates, 4);
        assert_eq!(stats.candidates_generated, 4);
    }

    #[test]
    fn generation_counts_exactly_what_is_pulled() {
        let records: Vec<(u64, f64, Vec<u8>)> =
            (0..100).map(|i| (i, i as f64, vec![i as u8])).collect();
        let borrowed: Vec<(u64, f64, &[u8])> =
            records.iter().map(|(i, b, p)| (*i, *b, &p[..])).collect();
        let mut cursor = cursor_over(&borrowed);
        assert_eq!(cursor.stats().candidates_generated, 0, "open pulls nothing");
        assert_eq!(cursor.peek_bound(), Some(0.0));
        for want in 0..40 {
            let (e, b) = cursor.next_candidate().unwrap().unwrap();
            assert_eq!(e.id, want as u64);
            assert_eq!(b, want as f64);
        }
        assert_eq!(cursor.peek_bound(), Some(40.0));
        assert_eq!(cursor.remaining(), 60);
        assert_eq!(cursor.stats().candidates_generated, 40);
        // A capped selection continues after the pulled prefix and counts
        // only itself on top.
        let (views, stats) = cursor.select_up_to(Some(10));
        assert_eq!(views.len(), 10);
        assert_eq!(views[0].id, 40);
        assert_eq!(stats.candidates_generated, 50);
        assert_eq!(stats.candidates, 10);
    }

    #[test]
    fn parse_rejects_what_decode_payload_rejects() {
        let entry = IndexEntry::new(9, Routing::from_distances(&[1.0, 2.0]), vec![7; 10]);
        let bytes = entry.encode_payload();
        assert!(StoredRecord::parse(&bytes).is_some());
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert_eq!(
                StoredRecord::parse(&bytes[..cut]).is_some(),
                IndexEntry::decode_payload(9, &bytes[..cut]).is_some(),
                "cursor parse and eager decode must agree at cut {cut}"
            );
        }
    }

    #[test]
    fn views_borrow_the_arena_and_bound_from_stored_bytes() {
        let entry = IndexEntry::new(9, Routing::from_distances(&[1.0, 2.5]), vec![7; 64]);
        let mut raw = entry.encode_payload();
        raw.extend_from_slice(b"slack a store may leave after the payload");
        let parsed = StoredRecord::parse(&raw).unwrap();
        let stored: Vec<f32> = parsed
            .stored_distances()
            .unwrap()
            .iter()
            .map(|c| f32::from_le_bytes(*c))
            .collect();
        assert_eq!(
            stored,
            vec![1.0, 2.5],
            "bounds are computed from these bytes"
        );
        let mut staging = Staging::default();
        let reject = |_: &[[u8; 4]]| false;
        assert_eq!(staging.stage(8, &raw, Some(&reject), |_| 0.0), Some(false));
        assert_eq!(staging.stage(8, &raw[..raw.len() / 2], None, |_| 0.0), None);
        assert_eq!(staging.stage(9, &raw, None, |_| 0.25), Some(true));
        let cursor = CandidateCursor::new(staging, SearchStats::default());
        assert_eq!(
            cursor.arena.len(),
            entry.encoded_len(),
            "one copy of the record, nothing past its payload"
        );
        let view = cursor.views().next().unwrap();
        assert_eq!((view.id, view.bound), (9, 0.25));
        assert_eq!(view.payload, &[7u8; 64][..]);
        assert!(
            cursor.arena.as_ptr_range().contains(&view.payload.as_ptr()),
            "the payload is a slice of the arena, not a copy of it"
        );
        assert_eq!(view.to_entry().unwrap(), entry);
    }

    #[test]
    fn empty_cursor_is_well_behaved() {
        let mut cursor = cursor_over(&[]);
        assert_eq!(cursor.peek_bound(), None);
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.views().len(), 0);
        assert!(cursor.next_candidate().unwrap().is_none());
        let (list, stats) = cursor.collect_up_to(Some(5)).unwrap();
        assert!(list.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
