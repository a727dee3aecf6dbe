//! Lazy, bound-ordered candidate cursors — the streaming half of the
//! query path.
//!
//! The eager candidate functions ([`crate::MIndex::knn_candidates`] /
//! [`crate::MIndex::range_candidates`]) decode **every** gathered record
//! into an [`IndexEntry`] and sort the full `(entry, bound)` list before
//! returning it. A scatter-gather coordinator then throws most of that
//! work away: with `N` shards each producing `cand_size` candidates, the
//! capped k-way merge keeps only `cand_size` of the `N·cand_size` decoded
//! entries.
//!
//! A [`CandidateCursor`] splits the work into two phases instead:
//!
//! * **Open** — walk exactly the cells the eager function walks (same
//!   promise order, same pruning, same stop condition, same
//!   [`SearchStats`] counters), but *stage* each surviving record as raw
//!   bytes: validate its encoding, compute its wire bound straight from
//!   the stored little-endian `f32` distance bytes
//!   ([`crate::entry::RoutingView`]), and keep the record's buffer as the
//!   store returned it. A scanned record costs no allocation here. A
//!   stable index sort by bound then fixes the yield order without
//!   materializing anything.
//! * **Yield** — [`CandidateCursor::next_candidate`] builds entries in
//!   ascending bound order, a small chunk at a time: the routing is
//!   decoded and the payload shifted to the front of the record's own
//!   buffer (no second payload copy) only for entries actually pulled;
//!   [`SearchStats::candidates_generated`] counts them.
//!
//! The yield order is byte-identical to the eager lists: staging order
//! equals the eager push order, the bound values are computed by the
//! same functions on the same `f32` bits, and the stable sort uses the
//! same comparator — so `cursor.collect_up_to(..)` *is* the eager
//! function, and the sharded merge over cursors reproduces the eager
//! merge wire-for-wire.

use std::cmp::Ordering;
use std::collections::VecDeque;

use crate::entry::{IndexEntry, Routing, RoutingView};
use crate::index::MIndexError;
use crate::stats::SearchStats;

/// Entries decoded per refill. Chunking amortizes the per-pull cost while
/// bounding the overshoot past a coordinator's stopping point to one
/// chunk per shard.
const DECODE_CHUNK: usize = 32;

/// One staged record: the whole encoding validated, nothing materialised.
/// `bound` is the wire lower bound the entry will ship with.
pub(crate) struct StagedEntry {
    pub(crate) id: u64,
    /// The full encoded record body; becomes the payload buffer at yield.
    raw: Vec<u8>,
    /// Byte range of the stored little-endian `f32` distances inside
    /// `raw`; `None` under permutation routing.
    distances: Option<(usize, usize)>,
    body_start: usize,
    body_len: usize,
    /// Wire lower bound; set by the open phase after parsing.
    pub(crate) bound: f64,
}

impl StagedEntry {
    /// Validates a stored record body without copying or decoding any of
    /// it. Accepts exactly the encodings [`IndexEntry::decode_payload`]
    /// accepts (routing header, `u32` payload length, payload in range),
    /// so open-time corruption errors fire on the same records the eager
    /// scan errored on.
    pub(crate) fn parse(id: u64, raw: Vec<u8>) -> Option<Self> {
        let (view, used) = RoutingView::decode(&raw)?;
        let distances = match view {
            RoutingView::Distances(le) => Some((used.checked_sub(4 * le.len())?, used)),
            RoutingView::Permutation(_) => None,
        };
        let len_bytes: [u8; 4] = raw.get(used..used + 4)?.try_into().ok()?;
        let body_len = u32::from_le_bytes(len_bytes) as usize;
        let body_start = used + 4;
        if raw.len() < body_start.checked_add(body_len)? {
            return None;
        }
        Some(Self {
            id,
            raw,
            distances,
            body_start,
            body_len,
            bound: 0.0,
        })
    }

    /// The record's stored object–pivot distances, still as the bytes the
    /// store returned — what the open phase computes the bound from.
    pub(crate) fn stored_distances(&self) -> Option<&[[u8; 4]]> {
        let (start, end) = self.distances?;
        Some(self.raw.get(start..end)?.as_chunks::<4>().0)
    }

    /// Builds the entry. The routing is decoded only now, and the payload
    /// is moved to the front of the record's own buffer rather than copied
    /// into a new one.
    fn materialize(&mut self) -> Option<IndexEntry> {
        let mut raw = std::mem::take(&mut self.raw);
        let (routing, _) = Routing::decode(&raw)?;
        raw.truncate(self.body_start.checked_add(self.body_len)?);
        raw.drain(..self.body_start);
        Some(IndexEntry::new(self.id, routing, raw))
    }
}

/// A lazy, bound-ordered stream of `(entry, lower_bound)` candidates.
///
/// Owned and lock-free: the open phase copies the staged records out of
/// the bucket store, so the cursor borrows nothing from the index — a
/// coordinator may hold many cursors from many shards with **no** shard
/// guard live (the lock-discipline lint enforces this).
///
/// Bounds are yielded in nondecreasing order; ties keep the staging
/// (cell-visit) order via the stable sort.
pub struct CandidateCursor {
    staged: Vec<StagedEntry>,
    /// Yield order: indices into `staged`, stably sorted by bound.
    order: Vec<u32>,
    /// Next position in `order` not yet decoded.
    pos: usize,
    /// Decoded entries awaiting a pull.
    decoded: VecDeque<(IndexEntry, f64)>,
    stats: SearchStats,
}

impl CandidateCursor {
    /// Ranks the staged records and prefetches the first decode chunk
    /// (so a parallel fan-out does that work inside the worker thread).
    pub(crate) fn new(staged: Vec<StagedEntry>, stats: SearchStats) -> Result<Self, MIndexError> {
        let mut order: Vec<u32> = (0..staged.len() as u32).collect();
        // Identical permutation to the eager `sort_by` over
        // `(entry, bound)` pairs: same comparator, same stable sort,
        // same initial (staging) order.
        order.sort_by(|&a, &b| {
            staged[a as usize]
                .bound
                .partial_cmp(&staged[b as usize].bound)
                .unwrap_or(Ordering::Equal)
        });
        let mut cursor = Self {
            staged,
            order,
            pos: 0,
            decoded: VecDeque::new(),
            stats,
        };
        cursor.refill()?;
        Ok(cursor)
    }

    /// The bound of the next candidate, without decoding anything.
    /// `None` when the cursor is exhausted.
    pub fn peek_bound(&self) -> Option<f64> {
        if let Some((_, b)) = self.decoded.front() {
            return Some(*b);
        }
        self.order
            .get(self.pos)
            .map(|&i| self.staged[i as usize].bound)
    }

    /// Candidates not yet pulled.
    pub fn remaining(&self) -> usize {
        self.decoded.len() + (self.order.len() - self.pos)
    }

    /// The open-phase statistics, plus `candidates_generated` for every
    /// entry decoded so far. `candidates` stays 0 — the consumer that
    /// assembles the final list sets it (see [`SearchStats::merge_from`]).
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Decodes the next chunk of the yield order.
    fn refill(&mut self) -> Result<(), MIndexError> {
        let end = (self.pos + DECODE_CHUNK).min(self.order.len());
        while self.pos < end {
            let slot = self.order[self.pos] as usize;
            self.pos += 1;
            let e = &mut self.staged[slot];
            let entry = e
                .materialize()
                .ok_or_else(|| MIndexError::Corrupt(format!("record {} undecodable", e.id)))?;
            self.decoded.push_back((entry, e.bound));
            self.stats.candidates_generated += 1;
        }
        Ok(())
    }

    /// Pulls the next candidate in ascending bound order, decoding a new
    /// chunk when the prefetched ones run out. `Ok(None)` = exhausted.
    pub fn next_candidate(&mut self) -> Result<Option<(IndexEntry, f64)>, MIndexError> {
        if self.decoded.is_empty() {
            self.refill()?;
        }
        Ok(self.decoded.pop_front())
    }

    /// Drains up to `cap` candidates (`None` = all) into the eager list
    /// shape, setting `stats.candidates` from the result length — this is
    /// exactly the pre-cursor eager function's contract.
    pub fn collect_up_to(
        mut self,
        cap: Option<usize>,
    ) -> Result<(Vec<(IndexEntry, f64)>, SearchStats), MIndexError> {
        let want = cap.map_or(self.remaining(), |c| c.min(self.remaining()));
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            match self.next_candidate()? {
                Some(c) => out.push(c),
                None => break,
            }
        }
        let mut stats = self.stats;
        stats.candidates = out.len() as u64;
        Ok((out, stats))
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

    fn staged(id: u64, bound: f64, payload: &[u8]) -> StagedEntry {
        let entry = IndexEntry::new(id, Routing::from_distances(&[bound]), payload.to_vec());
        let mut s = StagedEntry::parse(id, entry.encode_payload()).unwrap();
        s.bound = bound;
        s
    }

    #[test]
    fn yields_in_bound_order_with_stable_ties() {
        let cursor = CandidateCursor::new(
            vec![
                staged(1, 0.5, b"a"),
                staged(2, 0.1, b"b"),
                staged(3, 0.5, b"c"),
                staged(4, 0.0, b"d"),
            ],
            SearchStats::default(),
        )
        .unwrap();
        let (list, stats) = cursor.collect_up_to(None).unwrap();
        let ids: Vec<u64> = list.iter().map(|(e, _)| e.id).collect();
        assert_eq!(ids, vec![4, 2, 1, 3], "ties keep staging order");
        assert_eq!(list[2].0.payload, b"a".to_vec());
        assert_eq!(stats.candidates, 4);
        assert_eq!(stats.candidates_generated, 4);
    }

    #[test]
    fn peek_never_decodes_and_cap_limits_generation() {
        let entries: Vec<StagedEntry> = (0..100).map(|i| staged(i, i as f64, &[i as u8])).collect();
        let mut cursor = CandidateCursor::new(entries, SearchStats::default()).unwrap();
        // Only the prefetched chunk is decoded at open.
        assert_eq!(cursor.stats().candidates_generated, DECODE_CHUNK as u64);
        assert_eq!(cursor.peek_bound(), Some(0.0));
        for want in 0..40 {
            let (e, b) = cursor.next_candidate().unwrap().unwrap();
            assert_eq!(e.id, want as u64);
            assert_eq!(b, want as f64);
        }
        assert_eq!(cursor.peek_bound(), Some(40.0));
        assert_eq!(cursor.remaining(), 60);
        // 40 pulls forced two chunks; the other 36 stay undecoded.
        assert_eq!(cursor.stats().candidates_generated, 2 * DECODE_CHUNK as u64);
    }

    #[test]
    fn parse_rejects_what_decode_payload_rejects() {
        let entry = IndexEntry::new(9, Routing::from_distances(&[1.0, 2.0]), vec![7; 10]);
        let bytes = entry.encode_payload();
        assert!(StagedEntry::parse(9, bytes.clone()).is_some());
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert_eq!(
                StagedEntry::parse(9, bytes[..cut].to_vec()).is_some(),
                IndexEntry::decode_payload(9, &bytes[..cut]).is_some(),
                "cursor parse and eager decode must agree at cut {cut}"
            );
        }
    }

    #[test]
    fn materialize_decodes_late_and_reuses_the_record_buffer() {
        let entry = IndexEntry::new(9, Routing::from_distances(&[1.0, 2.5]), vec![7; 64]);
        let raw = entry.encode_payload();
        let buffer = raw.as_ptr();
        let mut staged = StagedEntry::parse(9, raw).unwrap();
        let stored: Vec<f32> = staged
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
        let built = staged.materialize().unwrap();
        assert_eq!(built, entry);
        assert_eq!(
            built.payload.as_ptr(),
            buffer,
            "the payload is the store's buffer, not a copy of it"
        );
        assert!(staged.materialize().is_none(), "an entry is built once");
    }

    #[test]
    fn empty_cursor_is_well_behaved() {
        let mut cursor = CandidateCursor::new(Vec::new(), SearchStats::default()).unwrap();
        assert_eq!(cursor.peek_bound(), None);
        assert_eq!(cursor.remaining(), 0);
        assert!(cursor.next_candidate().unwrap().is_none());
        let (list, stats) = cursor.collect_up_to(Some(5)).unwrap();
        assert!(list.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
