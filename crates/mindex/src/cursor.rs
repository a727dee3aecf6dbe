//! Bound-ordered candidate cursors — **the** definition of a search's
//! candidate set.
//!
//! A search *is* a cursor: [`crate::MIndex::knn_cursor`] and
//! [`crate::MIndex::range_cursor`] decide which cells are walked, which
//! records survive and in which order they are ranked. Everything that
//! reads a search reads the cursor's ranked views: the server's request
//! engine writes them straight into its response frame, the sharded merge
//! interleaves several cursors' views, [`crate::PlainMIndex`] decodes its
//! vectors from them, and [`CandidateCursor::collect_up_to`] copies them
//! out for callers that want owned entries.
//!
//! A search moves each candidate's sealed bytes **once** on the server
//! before they reach the response frame: from the bucket store into the
//! cursor's arena. Everything after that — ranking, the sharded merge,
//! the cap, the inline budget — works on borrowed [`CandidateView`]s.
//!
//! * **Open** — the cell walk: promise order with a `cand_size` stop
//!   condition for k-NN (the last cell is staged whole), double-pivot /
//!   range-pivot tree pruning plus per-object pivot filtering for range,
//!   counted into [`SearchStats`]. What survives is copied, once, into one
//!   `Vec<u8>` **arena** owned by the cursor and described by a 32-byte
//!   slot `{id, bound, offset, lengths}`; no per-record buffer exists at
//!   any point. The bound comes from the record's stored little-endian
//!   `f32` distances ([`crate::entry::RoutingView`]). Which comes first,
//!   the copy or the look, is one rule with two halves, both measured
//!   (`--bench components`: `cursor_open/*`, `range_frame/*`):
//!   * **unfiltered: copy the cell, then look.** A k-NN open keeps every
//!     record of every cell it picks, and those cells are picked from
//!     leaf counts alone, so the arena is reserved once for exactly their
//!     bytes, each cell arrives as one bulk read
//!     ([`BucketStore::read_bucket_into`](simcloud_storage::BucketStore::read_bucket_into)
//!     — one streaming pass over bytes that are cold whenever the store
//!     outgrows the cache) and the records are validated and bounded
//!     where they then lie (`Staging::stage_cell`);
//!   * **filtered: look, then copy the survivors.** A range open's pivot
//!     filter rejects most records within their first few stored
//!     distances, so it reads the bytes the store *lends*
//!     ([`BucketStore::scan_bucket`](simcloud_storage::BucketStore::scan_bucket))
//!     and a rejected record costs neither the copy nor the bandwidth
//!     (`Staging::stage_filtered`).
//!
//!   A stable sort by bound then fixes the rank order (ties keep
//!   cell-visit order); the cursor never changes after that.
//! * **Read** — [`CandidateCursor::views`] hands out
//!   `CandidateView { id, bound, payload }` in ascending bound order, the
//!   payload a slice of the arena. Nothing is decoded and nothing is
//!   copied. [`CandidateCursor::select_up_to`] is the capped selection a
//!   server stages; [`CandidateCursor::collect_up_to`] is its **owned
//!   adapter** for callers that want [`IndexEntry`] values: it decodes the
//!   routing header (kept in the arena beside the payload for exactly
//!   this) and copies the payload out.
//!
//! [`SearchStats::candidates_generated`] counts the candidates a selection
//! takes and nothing else.
//!
//! Because every consumer reads the same ranked views, single and
//! sharded servers, borrowed and owned paths agree byte for byte: the
//! sharded merge over per-shard cursors reproduces a single cursor's
//! order wire for wire (same bounds from the same `f32` bits, same stable
//! comparator, lower shard wins ties).

use std::cmp::Ordering;

use simcloud_storage::{Record, StorageError};

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

    /// The record's routing, decoded.
    pub(crate) fn into_routing(self) -> Routing {
        self.routing.into_routing()
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
#[derive(Clone, Copy)]
struct Slot {
    id: u64,
    bound: f64,
    /// Offset of the record body in the arena.
    start: usize,
    routing_len: u32,
    payload_len: u32,
}

fn undecodable(id: u64) -> MIndexError {
    MIndexError::Corrupt(format!("record {id} undecodable"))
}

/// The open phase's output: the arena and one slot per surviving record,
/// in cell-visit order.
#[derive(Default)]
pub(crate) struct Staging {
    arena: Vec<u8>,
    slots: Vec<Slot>,
}

impl Staging {
    /// Room for exactly `records` more records in `stream_bytes` more
    /// arena bytes — what an unfiltered open knows before it reads a cell.
    pub(crate) fn reserve(&mut self, records: usize, stream_bytes: usize) {
        self.slots.reserve_exact(records);
        self.arena.reserve_exact(stream_bytes);
    }

    /// Stages a whole cell, unfiltered: `read` appends the cell's record
    /// stream to the arena and reports how many records that is (the
    /// store's bulk read), then every record is validated and bounded from
    /// the arena copy. Returns the number of records staged.
    ///
    /// The stream must hold exactly the reported number of whole records,
    /// each with a body [`StoredRecord::parse`] accepts; anything else is
    /// [`MIndexError::Corrupt`] and leaves the staging as it was.
    pub(crate) fn stage_cell(
        &mut self,
        read: impl FnOnce(&mut Vec<u8>) -> Result<usize, StorageError>,
        bound_of: impl FnMut(Option<&[[u8; 4]]>) -> f64,
    ) -> Result<usize, MIndexError> {
        let (start, staged) = (self.arena.len(), self.slots.len());
        let walked = read(&mut self.arena)
            .map_err(MIndexError::from)
            .and_then(|records| self.index_stream(start, records, bound_of));
        if walked.is_err() {
            self.arena.truncate(start);
            self.slots.truncate(staged);
        }
        walked
    }

    /// Walks the `records` records of the stream at `arena[from..]`,
    /// pushing one slot each.
    fn index_stream(
        &mut self,
        from: usize,
        records: usize,
        mut bound_of: impl FnMut(Option<&[[u8; 4]]>) -> f64,
    ) -> Result<usize, MIndexError> {
        let miscounted =
            || MIndexError::Corrupt(format!("cell stream does not hold its {records} records"));
        let mut stream = Record::stream(self.arena.get(from..).unwrap_or(&[]));
        for _ in 0..records {
            let record = stream.next().and_then(Result::ok).ok_or_else(miscounted)?;
            let parsed =
                StoredRecord::parse(record.payload).ok_or_else(|| undecodable(record.id))?;
            self.slots.push(Slot {
                id: record.id,
                bound: bound_of(parsed.stored_distances()),
                start: from + record.payload_at,
                routing_len: parsed.routing_len,
                payload_len: parsed.payload_len,
            });
        }
        if stream.next().is_some() {
            return Err(miscounted());
        }
        Ok(records)
    }

    /// Stages one lent record behind a filter: `Ok(true)` when it was
    /// staged, `Ok(false)` when `keep` rejected it.
    ///
    /// `keep` (the range query's pivot filter) looks at the lent bytes, so
    /// a rejected record costs neither the copy nor the bandwidth — and is
    /// validated only as far as its routing header, which the filter
    /// reads. A survivor is copied into the arena and then validated and
    /// bounded from that copy, which is hot.
    pub(crate) fn stage_filtered(
        &mut self,
        id: u64,
        record: &[u8],
        keep: StoredFilter<'_>,
        bound_of: impl FnOnce(Option<&[[u8; 4]]>) -> f64,
    ) -> Result<bool, MIndexError> {
        let (routing, _) = RoutingView::decode(record).ok_or_else(|| undecodable(id))?;
        if let RoutingView::Distances(stored) = routing {
            if !keep(stored) {
                return Ok(false);
            }
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(record);
        let Some(parsed) = self.arena.get(start..).and_then(StoredRecord::parse) else {
            self.arena.truncate(start);
            return Err(undecodable(id));
        };
        let slot = Slot {
            id,
            bound: bound_of(parsed.stored_distances()),
            start,
            routing_len: parsed.routing_len,
            payload_len: parsed.payload_len,
        };
        // Nothing past the payload stays in the arena.
        self.arena
            .truncate(start + slot.routing_len as usize + 4 + slot.payload_len as usize);
        self.slots.push(slot);
        Ok(true)
    }
}

/// A search's candidate set, ranked by bound.
///
/// Owned and lock-free: the open phase copies the staged records out of
/// the bucket store into the cursor's arena, so the cursor borrows
/// nothing from the index — a coordinator may hold many cursors from many
/// shards with **no** shard guard live (the lock-discipline lint enforces
/// this).
///
/// Views come in nondecreasing bound order; ties keep the staging
/// (cell-visit) order via the stable sort.
pub struct CandidateCursor {
    arena: Vec<u8>,
    /// The staged records in rank order (stably sorted by bound).
    slots: Vec<Slot>,
    stats: SearchStats,
}

impl CandidateCursor {
    /// Ranks the staged records.
    pub(crate) fn new(staging: Staging, stats: SearchStats) -> Self {
        let Staging { arena, slots } = staging;
        // Rank 16-byte `(bound, staging index)` keys, then move each slot
        // once. Identical permutation to the eager `sort_by` over
        // `(entry, bound)` pairs: same comparator, same stable sort,
        // same initial (staging) order.
        let mut rank: Vec<(f64, usize)> = slots.iter().map(|s| s.bound).zip(0..).collect();
        rank.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(Ordering::Equal));
        let mut ranked = Vec::with_capacity(slots.len());
        ranked.extend(rank.iter().filter_map(|&(_, staged)| slots.get(staged)));
        Self {
            arena,
            slots: ranked,
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

    /// Every candidate in ascending bound order, borrowed from the arena.
    /// Iterating decodes and copies nothing.
    pub fn views(&self) -> impl ExactSizeIterator<Item = CandidateView<'_>> + '_ {
        self.slots.iter().map(move |s| self.view(s))
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the search found no candidate.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The open-phase statistics. `candidates` and `candidates_generated`
    /// stay 0 — the selection that assembles the final list sets them.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The first `cap` views (`None` = all) and the statistics of a
    /// consumer that takes exactly those: `candidates` and
    /// `candidates_generated` both count the selection.
    pub fn select_up_to(&self, cap: Option<usize>) -> (Vec<CandidateView<'_>>, SearchStats) {
        let want = cap.map_or(self.len(), |c| c.min(self.len()));
        let views: Vec<CandidateView<'_>> = self.views().take(want).collect();
        let mut stats = self.stats;
        stats.candidates_generated += views.len() as u64;
        stats.candidates = views.len() as u64;
        (views, stats)
    }

    /// The owned form of [`CandidateCursor::select_up_to`]: the first
    /// `cap` candidates (`None` = all) as `(entry, bound)` pairs, each
    /// routing header decoded and payload copied out, with the same
    /// statistics.
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
            .field("len", &self.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The record stream a store's bulk read appends for `entries`.
    fn stream_of(entries: &[IndexEntry]) -> Vec<u8> {
        let mut stream = Vec::new();
        for e in entries {
            Record::new(e.id, e.encode_payload()).encode(&mut stream);
        }
        stream
    }

    /// The bound a test record ships with: its one stored distance.
    fn stored_bound(stored: Option<&[[u8; 4]]>) -> f64 {
        stored.map_or(f64::NAN, |ds| f64::from(f32::from_le_bytes(ds[0])))
    }

    /// A cursor over one bulk-staged cell; every bound is `f32`-exact.
    fn cursor_over(records: &[(u64, f64, &[u8])]) -> CandidateCursor {
        let entries: Vec<IndexEntry> = records
            .iter()
            .map(|&(id, bound, payload)| {
                IndexEntry::new(id, Routing::from_distances(&[bound]), payload.to_vec())
            })
            .collect();
        let mut staging = Staging::default();
        stage(&mut staging, &stream_of(&entries), entries.len()).unwrap();
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
        let cursor = cursor_over(&borrowed);
        assert_eq!(cursor.stats().candidates_generated, 0, "open pulls nothing");
        assert_eq!(cursor.len(), 100);
        let (views, stats) = cursor.select_up_to(Some(40));
        for (want, view) in views.iter().enumerate() {
            assert_eq!(view.id, want as u64);
            assert_eq!(view.bound, want as f64);
        }
        assert_eq!(stats.candidates_generated, 40);
        assert_eq!(stats.candidates, 40);
        // Selecting leaves the cursor as it was: a second, smaller
        // selection is a prefix of the first and counts only itself.
        assert_eq!(cursor.stats().candidates_generated, 0);
        let (views, stats) = cursor.select_up_to(Some(10));
        assert_eq!(views.len(), 10);
        assert_eq!(views[0].id, 0);
        assert_eq!(stats.candidates_generated, 10);
        assert_eq!(stats.candidates, 10);
        assert_eq!(
            cursor.select_up_to(Some(500)).0.len(),
            100,
            "a cap past the end takes all"
        );
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
        let (reject, keep) = (|_: &[[u8; 4]]| false, |_: &[[u8; 4]]| true);
        let staged = |staging: &mut Staging, raw: &[u8], keep| {
            staging.stage_filtered(9, raw, keep, |_| 0.25)
        };
        assert!(!staged(&mut staging, &raw, &reject).unwrap());
        assert!(matches!(
            staged(&mut staging, &raw[..raw.len() / 2], &keep),
            Err(MIndexError::Corrupt(_))
        ));
        assert!(staging.arena.is_empty(), "neither left a byte behind");
        assert!(staged(&mut staging, &raw, &keep).unwrap());
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

    /// The bulk path: a cell's stream lands behind what the arena already
    /// holds, every record is found where it lies, and a stream that is
    /// short, long, miscounted or holds an unparseable body is `Corrupt`
    /// with arena and slots rolled back.
    #[test]
    fn stage_cell_indexes_the_stream_in_place_and_rolls_back_on_corruption() {
        let entries: Vec<IndexEntry> = (0..5u64)
            .map(|i| {
                let payload = vec![i as u8; 10 * i as usize]; // includes an empty one
                IndexEntry::new(i, Routing::from_distances(&[i as f64, 9.0]), payload)
            })
            .collect();
        let stream = stream_of(&entries);
        let mut staging = Staging::default();
        assert_eq!(
            stage(&mut staging, &stream, 5).unwrap(),
            (5, stream.len(), 5)
        );
        let mut bad_body = stream.clone();
        bad_body[Record::HEADER_LEN] = 9; // first record's routing tag
        for (bytes, claimed) in [
            (&stream[..stream.len() - 1], 5), // truncated
            (&stream[..], 4),                 // more records than claimed
            (&stream[..], 6),                 // fewer records than claimed
            (&bad_body[..], 5),
        ] {
            assert!(matches!(
                stage(&mut staging, bytes, claimed),
                Err(MIndexError::Corrupt(_))
            ));
        }
        assert!(matches!(
            staging.stage_cell(|_| Err(StorageError::Corrupt("io".into())), stored_bound),
            Err(MIndexError::Storage(_))
        ));
        // A second cell goes behind the first; nothing of the failures stayed.
        assert_eq!(
            stage(&mut staging, &stream, 5).unwrap(),
            (5, 2 * stream.len(), 10)
        );
        let cursor = CandidateCursor::new(staging, SearchStats::default());
        let (list, _) = cursor.collect_up_to(None).unwrap();
        let got: Vec<&IndexEntry> = list.iter().map(|(e, _)| e).collect();
        let want: Vec<&IndexEntry> = entries.iter().flat_map(|e| [e, e]).collect();
        assert_eq!(got, want, "bound order, ties in cell-visit order");
    }

    /// Bulk-stages `bytes` as a cell of `claimed` records; on success the
    /// records staged and the arena / slot totals after it.
    fn stage(
        staging: &mut Staging,
        bytes: &[u8],
        claimed: usize,
    ) -> Result<(usize, usize, usize), MIndexError> {
        let staged = staging.stage_cell(
            |arena| {
                arena.extend_from_slice(bytes);
                Ok(claimed)
            },
            stored_bound,
        )?;
        Ok((staged, staging.arena.len(), staging.slots.len()))
    }

    #[test]
    fn empty_cursor_is_well_behaved() {
        let cursor = cursor_over(&[]);
        assert!(cursor.is_empty());
        assert_eq!(cursor.len(), 0);
        assert_eq!(cursor.views().len(), 0);
        assert!(cursor.select_up_to(None).0.is_empty());
        let (list, stats) = cursor.collect_up_to(Some(5)).unwrap();
        assert!(list.is_empty());
        assert_eq!(stats.candidates, 0);
    }
}
