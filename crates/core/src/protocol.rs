//! Wire protocol between the encryption client and the similarity cloud.
//!
//! Everything the server ever receives is in this module — auditing it
//! against the paper's privacy claim (§4.3) is easy: requests carry pivot
//! *permutations* or *distances* plus sealed payloads; responses carry
//! sealed payloads. Pivots, plaintext objects and the metric never appear.
//!
//! Binary layout (little-endian):
//!
//! ```text
//! request  := 0x01 u32 n { u32 len; entry }*n           bulk insert
//!           | 0x02 u16 n { f64 }*n f64 radius           precise range
//!           | 0x03 routing u32 cand_size                approx k-NN
//!           | 0x04                                      server info
//!           | 0x05                                      export all
//!           | 0x06 u16 n { routing; u32 cand_size }*n   batched approx k-NN
//!           | 0x07 u32 n { u64 id }*n                   fetch objects (phase 2)
//!           | 0x08                                      health probe
//!           | 0x09                                      metrics snapshot
//! response := 0x01 u32 inserted_count
//!           | 0x02 u32 n { u64 id; f64 lb;
//!                          u32 len; bytes }*n           full candidate set (export)
//!           | 0x03 u16 len utf8                         error
//!           | 0x04 u64 entries; u32 leaves; u32 depth   info
//!           | 0x05 u16 n { u8 tag;
//!                          tag=1: candidate list
//!                        | tag=0: u16 len utf8 }*n      batched per-query results
//!           | 0x06 u32 inserted; u16 len utf8           partial-insert error
//!           | 0x07 candidate list                       search answer (phase 1)
//!           | 0x08 u32 n { u64 id; u32 len; bytes }*n   fetched objects (phase 2)
//!           | 0x09 u8 status; u32 protocol;
//!                  u64 entries; u32 shards;
//!                  u64 uptime_nanos                      health
//!           | 0x0a u32 len utf8                         metrics snapshot (exposition text)
//!
//! candidate list := u32 n { u64 id; f64 lb }*n          headers, all candidates
//!                   u32 m { u32 len; bytes }*m          inline payload prefix, m <= n
//! ```
//!
//! Range query distances travel as `f64`: the server's pruning rules and
//! the client's refinement both compute in `f64`, and a narrower wire type
//! would let boundary objects (distance exactly `radius`) be pruned
//! server-side, breaking the precise range guarantee.
//!
//! ## Two-phase candidate fetch
//!
//! Search responses are **headers first, sealed objects on demand**. Phase
//! 1 ([`Response::CandidateList`]) ships one compact 16-byte header
//! `(id, lower_bound)` per candidate, sorted by the server-computed lower
//! bound ascending, plus sealed payloads for the *first `m` headers only*
//! (`m` is capped by the server's inline-byte budget — a generous budget
//! inlines everything and phase 2 never happens). The refining client
//! decrypts in bound order and stops at the sound early exit; when it runs
//! past the inlined prefix it issues [`Request::FetchObjects`] with the
//! next batch of candidate ids and receives the sealed payloads in
//! [`Response::Objects`], in request order. The server re-reads them by id
//! — phase 2 is stateless, nothing is pinned between the round trips.
//!
//! The bound is derived from routing information the server already holds,
//! so shipping it leaks nothing new; a fetch request names ids the server
//! itself chose for the candidate set, so phase 2 leaks at most the point
//! at which the client stopped — the same information the eager protocol's
//! `decrypted` accounting reveals in timing.

use simcloud_mindex::{CandidateView, IndexEntry, Routing};

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Bulk insert of encrypted entries (Alg. 1; the paper's construction
    /// phase uses bulks of 1000).
    Insert(Vec<IndexEntry>),
    /// Precise range search (Alg. 3): query–pivot distances + radius.
    Range {
        /// Query–pivot distances (full `f64` on the wire; see module docs).
        distances: Vec<f64>,
        /// Query radius.
        radius: f64,
    },
    /// Approximate k-NN (Alg. 4): routing info + requested candidate count.
    ApproxKnn {
        /// Query routing: permutation (less leakage) or distances.
        routing: Routing,
        /// Candidate set size `CandSize`.
        cand_size: u32,
    },
    /// Server diagnostics (tree shape); carries no query information.
    Info,
    /// Export every sealed entry (data-owner operation used for key
    /// rotation / client revocation). The response is sealed blobs — the
    /// server still learns nothing, and a non-owner requester only obtains
    /// what a server compromise would yield anyway (§4.3 threat model).
    ExportAll,
    /// Many approximate k-NN queries in one round trip (the batch query
    /// API): the server answers with one candidate set per query, in order.
    /// Amortizes per-message latency — the dominant cost on LAN/WAN links —
    /// and lets a concurrent server fan the batch out internally.
    /// The wire count is `u16`, so one message carries at most `u16::MAX`
    /// queries; `EncryptedClient::knn_approx_batch` chunks larger batches.
    BatchKnn(Vec<KnnQuery>),
    /// Phase 2 of the two-phase candidate fetch: the client asks for the
    /// sealed payloads of specific candidate ids it learned from a phase-1
    /// header list. Stateless on the server — payloads are re-read by id.
    FetchObjects {
        /// Candidate ids to fetch, typically an adaptive-batch slice of a
        /// phase-1 header list.
        ids: Vec<u64>,
    },
    /// Liveness/readiness probe (ops surface, wire v2). Carries no query
    /// information; servers answer from pre-aggregated atomics without
    /// touching the index lock, so a health check stays fast while a bulk
    /// insert holds the write lock. Reaching the handler at all also
    /// proves the server is under its connection cap — load shedding
    /// refuses the connection *before* any request is read.
    Health,
    /// Telemetry snapshot (ops surface, wire v2): the server renders its
    /// metric registry, search-stat totals and slow-query log in the
    /// plaintext exposition format (see the README's "Observability &
    /// operations"). Answered without the index lock, like [`Request::Health`].
    MetricsSnapshot,
}

/// One query of a [`Request::BatchKnn`] batch — same fields as
/// [`Request::ApproxKnn`].
#[derive(Debug, Clone, PartialEq)]
pub struct KnnQuery {
    /// Query routing: permutation (less leakage) or distances.
    pub routing: Routing,
    /// Candidate set size `CandSize`.
    pub cand_size: u32,
}

/// One candidate in a response: the id, the server's lower bound on the
/// query–object distance, and the sealed object — no routing info travels
/// back (the client recomputes true distances after decryption).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// External object id.
    pub id: u64,
    /// Server-computed lower bound on `d(q, o)` in the wire distance space
    /// (a sound pivot-filtering bound under distance routing; the heuristic
    /// cell-promise penalty under permutation routing). Candidate sets are
    /// sorted by this value ascending.
    pub lower_bound: f64,
    /// Sealed (encrypted) object bytes.
    pub payload: Vec<u8>,
}

/// Phase-1 candidate header: 16 bytes on the wire, no payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateHeader {
    /// External object id.
    pub id: u64,
    /// Server-computed lower bound on `d(q, o)` (see [`Candidate`]);
    /// header lists travel sorted by it ascending.
    pub lower_bound: f64,
}

/// A phase-1 search answer: headers for **every** candidate plus sealed
/// payloads inlined for the first `payloads.len()` headers (positional —
/// `payloads[i]` belongs to `headers[i]`). The inline prefix is bounded by
/// the server's response-byte budget; the client fetches the rest on
/// demand with [`Request::FetchObjects`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CandidateList {
    /// One header per candidate, sorted by lower bound ascending.
    pub headers: Vec<CandidateHeader>,
    /// Sealed payloads for the first `payloads.len()` headers
    /// (`payloads.len() <= headers.len()`, enforced by the codec).
    pub payloads: Vec<Vec<u8>>,
}

/// One sealed object of a phase-2 [`Response::Objects`] answer.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedObject {
    /// External object id — must match the requested id at this position.
    pub id: u64,
    /// Sealed (encrypted) object bytes.
    pub payload: Vec<u8>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Insert acknowledgement with the number of stored entries.
    Inserted(u32),
    /// A fully-materialized candidate set (every payload present). Since
    /// the two-phase wire this is only the [`Request::ExportAll`] answer —
    /// an export has no refinement to exit early from, so headers-first
    /// staging would only add a round trip.
    Candidates(Vec<Candidate>),
    /// Server-side failure (storage, malformed request, …).
    Error(String),
    /// Server info: entries, leaf cells, max tree depth.
    Info {
        /// Indexed entries.
        entries: u64,
        /// Leaf cell count.
        leaves: u32,
        /// Maximum tree depth.
        depth: u32,
    },
    /// One **per-query result** per query of a [`Request::BatchKnn`], in
    /// order: a failing query ships its error message in its own slot and
    /// no longer discards its siblings' candidate sets.
    CandidateSets(Vec<Result<CandidateList, String>>),
    /// A bulk insert failed mid-batch: `inserted` entries of the batch
    /// prefix **are stored** — the client needs this count to know what
    /// landed (bulk inserts are not atomic).
    InsertError {
        /// Entries of the batch prefix that were stored before the failure.
        inserted: u32,
        /// Failure description.
        message: String,
    },
    /// Phase-1 search answer: all candidate headers, payloads inlined for
    /// a budget-bounded prefix (see [`CandidateList`]).
    CandidateList(CandidateList),
    /// Phase-2 answer to [`Request::FetchObjects`]: the sealed payloads of
    /// the requested ids, **in request order**. The client rejects any
    /// deviation (missing, extra, duplicated or reordered ids) and the MAC
    /// binds each payload to its id, so a malicious server cannot
    /// substitute objects undetected.
    Objects(Vec<FetchedObject>),
    /// Answer to [`Request::Health`]: a fixed-size liveness summary
    /// served from atomics (never the index lock).
    Health {
        /// `0` = serving. Nonzero values are reserved for degraded states.
        status: u8,
        /// The server's wire protocol version ([`PROTOCOL_VERSION`]).
        protocol: u32,
        /// Entries resident across all shards (pre-aggregated gauge).
        entries: u64,
        /// Shard count (`1` for an unsharded server).
        shards: u32,
        /// Nanoseconds since the server's telemetry registry was created.
        uptime_nanos: u64,
    },
    /// Answer to [`Request::MetricsSnapshot`]: the rendered exposition
    /// text. Framed with a `u32` length — unlike `Error` messages, a
    /// metrics dump legitimately exceeds `u16::MAX` bytes.
    MetricsSnapshot(String),
}

/// Wire protocol version, reported by [`Response::Health`].
///
/// * v1 — tags `0x01..=0x07` requests / `0x01..=0x08` responses.
/// * v2 — adds the ops surface: `Health` / `MetricsSnapshot` requests and
///   their responses. Purely additive: every v1 message is bit-identical
///   under v2, and a v1 peer rejects the new tags as unknown instead of
///   misparsing them.
pub const PROTOCOL_VERSION: u32 = 2;

/// Protocol decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err(msg: &str) -> CodecError {
    CodecError(msg.into())
}

/// Hard cap on the size of a single encoded message accepted by
/// [`Request::decode`] / [`Response::decode`].
///
/// Wire length/count fields are attacker-controlled in both directions (a
/// hostile client sends requests, a hostile server sends responses), so
/// decode must bound its allocations by something the attacker pays for.
/// The cap rejects anything larger than the biggest legitimate message
/// (full-dataset exports included) before any count field is trusted;
/// within the cap, every `Vec::with_capacity` is additionally bounded by
/// the bytes actually present (see `cap_alloc`).
///
/// Defined as the transport layer's frame cap so the two bounds cannot
/// drift: the framing code rejects a hostile length prefix before
/// allocating, and the codec rejects the same sizes before decoding.
pub const MAX_DECODE_BYTES: usize = simcloud_transport::MAX_FRAME_BYTES;

/// Largest candidate-header count a phase-1 [`CandidateList`] can carry
/// without its *headers-only* encoding busting [`MAX_DECODE_BYTES`] on the
/// client's decoder.
///
/// A headers-only list costs `1` tag byte + `4` header-count bytes +
/// `16` bytes per header + `4` payload-count bytes (see
/// `encode_candidate_list`); the 9 framing bytes leave
/// `(MAX_DECODE_BYTES - 9) / 16` header slots. Servers clamp `cand_size`
/// to this before running a search — a request for more would produce an
/// answer the requester itself could never decode, so it is refused up
/// front with [`Response::Error`] instead of discovered as a codec error
/// after the work is done.
pub const MAX_CANDIDATE_HEADERS: usize = (MAX_DECODE_BYTES - 9) / 16;

/// Caps a claimed element count before `Vec::with_capacity`: the count
/// field is attacker-controlled, the buffer length bounds reality.
/// `min_size` is the smallest wire footprint of one element, so the
/// returned capacity never exceeds what the buffer could actually hold.
fn cap_alloc(claimed: usize, remaining: usize, min_size: usize) -> usize {
    claimed.min(remaining / min_size.max(1))
}

/// Saturating size-to-wire conversions. In-memory counts can't
/// realistically exceed the wire field, but saturate rather than wrap so
/// an impossible giant encodes into a decode error on the peer instead of
/// a silently wrong count.
fn wire_u32(n: usize) -> u32 {
    debug_assert!(n <= u32::MAX as usize, "wire count overflow");
    u32::try_from(n).unwrap_or(u32::MAX)
}

fn wire_u16(n: usize) -> u16 {
    debug_assert!(n <= u16::MAX as usize, "wire count overflow");
    u16::try_from(n).unwrap_or(u16::MAX)
}

/// Bounds-checked little-endian cursor over a decode buffer.
///
/// Every read is total: out-of-range access yields a [`CodecError`],
/// never a panic — the byte stream is hostile input on both ends of the
/// connection, and the static analysis gate keeps this file free of
/// indexing and `unwrap`.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The unconsumed tail (for hand-off to nested decoders).
    fn rest(&self) -> &'a [u8] {
        self.buf
    }

    fn take<const N: usize>(&mut self, what: &str) -> Result<[u8; N], CodecError> {
        match self.buf.split_first_chunk::<N>() {
            Some((chunk, rest)) => {
                self.buf = rest;
                Ok(*chunk)
            }
            None => Err(err(&format!("{what} truncated"))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        self.take::<1>(what).map(|[b]| b)
    }

    fn u16(&mut self, what: &str) -> Result<u16, CodecError> {
        self.take::<2>(what).map(u16::from_le_bytes)
    }

    fn u32(&mut self, what: &str) -> Result<u32, CodecError> {
        self.take::<4>(what).map(u32::from_le_bytes)
    }

    fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        self.take::<8>(what).map(u64::from_le_bytes)
    }

    fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        self.take::<8>(what).map(f64::from_le_bytes)
    }

    /// Consumes exactly `n` bytes.
    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(err(&format!("{what} truncated")));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Skips `n` bytes a nested decoder already consumed from [`Self::rest`].
    fn skip(&mut self, n: usize, what: &str) -> Result<(), CodecError> {
        self.bytes(n, what).map(|_| ())
    }

    /// Rejects trailing bytes once a message is fully decoded.
    fn finish(self, what: &str) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(err(&format!("trailing bytes after {what}")))
        }
    }
}

/// Appends `u32 n { u64 id; f64 lb; u32 len; bytes }*n` (the
/// fully-materialized layout of [`Response::Candidates`]).
fn encode_candidates(out: &mut Vec<u8>, cands: &[Candidate]) {
    out.extend_from_slice(&wire_u32(cands.len()).to_le_bytes());
    for c in cands {
        out.extend_from_slice(&c.id.to_le_bytes());
        out.extend_from_slice(&c.lower_bound.to_le_bytes());
        out.extend_from_slice(&wire_u32(c.payload.len()).to_le_bytes());
        out.extend_from_slice(&c.payload);
    }
}

/// Decodes the candidate layout written by [`encode_candidates`].
fn decode_candidates(r: &mut Reader<'_>) -> Result<Vec<Candidate>, CodecError> {
    let n = r.u32("candidates header")? as usize;
    let mut cands = Vec::with_capacity(cap_alloc(n, r.remaining(), 20));
    for _ in 0..n {
        let id = r.u64("candidate header")?;
        let lower_bound = r.f64("candidate header")?;
        let len = r.u32("candidate header")? as usize;
        let payload = r.bytes(len, "candidate payload")?.to_vec();
        cands.push(Candidate {
            id,
            lower_bound,
            payload,
        });
    }
    Ok(cands)
}

/// Appends one candidate list: `u32 n { u64 id; f64 lb }*n` headers, then
/// `u32 m { u32 len; bytes }*m` inline payloads for the first `m` headers.
/// The one list writer: owned lists and staged views both encode here.
fn encode_list_parts<'p>(
    out: &mut Vec<u8>,
    headers: impl ExactSizeIterator<Item = CandidateHeader>,
    payloads: impl ExactSizeIterator<Item = &'p [u8]>,
) {
    debug_assert!(payloads.len() <= headers.len());
    out.extend_from_slice(&wire_u32(headers.len()).to_le_bytes());
    for h in headers {
        out.extend_from_slice(&h.id.to_le_bytes());
        out.extend_from_slice(&h.lower_bound.to_le_bytes());
    }
    out.extend_from_slice(&wire_u32(payloads.len()).to_le_bytes());
    for p in payloads {
        out.extend_from_slice(&wire_u32(p.len()).to_le_bytes());
        out.extend_from_slice(p);
    }
}

/// Encoded size of a candidate list with `headers` headers and the given
/// inline payload lengths (the layout [`encode_list_parts`] writes).
fn list_encoded_len(headers: usize, payload_lens: impl Iterator<Item = usize>) -> usize {
    payload_lens.fold(4 + 16 * headers + 4, |n, len| n + 4 + len)
}

fn encode_candidate_list(out: &mut Vec<u8>, list: &CandidateList) {
    encode_list_parts(
        out,
        list.headers.iter().copied(),
        list.payloads.iter().map(Vec::as_slice),
    );
}

/// A phase-1 candidate list parsed **in place**: headers and inline
/// payloads are slices of the response frame, nothing is copied. This is
/// *the* list parser — [`Response::decode`] builds its owned
/// [`CandidateList`] from it — so it accepts and rejects exactly the same
/// frames, with every length bounded by the bytes actually present.
///
/// A refining client keeps the frame alive and unseals the few payloads
/// it needs straight from it; the rest are never touched.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateListView<'a> {
    /// One raw 16-byte `u64 id ‖ f64 lb` header per candidate.
    headers: &'a [[u8; 16]],
    /// Sealed payloads of the first `payloads.len()` headers (positional).
    payloads: Vec<&'a [u8]>,
}

impl<'a> CandidateListView<'a> {
    /// Parses one candidate list. Rejects more inline payloads than
    /// headers.
    fn parse(r: &mut Reader<'a>) -> Result<Self, CodecError> {
        let n = r.u32("candidate list header count")? as usize;
        let (headers, _) = r
            .bytes(n.saturating_mul(16), "candidate list headers")?
            .as_chunks::<16>();
        let m = r.u32("candidate list payload count")? as usize;
        if m > n {
            return Err(err("more inline payloads than candidate headers"));
        }
        let mut payloads = Vec::with_capacity(cap_alloc(m, r.remaining(), 4));
        for _ in 0..m {
            let len = r.u32("inline payload length")? as usize;
            payloads.push(r.bytes(len, "inline payload")?);
        }
        Ok(Self { headers, payloads })
    }

    /// Number of candidates (headers).
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// True when the list carries no candidate.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// The headers, decoded on the fly, in wire order.
    pub fn headers(&self) -> impl ExactSizeIterator<Item = CandidateHeader> + '_ {
        self.headers.iter().map(|raw| {
            // `u64 id ‖ f64 lb`, both little-endian: the low and high
            // halves of the 16 bytes read as one little-endian integer.
            let both = u128::from_le_bytes(*raw);
            CandidateHeader {
                id: both as u64,
                lower_bound: f64::from_bits((both >> 64) as u64),
            }
        })
    }

    /// The inline payload prefix: `payloads()[i]` belongs to header `i`.
    pub fn payloads(&self) -> &[&'a [u8]] {
        &self.payloads
    }

    /// Copies the list out of the frame.
    pub fn to_owned(&self) -> CandidateList {
        CandidateList {
            headers: self.headers().collect(),
            payloads: self.payloads.iter().map(|p| p.to_vec()).collect(),
        }
    }
}

/// One borrowed [`Response::CandidateSets`] slot.
pub type CandidateSetView<'a> = Result<CandidateListView<'a>, String>;

/// Parses the body of a [`Response::CandidateSets`] answer in place.
fn parse_candidate_sets<'a>(r: &mut Reader<'a>) -> Result<Vec<CandidateSetView<'a>>, CodecError> {
    let n = r.u16("candidate sets header")? as usize;
    let mut sets = Vec::with_capacity(cap_alloc(n, r.remaining(), 1));
    for _ in 0..n {
        match r.u8("per-query result tag")? {
            1 => sets.push(Ok(CandidateListView::parse(r)?)),
            0 => sets.push(Err(decode_message(r)?)),
            t => return Err(err(&format!("unknown per-query result tag {t}"))),
        }
    }
    Ok(sets)
}

/// A search answer parsed in place — what a refining client reads a
/// response frame through. The two answers that carry candidate lists
/// borrow the frame; every other response (errors, acks — all small) is
/// decoded owned. Accepts exactly the frames [`Response::decode`] accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchAnswerView<'a> {
    /// [`Response::CandidateList`], borrowed.
    List(CandidateListView<'a>),
    /// [`Response::CandidateSets`], each successful slot borrowed.
    Sets(Vec<CandidateSetView<'a>>),
    /// Any other response.
    Other(Response),
}

impl<'a> SearchAnswerView<'a> {
    /// Parses a response frame.
    pub fn parse(frame: &'a [u8]) -> Result<Self, CodecError> {
        if frame.len() > MAX_DECODE_BYTES {
            return Err(err("response exceeds decode size cap"));
        }
        let mut r = Reader::new(frame);
        match r.u8("response tag")? {
            0x05 => {
                let sets = parse_candidate_sets(&mut r)?;
                r.finish("candidate sets")?;
                Ok(SearchAnswerView::Sets(sets))
            }
            0x07 => {
                let list = CandidateListView::parse(&mut r)?;
                r.finish("candidate list")?;
                Ok(SearchAnswerView::List(list))
            }
            _ => Response::decode(frame).map(SearchAnswerView::Other),
        }
    }
}

/// A phase-1 candidate list staged for the wire **without owning it**: the
/// ranked views (borrowed from the candidate cursors' arenas) plus how many
/// leading payloads ship inline. The encode-side counterpart of
/// [`CandidateListView`]: a server front end writes it straight into the
/// response frame, byte-identical to encoding the owned [`CandidateList`]
/// of the same headers and inline payloads.
#[derive(Debug, Clone)]
pub struct StagedList<'a> {
    views: Vec<CandidateView<'a>>,
    inline: usize,
}

impl<'a> StagedList<'a> {
    /// Stages `views` (every header ships) with the payloads of the first
    /// `inline` inlined.
    pub fn new(views: Vec<CandidateView<'a>>, inline: usize) -> Self {
        let inline = inline.min(views.len());
        Self { views, inline }
    }

    /// Number of candidates (headers).
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the list carries no candidate.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    fn headers(&self) -> impl ExactSizeIterator<Item = CandidateHeader> + '_ {
        self.views.iter().map(|v| CandidateHeader {
            id: v.id,
            lower_bound: v.bound,
        })
    }

    fn inline_payloads(&self) -> impl ExactSizeIterator<Item = &'a [u8]> + '_ {
        self.views.iter().take(self.inline).map(|v| v.payload)
    }

    fn encoded_len(&self) -> usize {
        list_encoded_len(self.views.len(), self.inline_payloads().map(<[u8]>::len))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_list_parts(out, self.headers(), self.inline_payloads());
    }
}

/// A server's answer before it is written to the wire: search answers stay
/// staged over borrowed views, every other response is already owned.
#[derive(Debug)]
pub enum StagedResponse<'a> {
    /// Becomes [`Response::CandidateList`].
    List(StagedList<'a>),
    /// Becomes [`Response::CandidateSets`].
    Sets(Vec<Result<StagedList<'a>, String>>),
    /// Any response that carries no candidate list.
    Other(Response),
}

impl StagedResponse<'_> {
    /// Encodes the response frame in one exactly-sized buffer — each
    /// inline payload moves once, from its arena into the frame. The
    /// bytes equal [`Response::encode`] of the owned response that carries
    /// the same candidates.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            StagedResponse::List(list) => {
                let mut out = Vec::with_capacity(1 + list.encoded_len());
                out.push(0x07);
                list.encode_into(&mut out);
                out
            }
            StagedResponse::Sets(sets) => {
                let len = sets.iter().fold(1 + 2, |n, slot| {
                    n + 1
                        + match slot {
                            Ok(list) => list.encoded_len(),
                            Err(msg) => 2 + msg.len().min(u16::MAX as usize),
                        }
                });
                let mut out = Vec::with_capacity(len);
                out.push(0x05);
                out.extend_from_slice(&wire_u16(sets.len()).to_le_bytes());
                for slot in sets {
                    match slot {
                        Ok(list) => {
                            out.push(1);
                            list.encode_into(&mut out);
                        }
                        Err(msg) => {
                            out.push(0);
                            encode_message(&mut out, msg);
                        }
                    }
                }
                out
            }
            StagedResponse::Other(response) => response.encode(),
        }
    }
}

/// Appends `u16 len || utf8` (truncating over-long messages).
fn encode_message(out: &mut Vec<u8>, msg: &str) {
    let bytes = msg.as_bytes();
    let n = bytes.len().min(u16::MAX as usize);
    out.extend_from_slice(&wire_u16(n).to_le_bytes());
    out.extend_from_slice(bytes.get(..n).unwrap_or(bytes));
}

/// Decodes `u16 len || utf8` written by [`encode_message`].
fn decode_message(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let n = r.u16("message length")? as usize;
    let body = r.bytes(n, "message body")?;
    Ok(String::from_utf8_lossy(body).into_owned())
}

impl Request {
    /// Encodes the request.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Insert(entries) => {
                // One pass into an exactly-sized buffer: a bulk is sealed
                // objects end to end, and each is copied here once.
                let body_len = |e: &IndexEntry| 8 + e.encoded_len();
                out.reserve_exact(1 + 4 + entries.iter().map(|e| 4 + body_len(e)).sum::<usize>());
                out.push(0x01);
                out.extend_from_slice(&wire_u32(entries.len()).to_le_bytes());
                for e in entries {
                    out.extend_from_slice(&wire_u32(body_len(e)).to_le_bytes());
                    out.extend_from_slice(&e.id.to_le_bytes());
                    e.encode_payload_into(&mut out);
                }
            }
            Request::Range { distances, radius } => {
                out.push(0x02);
                out.extend_from_slice(&wire_u16(distances.len()).to_le_bytes());
                for d in distances {
                    out.extend_from_slice(&d.to_le_bytes());
                }
                out.extend_from_slice(&radius.to_le_bytes());
            }
            Request::ApproxKnn { routing, cand_size } => {
                out.push(0x03);
                routing.encode(&mut out);
                out.extend_from_slice(&cand_size.to_le_bytes());
            }
            Request::Info => out.push(0x04),
            Request::ExportAll => out.push(0x05),
            Request::BatchKnn(queries) => {
                out.push(0x06);
                out.extend_from_slice(&wire_u16(queries.len()).to_le_bytes());
                for q in queries {
                    q.routing.encode(&mut out);
                    out.extend_from_slice(&q.cand_size.to_le_bytes());
                }
            }
            Request::FetchObjects { ids } => {
                out.push(0x07);
                out.extend_from_slice(&wire_u32(ids.len()).to_le_bytes());
                for id in ids {
                    out.extend_from_slice(&id.to_le_bytes());
                }
            }
            Request::Health => out.push(0x08),
            Request::MetricsSnapshot => out.push(0x09),
        }
        out
    }

    /// Decodes a request.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        if buf.len() > MAX_DECODE_BYTES {
            return Err(err("request exceeds decode size cap"));
        }
        let mut r = Reader::new(buf);
        match r.u8("request tag")? {
            0x01 => {
                let n = r.u32("insert header")? as usize;
                // Smallest entry: u32 len + u64 id + 3-byte routing stub.
                let mut entries = Vec::with_capacity(cap_alloc(n, r.remaining(), 12));
                for _ in 0..n {
                    let len = r.u32("insert entry length")? as usize;
                    let mut body = Reader::new(r.bytes(len, "insert entry body")?);
                    let id = body.u64("insert entry body")?;
                    let entry = IndexEntry::decode_payload(id, body.rest())
                        .ok_or_else(|| err("insert entry undecodable"))?;
                    entries.push(entry);
                }
                r.finish("insert")?;
                Ok(Request::Insert(entries))
            }
            0x02 => {
                let n = r.u16("range header")? as usize;
                let mut distances = Vec::with_capacity(cap_alloc(n, r.remaining(), 8));
                for _ in 0..n {
                    distances.push(r.f64("range distances")?);
                }
                let radius = r.f64("range radius")?;
                r.finish("range")?;
                Ok(Request::Range { distances, radius })
            }
            0x03 => {
                let (routing, used) =
                    Routing::decode(r.rest()).ok_or_else(|| err("knn routing undecodable"))?;
                r.skip(used, "knn routing")?;
                let cand_size = r.u32("knn cand_size")?;
                r.finish("knn")?;
                Ok(Request::ApproxKnn { routing, cand_size })
            }
            0x04 => {
                r.finish("info request")
                    .map_err(|_| err("info request carries payload"))?;
                Ok(Request::Info)
            }
            0x05 => {
                r.finish("export request")
                    .map_err(|_| err("export request carries payload"))?;
                Ok(Request::ExportAll)
            }
            0x06 => {
                let n = r.u16("batch header")? as usize;
                let mut queries = Vec::with_capacity(cap_alloc(n, r.remaining(), 7));
                for _ in 0..n {
                    let (routing, used) = Routing::decode(r.rest())
                        .ok_or_else(|| err("batch routing undecodable"))?;
                    r.skip(used, "batch routing")?;
                    let cand_size = r.u32("batch cand_size")?;
                    queries.push(KnnQuery { routing, cand_size });
                }
                r.finish("batch")?;
                Ok(Request::BatchKnn(queries))
            }
            0x07 => {
                let n = r.u32("fetch header")? as usize;
                let mut ids = Vec::with_capacity(cap_alloc(n, r.remaining(), 8));
                for _ in 0..n {
                    ids.push(r.u64("fetch ids")?);
                }
                r.finish("fetch")?;
                Ok(Request::FetchObjects { ids })
            }
            0x08 => {
                r.finish("health request")
                    .map_err(|_| err("health request carries payload"))?;
                Ok(Request::Health)
            }
            0x09 => {
                r.finish("metrics request")
                    .map_err(|_| err("metrics request carries payload"))?;
                Ok(Request::MetricsSnapshot)
            }
            t => Err(err(&format!("unknown request tag {t}"))),
        }
    }
}

impl Response {
    /// Encodes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload_capacity());
        match self {
            Response::Inserted(n) => {
                out.push(0x01);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Candidates(cands) => {
                out.push(0x02);
                encode_candidates(&mut out, cands);
            }
            Response::Error(msg) => {
                out.push(0x03);
                encode_message(&mut out, msg);
            }
            Response::Info {
                entries,
                leaves,
                depth,
            } => {
                out.push(0x04);
                out.extend_from_slice(&entries.to_le_bytes());
                out.extend_from_slice(&leaves.to_le_bytes());
                out.extend_from_slice(&depth.to_le_bytes());
            }
            Response::CandidateSets(sets) => {
                out.push(0x05);
                out.extend_from_slice(&wire_u16(sets.len()).to_le_bytes());
                for result in sets {
                    match result {
                        Ok(list) => {
                            out.push(1);
                            encode_candidate_list(&mut out, list);
                        }
                        Err(msg) => {
                            out.push(0);
                            encode_message(&mut out, msg);
                        }
                    }
                }
            }
            Response::InsertError { inserted, message } => {
                out.push(0x06);
                out.extend_from_slice(&inserted.to_le_bytes());
                encode_message(&mut out, message);
            }
            Response::CandidateList(list) => {
                out.push(0x07);
                encode_candidate_list(&mut out, list);
            }
            Response::Objects(objects) => {
                out.push(0x08);
                out.extend_from_slice(&wire_u32(objects.len()).to_le_bytes());
                for o in objects {
                    out.extend_from_slice(&o.id.to_le_bytes());
                    out.extend_from_slice(&wire_u32(o.payload.len()).to_le_bytes());
                    out.extend_from_slice(&o.payload);
                }
            }
            Response::Health {
                status,
                protocol,
                entries,
                shards,
                uptime_nanos,
            } => {
                out.push(0x09);
                out.push(*status);
                out.extend_from_slice(&protocol.to_le_bytes());
                out.extend_from_slice(&entries.to_le_bytes());
                out.extend_from_slice(&shards.to_le_bytes());
                out.extend_from_slice(&uptime_nanos.to_le_bytes());
            }
            Response::MetricsSnapshot(text) => {
                out.push(0x0a);
                // u32 framing: a metrics dump can legitimately exceed the
                // u16 cap `encode_message` truncates at. Over-long texts
                // saturate the count and fail decode on the peer rather
                // than shipping silently truncated metrics.
                out.extend_from_slice(&wire_u32(text.len()).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
        out
    }

    /// Exact encoded size of the answers that carry sealed objects (0 for
    /// the small ones): sized up front, their payloads are copied once and
    /// the buffer never regrows.
    fn payload_capacity(&self) -> usize {
        match self {
            Response::Candidates(cands) => {
                1 + 4 + cands.iter().map(|c| 20 + c.payload.len()).sum::<usize>()
            }
            Response::CandidateList(list) => {
                1 + list_encoded_len(list.headers.len(), list.payloads.iter().map(Vec::len))
            }
            Response::Objects(objects) => {
                1 + 4 + objects.iter().map(|o| 12 + o.payload.len()).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Decodes a response.
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        if buf.len() > MAX_DECODE_BYTES {
            return Err(err("response exceeds decode size cap"));
        }
        let mut r = Reader::new(buf);
        match r.u8("response tag")? {
            0x01 => {
                let n = r.u32("inserted ack")?;
                r.finish("inserted ack")?;
                Ok(Response::Inserted(n))
            }
            0x02 => {
                let cands = decode_candidates(&mut r)?;
                r.finish("candidates")?;
                Ok(Response::Candidates(cands))
            }
            0x03 => {
                let msg = decode_message(&mut r)?;
                r.finish("error response")?;
                Ok(Response::Error(msg))
            }
            0x04 => {
                let entries = r.u64("info entries")?;
                let leaves = r.u32("info leaves")?;
                let depth = r.u32("info depth")?;
                r.finish("info")?;
                Ok(Response::Info {
                    entries,
                    leaves,
                    depth,
                })
            }
            0x05 => {
                let sets = parse_candidate_sets(&mut r)?;
                r.finish("candidate sets")?;
                Ok(Response::CandidateSets(
                    sets.into_iter()
                        .map(|slot| slot.map(|list| list.to_owned()))
                        .collect(),
                ))
            }
            0x06 => {
                let inserted = r.u32("insert error header")?;
                let message = decode_message(&mut r)?;
                r.finish("insert error")?;
                Ok(Response::InsertError { inserted, message })
            }
            0x07 => {
                let list = CandidateListView::parse(&mut r)?;
                r.finish("candidate list")?;
                Ok(Response::CandidateList(list.to_owned()))
            }
            0x08 => {
                let n = r.u32("objects header")? as usize;
                let mut objects = Vec::with_capacity(cap_alloc(n, r.remaining(), 12));
                for _ in 0..n {
                    let id = r.u64("object header")?;
                    let len = r.u32("object header")? as usize;
                    let payload = r.bytes(len, "object payload")?.to_vec();
                    objects.push(FetchedObject { id, payload });
                }
                r.finish("objects")?;
                Ok(Response::Objects(objects))
            }
            0x09 => {
                let status = r.u8("health status")?;
                let protocol = r.u32("health protocol")?;
                let entries = r.u64("health entries")?;
                let shards = r.u32("health shards")?;
                let uptime_nanos = r.u64("health uptime")?;
                r.finish("health")?;
                Ok(Response::Health {
                    status,
                    protocol,
                    entries,
                    shards,
                    uptime_nanos,
                })
            }
            0x0a => {
                let n = r.u32("metrics length")? as usize;
                let body = r.bytes(n, "metrics body")?;
                let text = String::from_utf8_lossy(body).into_owned();
                r.finish("metrics")?;
                Ok(Response::MetricsSnapshot(text))
            }
            t => Err(err(&format!("unknown response tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u64) -> IndexEntry {
        IndexEntry::new(
            id,
            Routing::from_distances(&[1.0, 2.0, 3.0]),
            vec![id as u8; 5],
        )
    }

    #[test]
    fn insert_round_trip() {
        let req = Request::Insert(vec![entry(1), entry(2), entry(99)]);
        let bytes = req.encode();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    /// The one-pass Insert encoder writes exactly the bytes the old
    /// encoder (one `encode_payload()` and one temporary body per entry)
    /// wrote — for both routing kinds, empty payloads and an empty bulk.
    #[test]
    fn insert_encoding_is_byte_identical_to_the_per_entry_buffers() {
        let bulk = vec![
            entry(1),
            IndexEntry::new(
                u64::MAX,
                Routing::permutation_prefix(&[0.3, 0.1, 0.2, 0.9], 3),
                vec![0xab; 33],
            ),
            IndexEntry::new(7, Routing::from_distances(&[]), vec![]),
        ];
        for entries in [bulk, Vec::new()] {
            let mut reference = vec![0x01];
            reference.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for e in &entries {
                let mut body = e.id.to_le_bytes().to_vec();
                body.extend_from_slice(&e.encode_payload());
                reference.extend_from_slice(&(body.len() as u32).to_le_bytes());
                reference.extend_from_slice(&body);
            }
            let encoded = Request::Insert(entries).encode();
            assert_eq!(encoded, reference);
            assert_eq!(encoded.capacity(), encoded.len(), "sized exactly, once");
        }
        // And one frame spelled out: tag, count, body length, id, distance
        // routing (tag 1, two f32s), payload length, payload.
        let one = Request::Insert(vec![IndexEntry::new(
            0x0102,
            Routing::from_distances(&[1.0, 2.0]),
            vec![0xEE, 0xFF],
        )]);
        assert_eq!(
            one.encode(),
            [
                &[0x01, 1, 0, 0, 0, 25, 0, 0, 0][..],
                &[0x02, 0x01, 0, 0, 0, 0, 0, 0],
                &[1, 2, 0, 0, 0, 0x80, 0x3f, 0, 0, 0, 0x40],
                &[2, 0, 0, 0, 0xEE, 0xFF],
            ]
            .concat()
        );
    }

    #[test]
    fn empty_insert_round_trip() {
        let req = Request::Insert(vec![]);
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn range_round_trip() {
        let req = Request::Range {
            distances: vec![0.5, 1.5, 2.5],
            radius: 3.25,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    /// Regression for the f32 wire format: query distances must survive the
    /// round trip bit-exactly, or boundary objects at distance exactly
    /// `radius` can be pruned server-side (values below are not
    /// f32-representable).
    #[test]
    fn range_distances_survive_wire_bit_exactly() {
        let ds = vec![0.1, 0.7, 1.0 - 1e-9, 16777217.0];
        let req = Request::Range {
            distances: ds.clone(),
            radius: 0.15,
        };
        match Request::decode(&req.encode()).unwrap() {
            Request::Range { distances, .. } => {
                for (sent, got) in ds.iter().zip(&distances) {
                    assert_eq!(sent.to_bits(), got.to_bits(), "{sent} mangled to {got}");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_knn_round_trip() {
        let req = Request::BatchKnn(vec![
            KnnQuery {
                routing: Routing::from_distances(&[1.0, 2.0]),
                cand_size: 600,
            },
            KnnQuery {
                routing: Routing::permutation_prefix(&[0.3, 0.1, 0.2], 3),
                cand_size: 30,
            },
        ]);
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        let empty = Request::BatchKnn(vec![]);
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
        let mut bytes = req.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err(), "trailing bytes rejected");
    }

    fn header(id: u64, lb: f64) -> CandidateHeader {
        CandidateHeader {
            id,
            lower_bound: lb,
        }
    }

    /// Batched responses carry one `Result` per query: candidate lists and
    /// error slots round-trip side by side.
    #[test]
    fn candidate_sets_round_trip() {
        let resp = Response::CandidateSets(vec![
            Ok(CandidateList {
                headers: vec![header(1, 0.25), header(2, 1.5), header(3, 2.0)],
                payloads: vec![vec![1, 2], vec![]],
            }),
            Err("dimension mismatch".into()),
            Ok(CandidateList::default()),
            Ok(CandidateList {
                headers: vec![header(9, f64::MAX)],
                payloads: vec![vec![9; 17]],
            }),
        ]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let bytes = resp.encode();
        for cut in [1, 2, 4, 10, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Unknown per-query tag rejected.
        let mut bad = Response::CandidateSets(vec![Ok(CandidateList::default())]).encode();
        bad[3] = 7;
        assert!(Response::decode(&bad).is_err());
    }

    /// Phase-1 lists: headers for everything, payloads for a prefix only.
    #[test]
    fn candidate_list_round_trip() {
        let full = CandidateList {
            headers: vec![header(4, 0.5), header(2, 0.75), header(7, 0.75)],
            payloads: vec![vec![0xaa; 9], vec![], vec![1]],
        };
        let partial = CandidateList {
            headers: full.headers.clone(),
            payloads: vec![vec![0xaa; 9]],
        };
        let headers_only = CandidateList {
            headers: full.headers.clone(),
            payloads: vec![],
        };
        for list in [full, partial, headers_only, CandidateList::default()] {
            let resp = Response::CandidateList(list);
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
            let bytes = resp.encode();
            for cut in 0..bytes.len() {
                assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
            }
            let mut trailing = resp.encode();
            trailing.push(0);
            assert!(Response::decode(&trailing).is_err(), "trailing byte");
        }
    }

    /// More inline payloads than headers is structurally invalid — a
    /// malicious server cannot smuggle unrequested payloads past the codec.
    #[test]
    fn candidate_list_rejects_payload_overflow() {
        let list = CandidateList {
            headers: vec![header(1, 0.0)],
            payloads: vec![vec![1], vec![2]],
        };
        let mut out = vec![0x07];
        // Encode by hand: debug_assert in encode_candidate_list would trip.
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&0f64.to_le_bytes());
        out.extend_from_slice(&2u32.to_le_bytes());
        for p in &list.payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
        }
        assert!(Response::decode(&out).is_err());
    }

    #[test]
    fn fetch_objects_round_trip() {
        for ids in [vec![], vec![7u64], vec![3, 1, u64::MAX, 3]] {
            let req = Request::FetchObjects { ids };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let mut bytes = Request::FetchObjects { ids: vec![1, 2] }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err(), "trailing bytes rejected");
        let short = &Request::FetchObjects { ids: vec![1, 2] }.encode()[..9];
        assert!(Request::decode(short).is_err(), "truncated ids rejected");
    }

    #[test]
    fn objects_round_trip() {
        let resp = Response::Objects(vec![
            FetchedObject {
                id: 12,
                payload: vec![1, 2, 3],
            },
            FetchedObject {
                id: 0,
                payload: vec![],
            },
        ]);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let bytes = resp.encode();
        for cut in [1, 4, 6, 14, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let empty = Response::Objects(vec![]);
        assert_eq!(Response::decode(&empty.encode()).unwrap(), empty);
    }

    /// A phase-1 header costs 16 bytes; the same candidate fully inlined
    /// costs 20 + payload. The header list layout must actually realize the
    /// savings the two-phase fetch is built on.
    #[test]
    fn headers_only_list_is_smaller_than_materialized_set() {
        let payload = vec![0u8; 89];
        let n = 600;
        let eager = Response::Candidates(
            (0..n)
                .map(|i| Candidate {
                    id: i,
                    lower_bound: i as f64,
                    payload: payload.clone(),
                })
                .collect(),
        );
        let lazy = Response::CandidateList(CandidateList {
            headers: (0..n).map(|i| header(i, i as f64)).collect(),
            payloads: vec![],
        });
        let eager_len = eager.encode().len();
        let lazy_len = lazy.encode().len();
        assert_eq!(lazy_len, 1 + 4 + 16 * n as usize + 4);
        assert!(
            (lazy_len as f64) < 0.2 * eager_len as f64,
            "headers-only {lazy_len} vs eager {eager_len}"
        );
    }

    #[test]
    fn insert_error_round_trip() {
        let resp = Response::InsertError {
            inserted: 412,
            message: "bucket b9 missing".into(),
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        let bytes = resp.encode();
        for cut in [1, 5, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Lower bounds drive the client's sound early exit, so they must
    /// survive the wire bit-exactly — a rounded bound could be pushed above
    /// a true distance and change answers.
    #[test]
    fn candidate_lower_bounds_survive_wire_bit_exactly() {
        let bounds = [0.0f64, 1e-300, 0.1 + 0.2, 1.0 - 1e-9, 16777217.0];
        let resp = Response::Candidates(
            bounds
                .iter()
                .enumerate()
                .map(|(i, &lb)| Candidate {
                    id: i as u64,
                    lower_bound: lb,
                    payload: vec![i as u8],
                })
                .collect(),
        );
        match Response::decode(&resp.encode()).unwrap() {
            Response::Candidates(c) => {
                for (sent, got) in bounds.iter().zip(&c) {
                    assert_eq!(
                        sent.to_bits(),
                        got.lower_bound.to_bits(),
                        "{sent} mangled to {}",
                        got.lower_bound
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Truncation inside the new 8-byte bound field is rejected like any
    /// other cut.
    #[test]
    fn truncation_inside_lower_bound_rejected() {
        let resp = Response::Candidates(vec![Candidate {
            id: 3,
            lower_bound: 2.5,
            payload: vec![1, 2, 3],
        }]);
        let bytes = resp.encode();
        // 1 tag + 4 count + 8 id = 13; cuts at 14..=20 land inside lb/len.
        for cut in 13..21 {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn knn_round_trip_both_routings() {
        for routing in [
            Routing::from_distances(&[1.0, 2.0]),
            Routing::permutation_prefix(&[0.3, 0.1, 0.2], 3),
        ] {
            let req = Request::ApproxKnn {
                routing,
                cand_size: 600,
            };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn export_round_trip() {
        assert_eq!(
            Request::decode(&Request::ExportAll.encode()).unwrap(),
            Request::ExportAll
        );
        let mut bytes = Request::ExportAll.encode();
        bytes.push(1);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn info_round_trip() {
        assert_eq!(
            Request::decode(&Request::Info.encode()).unwrap(),
            Request::Info
        );
        let resp = Response::Info {
            entries: 1_000_000,
            leaves: 1234,
            depth: 4,
        };
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Inserted(1000),
            Response::Candidates(vec![
                Candidate {
                    id: 7,
                    lower_bound: 0.125,
                    payload: vec![1, 2, 3],
                },
                Candidate {
                    id: 8,
                    lower_bound: 2.0,
                    payload: vec![],
                },
            ]),
            Response::Error("bucket b9 missing".into()),
        ] {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_messages_rejected() {
        let req = Request::Insert(vec![entry(1)]);
        let bytes = req.encode();
        for cut in [0, 1, 4, bytes.len() - 1] {
            assert!(Request::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let resp = Response::Candidates(vec![Candidate {
            id: 1,
            lower_bound: 0.0,
            payload: vec![9; 4],
        }]);
        let bytes = resp.encode();
        for cut in [0, 3, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::decode(&[0xFF]).is_err());
        assert!(Response::decode(&[0xFF]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Info.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        let mut bytes = Request::Range {
            distances: vec![1.0],
            radius: 1.0,
        }
        .encode();
        bytes.push(7);
        assert!(Request::decode(&bytes).is_err());
    }

    #[test]
    fn health_round_trip() {
        assert_eq!(
            Request::decode(&Request::Health.encode()).unwrap(),
            Request::Health
        );
        let mut bytes = Request::Health.encode();
        bytes.push(1);
        assert!(
            Request::decode(&bytes).is_err(),
            "health request must carry no payload"
        );
        let resp = Response::Health {
            status: 0,
            protocol: PROTOCOL_VERSION,
            entries: 1_000_000,
            shards: 4,
            uptime_nanos: 987_654_321,
        };
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
        for cut in [1, 2, 5, 13, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bytes = resp.encode();
        bytes.push(0);
        assert!(Response::decode(&bytes).is_err(), "trailing byte rejected");
    }

    #[test]
    fn metrics_snapshot_round_trip() {
        assert_eq!(
            Request::decode(&Request::MetricsSnapshot.encode()).unwrap(),
            Request::MetricsSnapshot
        );
        let mut bytes = Request::MetricsSnapshot.encode();
        bytes.push(1);
        assert!(
            Request::decode(&bytes).is_err(),
            "metrics request must carry no payload"
        );
        // u32 framing must carry texts past the u16 boundary that
        // `encode_message` truncates at.
        let text = "counter server.requests 1\n".repeat(4000);
        assert!(text.len() > u16::MAX as usize);
        let resp = Response::MetricsSnapshot(text);
        let bytes = resp.encode();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
        for cut in [1, 4, bytes.len() - 1] {
            assert!(Response::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    /// The privacy audit in code form: a Range/ApproxKnn request contains
    /// only distances/permutation and scalar parameters — its size is
    /// independent of the query object's content beyond the pivot count.
    #[test]
    fn query_requests_leak_only_routing() {
        let r1 = Request::Range {
            distances: vec![1.0; 30],
            radius: 0.5,
        };
        let r2 = Request::Range {
            distances: vec![123456.0; 30],
            radius: 9.75,
        };
        assert_eq!(r1.encode().len(), r2.encode().len());
    }
}
