//! Index entries: routing information + opaque payload.
//!
//! This is the record format of Alg. 1:
//! `e := struct {distances, permutation, data}` — either the distance vector
//! or the permutation is present, never both, and `data` is opaque to the
//! server (sealed bytes in the encrypted deployment, an encoded vector in
//! the plain one).

use simcloud_metric::{permutation_from_distances, PivotPermutation};

/// Routing information the server indexes on.
#[derive(Debug, Clone, PartialEq)]
pub enum Routing {
    /// Object–pivot distances (precise strategy). Stored as `f32` — the
    /// paper's communication-cost accounting assumes compact records.
    Distances(Vec<f32>),
    /// Pivot-permutation prefix (approximate strategy).
    Permutation(PivotPermutation),
}

impl Routing {
    /// Builds distance routing from `f64` computations.
    pub fn from_distances(d: &[f64]) -> Self {
        Routing::Distances(d.iter().map(|&x| x as f32).collect())
    }

    /// Builds permutation routing of length `prefix_len` from distances.
    pub fn permutation_prefix(d: &[f64], prefix_len: usize) -> Self {
        let mut p = permutation_from_distances(d);
        p.truncate(prefix_len);
        Routing::Permutation(p)
    }

    /// Distances if present.
    pub fn distances(&self) -> Option<&[f32]> {
        match self {
            Routing::Distances(d) => Some(d),
            Routing::Permutation(_) => None,
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        match self {
            Routing::Distances(d) => 1 + 2 + 4 * d.len(),
            Routing::Permutation(p) => 1 + p.encoded_len(),
        }
    }

    /// Appends the binary encoding (tag byte + body).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Routing::Distances(d) => {
                out.push(1);
                out.extend_from_slice(&(d.len() as u16).to_le_bytes());
                for &x in d {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            Routing::Permutation(p) => {
                out.push(2);
                p.encode(out);
            }
        }
    }

    /// Decodes a routing; returns it and bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let (view, used) = RoutingView::decode(buf)?;
        Some((view.into_routing(), used))
    }
}

/// An encoded routing header, validated but not materialised: both kinds
/// stay the record's own little-endian bytes. This is what a cursor's open
/// phase bounds a scanned record from and what the index places a record
/// by — a [`Routing`] (one `Vec` per record) is built only by the owned
/// adapters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingView<'a> {
    /// Object–pivot distances, four little-endian bytes each.
    Distances(&'a [[u8; 4]]),
    /// Pivot-permutation prefix, two little-endian bytes per pivot index.
    Permutation(&'a [[u8; 2]]),
}

impl<'a> RoutingView<'a> {
    /// The owned routing this header encodes.
    pub fn into_routing(self) -> Routing {
        match self {
            RoutingView::Distances(le) => {
                Routing::Distances(le.iter().map(|c| f32::from_le_bytes(*c)).collect())
            }
            RoutingView::Permutation(le) => Routing::Permutation(PivotPermutation::from_le(le)),
        }
    }

    /// The permutation this routing induces: the full order of the stored
    /// distances (widened to `f64`), or the stored prefix.
    pub fn permutation(&self) -> PivotPermutation {
        match self {
            RoutingView::Distances(le) => {
                let dd: Vec<f64> = le
                    .iter()
                    .map(|c| f64::from(f32::from_le_bytes(*c)))
                    .collect();
                permutation_from_distances(&dd)
            }
            RoutingView::Permutation(le) => PivotPermutation::from_le(le),
        }
    }

    /// Validates the routing header at the front of `buf`; returns the
    /// view and bytes consumed. Accepts exactly what [`Routing::decode`]
    /// accepts (that function is built on this one).
    pub fn decode(buf: &'a [u8]) -> Option<(Self, usize)> {
        let (tag, rest) = buf.split_first()?;
        let (len_bytes, rest) = rest.split_first_chunk::<2>()?;
        let n = u16::from_le_bytes(*len_bytes) as usize;
        match tag {
            1 => {
                let (le, _) = rest.get(..4 * n)?.as_chunks::<4>();
                Some((RoutingView::Distances(le), 3 + 4 * n))
            }
            2 => {
                let (le, _) = rest.get(..2 * n)?.as_chunks::<2>();
                Some((RoutingView::Permutation(le), 3 + 2 * n))
            }
            _ => None,
        }
    }
}

/// A stored record body, validated in place: `routing ‖ u32 len ‖
/// payload`, the bytes [`IndexEntry::encode_payload`] writes. This is the
/// one form in which the index receives, places, moves and serves an
/// object: an insert frame's entries, a split's moved records and a
/// rebuild's stored streams are parsed into it, and nothing of it is
/// copied or decoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordBody<'a> {
    /// Exactly the parsed extent: routing, length and payload.
    bytes: &'a [u8],
    routing: RoutingView<'a>,
    pub(crate) routing_len: u32,
    pub(crate) payload_len: u32,
}

impl<'a> RecordBody<'a> {
    /// Validates the record body at the front of `buf` without copying or
    /// decoding any of it: a routing header, a `u32` payload length and
    /// that many payload bytes. Bytes past the payload are not part of the
    /// body.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let (routing, used) = RoutingView::decode(buf)?;
        let (len_bytes, _) = buf.get(used..)?.split_first_chunk::<4>()?;
        let payload_len = u32::from_le_bytes(*len_bytes);
        let extent = (used + 4).checked_add(payload_len as usize)?;
        Some(Self {
            bytes: buf.get(..extent)?,
            routing,
            routing_len: u32::try_from(used).ok()?,
            payload_len,
        })
    }

    /// The body's bytes, exactly its parsed extent — what the store keeps.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The routing header, borrowed.
    pub fn routing(&self) -> &RoutingView<'a> {
        &self.routing
    }

    /// The opaque payload (sealed object / encoded vector), borrowed.
    pub fn payload(&self) -> &'a [u8] {
        self.bytes
            .get(self.routing_len as usize + 4..)
            .unwrap_or(&[])
    }

    /// The owned entry with external id `id`: the routing decoded, the
    /// payload copied.
    pub fn to_entry(&self, id: u64) -> IndexEntry {
        IndexEntry::new(id, self.routing.into_routing(), self.payload().to_vec())
    }
}

/// One indexed entry: external id, routing info, opaque payload — the
/// owned form a client builds and the owned adapters return.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// External object id.
    pub id: u64,
    /// Routing info (distances or permutation prefix).
    pub routing: Routing,
    /// Opaque payload (sealed object / encoded vector).
    pub payload: Vec<u8>,
}

impl IndexEntry {
    /// Creates an entry.
    pub fn new(id: u64, routing: Routing, payload: Vec<u8>) -> Self {
        Self {
            id,
            routing,
            payload,
        }
    }

    /// Size of the record payload this entry produces.
    pub fn encoded_len(&self) -> usize {
        self.routing.encoded_len() + 4 + self.payload.len()
    }

    /// Serializes routing+payload into a storage record body.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_payload_into(&mut out);
        out
    }

    /// Appends the storage record body ([`Self::encoded_len`] bytes) to
    /// `out`.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        self.routing.encode(out);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_routing_round_trip() {
        let r = Routing::from_distances(&[1.5, 2.25, 0.0]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let (back, used) = Routing::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, buf.len());
        assert_eq!(back.distances().unwrap(), &[1.5, 2.25, 0.0]);
    }

    #[test]
    fn permutation_routing_round_trip() {
        let r = Routing::permutation_prefix(&[0.9, 0.1, 0.5, 0.3], 3);
        match &r {
            Routing::Permutation(p) => assert_eq!(p.order(), &[1, 3, 2]),
            _ => panic!(),
        }
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (back, used) = Routing::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, buf.len());
        assert!(back.distances().is_none());
    }

    #[test]
    fn permutation_from_distance_routing() {
        let r = Routing::from_distances(&[0.9, 0.1, 0.5]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (view, _) = RoutingView::decode(&buf).unwrap();
        assert_eq!(view.permutation().order(), &[1, 2, 0]);
    }

    #[test]
    fn entry_payload_round_trip() {
        let e = IndexEntry::new(
            77,
            Routing::from_distances(&[3.0, 1.0]),
            vec![0xde, 0xad, 0xbe, 0xef],
        );
        let bytes = e.encode_payload();
        assert_eq!(bytes.len(), e.encoded_len());
        let back = RecordBody::parse(&bytes).unwrap().to_entry(77);
        assert_eq!(back, e);
    }

    #[test]
    fn entry_decode_rejects_truncation() {
        let e = IndexEntry::new(1, Routing::from_distances(&[1.0]), vec![7; 10]);
        let bytes = e.encode_payload();
        for cut in [0, 1, 3, bytes.len() - 1] {
            assert!(RecordBody::parse(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn view_exposes_the_stored_distance_bytes() {
        let r = Routing::from_distances(&[1.5, -2.25, 0.0]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf.extend_from_slice(&[0xAA; 5]); // the rest of a record
        let (view, used) = RoutingView::decode(&buf).unwrap();
        assert_eq!(used, r.encoded_len());
        let RoutingView::Distances(le) = view else {
            panic!("distance routing expected");
        };
        let back: Vec<f32> = le.iter().map(|c| f32::from_le_bytes(*c)).collect();
        assert_eq!(back, vec![1.5, -2.25, 0.0]);
        assert!(RoutingView::decode(&buf[..used - 1]).is_none());
    }

    #[test]
    fn routing_decode_rejects_unknown_tag() {
        assert!(Routing::decode(&[9, 0, 0]).is_none());
        assert!(Routing::decode(&[]).is_none());
    }

    #[test]
    fn empty_payload_entry() {
        let e = IndexEntry::new(5, Routing::permutation_prefix(&[0.2, 0.1], 2), vec![]);
        let bytes = e.encode_payload();
        let back = RecordBody::parse(&bytes).unwrap().to_entry(5);
        assert_eq!(back.payload, Vec::<u8>::new());
    }

    /// A body is its parsed extent: bytes after the payload are not part
    /// of it, and routing and payload are slices of the input.
    #[test]
    fn record_body_is_its_parsed_extent() {
        let e = IndexEntry::new(3, Routing::from_distances(&[0.5, 0.25]), vec![1, 2, 3]);
        let mut bytes = e.encode_payload();
        let extent = bytes.len();
        bytes.extend_from_slice(&[0xEE; 7]);
        let body = RecordBody::parse(&bytes).unwrap();
        assert_eq!(body.bytes(), &bytes[..extent]);
        assert_eq!(body.payload(), &[1, 2, 3]);
        assert_eq!(body.to_entry(3), e);
    }

    /// A view's permutation: the distances' full order (ties to the lower
    /// pivot), or the stored prefix as it is.
    #[test]
    fn view_permutation_of_both_kinds() {
        let ds = [0.9, 0.1, 0.5, 0.1];
        for (r, want) in [
            (
                Routing::from_distances(&ds),
                permutation_from_distances(&ds),
            ),
            (
                Routing::permutation_prefix(&ds, 3),
                PivotPermutation::new(vec![1, 3, 2]),
            ),
        ] {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            let (view, _) = RoutingView::decode(&buf).unwrap();
            assert_eq!(view.permutation(), want);
            assert_eq!(view.into_routing(), r);
        }
    }
}
