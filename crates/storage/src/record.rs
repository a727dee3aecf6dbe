//! The opaque storage record: `(id, payload)`.

use serde::{Deserialize, Serialize};

/// Maximum payload size a record may carry (fits a `u32` length with ample
/// headroom below page-chain bookkeeping limits).
pub const MAX_PAYLOAD: usize = 256 * 1024 * 1024;

/// One stored record. The id is the external [`ObjectId`] value; the payload
/// is whatever the index layer serialized (routing info + sealed object).
///
/// [`ObjectId`]: https://docs.rs/simcloud-metric
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// External object identifier.
    pub id: u64,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

impl Record {
    /// Bytes of the encoded form in front of the payload: 8 (id) + 4 (len).
    pub const HEADER_LEN: usize = 8 + 4;

    /// Creates a record.
    pub fn new(id: u64, payload: Vec<u8>) -> Self {
        Self { id, payload }
    }

    /// Bytes occupied by the encoded form: the header + payload.
    pub fn encoded_len(&self) -> usize {
        Self::HEADER_LEN + self.payload.len()
    }

    /// Appends the binary encoding to `out`. A payload longer than
    /// [`MAX_PAYLOAD`] encodes a saturated length marker that `peek`
    /// rejects on read — the write side stays total, the read side
    /// refuses rather than mis-frame the stream.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&self.id.to_le_bytes());
        let len = u32::try_from(self.payload.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Reads one record's *header* from the front of `buf` without
    /// materializing the payload: returns `(id, payload offset, bytes
    /// consumed)`, or `None` if truncated. Filtered bucket scans use this
    /// to skip unwanted records without cloning their payloads — the
    /// payload of a wanted record is `buf[offset..consumed]`.
    pub fn peek(buf: &[u8]) -> Option<(u64, usize, usize)> {
        let id = u64::from_le_bytes(buf.get(0..8)?.try_into().ok()?);
        let len = u32::from_le_bytes(buf.get(8..12)?.try_into().ok()?) as usize;
        // The length clamp runs before any allocation or slicing: a
        // hostile header can never drive a huge allocation downstream.
        if len > MAX_PAYLOAD || buf.len() < Self::HEADER_LEN + len {
            return None;
        }
        Some((id, Self::HEADER_LEN, Self::HEADER_LEN + len))
    }

    /// Walks `bytes` as a record stream (see [`RecordStream`]).
    pub fn stream(bytes: &[u8]) -> RecordStream<'_> {
        RecordStream { bytes, off: 0 }
    }

    /// Decodes one record from the front of `buf`; returns record and bytes
    /// consumed, or `None` if truncated.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        let (id, payload_off, used) = Self::peek(buf)?;
        Some((
            Self {
                id,
                payload: buf.get(payload_off..used)?.to_vec(),
            },
            used,
        ))
    }
}

/// One record as [`RecordStream`] finds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord<'a> {
    /// External object identifier.
    pub id: u64,
    /// Where the payload starts, counted from the start of the stream.
    pub payload_at: usize,
    /// The payload, borrowed from the stream.
    pub payload: &'a [u8],
}

/// The bytes left in a stream do not frame a whole record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTruncated;

/// A **record stream** — records back to back in the [`Record::encode`]
/// form: what a disk chain holds, what a memory bucket's chunks are and
/// what [`BucketStore::read_bucket_into`] appends — walked record by
/// record without copying. Yields `Err(StreamTruncated)` once, then ends,
/// if the stream does not end on a record boundary.
///
/// [`BucketStore::read_bucket_into`]: crate::BucketStore::read_bucket_into
#[derive(Debug, Clone)]
pub struct RecordStream<'a> {
    bytes: &'a [u8],
    off: usize,
}

/// How many records ahead of the one it yields [`RecordStream`] touches.
const READ_AHEAD: usize = 4;

impl<'a> Iterator for RecordStream<'a> {
    type Item = Result<StreamRecord<'a>, StreamTruncated>;

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.bytes.get(self.off..).filter(|rest| !rest.is_empty())?;
        let Some((id, payload_off, used)) = Record::peek(rest) else {
            self.off = self.bytes.len();
            return Some(Err(StreamTruncated));
        };
        // Where a record starts is only known from the length of the one
        // before it, so a walk over cold bytes is a chain of dependent
        // cache misses — one memory latency per record. The records of a
        // bucket are nearly always one size (sealed objects of a
        // collection are), so load a byte a few records' worth ahead: if
        // the guess holds, that record's header is on its way before the
        // chain gets there. A plain checked load, whatever it finds
        // (`range_frame/memory/reject_all` in `--bench components` times
        // the walk this is for).
        std::hint::black_box(rest.get(used * (1 + READ_AHEAD)).copied());
        let record = StreamRecord {
            id,
            payload_at: self.off + payload_off,
            payload: rest.get(payload_off..used)?,
        };
        self.off += used;
        Some(Ok(record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let r = Record::new(42, vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let (back, used) = Record::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn empty_payload_round_trip() {
        let r = Record::new(0, vec![]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (back, used) = Record::decode(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, 12);
    }

    /// `peek` sees exactly what `decode` sees, minus the payload clone.
    #[test]
    fn peek_matches_decode() {
        let r = Record::new(42, vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (id, payload_off, used) = Record::peek(&buf).unwrap();
        assert_eq!(id, 42);
        assert_eq!(&buf[payload_off..used], &r.payload[..]);
        assert_eq!(used, r.encoded_len());
        for cut in [0, 11, buf.len() - 1] {
            assert!(Record::peek(&buf[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_decode_fails() {
        let r = Record::new(7, vec![9; 10]);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        for cut in [0, 5, 11, buf.len() - 1] {
            assert!(Record::decode(&buf[..cut]).is_none(), "cut {cut}");
        }
    }

    /// The stream walker yields what a `decode` loop yields, says where
    /// each payload lies, and reports a ragged end once.
    #[test]
    fn stream_walks_records_and_reports_a_ragged_end_once() {
        let rs = [
            Record::new(1, vec![0xaa; 3]),
            Record::new(2, vec![]),
            Record::new(3, vec![0xbb; 17]),
        ];
        let mut buf = Vec::new();
        for r in &rs {
            r.encode(&mut buf);
        }
        let walked: Vec<StreamRecord<'_>> = Record::stream(&buf).map(Result::unwrap).collect();
        assert_eq!(walked.len(), 3);
        for (got, want) in walked.iter().zip(&rs) {
            assert_eq!((got.id, got.payload), (want.id, &want.payload[..]));
            assert_eq!(&buf[got.payload_at..][..got.payload.len()], got.payload);
        }
        let mut ragged = Record::stream(&buf[..buf.len() - 1]);
        assert_eq!(ragged.by_ref().filter(Result::is_ok).count(), 2);
        assert_eq!(
            ragged.next(),
            None,
            "the error is yielded once, then the end"
        );
        assert_eq!(
            Record::stream(&buf[..5]).collect::<Vec<_>>(),
            vec![Err(StreamTruncated)]
        );
        assert_eq!(Record::stream(&[]).next(), None);
    }

    #[test]
    fn sequential_records_decode_in_order() {
        let rs = vec![
            Record::new(1, vec![0xaa; 3]),
            Record::new(2, vec![]),
            Record::new(3, vec![0xbb; 17]),
        ];
        let mut buf = Vec::new();
        for r in &rs {
            r.encode(&mut buf);
        }
        let mut off = 0;
        let mut got = Vec::new();
        while off < buf.len() {
            let (r, used) = Record::decode(&buf[off..]).unwrap();
            got.push(r);
            off += used;
        }
        assert_eq!(got, rs);
    }
}
