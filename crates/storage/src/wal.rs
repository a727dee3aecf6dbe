//! Write-ahead log: CRC-framed, LSN-stamped full-page images plus commit
//! frames carrying the new meta document.
//!
//! One `flush()` appends one *batch* to `<path>.wal`:
//!
//! ```text
//! page frame            commit frame
//! 0   4  magic "SWFP"   0   4  magic "SWFC"
//! 4   4  crc32 of 8..   4   4  crc32 of 8..
//! 8   8  lsn            8   8  lsn
//! 16  4  page_id        16  4  meta_len (= 48)
//! 20  4096 page image   20  .. meta document
//! ```
//!
//! The batch is fsync'd *before* any page is written in place — the log is
//! the commit point. Recovery scans from the start, stops at the first
//! torn, corrupt or LSN-non-monotonic frame (duplicate and reordered
//! frames therefore truncate the tail rather than replay), and applies the
//! page images of every batch up to the last valid commit frame, gated by
//! the on-disk page LSN: a slot whose page already carries `lsn >= frame
//! lsn` is skipped, making replay idempotent. After replay the WAL is
//! truncated to zero.
//!
//! Part of the zero-panic-site storage recovery zone.

use crate::backend::Backend;
use crate::meta::Meta;
use crate::pagefmt::{self, crc32, get_bytes, put_bytes, read_u32, read_u64, PAGE_SIZE};
use crate::StorageError;

/// Magic of a full-page-image frame.
pub const PAGE_FRAME_MAGIC: [u8; 4] = *b"SWFP";
/// Magic of a commit frame.
pub const COMMIT_FRAME_MAGIC: [u8; 4] = *b"SWFC";
/// Fixed header bytes of either frame kind.
pub const FRAME_HDR: usize = 20;
/// Clamp on the commit frame's claimed meta length — a corrupt length
/// field must never drive a huge allocation.
pub const MAX_COMMIT_META: usize = 4096;

const OFF_MAGIC: usize = 0;
const OFF_CRC: usize = 4;
const OFF_LSN: usize = 8;
const OFF_ARG: usize = 16; // page_id or meta_len

fn frame_crc(frame: &[u8]) -> Result<u32, StorageError> {
    Ok(crc32(get_bytes(
        frame,
        OFF_LSN,
        frame.len().saturating_sub(OFF_LSN),
    )?))
}

fn build_frame(magic: [u8; 4], lsn: u64, arg: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0u8; FRAME_HDR + payload.len()];
    let built: Result<(), StorageError> = (|| {
        put_bytes(&mut frame, OFF_MAGIC, &magic)?;
        put_bytes(&mut frame, OFF_LSN, &lsn.to_le_bytes())?;
        put_bytes(&mut frame, OFF_ARG, &arg.to_le_bytes())?;
        put_bytes(&mut frame, FRAME_HDR, payload)?;
        let crc = frame_crc(&frame)?;
        put_bytes(&mut frame, OFF_CRC, &crc.to_le_bytes())
    })();
    // The buffer is sized for exactly these fields; cannot fail.
    debug_assert!(built.is_ok());
    frame
}

/// Appends a full-page-image frame at `off`; returns the next offset.
pub fn append_page_frame(
    wal: &mut dyn Backend,
    off: u64,
    lsn: u64,
    page_id: u32,
    image: &[u8],
) -> Result<u64, StorageError> {
    if image.len() != PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "page frame payload of {} bytes (want {PAGE_SIZE})",
            image.len()
        )));
    }
    let frame = build_frame(PAGE_FRAME_MAGIC, lsn, page_id, image);
    wal.write_at(off, &frame)?;
    Ok(off + frame.len() as u64)
}

/// Appends a commit frame carrying the encoded meta; returns the next
/// offset. The caller fsyncs the WAL after this — that sync is the commit
/// point of the batch.
pub fn append_commit_frame(
    wal: &mut dyn Backend,
    off: u64,
    lsn: u64,
    meta_bytes: &[u8],
) -> Result<u64, StorageError> {
    if meta_bytes.len() > MAX_COMMIT_META {
        return Err(StorageError::Corrupt(format!(
            "commit meta of {} bytes exceeds clamp {MAX_COMMIT_META}",
            meta_bytes.len()
        )));
    }
    // The clamp above keeps the length far below u32::MAX.
    let len = u32::try_from(meta_bytes.len()).unwrap_or(u32::MAX);
    let frame = build_frame(COMMIT_FRAME_MAGIC, lsn, len, meta_bytes);
    wal.write_at(off, &frame)?;
    Ok(off + frame.len() as u64)
}

/// One structurally valid frame, as seen by the scanner.
enum Frame {
    Page { lsn: u64, page_id: u32 },
    Commit { lsn: u64, meta: Vec<u8> },
}

/// Reads the frame starting at `off`, or `None` when the bytes there are
/// a torn tail (short, bad magic, bad CRC, over-clamp length). `None`
/// ends the scan; it is never an error.
fn read_frame(
    wal: &mut dyn Backend,
    off: u64,
    wal_len: u64,
    scratch: &mut Vec<u8>,
) -> Result<Option<(Frame, u64)>, StorageError> {
    let remaining = wal_len.saturating_sub(off);
    if remaining < FRAME_HDR as u64 {
        return Ok(None);
    }
    let mut hdr = [0u8; FRAME_HDR];
    wal.read_at(off, &mut hdr)?;
    let magic = get_bytes(&hdr, OFF_MAGIC, 4)?;
    let payload_len = if magic == PAGE_FRAME_MAGIC {
        PAGE_SIZE
    } else if magic == COMMIT_FRAME_MAGIC {
        let n = read_u32(&hdr, OFF_ARG)? as usize;
        if n > MAX_COMMIT_META {
            return Ok(None);
        }
        n
    } else {
        return Ok(None);
    };
    let total = (FRAME_HDR + payload_len) as u64;
    if remaining < total {
        return Ok(None);
    }
    scratch.clear();
    scratch.resize(FRAME_HDR + payload_len, 0);
    wal.read_at(off, scratch)?;
    let stored_crc = read_u32(scratch, OFF_CRC)?;
    if stored_crc != frame_crc(scratch)? {
        return Ok(None);
    }
    let lsn = read_u64(scratch, OFF_LSN)?;
    let arg = read_u32(scratch, OFF_ARG)?;
    let frame = if magic == PAGE_FRAME_MAGIC {
        Frame::Page { lsn, page_id: arg }
    } else {
        Frame::Commit {
            lsn,
            meta: get_bytes(scratch, FRAME_HDR, payload_len)?.to_vec(),
        }
    };
    Ok(Some((frame, off + total)))
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Meta of the last committed batch in the log, if any batch
    /// committed at all.
    pub meta: Option<Meta>,
    /// Page images written back into the page file.
    pub pages_applied: u64,
    /// Structurally valid frames scanned (both kinds, committed or not).
    pub frames_scanned: u64,
}

/// Replays the WAL into the page file: scans to the last valid commit
/// frame, applies its batches' page images LSN-gated, and syncs the page
/// file. Does **not** truncate the WAL or store meta — the caller owns
/// that ordering. Torn tails end the scan silently; a frame that passes
/// its CRC but is semantically impossible (out-of-range page id, image
/// that does not verify) is a typed `Corrupt` error.
pub fn recover(pages: &mut dyn Backend, wal: &mut dyn Backend) -> Result<Recovery, StorageError> {
    let wal_len = wal.len()?;
    let mut scratch = Vec::new();

    // Pass 1: find the last valid commit frame and the scan horizon.
    let mut off = 0u64;
    let mut max_lsn = 0u64;
    let mut min_next = 0u64;
    let mut frames_scanned = 0u64;
    let mut last_commit: Option<(u64, Vec<u8>, u64)> = None; // (lsn, meta, end)
    while let Some((frame, next_off)) = read_frame(wal, off, wal_len, &mut scratch)? {
        let lsn = match &frame {
            Frame::Page { lsn, .. } | Frame::Commit { lsn, .. } => *lsn,
        };
        // Duplicated or reordered frames break LSN monotonicity; treat
        // everything from here on as an invalid tail.
        if lsn < max_lsn || lsn < min_next {
            break;
        }
        max_lsn = lsn;
        frames_scanned += 1;
        if let Frame::Commit { lsn, meta } = frame {
            last_commit = Some((lsn, meta, next_off));
            min_next = lsn + 1;
        }
        off = next_off;
    }

    let Some((commit_lsn, meta_bytes, horizon)) = last_commit else {
        return Ok(Recovery {
            meta: None,
            pages_applied: 0,
            frames_scanned,
        });
    };
    let meta = Meta::decode(&meta_bytes)?;
    if meta.lsn != commit_lsn {
        return Err(StorageError::Corrupt(format!(
            "commit frame lsn {commit_lsn} disagrees with its meta lsn {}",
            meta.lsn
        )));
    }

    // Pass 2: apply page frames below the horizon, gated by on-disk LSN.
    let mut off = 0u64;
    let mut pages_applied = 0u64;
    let mut slot = vec![0u8; PAGE_SIZE];
    while off < horizon {
        let Some((frame, next_off)) = read_frame(wal, off, wal_len, &mut scratch)? else {
            // Pass 1 already walked these offsets; a frame cannot
            // disappear between passes.
            return Err(StorageError::Corrupt(
                "wal frame vanished between scan and replay".into(),
            ));
        };
        if let Frame::Page { lsn, page_id } = frame {
            // The image rides behind the frame header in `scratch` and its
            // own header must agree with the frame's — the frame CRC
            // already passed, so disagreement is corruption, not a tear.
            let image = get_bytes(&scratch, FRAME_HDR, PAGE_SIZE)?.to_vec();
            let hdr = pagefmt::parse_page(&image, Some(page_id))?;
            if hdr.lsn != lsn {
                return Err(StorageError::Corrupt(format!(
                    "wal image for page {page_id} carries lsn {} inside a frame stamped {lsn}",
                    hdr.lsn
                )));
            }
            if page_id == 0 || page_id >= meta.page_count {
                return Err(StorageError::Corrupt(format!(
                    "wal frame for page {page_id} outside committed file of {} pages",
                    meta.page_count
                )));
            }
            let pos = u64::from(page_id) * PAGE_SIZE as u64;
            let on_disk_lsn = if pages.len()? >= pos + PAGE_SIZE as u64 {
                pages.read_at(pos, &mut slot)?;
                pagefmt::parse_page(&slot, Some(page_id))
                    .ok()
                    .map(|h| h.lsn)
            } else {
                None
            };
            // Apply unless the slot already holds this batch (or a later
            // one); an unparseable slot (torn page) is always repaired.
            if on_disk_lsn.is_none_or(|disk| disk < lsn) {
                pages.write_at(pos, &image)?;
                pages_applied += 1;
            }
        }
        off = next_off;
    }
    if pages_applied > 0 {
        pages.sync()?;
    }
    Ok(Recovery {
        meta: Some(meta),
        pages_applied,
        frames_scanned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed_page(page_id: u32, lsn: u64, fill: u8) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        pagefmt::init_page(&mut page, page_id).unwrap();
        pagefmt::set_used(&mut page, 8).unwrap();
        page[PAGE_SIZE - 1] = fill;
        pagefmt::seal_page(&mut page, lsn).unwrap();
        page
    }

    fn meta_with(lsn: u64, page_count: u32) -> Meta {
        Meta {
            lsn,
            page_count,
            free_head: 0,
            dir_head: 0,
            clean: false,
        }
    }

    #[test]
    fn empty_wal_recovers_to_nothing() {
        let mut pages = VecBackend(Vec::new());
        let mut wal = VecBackend(Vec::new());
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.meta, None);
        assert_eq!(r.pages_applied, 0);
    }

    // Minimal in-memory Backend for exercising the codec without the
    // fault machinery.
    struct VecBackend(Vec<u8>);
    impl Backend for VecBackend {
        fn read_at(&self, off: u64, buf: &mut [u8]) -> Result<(), StorageError> {
            let start = off as usize;
            let src = self
                .0
                .get(start..start + buf.len())
                .ok_or_else(|| StorageError::Corrupt("short read".into()))?;
            buf.copy_from_slice(src);
            Ok(())
        }
        fn write_at(&mut self, off: u64, data: &[u8]) -> Result<(), StorageError> {
            let end = off as usize + data.len();
            if self.0.len() < end {
                self.0.resize(end, 0);
            }
            self.0[off as usize..end].copy_from_slice(data);
            Ok(())
        }
        fn len(&mut self) -> Result<u64, StorageError> {
            Ok(self.0.len() as u64)
        }
        fn set_len(&mut self, len: u64) -> Result<(), StorageError> {
            self.0.resize(len as usize, 0);
            Ok(())
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            Ok(())
        }
    }

    fn logged_batch(wal: &mut VecBackend, lsn: u64, page_ids: &[u32], page_count: u32) -> u64 {
        let mut off = wal.len().unwrap();
        for &id in page_ids {
            off = append_page_frame(wal, off, lsn, id, &sealed_page(id, lsn, id as u8)).unwrap();
        }
        append_commit_frame(wal, off, lsn, &meta_with(lsn, page_count).encode()).unwrap()
    }

    #[test]
    fn replay_applies_committed_batch() {
        let mut pages = VecBackend(pagefmt::stamp_page());
        let mut wal = VecBackend(Vec::new());
        logged_batch(&mut wal, 1, &[1, 2], 3);
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.pages_applied, 2);
        assert_eq!(r.meta.unwrap(), meta_with(1, 3));
        let mut slot = vec![0u8; PAGE_SIZE];
        pages.read_at(PAGE_SIZE as u64, &mut slot).unwrap();
        assert_eq!(pagefmt::parse_page(&slot, Some(1)).unwrap().lsn, 1);
    }

    /// Format pin: a batch framed the way the pre-PR-13 code framed it —
    /// every CRC (page image and frame) from the bytewise reference loop —
    /// is byte-for-byte what `append_*_frame` writes today, and replays.
    #[test]
    fn reference_crc_frames_replay_under_the_new_kernel() {
        fn frame(magic: [u8; 4], lsn: u64, arg: u32, payload: &[u8]) -> Vec<u8> {
            let mut f = Vec::new();
            f.extend_from_slice(&magic);
            f.extend_from_slice(&[0; 4]);
            f.extend_from_slice(&lsn.to_le_bytes());
            f.extend_from_slice(&arg.to_le_bytes());
            f.extend_from_slice(payload);
            let crc = pagefmt::crc32_ref(&f[OFF_LSN..]);
            f[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_le_bytes());
            f
        }
        // Page image sealed by hand: lsn stamped, crc field zero, bytewise crc.
        let mut image = vec![0u8; PAGE_SIZE];
        pagefmt::init_page(&mut image, 1).unwrap();
        pagefmt::set_used(&mut image, 300).unwrap();
        image[40..340].fill(0xA5);
        image[12..20].copy_from_slice(&3u64.to_le_bytes());
        let crc = pagefmt::crc32_ref(&image);
        image[..4].copy_from_slice(&crc.to_le_bytes());
        let meta = meta_with(3, 2).encode();
        let mut golden = frame(PAGE_FRAME_MAGIC, 3, 1, &image);
        golden.extend(frame(COMMIT_FRAME_MAGIC, 3, meta.len() as u32, &meta));

        let mut wal = VecBackend(Vec::new());
        let off = append_page_frame(&mut wal, 0, 3, 1, &image).unwrap();
        append_commit_frame(&mut wal, off, 3, &meta).unwrap();
        assert_eq!(wal.0, golden, "wal frame bytes changed");

        let mut pages = VecBackend(pagefmt::stamp_page());
        let r = recover(&mut pages, &mut VecBackend(golden.clone())).unwrap();
        assert_eq!((r.pages_applied, r.frames_scanned), (1, 2));
        assert_eq!(r.meta.unwrap(), meta_with(3, 2));
        assert_eq!(pages.0[PAGE_SIZE..], image[..]);

        // One flipped bit in the page frame ends the scan before the commit.
        golden[FRAME_HDR + 77] ^= 0x10;
        let mut pages = VecBackend(pagefmt::stamp_page());
        let r = recover(&mut pages, &mut VecBackend(golden)).unwrap();
        assert_eq!((r.meta, r.pages_applied), (None, 0));
    }

    #[test]
    fn uncommitted_tail_is_ignored() {
        let mut pages = VecBackend(pagefmt::stamp_page());
        let mut wal = VecBackend(Vec::new());
        let off = logged_batch(&mut wal, 1, &[1], 2);
        // A batch that never committed: page frames only.
        append_page_frame(&mut wal, off, 2, 1, &sealed_page(1, 2, 9)).unwrap();
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.meta.unwrap().lsn, 1);
        assert_eq!(r.pages_applied, 1);
        let mut slot = vec![0u8; PAGE_SIZE];
        pages.read_at(PAGE_SIZE as u64, &mut slot).unwrap();
        assert_eq!(
            pagefmt::parse_page(&slot, Some(1)).unwrap().lsn,
            1,
            "uncommitted image must not be applied"
        );
    }

    #[test]
    fn torn_tail_stops_the_scan_silently() {
        let mut pages = VecBackend(pagefmt::stamp_page());
        let mut wal = VecBackend(Vec::new());
        let end = logged_batch(&mut wal, 1, &[1], 2);
        for cut in [1, FRAME_HDR as u64 - 1, FRAME_HDR as u64 + 7, end - 1] {
            let mut torn = VecBackend(wal.0.get(..cut as usize).unwrap().to_vec());
            let r = recover(&mut pages, &mut torn).unwrap();
            assert_eq!(r.meta, None, "cut at {cut} should lose the commit");
        }
    }

    #[test]
    fn replay_is_idempotent_via_lsn_gate() {
        let mut pages = VecBackend(pagefmt::stamp_page());
        let mut wal = VecBackend(Vec::new());
        logged_batch(&mut wal, 1, &[1], 2);
        assert_eq!(recover(&mut pages, &mut wal).unwrap().pages_applied, 1);
        assert_eq!(
            recover(&mut pages, &mut wal).unwrap().pages_applied,
            0,
            "second replay must skip every up-to-date slot"
        );
    }

    #[test]
    fn duplicate_and_reordered_frames_truncate_the_tail() {
        // Duplicate commit: same lsn twice — the second violates min_next.
        let mut wal = VecBackend(Vec::new());
        let off = logged_batch(&mut wal, 1, &[1], 2);
        logged_batch(&mut wal, 1, &[1], 2); // duplicate batch, same lsn
        let mut pages = VecBackend(pagefmt::stamp_page());
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.meta.unwrap().lsn, 1);
        assert!(wal.len().unwrap() > off);

        // Reordered: lsn 2 then lsn 1 — scan stops before the stale batch.
        let mut wal = VecBackend(Vec::new());
        logged_batch(&mut wal, 2, &[1], 2);
        logged_batch(&mut wal, 1, &[1], 2);
        let mut pages = VecBackend(pagefmt::stamp_page());
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.meta.unwrap().lsn, 2);
        let mut slot = vec![0u8; PAGE_SIZE];
        pages.read_at(PAGE_SIZE as u64, &mut slot).unwrap();
        assert_eq!(pagefmt::parse_page(&slot, Some(1)).unwrap().lsn, 2);
    }

    #[test]
    fn out_of_range_page_id_is_typed_corrupt() {
        let mut wal = VecBackend(Vec::new());
        let off = append_page_frame(&mut wal, 0, 1, 9, &sealed_page(9, 1, 0)).unwrap();
        append_commit_frame(&mut wal, off, 1, &meta_with(1, 2).encode()).unwrap();
        let mut pages = VecBackend(pagefmt::stamp_page());
        let err = recover(&mut pages, &mut wal).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn oversized_commit_meta_is_rejected_at_append() {
        let mut wal = VecBackend(Vec::new());
        let err = append_commit_frame(&mut wal, 0, 1, &vec![0u8; MAX_COMMIT_META + 1]).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    #[test]
    fn over_clamp_length_field_stops_scan_without_allocating() {
        // Hand-build a commit frame whose length field claims 2 GiB.
        let mut frame = vec![0u8; FRAME_HDR];
        frame[..4].copy_from_slice(&COMMIT_FRAME_MAGIC);
        frame[OFF_ARG..OFF_ARG + 4].copy_from_slice(&0x8000_0000u32.to_le_bytes());
        let mut wal = VecBackend(frame);
        let mut pages = VecBackend(pagefmt::stamp_page());
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.meta, None);
        assert_eq!(r.frames_scanned, 0);
    }

    #[test]
    fn torn_page_slot_is_repaired_even_with_high_garbage_lsn() {
        // A torn slot parses as garbage; the gate must apply the frame
        // regardless of what bytes happen to sit where the lsn lives.
        let mut pages = VecBackend(pagefmt::stamp_page());
        pages
            .write_at(PAGE_SIZE as u64, &vec![0xFFu8; PAGE_SIZE])
            .unwrap();
        let mut wal = VecBackend(Vec::new());
        logged_batch(&mut wal, 1, &[1], 2);
        let r = recover(&mut pages, &mut wal).unwrap();
        assert_eq!(r.pages_applied, 1);
        let mut slot = vec![0u8; PAGE_SIZE];
        pages.read_at(PAGE_SIZE as u64, &mut slot).unwrap();
        assert!(pagefmt::parse_page(&slot, Some(1)).is_ok());
    }
}
