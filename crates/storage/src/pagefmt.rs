//! Page format v2: 4 KiB pages with a checksummed header.
//!
//! Every page of the paged store carries a 32-byte header so that torn
//! writes, bit rot and stale images are *detectable* (CRC32 over the whole
//! page) and *orderable* (the page LSN gates write-ahead-log replay):
//!
//! ```text
//! offset  size  field
//! 0       4     crc32   — CRC of the whole page, this field zeroed
//! 4       4     magic   — "SCP2"
//! 8       4     page_id — must match the slot the page was read from
//! 12      8     lsn     — commit batch that last wrote this page
//! 20      4     next    — chain link (0 = end of chain)
//! 24      2     used    — payload bytes in use (<= PAGE_CAP)
//! 26      6     reserved, zero
//! 32      4064  payload
//! ```
//!
//! Page 0 of the file is a *stamp* page (magic prefix, never rewritten
//! after creation) so page ids are never 0 and `next == 0` can mean nil.
//!
//! This module is part of the storage recovery path enforced at **zero
//! panic sites** by `simcloud-analyze` — all parsing is bounds-checked and
//! returns [`StorageError::Corrupt`].

use crate::StorageError;

/// Page size in bytes (matches OS pages and SSD blocks; see the DecentDb
/// rationale quoted in SNIPPETS.md).
pub const PAGE_SIZE: usize = 4096;
/// Bytes of the v2 page header.
pub const PAGE_HDR: usize = 32;
/// Payload capacity of one page.
pub const PAGE_CAP: usize = PAGE_SIZE - PAGE_HDR;
/// Magic of a v2 data page.
pub const PAGE_MAGIC: [u8; 4] = *b"SCP2";
/// Magic prefix of the stamp page (page 0).
pub const STAMP_MAGIC: [u8; 8] = *b"SCLDSTO2";

const OFF_CRC: usize = 0;
const OFF_MAGIC: usize = 4;
const OFF_PAGE_ID: usize = 8;
const OFF_LSN: usize = 12;
const OFF_NEXT: usize = 20;
const OFF_USED: usize = 24;

/// Parsed v2 page header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// Slot this page claims to live in.
    pub page_id: u32,
    /// Commit batch that last wrote the page.
    pub lsn: u64,
    /// Chain link (0 = nil).
    pub next: u32,
    /// Payload bytes in use.
    pub used: u16,
}

// ---- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ---------------------
//
// Slice-by-16: sixteen 256-entry tables let the kernel fold sixteen input
// bytes per step instead of one (table `k` holds the CRC of a byte followed
// by `k` zero bytes). Same polynomial, same values as the bytewise loop it
// replaced — pages and WAL frames are bit-for-bit what PR 8 wrote; the
// bytewise loop survives as the test-only reference `crc32_ref`.

static CRC_TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();

fn crc_tables() -> &'static [[u32; 256]; 16] {
    CRC_TABLES.get_or_init(|| {
        let mut first = [0u32; 256];
        for (slot, i) in first.iter_mut().zip(0u32..) {
            let mut c = i;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut tables = [first; 16];
        let mut prev = first;
        for table in tables.iter_mut().skip(1) {
            for (slot, p) in table.iter_mut().zip(prev) {
                *slot = (p >> 8) ^ lookup(&first, p);
            }
            prev = *table;
        }
        tables
    })
}

/// `table[low byte of x]`. The mask keeps the index below 256, so the
/// fallback is unreachable and the bounds check compiles away.
#[inline(always)]
fn lookup(table: &[u32; 256], x: u32) -> u32 {
    table.get((x & 0xFF) as usize).copied().unwrap_or(0)
}

fn crc_update(state: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = crc_tables();
    let mut c = state;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let Ok([a0, a1, a2, a3, b0, b1, b2, b3, d0, d1, d2, d3, e0, e1, e2, e3]) =
            <[u8; 16]>::try_from(chunk)
        else {
            continue; // chunks_exact(16) yields 16 bytes; unreachable.
        };
        let a = c ^ u32::from_le_bytes([a0, a1, a2, a3]);
        let b = u32::from_le_bytes([b0, b1, b2, b3]);
        let d = u32::from_le_bytes([d0, d1, d2, d3]);
        let e = u32::from_le_bytes([e0, e1, e2, e3]);
        c = lookup(t15, a)
            ^ lookup(t14, a >> 8)
            ^ lookup(t13, a >> 16)
            ^ lookup(t12, a >> 24)
            ^ lookup(t11, b)
            ^ lookup(t10, b >> 8)
            ^ lookup(t9, b >> 16)
            ^ lookup(t8, b >> 24)
            ^ lookup(t7, d)
            ^ lookup(t6, d >> 8)
            ^ lookup(t5, d >> 16)
            ^ lookup(t4, d >> 24)
            ^ lookup(t3, e)
            ^ lookup(t2, e >> 8)
            ^ lookup(t1, e >> 16)
            ^ lookup(t0, e >> 24);
    }
    for &b in chunks.remainder() {
        c = (c >> 8) ^ lookup(t0, c ^ u32::from(b));
    }
    c
}

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(0xFFFF_FFFF, bytes)
}

/// CRC32 by the bytewise table loop the slice-by-16 kernel replaced, kept
/// as the differential-test reference and to seal golden pre-PR-13 images.
#[cfg(test)]
pub(crate) fn crc32_ref(bytes: &[u8]) -> u32 {
    let [table, ..] = crc_tables();
    !bytes.iter().fold(0xFFFF_FFFF, |c, &b| {
        (c >> 8) ^ lookup(table, c ^ u32::from(b))
    })
}

/// CRC32 of a page image with its 4-byte crc field treated as zero —
/// avoids copying 4 KiB per verification.
fn crc32_of_page(buf: &[u8]) -> Result<u32, StorageError> {
    let tail = buf
        .get(OFF_MAGIC..)
        .ok_or_else(|| StorageError::Corrupt("page image shorter than crc field".into()))?;
    let c = crc_update(0xFFFF_FFFF, &[0, 0, 0, 0]);
    Ok(!crc_update(c, tail))
}

// ---- bounds-checked little-endian accessors -----------------------------

/// `len` bytes of `buf` at `off`, or a typed corruption error.
pub(crate) fn get_bytes(buf: &[u8], off: usize, len: usize) -> Result<&[u8], StorageError> {
    buf.get(off..off.saturating_add(len))
        .ok_or_else(|| StorageError::Corrupt(format!("truncated field at byte {off}")))
}

/// Little-endian `u16` at `off`.
pub(crate) fn read_u16(buf: &[u8], off: usize) -> Result<u16, StorageError> {
    let bytes = get_bytes(buf, off, 2)?;
    let arr: [u8; 2] = bytes
        .try_into()
        .map_err(|_| StorageError::Corrupt(format!("truncated u16 at byte {off}")))?;
    Ok(u16::from_le_bytes(arr))
}

/// Little-endian `u32` at `off`.
pub(crate) fn read_u32(buf: &[u8], off: usize) -> Result<u32, StorageError> {
    let bytes = get_bytes(buf, off, 4)?;
    let arr: [u8; 4] = bytes
        .try_into()
        .map_err(|_| StorageError::Corrupt(format!("truncated u32 at byte {off}")))?;
    Ok(u32::from_le_bytes(arr))
}

/// Little-endian `u64` at `off`.
pub(crate) fn read_u64(buf: &[u8], off: usize) -> Result<u64, StorageError> {
    let bytes = get_bytes(buf, off, 8)?;
    let arr: [u8; 8] = bytes
        .try_into()
        .map_err(|_| StorageError::Corrupt(format!("truncated u64 at byte {off}")))?;
    Ok(u64::from_le_bytes(arr))
}

/// Copies `data` into `buf` at `off`, or reports corruption (an in-memory
/// page image too short to hold its own header).
pub(crate) fn put_bytes(buf: &mut [u8], off: usize, data: &[u8]) -> Result<(), StorageError> {
    let dst = buf
        .get_mut(off..off.saturating_add(data.len()))
        .ok_or_else(|| StorageError::Corrupt(format!("page image too short at byte {off}")))?;
    dst.copy_from_slice(data);
    Ok(())
}

// ---- page header ---------------------------------------------------------

/// Initializes a fresh page image in place: magic, `page_id`, zero lsn,
/// nil chain link, zero payload bytes used. The CRC is *not* stamped —
/// that happens once per commit in [`seal_page`].
pub fn init_page(buf: &mut [u8], page_id: u32) -> Result<(), StorageError> {
    buf.fill(0);
    put_bytes(buf, OFF_MAGIC, &PAGE_MAGIC)?;
    put_bytes(buf, OFF_PAGE_ID, &page_id.to_le_bytes())?;
    Ok(())
}

/// Writes the chain link field.
pub fn set_next(buf: &mut [u8], next: u32) -> Result<(), StorageError> {
    put_bytes(buf, OFF_NEXT, &next.to_le_bytes())
}

/// Writes the used-bytes field.
pub fn set_used(buf: &mut [u8], used: u16) -> Result<(), StorageError> {
    put_bytes(buf, OFF_USED, &used.to_le_bytes())
}

/// Reads the chain link field without a full parse (pool-resident pages
/// were already verified on read).
pub fn get_next(buf: &[u8]) -> Result<u32, StorageError> {
    read_u32(buf, OFF_NEXT)
}

/// Reads the used-bytes field without a full parse.
pub fn get_used(buf: &[u8]) -> Result<u16, StorageError> {
    read_u16(buf, OFF_USED)
}

/// Stamps `lsn` and the CRC into a page image — the last step before the
/// image is logged and checkpointed. After this the page verifies.
pub fn seal_page(buf: &mut [u8], lsn: u64) -> Result<(), StorageError> {
    put_bytes(buf, OFF_LSN, &lsn.to_le_bytes())?;
    put_bytes(buf, OFF_CRC, &[0, 0, 0, 0])?;
    let crc = crc32_of_page(buf)?;
    put_bytes(buf, OFF_CRC, &crc.to_le_bytes())
}

/// Verifies and parses a page image read from slot `expect_id` (pass
/// `None` to skip the slot check, e.g. when probing an unknown image).
/// Magic, CRC, slot match and `used <= PAGE_CAP` are all enforced.
pub fn parse_page(buf: &[u8], expect_id: Option<u32>) -> Result<PageHeader, StorageError> {
    if buf.len() != PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "page image of {} bytes (want {PAGE_SIZE})",
            buf.len()
        )));
    }
    if get_bytes(buf, OFF_MAGIC, 4)? != PAGE_MAGIC {
        return Err(StorageError::Corrupt("bad page magic".into()));
    }
    let stored_crc = read_u32(buf, OFF_CRC)?;
    let actual_crc = crc32_of_page(buf)?;
    if stored_crc != actual_crc {
        return Err(StorageError::Corrupt(format!(
            "page crc mismatch (stored {stored_crc:08x}, computed {actual_crc:08x})"
        )));
    }
    let page_id = read_u32(buf, OFF_PAGE_ID)?;
    if let Some(expect) = expect_id {
        if page_id != expect {
            return Err(StorageError::Corrupt(format!(
                "page claims id {page_id}, read from slot {expect}"
            )));
        }
    }
    let lsn = read_u64(buf, OFF_LSN)?;
    let next = read_u32(buf, OFF_NEXT)?;
    let used = read_u16(buf, OFF_USED)?;
    if usize::from(used) > PAGE_CAP {
        return Err(StorageError::Corrupt(format!(
            "page {page_id} claims {used} used bytes (cap {PAGE_CAP})"
        )));
    }
    Ok(PageHeader {
        page_id,
        lsn,
        next,
        used,
    })
}

/// The stamp page occupying slot 0 (written once at creation).
pub fn stamp_page() -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    if put_bytes(&mut page, 0, &STAMP_MAGIC).is_err() {
        // PAGE_SIZE > 8; unreachable, kept total instead of panicking.
        return page;
    }
    page
}

/// True when `buf` starts with the stamp magic.
pub fn is_stamp(buf: &[u8]) -> bool {
    buf.get(..STAMP_MAGIC.len())
        .is_some_and(|head| head == STAMP_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_ref(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_ref(b""), 0);
        // Long enough to run the 16-byte steps and a remainder.
        let text = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc32(text), 0x414F_A339);
        assert_eq!(crc32_ref(text), 0x414F_A339);
    }

    /// Every length from empty to past a WAL page frame, walking the start
    /// alignment with it.
    #[test]
    fn crc32_fast_matches_reference_at_every_length() {
        let backing: Vec<u8> = (0..4208u32).map(|i| (i * 7 + i / 256) as u8).collect();
        for len in 0..=4200usize {
            let bytes = &backing[len % 8..len % 8 + len];
            assert_eq!(crc32(bytes), crc32_ref(bytes), "len {len}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The sliced kernel equals the bytewise reference at every length
        /// that can occur (0 ..= a page and a WAL frame header), at all
        /// eight start alignments, and however a stream is split across
        /// chained `crc_update` calls.
        #[test]
        fn crc32_fast_matches_reference(
            len in 0usize..4201,
            seed in proptest::any::<u64>(),
            cuts in proptest::collection::vec(0usize..4201, 0..4),
        ) {
            let mut x = seed | 1;
            let backing: Vec<u8> = (0..len + 8)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.to_le_bytes()[0]
                })
                .collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            for align in 0..8 {
                let bytes = &backing[align..align + len];
                let want = crc32_ref(bytes);
                proptest::prop_assert_eq!(crc32(bytes), want);
                let mut state = 0xFFFF_FFFF;
                let mut from = 0;
                for &cut in cuts.iter().chain([&len]) {
                    state = crc_update(state, &bytes[from..cut]);
                    from = cut;
                }
                proptest::prop_assert_eq!(!state, want);
            }
        }
    }

    /// Format pin: a page sealed the way the pre-PR-13 code sealed it (lsn,
    /// then the bytewise CRC over the image with a zeroed crc field)
    /// verifies under the sliced kernel, `seal_page` produces the very
    /// same bytes, and one flipped bit anywhere is still caught.
    #[test]
    fn reference_sealed_page_parses_under_the_new_kernel() {
        let mut page = vec![0u8; PAGE_SIZE];
        init_page(&mut page, 11).unwrap();
        set_next(&mut page, 12).unwrap();
        set_used(&mut page, 4000).unwrap();
        for (i, b) in page[PAGE_HDR..PAGE_HDR + 4000].iter_mut().enumerate() {
            *b = (i * 31 % 251) as u8;
        }
        let mut golden = page.clone();
        golden[OFF_LSN..OFF_LSN + 8].copy_from_slice(&9u64.to_le_bytes());
        let crc = crc32_ref(&golden);
        golden[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_le_bytes());

        let hdr = parse_page(&golden, Some(11)).unwrap();
        assert_eq!((hdr.lsn, hdr.next, hdr.used), (9, 12, 4000));
        seal_page(&mut page, 9).unwrap();
        assert_eq!(page, golden, "seal_page bytes changed");
        for bit in [0usize, 37, 8 * PAGE_HDR + 5, 8 * PAGE_SIZE - 1] {
            let mut bad = golden.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(parse_page(&bad, Some(11)).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    fn seal_then_parse_round_trip() {
        let mut page = vec![0u8; PAGE_SIZE];
        init_page(&mut page, 7).unwrap();
        set_next(&mut page, 9).unwrap();
        set_used(&mut page, 123).unwrap();
        seal_page(&mut page, 42).unwrap();
        let hdr = parse_page(&page, Some(7)).unwrap();
        assert_eq!(
            hdr,
            PageHeader {
                page_id: 7,
                lsn: 42,
                next: 9,
                used: 123
            }
        );
    }

    #[test]
    fn parse_rejects_any_flipped_bit_in_header() {
        let mut page = vec![0u8; PAGE_SIZE];
        init_page(&mut page, 3).unwrap();
        set_used(&mut page, 10).unwrap();
        seal_page(&mut page, 1).unwrap();
        for byte in [0usize, 4, 8, 12, 20, 24, 31, 32, 100, PAGE_SIZE - 1] {
            let mut bad = page.clone();
            bad[byte] ^= 0x01;
            assert!(
                parse_page(&bad, Some(3)).is_err(),
                "flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn parse_rejects_wrong_slot() {
        let mut page = vec![0u8; PAGE_SIZE];
        init_page(&mut page, 5).unwrap();
        seal_page(&mut page, 1).unwrap();
        assert!(parse_page(&page, Some(6)).is_err());
        assert!(parse_page(&page, None).is_ok(), "slot check is optional");
    }

    #[test]
    fn parse_rejects_oversized_used() {
        let mut page = vec![0u8; PAGE_SIZE];
        init_page(&mut page, 5).unwrap();
        set_used(&mut page, (PAGE_CAP + 1) as u16).unwrap();
        seal_page(&mut page, 1).unwrap();
        let err = parse_page(&page, Some(5)).unwrap_err();
        assert!(err.to_string().contains("used bytes"));
    }

    #[test]
    fn parse_rejects_short_image() {
        assert!(parse_page(&[0u8; 100], None).is_err());
    }

    #[test]
    fn stamp_round_trip() {
        let s = stamp_page();
        assert_eq!(s.len(), PAGE_SIZE);
        assert!(is_stamp(&s));
        assert!(!is_stamp(&[0u8; PAGE_SIZE]));
        assert!(!is_stamp(b"SC"));
    }
}
