//! AES block cipher (FIPS-197) — 128/192/256-bit keys.
//!
//! The hot path is a 32-bit **T-table** implementation: one 256-entry table
//! per direction fuses SubBytes, ShiftRows and MixColumns into four XORs of
//! rotated table words per column per round (the `rijndael-alg-fst`
//! formulation; the other three tables of the classic four-table layout are
//! byte rotations of the first, so they are derived with `rotate_right` at
//! use). Decryption runs the *equivalent inverse cipher*: the decryption
//! key schedule applies InvMixColumns to the inner round keys once at key
//! expansion, so rounds stay table-driven.
//!
//! Both tables are derived from `SBOX` at first use (same pattern as
//! `inv_sbox` — no second hand-typed constant as a source of error), and
//! the textbook byte-oriented implementation is kept as the reference the
//! T-table path is property-tested against on random keys and blocks.
//!
//! Correctness is anchored to the FIPS-197 Appendix C known-answer tests and
//! a pair of NIST AESAVS vectors (see the test module).

/// The AES S-box (FIPS-197 Figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box, derived from [`SBOX`] at first use (avoids a second
/// hand-typed table as a source of error).
fn inv_sbox() -> &'static [u8; 256] {
    use std::sync::OnceLock;
    static INV: OnceLock<[u8; 256]> = OnceLock::new();
    INV.get_or_init(|| {
        let mut inv = [0u8; 256];
        for (i, &s) in SBOX.iter().enumerate() {
            inv[s as usize] = i as u8;
        }
        inv
    })
}

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Multiply by x (i.e. {02}) in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// General GF(2^8) multiplication (Russian-peasant).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// AES key size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// 128-bit key, 10 rounds — the paper's configuration.
    Aes128,
    /// 192-bit key, 12 rounds.
    Aes192,
    /// 256-bit key, 14 rounds.
    Aes256,
}

impl KeySize {
    fn from_len(len: usize) -> Option<Self> {
        match len {
            16 => Some(KeySize::Aes128),
            24 => Some(KeySize::Aes192),
            32 => Some(KeySize::Aes256),
            _ => None,
        }
    }
    fn rounds(self) -> usize {
        match self {
            KeySize::Aes128 => 10,
            KeySize::Aes192 => 12,
            KeySize::Aes256 => 14,
        }
    }
    fn nk(self) -> usize {
        match self {
            KeySize::Aes128 => 4,
            KeySize::Aes192 => 6,
            KeySize::Aes256 => 8,
        }
    }
}

/// Fused SubBytes+ShiftRows+MixColumns tables, derived from [`SBOX`] at
/// first use. `te[x]` packs `(02·S[x], S[x], S[x], 03·S[x])` big-endian;
/// `td[x]` packs `(0e·Si[x], 09·Si[x], 0d·Si[x], 0b·Si[x])`. The classic
/// Te1–Te3 / Td1–Td3 tables are byte rotations of these.
fn ttables() -> &'static ([u32; 256], [u32; 256]) {
    use std::sync::OnceLock;
    static TABLES: OnceLock<([u32; 256], [u32; 256])> = OnceLock::new();
    TABLES.get_or_init(|| {
        let inv = inv_sbox();
        let mut te = [0u32; 256];
        let mut td = [0u32; 256];
        for x in 0..256 {
            let s = SBOX[x];
            te[x] = u32::from_be_bytes([gmul(s, 0x02), s, s, gmul(s, 0x03)]);
            let si = inv[x];
            td[x] = u32::from_be_bytes([
                gmul(si, 0x0e),
                gmul(si, 0x09),
                gmul(si, 0x0d),
                gmul(si, 0x0b),
            ]);
        }
        (te, td)
    })
}

/// InvMixColumns of one big-endian column word, via the decryption table:
/// `td[x]` is InvMixColumns of the word `Si[x]·e_row`, so composing with
/// the forward S-box cancels the substitution.
#[inline]
fn inv_mix_word(td: &[u32; 256], w: u32) -> u32 {
    td[SBOX[(w >> 24) as usize] as usize]
        ^ td[SBOX[((w >> 16) & 0xff) as usize] as usize].rotate_right(8)
        ^ td[SBOX[((w >> 8) & 0xff) as usize] as usize].rotate_right(16)
        ^ td[SBOX[(w & 0xff) as usize] as usize].rotate_right(24)
}

/// An expanded AES key ready for block operations.
#[derive(Clone)]
pub struct Aes {
    // rounds + 1 entries; feeds the byte-oriented reference path, which
    // only compiles under test.
    #[cfg_attr(not(test), allow(dead_code))]
    round_keys: Vec<[u8; 16]>,
    enc_keys: Vec<[u32; 4]>, // same schedule as big-endian column words
    dec_keys: Vec<[u32; 4]>, // equivalent-inverse-cipher schedule
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes{{rounds: {}}}", self.rounds)
    }
}

impl Aes {
    /// Expands `key` (16, 24 or 32 bytes). Returns `None` for other lengths.
    pub fn new(key: &[u8]) -> Option<Self> {
        let size = KeySize::from_len(key.len())?;
        let nk = size.nk();
        let rounds = size.rounds();
        let nwords = 4 * (rounds + 1);
        let mut w = vec![[0u8; 4]; nwords];
        for (i, word) in w.iter_mut().take(nk).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            for j in 0..4 {
                w[i][j] = w[i - nk][j] ^ temp[j];
            }
        }
        let mut round_keys = Vec::with_capacity(rounds + 1);
        let mut enc_keys = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            let mut ek = [0u32; 4];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                ek[c] = u32::from_be_bytes(w[4 * r + c]);
            }
            round_keys.push(rk);
            enc_keys.push(ek);
        }
        // Equivalent inverse cipher: reverse the schedule and push the inner
        // round keys through InvMixColumns once, so decryption rounds can be
        // table-driven just like encryption rounds.
        let (_, td) = ttables();
        let mut dec_keys = Vec::with_capacity(rounds + 1);
        dec_keys.push(enc_keys[rounds]);
        for r in (1..rounds).rev() {
            let mut dk = [0u32; 4];
            for c in 0..4 {
                dk[c] = inv_mix_word(td, enc_keys[r][c]);
            }
            dec_keys.push(dk);
        }
        dec_keys.push(enc_keys[0]);
        Some(Self {
            round_keys,
            enc_keys,
            dec_keys,
            rounds,
        })
    }

    /// Number of rounds (10/12/14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Encrypts one 16-byte block in place (T-table path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let (te, _) = ttables();
        let rk = &self.enc_keys;
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] = u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().unwrap()) ^ rk[0][c];
        }
        for rk_r in &rk[1..self.rounds] {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // ShiftRows: row i of the output column comes from input
                // column c+i (mod 4); the rotations select Te1–Te3.
                t[c] = te[(s[c] >> 24) as usize]
                    ^ te[((s[(c + 1) & 3] >> 16) & 0xff) as usize].rotate_right(8)
                    ^ te[((s[(c + 2) & 3] >> 8) & 0xff) as usize].rotate_right(16)
                    ^ te[(s[(c + 3) & 3] & 0xff) as usize].rotate_right(24)
                    ^ rk_r[c];
            }
            s = t;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        for c in 0..4 {
            let w = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[((s[(c + 1) & 3] >> 16) & 0xff) as usize],
                SBOX[((s[(c + 2) & 3] >> 8) & 0xff) as usize],
                SBOX[(s[(c + 3) & 3] & 0xff) as usize],
            ]) ^ rk[self.rounds][c];
            block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Decrypts one 16-byte block in place (equivalent inverse cipher).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let (_, td) = ttables();
        let inv = inv_sbox();
        let rk = &self.dec_keys;
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] = u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().unwrap()) ^ rk[0][c];
        }
        for rk_r in &rk[1..self.rounds] {
            let mut t = [0u32; 4];
            for c in 0..4 {
                // InvShiftRows: row i comes from input column c−i (mod 4).
                t[c] = td[(s[c] >> 24) as usize]
                    ^ td[((s[(c + 3) & 3] >> 16) & 0xff) as usize].rotate_right(8)
                    ^ td[((s[(c + 2) & 3] >> 8) & 0xff) as usize].rotate_right(16)
                    ^ td[(s[(c + 1) & 3] & 0xff) as usize].rotate_right(24)
                    ^ rk_r[c];
            }
            s = t;
        }
        for c in 0..4 {
            let w = u32::from_be_bytes([
                inv[(s[c] >> 24) as usize],
                inv[((s[(c + 3) & 3] >> 16) & 0xff) as usize],
                inv[((s[(c + 2) & 3] >> 8) & 0xff) as usize],
                inv[(s[(c + 1) & 3] & 0xff) as usize],
            ]) ^ rk[self.rounds][c];
            block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Byte-oriented reference encryption (the FIPS-197 pseudocode) — kept
    /// as the oracle the T-table path is property-tested against.
    #[cfg(test)]
    fn encrypt_block_bytewise(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Byte-oriented reference decryption (see
    /// [`Self::encrypt_block_bytewise`]).
    #[cfg(test)]
    fn decrypt_block_bytewise(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for r in (1..self.rounds).rev() {
            add_round_key(block, &self.round_keys[r]);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, &self.round_keys[0]);
    }
}

// State layout: block[4*c + r] = state row r, column c (column-major, as in
// FIPS-197 input mapping).

#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[cfg(test)]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    let inv = inv_sbox();
    for b in state.iter_mut() {
        *b = inv[*b as usize];
    }
}

#[cfg(test)]
fn shift_rows(state: &mut [u8; 16]) {
    // row r (r = 1..3) rotates left by r; elements of row r are at indices
    // r, r+4, r+8, r+12.
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[cfg(test)]
fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

#[cfg(test)]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

#[cfg(test)]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        state[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        state[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        state[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};

    fn run_kat(key_hex: &str, pt_hex: &str, ct_hex: &str) {
        let key = hex_decode(key_hex);
        let aes = Aes::new(&key).unwrap();
        let mut block = [0u8; 16];
        block.copy_from_slice(&hex_decode(pt_hex));
        aes.encrypt_block(&mut block);
        assert_eq!(hex_encode(&block), ct_hex, "encrypt KAT failed");
        aes.decrypt_block(&mut block);
        assert_eq!(hex_encode(&block), pt_hex, "decrypt KAT failed");
    }

    /// FIPS-197 Appendix C.1 (AES-128).
    #[test]
    fn fips197_appendix_c1_aes128() {
        run_kat(
            "000102030405060708090a0b0c0d0e0f",
            "00112233445566778899aabbccddeeff",
            "69c4e0d86a7b0430d8cdb78070b4c55a",
        );
    }

    /// FIPS-197 Appendix C.2 (AES-192).
    #[test]
    fn fips197_appendix_c2_aes192() {
        run_kat(
            "000102030405060708090a0b0c0d0e0f1011121314151617",
            "00112233445566778899aabbccddeeff",
            "dda97ca4864cdfe06eaf70a0ec0d7191",
        );
    }

    /// FIPS-197 Appendix C.3 (AES-256).
    #[test]
    fn fips197_appendix_c3_aes256() {
        run_kat(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "00112233445566778899aabbccddeeff",
            "8ea2b7ca516745bfeafc49904b496089",
        );
    }

    /// FIPS-197 Appendix B worked example (AES-128).
    #[test]
    fn fips197_appendix_b_example() {
        run_kat(
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        );
    }

    /// NIST AESAVS KAT: GFSbox AES-128, zero key.
    #[test]
    fn aesavs_gfsbox_128() {
        run_kat(
            "00000000000000000000000000000000",
            "f34481ec3cc627bacd5dc3fb08f273e6",
            "0336763e966d92595a567cc9ce537f5e",
        );
    }

    /// NIST AESAVS KAT: VarKey AES-128 (key = 80..0).
    #[test]
    fn aesavs_varkey_128() {
        run_kat(
            "80000000000000000000000000000000",
            "00000000000000000000000000000000",
            "0edd33d3c621e546455bd8ba1418bec8",
        );
    }

    #[test]
    fn rejects_bad_key_lengths() {
        assert!(Aes::new(&[0u8; 15]).is_none());
        assert!(Aes::new(&[0u8; 17]).is_none());
        assert!(Aes::new(&[]).is_none());
        assert!(Aes::new(&[0u8; 16]).is_some());
        assert!(Aes::new(&[0u8; 24]).is_some());
        assert!(Aes::new(&[0u8; 32]).is_some());
    }

    #[test]
    fn round_counts() {
        assert_eq!(Aes::new(&[0u8; 16]).unwrap().rounds(), 10);
        assert_eq!(Aes::new(&[0u8; 24]).unwrap().rounds(), 12);
        assert_eq!(Aes::new(&[0u8; 32]).unwrap().rounds(), 14);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('7'), "debug output leaks key material: {dbg}");
        assert!(dbg.contains("rounds"));
    }

    #[test]
    fn encrypt_decrypt_round_trip_many_blocks() {
        let aes = Aes::new(b"0123456789abcdef").unwrap();
        for i in 0..64u8 {
            let mut block = [i; 16];
            let orig = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, orig);
            aes.decrypt_block(&mut block);
            assert_eq!(block, orig);
        }
    }

    #[test]
    fn gf_multiplication_table_identities() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }

    /// `inv_mix_word` (used to build the equivalent-inverse-cipher key
    /// schedule) must invert the byte-oriented MixColumns on every column.
    #[test]
    fn inv_mix_word_inverts_mix_columns() {
        let (_, td) = ttables();
        for seed in 0..256u32 {
            let mut state = [0u8; 16];
            for (i, b) in state.iter_mut().enumerate() {
                *b = (seed.wrapping_mul(31).wrapping_add(i as u32 * 97) & 0xff) as u8;
            }
            let mut mixed = state;
            mix_columns(&mut mixed);
            for c in 0..4 {
                let w = u32::from_be_bytes(mixed[4 * c..4 * c + 4].try_into().unwrap());
                let back = inv_mix_word(td, w).to_be_bytes();
                assert_eq!(back, state[4 * c..4 * c + 4], "column {c} seed {seed}");
            }
        }
    }

    #[test]
    fn inverse_sbox_is_consistent() {
        let inv = inv_sbox();
        for i in 0..=255u8 {
            assert_eq!(inv[SBOX[i as usize] as usize], i);
        }
    }

    mod ttable_properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The T-table fast path computes exactly the byte-oriented
            /// FIPS-197 transform, for every key size on random blocks.
            #[test]
            fn ttable_matches_bytewise(
                key in proptest::collection::vec(any::<u8>(), 32),
                block in proptest::collection::vec(any::<u8>(), 16),
                size in 0usize..3,
            ) {
                let key_len = [16, 24, 32][size];
                let aes = Aes::new(&key[..key_len]).unwrap();
                let orig: [u8; 16] = block.clone().try_into().unwrap();

                let mut fast = orig;
                aes.encrypt_block(&mut fast);
                let mut slow = orig;
                aes.encrypt_block_bytewise(&mut slow);
                prop_assert_eq!(fast, slow);

                let mut fast_dec = fast;
                aes.decrypt_block(&mut fast_dec);
                let mut slow_dec = slow;
                aes.decrypt_block_bytewise(&mut slow_dec);
                prop_assert_eq!(fast_dec, slow_dec);
                prop_assert_eq!(fast_dec, orig);
            }
        }
    }
}
