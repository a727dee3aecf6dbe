//! AES-128 block cipher (FIPS-197), encrypt direction — the one primitive
//! the envelope needs: CTR mode only ever runs the forward cipher, so there
//! is no inverse cipher and no 192/256-bit schedule.
//!
//! The hot path is a 32-bit **T-table** implementation: one 256-entry table
//! fuses SubBytes, ShiftRows and MixColumns into four XORs of rotated table
//! words per column per round (the `rijndael-alg-fst` formulation; the other
//! three tables of the classic four-table layout are byte rotations of the
//! first, so they are derived with `rotate_right` at use).
//!
//! The table is derived from `SBOX` at first use (no second hand-typed
//! constant as a source of error), and the textbook byte-oriented
//! implementation is kept as the reference the T-table path is
//! property-tested against on random keys and blocks.
//!
//! Correctness is anchored to the FIPS-197 known-answer tests and a pair of
//! NIST AESAVS vectors (see the test module).

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

/// Number of rounds for a 128-bit key.
const ROUNDS: usize = 10;

/// Fused SubBytes+ShiftRows+MixColumns table, derived from [`SBOX`] at
/// first use: `te[x]` packs `(02·S[x], S[x], S[x], 03·S[x])` big-endian.
/// The classic Te1–Te3 tables are byte rotations of it.
fn te() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TE: OnceLock<[u32; 256]> = OnceLock::new();
    TE.get_or_init(|| {
        std::array::from_fn(|x| {
            let s = SBOX[x];
            u32::from_be_bytes([gmul(s, 0x02), s, s, gmul(s, 0x03)])
        })
    })
}

/// An expanded AES-128 key ready for block encryption.
#[derive(Clone)]
pub struct Aes {
    /// The key schedule as big-endian column words, one entry per round key.
    keys: [[u32; 4]; ROUNDS + 1],
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes{{rounds: {ROUNDS}}}")
    }
}

impl Aes {
    /// Expands a 16-byte `key`. Returns `None` for any other length.
    pub fn new(key: &[u8]) -> Option<Self> {
        let key: &[u8; 16] = key.try_into().ok()?;
        let mut keys = [[0u32; 4]; ROUNDS + 1];
        for (k, word) in keys[0].iter_mut().zip(key.chunks_exact(4)) {
            *k = u32::from_be_bytes(word.try_into().unwrap());
        }
        for r in 1..=ROUNDS {
            // RotWord, SubWord and Rcon of the previous round key's last
            // word, then each word is the one a round earlier XOR the one
            // before it.
            let prev = keys[r - 1];
            let [a, b, c, d] = prev[3].rotate_left(8).to_be_bytes();
            let mut temp = u32::from_be_bytes([
                SBOX[a as usize] ^ RCON[r - 1],
                SBOX[b as usize],
                SBOX[c as usize],
                SBOX[d as usize],
            ]);
            for (k, p) in keys[r].iter_mut().zip(prev) {
                temp ^= p;
                *k = temp;
            }
        }
        Some(Self { keys })
    }

    /// Encrypts one 16-byte block in place (T-table path).
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let te = te();
        let rk = &self.keys;
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] = u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().unwrap()) ^ rk[0][c];
        }
        for rk_r in &rk[1..ROUNDS] {
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
            ]) ^ rk[ROUNDS][c];
            block[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
    }

    /// Byte-oriented reference encryption (the FIPS-197 pseudocode) — kept
    /// as the oracle the T-table path is property-tested against.
    #[cfg(test)]
    fn encrypt_block_bytewise(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.keys[0]);
        for r in 1..ROUNDS {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.keys[ROUNDS]);
    }
}

// State layout: block[4*c + r] = state row r, column c (column-major, as in
// FIPS-197 input mapping).

#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u32; 4]) {
    for (c, word) in rk.iter().enumerate() {
        for (s, k) in state[4 * c..4 * c + 4].iter_mut().zip(word.to_be_bytes()) {
            *s ^= k;
        }
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
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
        assert!(Aes::new(&[0u8; 24]).is_none());
        assert!(Aes::new(&[0u8; 32]).is_none());
    }

    #[test]
    fn debug_does_not_leak_key() {
        let aes = Aes::new(&[7u8; 16]).unwrap();
        let dbg = format!("{aes:?}");
        assert!(!dbg.contains('7'), "debug output leaks key material: {dbg}");
        assert!(dbg.contains("rounds"));
    }

    #[test]
    fn gf_multiplication_table_identities() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS-197 §4.2 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
        assert_eq!(xtime(0x57), 0xae);
        assert_eq!(xtime(0xae), 0x47);
    }

    mod ttable_properties {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The T-table fast path computes exactly the byte-oriented
            /// FIPS-197 transform on random keys and blocks.
            #[test]
            fn ttable_matches_bytewise(
                key in proptest::collection::vec(any::<u8>(), 16),
                block in proptest::collection::vec(any::<u8>(), 16),
            ) {
                let aes = Aes::new(&key).unwrap();
                let orig: [u8; 16] = block.try_into().unwrap();

                let mut fast = orig;
                aes.encrypt_block(&mut fast);
                let mut slow = orig;
                aes.encrypt_block_bytewise(&mut slow);
                prop_assert_eq!(fast, slow);
            }
        }
    }
}
