//! Poly1305 (Bernstein, *The Poly1305-AES message-authentication code*,
//! FSE 2005; RFC 8439 §2.5).
//!
//! The message is read as 16-byte little-endian blocks, each with a 1 bit
//! appended above its top byte (a short last block gets the 1 right after
//! its last byte), and evaluated as a polynomial in the clamped key `r`
//! modulo p = 2^130 − 5. The tag is that value plus a 16-byte pad `s`,
//! mod 2^128. The [`crate::envelope`] takes `s = AES_k(nonce)`, which
//! makes the whole thing Poly1305-AES.
//!
//! The accumulator is three limbs of 44/44/42 bits and the products are
//! `u128`, the shape of poly1305-donna-64: portable 64-bit integer code,
//! no table and no data-dependent branch.

/// Low 44 bits.
const MASK44: u64 = (1 << 44) - 1;
/// Low 42 bits.
const MASK42: u64 = (1 << 42) - 1;
/// The clamp every `r` gets: the top 4 bits of bytes 3, 7, 11 and 15 and
/// the low 2 bits of bytes 4, 8 and 12 are cleared.
const CLAMP: u128 = 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;

/// A streaming Poly1305 under one `r`. The pad `s` is given to
/// [`Poly1305::finalize`], so a state keyed once in [`Poly1305::new`] can
/// be cloned for every message that shares `r`.
#[derive(Clone)]
pub struct Poly1305 {
    /// Clamped `r` in 44/44/42-bit limbs.
    r: [u64; 3],
    /// `r1 · 20` and `r2 · 20`: a product that lands at 2^132 folds back
    /// as · 4 · 5 (2^130 ≡ 5 mod p).
    r20: [u64; 2],
    /// The accumulator, partially reduced (each limb may exceed its width
    /// by a few bits between blocks).
    h: [u64; 3],
    /// Bytes of an incomplete block, waiting for the rest of it.
    buf: [u8; 16],
    buf_len: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("Poly1305{..}")
    }
}

impl Poly1305 {
    /// A fresh state keyed with `r`, which is clamped here.
    pub fn new(r: &[u8; 16]) -> Self {
        let r = u128::from_le_bytes(*r) & CLAMP;
        let r0 = r as u64 & MASK44;
        let r1 = (r >> 44) as u64 & MASK44;
        let r2 = (r >> 88) as u64;
        Self {
            r: [r0, r1, r2],
            r20: [r1 * 20, r2 * 20],
            h: [0; 3],
            buf: [0; 16],
            buf_len: 0,
        }
    }

    /// Absorbs `data`. Splitting a message across calls anywhere gives the
    /// same tag as one call.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let (head, tail) = data.split_at((16 - self.buf_len).min(data.len()));
            for (slot, byte) in self.buf.iter_mut().skip(self.buf_len).zip(head) {
                *slot = *byte;
            }
            self.buf_len += head.len();
            data = tail;
            if self.buf_len < 16 {
                return;
            }
            let block = self.buf;
            self.block(&block, 1);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<16>();
        for block in blocks {
            self.block(block, 1);
        }
        for (slot, byte) in self.buf.iter_mut().zip(rest) {
            *slot = *byte;
        }
        self.buf_len = rest.len();
    }

    /// Completes the tag: the polynomial's value mod p, plus `s` mod 2^128.
    pub fn finalize(mut self, s: &[u8; 16]) -> [u8; 16] {
        if self.buf_len > 0 {
            // The short block's 1 bit goes right after its last byte, so
            // the block itself carries it and the 2^128 bit stays clear.
            let mut block = [0u8; 16];
            let tail = self.buf.iter().take(self.buf_len).chain([&1u8]);
            for (slot, byte) in block.iter_mut().zip(tail) {
                *slot = *byte;
            }
            self.block(&block, 0);
        }
        let [mut h0, mut h1, mut h2] = self.h;

        // Carry twice around. Every limb is then within its width except
        // h1, which may reach 2^44, so h < 2^130 + 2^44 < 2p.
        for _ in 0..2 {
            h1 += h0 >> 44;
            h0 &= MASK44;
            h2 += h1 >> 44;
            h1 &= MASK44;
            h0 += (h2 >> 42) * 5;
            h2 &= MASK42;
        }
        h1 += h0 >> 44;
        h0 &= MASK44;

        // g = h + 5 − 2^130 = h − p; keep it iff it did not go negative,
        // i.e. iff h ≥ p. Either way the result is h mod p.
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= MASK44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= MASK44;
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // The low 128 bits (h1 may still be 2^44, so add rather than or).
        let h = u128::from(h0)
            .wrapping_add(u128::from(h1) << 44)
            .wrapping_add(u128::from(h2) << 88);
        h.wrapping_add(u128::from_le_bytes(*s)).to_le_bytes()
    }

    /// h = (h + block + hibit · 2^128) · r, partially reduced mod p.
    fn block(&mut self, block: &[u8; 16], hibit: u64) {
        let m = u128::from_le_bytes(*block);
        let [r0, r1, r2] = self.r;
        let [s1, s2] = self.r20;
        let [mut h0, mut h1, mut h2] = self.h;
        h0 += m as u64 & MASK44;
        h1 += (m >> 44) as u64 & MASK44;
        h2 += (m >> 88) as u64 | (hibit << 40);

        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let d0 = mul(h0, r0) + mul(h1, s2) + mul(h2, s1);
        let d1 = mul(h0, r1) + mul(h1, r0) + mul(h2, s2) + (d0 >> 44);
        let d2 = mul(h0, r2) + mul(h1, r1) + mul(h2, r0) + (d1 >> 44);
        h0 = d0 as u64 & MASK44;
        h1 = d1 as u64 & MASK44;
        h2 = d2 as u64 & MASK42;
        h0 += (d2 >> 42) as u64 * 5;
        h1 += h0 >> 44;
        h0 &= MASK44;
        self.h = [h0, h1, h2];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::Aes;
    use crate::{hex_decode, hex_encode};
    use proptest::prelude::*;

    fn arr16(hex: &str) -> [u8; 16] {
        hex_decode(hex).try_into().unwrap()
    }

    fn mac(r: &[u8; 16], s: &[u8; 16], message: &[u8]) -> [u8; 16] {
        let mut mac = Poly1305::new(r);
        mac.update(message);
        mac.finalize(s)
    }

    /// Schoolbook reference: a number is 10 little-endian 32-bit limbs
    /// (320 bits), products are full, and reduction mod p is binary long
    /// division, so nothing is shared with the 2^130 ≡ 5 folding above.
    type Big = [u32; 10];

    fn big(bytes: &[u8]) -> Big {
        let mut n = [0u32; 10];
        for (i, b) in bytes.iter().enumerate() {
            n[i / 4] |= u32::from(*b) << (8 * (i % 4));
        }
        n
    }

    fn add(a: &Big, b: &Big) -> Big {
        let mut out = [0u32; 10];
        let mut carry = 0u64;
        for i in 0..10 {
            let t = u64::from(a[i]) + u64::from(b[i]) + carry;
            out[i] = t as u32;
            carry = t >> 32;
        }
        out
    }

    fn mul(a: &Big, b: &Big) -> Big {
        let mut wide = [0u64; 20];
        for i in 0..10 {
            let mut carry = 0u64;
            for j in 0..10 {
                let t = wide[i + j] + u64::from(a[i]) * u64::from(b[j]) + carry;
                wide[i + j] = t & 0xffff_ffff;
                carry = t >> 32;
            }
            wide[i + 10] += carry;
        }
        assert!(wide[10..].iter().all(|&w| w == 0), "product overflows");
        std::array::from_fn(|i| wide[i] as u32)
    }

    fn p() -> Big {
        let mut p = big(&[0xff; 17]);
        p[0] = 0xffff_fffb;
        p[4] = 3;
        p
    }

    fn rem_p(x: &Big) -> Big {
        let p = p();
        let mut rem = [0u32; 10];
        for bit in (0..320).rev() {
            // rem = 2·rem + bit, then subtract p once if it fits.
            let mut carry = (x[bit / 32] >> (bit % 32)) & 1;
            for limb in rem.iter_mut() {
                let next = *limb >> 31;
                *limb = (*limb << 1) | carry;
                carry = next;
            }
            if (0..10).rev().map(|i| rem[i].cmp(&p[i])).find(|o| o.is_ne())
                != Some(std::cmp::Ordering::Less)
            {
                let mut borrow = 0i64;
                for i in 0..10 {
                    let t = i64::from(rem[i]) - i64::from(p[i]) - borrow;
                    rem[i] = t as u32;
                    borrow = i64::from(t < 0);
                }
            }
        }
        rem
    }

    fn reference(r: &[u8; 16], s: &[u8; 16], message: &[u8]) -> [u8; 16] {
        let mut r = *r;
        for i in [3, 7, 11, 15] {
            r[i] &= 0x0f;
        }
        for i in [4, 8, 12] {
            r[i] &= 0xfc;
        }
        let r = big(&r);
        let mut acc = [0u32; 10];
        for chunk in message.chunks(16) {
            let mut n = chunk.to_vec();
            n.push(1);
            acc = rem_p(&mul(&add(&acc, &big(&n)), &r));
        }
        let tag = add(&acc, &big(s));
        std::array::from_fn(|i| (tag[i / 4] >> (8 * (i % 4))) as u8)
    }

    /// RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_vector() {
        let key = hex_decode("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        let (r, s) = key.split_at(16);
        let (r, s) = (r.try_into().unwrap(), s.try_into().unwrap());
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex_encode(&mac(r, s, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
        assert_eq!(reference(r, s, msg), mac(r, s, msg));
    }

    /// Bernstein, *The Poly1305-AES message-authentication code*, Appendix
    /// B, example 1: Poly1305-AES end to end, with `s = AES_k(n)`.
    #[test]
    fn poly1305_aes_paper_example() {
        let r = arr16("851fc40c3467ac0be05cc20404f3f700");
        let aes = Aes::new(&hex_decode("ec074c835580741701425b623235add6")).unwrap();
        let mut s = arr16("fb447350c4e868c52ac3275cf9d4327e");
        aes.encrypt_block(&mut s);
        assert_eq!(hex_encode(&s), "580b3b0f9447bb1e69d095b5928b6dbc");
        let tag = mac(&r, &s, &[0xf3, 0xf6]);
        assert_eq!(hex_encode(&tag), "f4c633c3044fc145f84f335cb81953de");
    }

    /// All-`0xff` blocks under the largest clamped `r` carry through every
    /// limb on every block.
    #[test]
    fn all_ones_under_maximal_r_matches_reference() {
        let r = [0xff; 16];
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 1024, 1157] {
            let msg = vec![0xff; len];
            for s in [[0; 16], [0xff; 16]] {
                assert_eq!(mac(&r, &s, &msg), reference(&r, &s, &msg), "len {len}");
            }
        }
    }

    /// `s = ff…ff`: adding the pad wraps mod 2^128.
    #[test]
    fn pad_addition_wraps() {
        let mut r = [0; 16];
        r[0] = 1;
        // h = 0x01 + 0x100 (the short block's 1 byte), so h + s = 2^128 + 0x100.
        let tag = mac(&r, &[0xff; 16], &[0x01]);
        assert_eq!(hex_encode(&tag), "00010000000000000000000000000000");
    }

    /// With r = 1, two all-`0xff` blocks leave h = 2·(2^129 − 1) = 2^130 − 2,
    /// inside [p, 2^130): only the final conditional subtraction of p
    /// brings it to 3.
    #[test]
    fn accumulator_in_p_to_2_130_is_reduced() {
        let mut r = [0; 16];
        r[0] = 1;
        let mut state = Poly1305::new(&r);
        state.update(&[0xff; 32]);
        assert_eq!(state.h, [MASK44 - 1, MASK44, MASK42], "h = 2^130 - 2");
        let mut three = [0; 16];
        three[0] = 3;
        assert_eq!(state.finalize(&[0; 16]), three);
        assert_eq!(reference(&r, &[0; 16], &[0xff; 32]), three);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming in arbitrary pieces, one `update` and the reference
        /// agree on random keys, pads and lengths.
        #[test]
        fn streaming_one_shot_and_reference_agree(
            r in proptest::collection::vec(any::<u8>(), 16),
            s in proptest::collection::vec(any::<u8>(), 16),
            msg in proptest::collection::vec(any::<u8>(), 0..=2048),
            cuts in proptest::collection::vec(any::<u16>(), 0..6),
        ) {
            let r: [u8; 16] = r.try_into().unwrap();
            let s: [u8; 16] = s.try_into().unwrap();
            let one_shot = mac(&r, &s, &msg);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| usize::from(c) % (msg.len() + 1)).collect();
            cuts.push(msg.len());
            cuts.sort_unstable();
            let mut streamed = Poly1305::new(&r);
            let mut from = 0;
            for to in cuts {
                streamed.update(&msg[from..to]);
                from = to;
            }
            prop_assert_eq!(streamed.finalize(&s), one_shot);
            prop_assert_eq!(reference(&r, &s, &msg), one_shot);
        }
    }
}
