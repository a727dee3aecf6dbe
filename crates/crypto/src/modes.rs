//! The block cipher mode of operation: CTR.
//!
//! The paper only says "AES with 128 bit key"; the envelope runs it in CTR
//! mode — no padding, ciphertext length = plaintext length, and only the
//! forward cipher is ever needed.

use crate::aes::Aes;

/// AES-CTR keystream application (encryption and decryption are identical).
///
/// The 16-byte IV is the initial counter block; its low 32 bits increment
/// per block (big-endian) and wrap without carrying into byte 11, so the
/// keystream repeats only past 2^36 bytes in one message — far beyond any
/// MS object.
pub fn ctr_apply(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = *iv;
    let mut offset = 0;
    while offset < data.len() {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        let take = (data.len() - offset).min(16);
        for i in 0..take {
            data[offset + i] ^= keystream[i];
        }
        offset += take;
        // increment low 32 bits big-endian
        for i in (12..16).rev() {
            counter[i] = counter[i].wrapping_add(1);
            if counter[i] != 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_decode;

    fn aes128() -> Aes {
        // NIST SP 800-38A key
        Aes::new(&hex_decode("2b7e151628aed2a6abf7158809cf4f3c")).unwrap()
    }

    /// NIST SP 800-38A F.2.1 CBC-AES128.Encrypt, first two blocks, chained
    /// by hand over `encrypt_block`: a second published vector for the
    /// forward cipher, each block feeding the next one's input.
    #[test]
    fn sp800_38a_cbc_first_blocks() {
        let aes = aes128();
        let mut prev: [u8; 16] = hex_decode("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let pt = hex_decode("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let mut ct = Vec::new();
        for chunk in pt.chunks_exact(16) {
            for (p, x) in prev.iter_mut().zip(chunk) {
                *p ^= x;
            }
            aes.encrypt_block(&mut prev);
            ct.extend_from_slice(&prev);
        }
        assert_eq!(
            crate::hex_encode(&ct),
            "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
        );
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt (full four blocks).
    #[test]
    fn sp800_38a_ctr() {
        let aes = aes128();
        let iv: [u8; 16] = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = hex_decode(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        );
        ctr_apply(&aes, &iv, &mut data);
        assert_eq!(
            crate::hex_encode(&data),
            "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"
        );
        // CTR is an involution with the same key/iv.
        ctr_apply(&aes, &iv, &mut data);
        assert_eq!(
            crate::hex_encode(&data),
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
        );
    }

    #[test]
    fn ctr_round_trip_various_lengths() {
        let aes = aes128();
        let iv = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 % 256) as u8).collect();
            let mut data = pt.clone();
            ctr_apply(&aes, &iv, &mut data);
            if len > 0 {
                assert_ne!(data, pt);
            }
            ctr_apply(&aes, &iv, &mut data);
            assert_eq!(data, pt, "len {len}");
        }
    }

    #[test]
    fn different_ivs_different_ciphertexts() {
        let aes = aes128();
        let mut a = *b"same message";
        let mut b = a;
        ctr_apply(&aes, &[0u8; 16], &mut a);
        ctr_apply(&aes, &[1u8; 16], &mut b);
        assert_ne!(a, b);
    }
}
