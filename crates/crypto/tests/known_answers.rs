//! Byte-exact pins of what the similarity cloud stores: the sealed
//! envelope (AES-128-CTR + Poly1305-AES) under a fixed master, IV and
//! associated data, and the CTR counter's carry at the edge of its low 32
//! bits. Any rewrite of the cipher, the mode or the MAC (a lane-parallel
//! CTR, a vectorised AES) must reproduce these bytes exactly, or objects
//! sealed before it stop opening.

use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::modes::ctr_apply;
use simcloud_crypto::{Aes, CipherKey, SealError, Sha256};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const MASTER: &[u8] = b"simcloud envelope known-answer master";

/// `seal_with_iv_aad` at plaintext lengths around the block size and at one
/// CoPhIR object (1132 B, pinned by the SHA-256 of its envelope), each
/// unsealed back under the same associated data.
#[test]
fn envelope_bytes_are_pinned() {
    let key = CipherKey::derive_from_master(MASTER);
    let iv: [u8; 16] = std::array::from_fn(|i| 0xa0 + i as u8);
    let aad = 1132u64.to_le_bytes();
    let head = "03a0a1a2a3a4a5a6a7a8a9aaabacadaeaf";
    let short = [
        (0, "00000000a03541cdf21fe7e52344356c2f2b8fe9"),
        (1, "010000005965b9469a8647a7f0f5594583c0b8fde9"),
        (
            16,
            "10000000595a0495dc433b0ff4514f2734d03ae97e7869f81c9b36c281b04b88b354754c",
        ),
        (
            17,
            "11000000595a0495dc433b0ff4514f2734d03ae95f3fd9607345e2168ab99a8fd146492058",
        ),
    ];
    let plain = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + 7) as u8).collect() };
    for (len, tail) in short {
        let sealed = key.seal_with_iv_aad(&plain(len), &aad, EnvelopeMode::Ctr, &iv);
        assert_eq!(hex(&sealed), format!("{head}{tail}"), "len {len}");
        assert_eq!(key.unseal_with_aad(&sealed, &aad).unwrap(), plain(len));
    }
    let sealed = key.seal_with_iv_aad(&plain(1132), &aad, EnvelopeMode::Ctr, &iv);
    assert_eq!(sealed.len(), 1 + 16 + 4 + 1132 + 16);
    assert_eq!(
        hex(&Sha256::digest(&sealed)),
        "d2d99bd81b3d21a12ad9b853f4e766d1c1006e1200326cfe9c2ebb9b2247139a"
    );
    assert_eq!(key.unseal_with_aad(&sealed, &aad).unwrap(), plain(1132));
}

/// The 0-byte envelope earlier versions sealed with mode byte 1 (CTR with
/// an HMAC-SHA-256 tag) under the same master, IV and associated data is
/// refused by its mode byte, before any MAC work.
#[test]
fn hmac_envelope_is_refused() {
    let key = CipherKey::derive_from_master(MASTER);
    let hmac_envelope = "01a0a1a2a3a4a5a6a7a8a9aaabacadaeaf\
        000000006a0e46d81489342a6ab5ae817acc700cec30080934d48f421f859ceab1e42c55";
    let bytes: Vec<u8> = (0..hmac_envelope.len() / 2)
        .map(|i| u8::from_str_radix(&hmac_envelope[2 * i..2 * i + 2], 16).unwrap())
        .collect();
    assert_eq!(bytes.len(), 1 + 16 + 4 + 32);
    assert_eq!(
        key.unseal_with_aad(&bytes, &1132u64.to_le_bytes()),
        Err(SealError::UnknownMode)
    );
}

/// The counter is the IV's low 32 bits, big-endian: from `…ff ff ff fe` it
/// runs to `…ff ff ff ff`, then wraps to `…00 00 00 00` without carrying
/// into byte 11.
#[test]
fn ctr_counter_wraps_inside_low_32_bits() {
    let aes = Aes::new(b"ctr wrap key 16B").unwrap();
    let mut iv = [0u8; 16];
    iv[..12].copy_from_slice(b"nonce prefix");
    iv[12..].copy_from_slice(&[0xff, 0xff, 0xff, 0xfe]);
    let mut keystream = [0u8; 48];
    ctr_apply(&aes, &iv, &mut keystream);

    let mut expected = Vec::new();
    for low in [[0xff, 0xff, 0xff, 0xfe], [0xff, 0xff, 0xff, 0xff], [0; 4]] {
        let mut block = iv;
        block[12..].copy_from_slice(&low);
        aes.encrypt_block(&mut block);
        expected.extend_from_slice(&block);
    }
    assert_eq!(hex(&keystream), hex(&expected));

    // A carry into byte 11 would have produced this third block instead.
    let mut carried = iv;
    carried[11] = carried[11].wrapping_add(1);
    carried[12..].copy_from_slice(&[0; 4]);
    aes.encrypt_block(&mut carried);
    assert_ne!(keystream[32..], carried);
}
