//! Byte-exact pins of what the similarity cloud stores: the sealed
//! envelope (AES-128-CTR + HMAC-SHA-256) under a fixed master, IV and
//! associated data, and the CTR counter's carry at the edge of its low 32
//! bits. Any rewrite of the cipher, the mode or the MAC (a lane-parallel
//! CTR, a vectorised AES) must reproduce these bytes exactly, or objects
//! sealed before it stop opening.

use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::modes::ctr_apply;
use simcloud_crypto::{Aes, CipherKey, Sha256};

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
    let head = "01a0a1a2a3a4a5a6a7a8a9aaabacadaeaf";
    let short = [
        (
            0,
            "000000006a0e46d81489342a6ab5ae817acc700cec30080934d48f421f859ceab1e42c55",
        ),
        (
            1,
            "010000005900e55a9574fcfe5140be6e620a371771e68bc3a6e97e0b7bc487b079e75bb10c",
        ),
        (
            16,
            "10000000595a0495dc433b0ff4514f2734d03ae91048012d72ecc3693e0522324e2f84aa\
             20ea06f2de75dc4d2f28701eafffdc52",
        ),
        (
            17,
            "11000000595a0495dc433b0ff4514f2734d03ae95f6a3db952c4eb7149ba031986e3e864\
             baa990623ec9155ef3dd2124fe7971e010",
        ),
    ];
    let plain = |len: usize| -> Vec<u8> { (0..len).map(|i| (i * 31 + 7) as u8).collect() };
    for (len, tail) in short {
        let sealed = key.seal_with_iv_aad(&plain(len), &aad, EnvelopeMode::Ctr, &iv);
        assert_eq!(hex(&sealed), format!("{head}{tail}"), "len {len}");
        assert_eq!(key.unseal_with_aad(&sealed, &aad).unwrap(), plain(len));
    }
    let sealed = key.seal_with_iv_aad(&plain(1132), &aad, EnvelopeMode::Ctr, &iv);
    assert_eq!(sealed.len(), 1 + 16 + 4 + 1132 + 32);
    assert_eq!(
        hex(&Sha256::digest(&sealed)),
        "faaad0c8ae8f40dcb284fee0a94508247c2518bf473e6edcd80a997094fd44dc"
    );
    assert_eq!(key.unseal_with_aad(&sealed, &aad).unwrap(), plain(1132));
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
