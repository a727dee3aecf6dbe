//! Property tests for the crypto substrate: round-trips and tamper
//! detection over arbitrary inputs. The known-answer vectors live in the
//! unit tests; these check the *structural* properties the similarity
//! cloud relies on for every possible object payload.
//!
//! Case counts are pinned via `ProptestConfig::with_cases` and the proptest
//! harness seeds each test from a fixed constant hashed with the test name
//! (crates/shims/README.md), so CI runs are bit-identical to local runs.

use proptest::prelude::*;
use simcloud_crypto::envelope::EnvelopeMode;
use simcloud_crypto::modes::ctr_apply;
use simcloud_crypto::{Aes, CipherKey, Sha256};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ctr_is_an_involution(key in proptest::collection::vec(any::<u8>(), 16),
                            iv in proptest::collection::vec(any::<u8>(), 16),
                            data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let aes = Aes::new(&key).unwrap();
        let iv: [u8; 16] = iv.try_into().unwrap();
        let mut buf = data.clone();
        ctr_apply(&aes, &iv, &mut buf);
        ctr_apply(&aes, &iv, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn envelope_round_trips(master in proptest::collection::vec(any::<u8>(), 1..64),
                            data in proptest::collection::vec(any::<u8>(), 0..600),
                            iv in proptest::collection::vec(any::<u8>(), 16)) {
        let key = CipherKey::derive_from_master(&master);
        let mode = EnvelopeMode::Ctr;
        let iv: [u8; 16] = iv.try_into().unwrap();
        let sealed = key.seal_with_iv(&data, mode, &iv);
        prop_assert_eq!(sealed.len(), CipherKey::sealed_len(data.len(), mode));
        prop_assert_eq!(key.unseal(&sealed).unwrap(), data);
    }

    /// Any single-bit flip anywhere in a sealed object is rejected.
    #[test]
    fn envelope_detects_any_bitflip(data in proptest::collection::vec(any::<u8>(), 1..128),
                                    pos_seed in any::<u64>(),
                                    bit in 0u8..8) {
        let key = CipherKey::derive_from_master(b"prop master");
        let sealed = key.seal_with_iv(&data, EnvelopeMode::Ctr, &[7u8; 16]);
        let pos = (pos_seed as usize) % sealed.len();
        let mut bad = sealed.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(key.unseal(&bad).is_err(), "flip at {pos} bit {bit} accepted");
    }

    /// Unsealing never panics on arbitrary garbage (the client faces a
    /// malicious server).
    #[test]
    fn unseal_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..256)) {
        let key = CipherKey::derive_from_master(b"prop master");
        let _ = key.unseal(&garbage); // must return Err, not panic
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..1024),
                                       split in any::<usize>()) {
        let split = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn distinct_masters_distinct_ciphertexts(data in proptest::collection::vec(any::<u8>(), 1..64)) {
        let k1 = CipherKey::derive_from_master(b"master one");
        let k2 = CipherKey::derive_from_master(b"master two");
        let s1 = k1.seal_with_iv(&data, EnvelopeMode::Ctr, &[1u8; 16]);
        let s2 = k2.seal_with_iv(&data, EnvelopeMode::Ctr, &[1u8; 16]);
        prop_assert_ne!(s1.clone(), s2.clone());
        prop_assert!(k2.unseal(&s1).is_err());
        prop_assert!(k1.unseal(&s2).is_err());
    }
}
