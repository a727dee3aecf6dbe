//! # simcloud-crypto — symmetric cryptography substrate
//!
//! The Encrypted M-Index paper encrypts metric-space objects with a "standard
//! symmetric cipher AES with 128 bit key" (§5.1). No cryptography crates are
//! available in this offline reproduction, so this crate implements the full
//! stack from scratch:
//!
//! * [`aes`] — the AES-128 block cipher (FIPS-197), encrypt direction,
//!   validated against the FIPS-197 and NIST AESAVS known-answer vectors;
//! * [`modes`] — CTR mode;
//! * [`sha256`] — SHA-256 (FIPS 180-4), validated against NIST vectors;
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), validated against RFC 4231; it
//!   serves the key derivation only;
//! * [`kdf`] — PBKDF2-HMAC-SHA-256 (RFC 2898), validated against the RFC 7914
//!   published vectors;
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439 §2.5),
//!   validated against RFC 8439, Bernstein's Poly1305-AES example and a
//!   big-integer reference;
//! * [`envelope`] — the encrypt-then-MAC envelope ([`Envelope`]) the
//!   similarity cloud uses for MS objects: AES-128-CTR + Poly1305-AES with a
//!   random per-object IV as the nonce and integrity over
//!   header+ciphertext.
//!
//! ## Security caveat
//!
//! This is a research reproduction. The AES implementation is table-based and
//! **not constant-time** (cache-timing side channels exist); keys live in
//! ordinary heap memory without zeroization. Do not reuse outside the
//! experimental context of this repository.

#![warn(missing_docs)]

pub mod aes;
pub mod envelope;
pub mod hmac;
pub mod kdf;
pub mod modes;
pub mod poly1305;
pub mod sha256;

pub use aes::Aes;
pub use envelope::{CipherKey, Envelope, SealError};
pub use hmac::hmac_sha256;
pub use kdf::pbkdf2_hmac_sha256;
pub use sha256::Sha256;

/// Decodes a hex string into bytes (test vectors).
///
/// Panics on invalid hex; intended for constants, not untrusted input.
#[cfg(test)]
pub(crate) fn hex_decode(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).expect("invalid hex"))
        .collect()
}

/// Encodes bytes as lowercase hex.
pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        write!(out, "{b:02x}").unwrap();
    }
    out
}

/// Constant-time byte comparison (for MAC verification).
///
/// Returns true iff `a == b`; runs in time dependent only on the lengths.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let bytes = vec![0x00, 0xde, 0xad, 0xbe, 0xef, 0xff];
        assert_eq!(hex_decode(&hex_encode(&bytes)), bytes);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode(""), Vec::<u8>::new());
    }

    #[test]
    #[should_panic(expected = "invalid hex")]
    fn hex_decode_rejects_garbage() {
        let _ = hex_decode("zz");
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
