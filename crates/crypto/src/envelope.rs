//! Authenticated encryption envelope for MS objects.
//!
//! The paper stores "encrypted object data" on the untrusted server
//! (Alg. 1 line 8: `e.data ← secretKey.encrypt(o)`). This module defines the
//! concrete byte format the workspace uses:
//!
//! ```text
//! sealed := mode(1) || iv(16) || ct_len(u32 LE) || ciphertext || tag(16)
//! ```
//!
//! * encryption: AES-128-CTR (`mode` is `3`, the only mode; any other
//!   byte is refused before the MAC is checked, among them the retired
//!   `1`, CTR with an HMAC-SHA-256 tag, and `2`, CBC);
//! * integrity: Poly1305-AES (encrypt-then-MAC), with the IV as its nonce:
//!   `tag = Poly1305_r(m) + AES_kmac(iv) mod 2^128` over
//!   `m = mode || iv || ct_len || ciphertext || aad_len || aad`. The
//!   *associated data* is authenticated but **never stored** — the verifier
//!   supplies it (the index binds each sealed object to its external id
//!   this way);
//! * keys: the CTR key and the MAC's `r || kmac` are derived from one
//!   master key via PBKDF2 with domain-separating salts. `kmac` is never
//!   the CTR key: sharing it would make `AES_k(iv)` the first keystream
//!   block.
//!
//! The tag's integrity rests on an IV never repeating under one key, which
//! CTR already needs: a repeated IV, the only case that opens Poly1305
//! forgeries, already leaks the XOR of two plaintexts.
//!
//! Integrity matters in the threat model: a compromised server could
//! otherwise swap candidate objects between cells undetected (§4.3 considers
//! a compromised server reading the structure; tampering detection is the
//! natural hardening and costs only the MAC).

use rand::RngCore;

use crate::aes::Aes;
use crate::ct_eq;
use crate::kdf::pbkdf2_hmac_sha256;
use crate::modes::ctr_apply;
use crate::poly1305::Poly1305;

/// Cipher mode selector for the envelope — it has one mode, kept as a
/// parameter of every `seal*` entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvelopeMode {
    /// AES-128-CTR: no padding, ciphertext length = plaintext length.
    Ctr,
}

/// The mode byte of a CTR + Poly1305-AES envelope. A retired byte is
/// never reused: `1` was CTR + HMAC-SHA-256, `2` was CBC.
const CTR_BYTE: u8 = 3;
/// `mode || iv || ct_len`.
const HEADER_LEN: usize = 1 + 16 + 4;
/// The Poly1305-AES tag.
const TAG_LEN: usize = 16;

/// Errors unsealing an envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Buffer too short or structurally invalid.
    Malformed,
    /// Unknown mode byte.
    UnknownMode,
    /// MAC verification failed — data was tampered with or the key is wrong.
    IntegrityFailure,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SealError::Malformed => "malformed sealed object",
            SealError::UnknownMode => "unknown envelope mode",
            SealError::IntegrityFailure => "integrity check failed (tampering or wrong key)",
        };
        f.write_str(s)
    }
}

impl std::error::Error for SealError {}

/// Symmetric key material for sealing MS objects: an AES-128 key and an
/// independent MAC key, both derived from a master secret.
///
/// Both AES key schedules and the clamped Poly1305 `r` are expanded
/// **once** here and reused by every `seal`/`unseal` — the search hot path
/// unseals hundreds of candidates per query, so per-candidate
/// re-derivation (a full key expansion per cipher) would be pure waste.
#[derive(Clone)]
pub struct CipherKey {
    enc: Aes,
    /// Poly1305 keyed with the clamped `r`; cloned per MAC.
    mac: Poly1305,
    /// AES under `kmac`: encrypts the IV into the tag's pad.
    mac_pad: Aes,
    fingerprint: [u8; 8],
}

impl std::fmt::Debug for CipherKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CipherKey{{fp: {}}}",
            crate::hex_encode(&self.fingerprint)
        )
    }
}

impl CipherKey {
    /// Derives the envelope keys from a master secret. The derivation is
    /// deterministic, so distributing the master secret to authorized
    /// clients (paper §4.2) reproduces identical keys everywhere.
    pub fn derive_from_master(master: &[u8]) -> Self {
        // Iteration count is low because the master secret is high-entropy
        // key material, not a human password.
        let enc_bytes = pbkdf2_hmac_sha256(master, b"simcloud/enc/v1", 64, 16);
        let mac_bytes = pbkdf2_hmac_sha256(master, b"simcloud/mac/v2", 64, 32);
        let fp_bytes = pbkdf2_hmac_sha256(master, b"simcloud/fp/v1", 64, 8);
        let (mut r, mut kmac) = ([0u8; 16], [0u8; 16]);
        for (slot, byte) in r.iter_mut().chain(&mut kmac).zip(&mac_bytes) {
            *slot = *byte;
        }
        let mut fingerprint = [0u8; 8];
        fingerprint.copy_from_slice(&fp_bytes);
        let (enc, mac_pad) = Aes::new(&enc_bytes)
            .zip(Aes::new(&kmac))
            .expect("16-byte keys");
        Self {
            enc,
            mac: Poly1305::new(&r),
            mac_pad,
            fingerprint,
        }
    }

    /// Generates a fresh random master secret and derives keys from it.
    /// Returns the key and the master secret (to distribute to clients).
    pub fn generate(rng: &mut dyn RngCore) -> (Self, [u8; 32]) {
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        (Self::derive_from_master(&master), master)
    }

    /// Short public fingerprint for diagnostics (safe to log).
    pub fn fingerprint(&self) -> [u8; 8] {
        self.fingerprint
    }

    /// Seals `plaintext` with a random IV drawn from `rng`.
    pub fn seal(&self, plaintext: &[u8], mode: EnvelopeMode, rng: &mut dyn RngCore) -> Vec<u8> {
        self.seal_with_aad(plaintext, &[], mode, rng)
    }

    /// Seals `plaintext` binding it to `aad` (associated data): the MAC
    /// covers the associated data, but the data itself is **not stored** in
    /// the envelope — the verifier must supply the same bytes to
    /// [`CipherKey::unseal_with_aad`]. The Encrypted M-Index binds each
    /// sealed object to its external id this way, so an untrusted server
    /// cannot swap two (individually valid) sealed payloads between ids
    /// without tripping the integrity check.
    pub fn seal_with_aad(
        &self,
        plaintext: &[u8],
        aad: &[u8],
        mode: EnvelopeMode,
        rng: &mut dyn RngCore,
    ) -> Vec<u8> {
        let mut iv = [0u8; 16];
        rng.fill_bytes(&mut iv);
        self.seal_with_iv_aad(plaintext, aad, mode, &iv)
    }

    /// Seals with an explicit IV (tests and deterministic replay).
    pub fn seal_with_iv(&self, plaintext: &[u8], mode: EnvelopeMode, iv: &[u8; 16]) -> Vec<u8> {
        self.seal_with_iv_aad(plaintext, &[], mode, iv)
    }

    /// [`CipherKey::seal_with_aad`] with an explicit IV.
    pub fn seal_with_iv_aad(
        &self,
        plaintext: &[u8],
        aad: &[u8],
        mode: EnvelopeMode,
        iv: &[u8; 16],
    ) -> Vec<u8> {
        // One buffer: the header, then the plaintext encrypted in place.
        let mut out = Vec::with_capacity(Self::sealed_len(plaintext.len(), mode));
        out.push(CTR_BYTE);
        out.extend_from_slice(iv);
        out.extend_from_slice(&(plaintext.len() as u32).to_le_bytes());
        out.extend_from_slice(plaintext);
        ctr_apply(&self.enc, iv, out.split_at_mut(HEADER_LEN).1);
        let tag = self.tag(&out, aad, iv);
        out.extend_from_slice(&tag);
        out
    }

    /// Poly1305-AES over `body || aad_len(u32 LE) || aad` with nonce `iv`.
    /// The explicit length makes the (body, aad) split unambiguous even
    /// though both are variable-length — without it, moving bytes between
    /// the ciphertext tail and the aad head would forge a colliding input.
    fn tag(&self, body: &[u8], aad: &[u8], iv: &[u8; 16]) -> [u8; TAG_LEN] {
        let mut mac = self.mac.clone();
        mac.update(body);
        mac.update(&(aad.len() as u32).to_le_bytes());
        mac.update(aad);
        let mut pad = *iv;
        self.mac_pad.encrypt_block(&mut pad);
        mac.finalize(&pad)
    }

    /// Size of the sealed form for a given plaintext length — used by the
    /// communication-cost accounting before actually sealing.
    pub fn sealed_len(plaintext_len: usize, mode: EnvelopeMode) -> usize {
        let EnvelopeMode::Ctr = mode;
        HEADER_LEN + plaintext_len + TAG_LEN
    }

    /// Verifies integrity and decrypts.
    pub fn unseal(&self, sealed: &[u8]) -> Result<Vec<u8>, SealError> {
        self.unseal_with_aad(sealed, &[])
    }

    /// Verifies integrity **including the associated data** and decrypts.
    /// Fails with [`SealError::IntegrityFailure`] when `aad` differs from
    /// the bytes the envelope was sealed with — the id-binding check the
    /// two-phase candidate fetch relies on.
    pub fn unseal_with_aad(&self, sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>, SealError> {
        let Some((body, tag)) = sealed.split_last_chunk::<TAG_LEN>() else {
            return Err(SealError::Malformed);
        };
        let Some((header, ciphertext)) = body.split_first_chunk::<HEADER_LEN>() else {
            return Err(SealError::Malformed);
        };
        let [mode, iv @ .., l0, l1, l2, l3] = *header;
        if mode != CTR_BYTE {
            return Err(SealError::UnknownMode);
        }
        if u32::from_le_bytes([l0, l1, l2, l3]) as usize != ciphertext.len() {
            return Err(SealError::Malformed);
        }
        if !ct_eq(&self.tag(body, aad, &iv), tag) {
            return Err(SealError::IntegrityFailure);
        }
        let mut data = ciphertext.to_vec();
        ctr_apply(&self.enc, &iv, &mut data);
        Ok(data)
    }
}

/// Convenience alias re-exported at the crate root.
pub type Envelope = CipherKey;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> CipherKey {
        CipherKey::derive_from_master(b"test master secret 0123456789")
    }

    #[test]
    fn seal_unseal_round_trip_ctr() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(1);
        let mode = EnvelopeMode::Ctr;
        for len in [0usize, 1, 16, 100, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sealed = k.seal(&pt, mode, &mut rng);
            assert_eq!(sealed.len(), CipherKey::sealed_len(len, mode), "len {len}");
            assert_eq!(k.unseal(&sealed).unwrap(), pt, "mode {mode:?} len {len}");
        }
    }

    /// An envelope with mode byte 2 (AES-128-CBC + PKCS#7, which earlier
    /// versions could seal) is refused before its MAC is checked — even
    /// though this one carries a valid tag under the key.
    #[test]
    fn cbc_envelope_is_refused() {
        let k = CipherKey::derive_from_master(b"simcloud envelope known-answer master");
        let cbc = crate::hex_decode(
            "021111111111111111111111111111111120000000\
             1878f5343fd8325a698f595be46f52852a3ab2e889ffa2978d937e06acc15d8b\
             d276fe45df5c9d8ff5292de218f95a64d532be6a59ed19e997cd8325c1ae86f1",
        );
        assert_eq!(k.unseal(&cbc), Err(SealError::UnknownMode));
    }

    #[test]
    fn tampering_detected_anywhere() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(2);
        let sealed = k.seal(b"candidate object payload", EnvelopeMode::Ctr, &mut rng);
        for pos in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[pos] ^= 0x01;
            assert!(
                k.unseal(&bad).is_err(),
                "tamper at byte {pos} was not detected"
            );
        }
    }

    #[test]
    fn wrong_key_is_integrity_failure() {
        let k1 = key();
        let k2 = CipherKey::derive_from_master(b"different master");
        let mut rng = StdRng::seed_from_u64(3);
        let sealed = k1.seal(b"secret", EnvelopeMode::Ctr, &mut rng);
        assert_eq!(k2.unseal(&sealed), Err(SealError::IntegrityFailure));
    }

    #[test]
    fn truncation_is_malformed() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(4);
        let sealed = k.seal(b"0123456789", EnvelopeMode::Ctr, &mut rng);
        assert_eq!(k.unseal(&sealed[..10]), Err(SealError::Malformed));
        // Cutting into the tag changes total length vs declared ct_len.
        assert_eq!(
            k.unseal(&sealed[..sealed.len() - 1]),
            Err(SealError::Malformed)
        );
    }

    #[test]
    fn same_plaintext_distinct_ciphertexts() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(5);
        let a = k.seal(b"same", EnvelopeMode::Ctr, &mut rng);
        let b = k.seal(b"same", EnvelopeMode::Ctr, &mut rng);
        assert_ne!(a, b, "random IVs must differ");
    }

    #[test]
    fn master_derivation_is_deterministic() {
        let a = CipherKey::derive_from_master(b"m");
        let b = CipherKey::derive_from_master(b"m");
        assert_eq!(a.fingerprint(), b.fingerprint());
        let sealed = a.seal_with_iv(b"x", EnvelopeMode::Ctr, &[9u8; 16]);
        assert_eq!(b.unseal(&sealed).unwrap(), b"x");
    }

    #[test]
    fn generate_produces_usable_key() {
        let mut rng = StdRng::seed_from_u64(6);
        let (k, master) = CipherKey::generate(&mut rng);
        let k2 = CipherKey::derive_from_master(&master);
        let sealed = k.seal_with_iv(b"hello", EnvelopeMode::Ctr, &[1u8; 16]);
        assert_eq!(k2.unseal(&sealed).unwrap(), b"hello");
    }

    /// The keyed Poly1305 state must behave exactly like a fresh MAC on
    /// every clone: sealing on a clone and unsealing on the original (and
    /// vice versa) round-trips, and repeated unseals of one key see no
    /// state bleed-through.
    #[test]
    fn cached_mac_state_is_reusable_across_clones_and_calls() {
        let k = key();
        let k2 = k.clone();
        let mut rng = StdRng::seed_from_u64(9);
        let a = k.seal(b"first", EnvelopeMode::Ctr, &mut rng);
        let b = k2.seal(b"second", EnvelopeMode::Ctr, &mut rng);
        // interleaved unseals, both directions, twice each
        for _ in 0..2 {
            assert_eq!(k2.unseal(&a).unwrap(), b"first");
            assert_eq!(k.unseal(&b).unwrap(), b"second");
            assert_eq!(k.unseal(&a).unwrap(), b"first");
            assert_eq!(k2.unseal(&b).unwrap(), b"second");
        }
    }

    /// Associated data binds the envelope to its context: unsealing with
    /// different aad — or none — is an integrity failure, and two payloads
    /// sealed under different aad cannot be swapped.
    #[test]
    fn aad_binds_envelope_to_context() {
        let k = key();
        let mut rng = StdRng::seed_from_u64(11);
        let sealed = k.seal_with_aad(
            b"object 7",
            &7u64.to_le_bytes(),
            EnvelopeMode::Ctr,
            &mut rng,
        );
        assert_eq!(
            k.unseal_with_aad(&sealed, &7u64.to_le_bytes()).unwrap(),
            b"object 7"
        );
        assert_eq!(
            k.unseal_with_aad(&sealed, &8u64.to_le_bytes()),
            Err(SealError::IntegrityFailure),
            "wrong aad must fail"
        );
        assert_eq!(
            k.unseal(&sealed),
            Err(SealError::IntegrityFailure),
            "dropping the aad must fail"
        );
        // Swap attack: a payload sealed for id 8 presented as id 7.
        let other = k.seal_with_aad(
            b"object 8",
            &8u64.to_le_bytes(),
            EnvelopeMode::Ctr,
            &mut rng,
        );
        assert_eq!(
            k.unseal_with_aad(&other, &7u64.to_le_bytes()),
            Err(SealError::IntegrityFailure),
            "swapped payloads must fail"
        );
    }

    /// Empty aad is the plain seal/unseal path; the sealed length never
    /// depends on the aad (it is not stored).
    #[test]
    fn empty_aad_equals_plain_path_and_aad_costs_no_bytes() {
        let k = key();
        let plain = k.seal_with_iv(b"x", EnvelopeMode::Ctr, &[3u8; 16]);
        let empty = k.seal_with_iv_aad(b"x", &[], EnvelopeMode::Ctr, &[3u8; 16]);
        assert_eq!(plain, empty);
        let bound = k.seal_with_iv_aad(b"x", &[9u8; 64], EnvelopeMode::Ctr, &[3u8; 16]);
        assert_eq!(bound.len(), plain.len(), "aad must not grow the envelope");
        assert_eq!(k.unseal_with_aad(&bound, &[9u8; 64]).unwrap(), b"x");
    }

    /// The aad length is absorbed into the MAC, so shifting bytes between
    /// the ciphertext tail and the aad head cannot collide.
    #[test]
    fn aad_boundary_is_unambiguous() {
        let k = key();
        let a = k.seal_with_iv_aad(b"ab", b"cd", EnvelopeMode::Ctr, &[5u8; 16]);
        // Same concatenated suffix, different split: must not verify.
        assert!(k.unseal_with_aad(&a, b"c").is_err());
        assert!(k.unseal_with_aad(&a, b"cde").is_err());
    }

    #[test]
    fn debug_prints_fingerprint_only() {
        let k = key();
        let dbg = format!("{k:?}");
        assert!(dbg.starts_with("CipherKey{fp: "));
    }
}
