//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! Used by [`crate::kdf`] for key derivation (the envelope's MAC is
//! [`crate::poly1305`]). Validated against RFC 4231 test cases.

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
///
/// Both pad blocks are absorbed once, in [`HmacSha256::new`]: a clone of a
/// keyed context then costs no compression for either pad.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer hash with the opad block already absorbed.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key` (any length; hashed if longer
    /// than the block size, zero-padded otherwise per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = Sha256::digest(key);
            k[..32].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; BLOCK];
        let mut opad_key = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad_key[i] = k[i] ^ 0x36;
            opad_key[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        Self { inner, outer }
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex_decode, hex_encode};

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex_encode(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex_encode(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            hex_encode(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex_encode(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 test case 7 (long key and long data).
    #[test]
    fn rfc4231_case_7() {
        let key = [0xaa; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let mac = hmac_sha256(&key, data);
        assert_eq!(
            hex_encode(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = hex_decode("deadbeef");
        let mut mac = HmacSha256::new(&key);
        mac.update(b"part one ");
        mac.update(b"part two");
        assert_eq!(mac.finalize(), hmac_sha256(&key, b"part one part two"));
    }

    #[test]
    fn different_keys_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k", b"msg1"), hmac_sha256(b"k", b"msg2"));
    }
}
