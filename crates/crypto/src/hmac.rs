//! HMAC-SHA256 (RFC 2104 / FIPS 198-1) for report authentication.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
///
/// ```
/// use rap_crypto::hmac_sha256;
/// let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(tag[0], 0x5b);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time comparison of two digests.
///
/// Prevents the modelled Verifier from leaking tag prefixes through
/// timing — the same discipline a real RoT applies.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        diff |= a ^ b;
    }
    diff == 0
}

/// Incremental HMAC-SHA256.
///
/// A keyed context holds the inner and the outer hash with their pad
/// blocks already absorbed, so a clone MACs another message under the
/// same key without spending a compression on the key: key a context
/// once and clone it per message.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context keyed with `key` (any length), hashing
    /// both pad blocks.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            let digest = {
                let mut h = Sha256::new();
                h.update(key);
                h.finalize()
            };
            block_key[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; 64];
        let mut opad_key = [0u8; 64];
        for i in 0..64 {
            ipad_key[i] = block_key[i] ^ 0x36;
            opad_key[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::for_each_compressor;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Asserts `hmac_sha256(key, msg)` under every compressor.
    fn assert_tag(key: &[u8], msg: &[u8], want: &str) {
        for_each_compressor(|backend| {
            assert_eq!(hex(&hmac_sha256(key, msg)), want, "{backend}");
        });
    }

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        assert_tag(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        assert_tag(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        assert_tag(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        assert_tag(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"a key";
        let msg = b"a message split into pieces";
        for_each_compressor(|backend| {
            let mut mac = HmacSha256::new(key);
            mac.update(&msg[..9]);
            mac.update(&msg[9..]);
            assert_eq!(mac.finalize(), hmac_sha256(key, msg), "{backend}");
        });
    }

    #[test]
    fn keyed_clone_spends_no_compression_on_the_key() {
        for_each_compressor(|backend| {
            for key_len in [0, 20, 64, 131] {
                let keyed = HmacSha256::new(&vec![0x0b; key_len]);
                for len in 0..=200usize {
                    let msg = vec![0x3c; len];
                    let before = crate::compressions();
                    let mut mac = keyed.clone();
                    mac.update(&msg);
                    let tag = mac.finalize();
                    assert_eq!(
                        crate::compressions() - before,
                        (len as u64 + 9).div_ceil(64) + 1,
                        "{backend}: key {key_len} len {len}"
                    );
                    assert_eq!(tag, hmac_sha256(&vec![0x0b; key_len], &msg), "{backend}");
                }
            }
        });
    }

    #[test]
    fn verify_tag_detects_any_flip() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&tag, &tag));
        for byte in 0..DIGEST_LEN {
            for bit in 0..8 {
                let mut bad = tag;
                bad[byte] ^= 1 << bit;
                assert!(!verify_tag(&tag, &bad));
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }
}
