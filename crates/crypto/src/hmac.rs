//! HMAC-SHA-256 (RFC 2104) built on [`crate::sha256`].
//!
//! Used for symmetric message authentication between mutually
//! authenticated components of the access control architecture (e.g.
//! PEP ↔ PDP channels after a trust-establishment handshake), and as the
//! PRF behind the simulated-PKI signature scheme.
//!
//! # Examples
//!
//! ```
//! use dacs_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"secret key", b"authorisation decision query");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha256::{Digest, Sha256, BLOCK_LEN};

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are first hashed, as the RFC
/// requires; keys of any length are accepted.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256 computation. Both hash states are kept
/// with their key pad already absorbed, so a context built once per key
/// and cloned per message pays only for the message and one outer block.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = Sha256::digest(key);
            key_block[..digest.len()].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut hash = Sha256::new();
            hash.update(&key_block.map(|b| b ^ pad));
            hash
        };
        HmacSha256 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, message: &[u8]) {
        self.inner.update(message);
    }

    /// Finishes the computation and returns the 32-byte tag.
    pub fn finalize(mut self) -> Digest {
        self.outer.update(&self.inner.finalize());
        self.outer.finalize()
    }
}

/// Constant-time comparison of two byte strings.
///
/// Returns `true` iff the slices have equal length and equal content.
/// The comparison time depends only on the length of the inputs, never
/// on the position of the first mismatch, which prevents timing side
/// channels when verifying MAC tags.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// RFC 4231 test cases 1–3 and 6 (the last with a key longer than a
/// block): key, data, tag.
#[cfg(test)]
pub(crate) const RFC4231: [(&[u8], &[u8], &str); 4] = [
    (
        &[0x0b; 20],
        b"Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
    ),
    (
        b"Jefe",
        b"what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
    ),
    (
        &[0xaa; 20],
        &[0xdd; 50],
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
    ),
    (
        &[0xaa; 131],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 (short key).
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3 (0xaa * 20 key, 0xdd * 50 data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"incremental-key";
        let msg = b"the quick brown fox jumps over the lazy dog";
        let mut mac = HmacSha256::new(key);
        mac.update(&msg[..10]);
        mac.update(&msg[10..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, msg));
    }

    /// One keyed context, cloned per message (how a long-lived key is
    /// used): RFC 4231 cases 1–3 and 6 and a second message, MACed in
    /// either order and interleaved, give the RFC's tags and their
    /// one-shot values — a clone shares nothing with its siblings.
    #[test]
    fn clones_of_one_keyed_context_match_oneshot_in_either_order() {
        let other = [0x5au8; 150];
        for (key, data, tag) in RFC4231 {
            let keyed = HmacSha256::new(key);
            let mac = |message: &[u8]| {
                let mut m = keyed.clone();
                m.update(message);
                m.finalize()
            };
            let expected = (hmac_sha256(key, data), hmac_sha256(key, &other));
            assert_eq!(hex::encode(&expected.0), tag);
            assert_eq!((mac(data), mac(&other)), expected);
            let (second, first) = (mac(&other), mac(data));
            assert_eq!((first, second), expected);
            let (mut a, mut b) = (keyed.clone(), keyed.clone());
            a.update(&data[..3]);
            b.update(&other[..70]);
            a.update(&data[3..]);
            b.update(&other[70..]);
            assert_eq!((a.finalize(), b.finalize()), expected);
        }
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(ct_eq(&hmac_sha256(b"k", b"m"), &tag));
        assert!(!ct_eq(&hmac_sha256(b"k", b"m2"), &tag));
        assert!(!ct_eq(&hmac_sha256(b"k2", b"m"), &tag));
        let mut mangled = tag;
        mangled[0] ^= 1;
        assert!(!ct_eq(&hmac_sha256(b"k", b"m"), &mangled));
    }

    #[test]
    fn ct_eq_length_mismatch() {
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"same", b"same"));
    }

    #[test]
    fn different_keys_give_different_tags() {
        let t1 = hmac_sha256(b"key-a", b"msg");
        let t2 = hmac_sha256(b"key-b", b"msg");
        assert_ne!(t1, t2);
    }
}
