//! Winternitz one-time signatures (W-OTS) over SHA-256.
//!
//! A genuine asymmetric-style signature primitive built purely from a hash
//! function: verification needs only the public key, and the public key
//! reveals nothing useful about the private key. Each keypair must sign at
//! most one message; [`crate::merkle`] lifts this to a many-time scheme.
//!
//! Parameters: `n = 32` byte hashes, Winternitz parameter `w = 16`
//! (4 bits per chain), giving `len1 = 64` message chains, `len2 = 3`
//! checksum chains, `len = 67` chains total.

use crate::sha256::{Digest, Sha256};

/// Number of 4-bit digits in a 32-byte digest.
pub(crate) const LEN1: usize = 64;
/// Number of checksum digits (max checksum 64*15 = 960 < 16^3).
pub(crate) const LEN2: usize = 3;
/// Total number of hash chains per keypair.
pub(crate) const LEN: usize = LEN1 + LEN2;
/// Maximum chain iteration count (`w - 1`).
pub(crate) const CHAIN_MAX: u8 = 15;

/// W-OTS private key: one 32-byte seed value per chain.
#[derive(Clone)]
pub(crate) struct WotsPrivateKey {
    chains: Box<[[u8; 32]; LEN]>,
}

impl std::fmt::Debug for WotsPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WotsPrivateKey").finish_non_exhaustive()
    }
}

/// W-OTS public key: the compressed (hashed) chain heads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct WotsPublicKey(pub Digest);

/// A W-OTS signature: one intermediate chain value per digit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct WotsSignature {
    values: Box<[[u8; 32]; LEN]>,
}

impl WotsSignature {
    /// Signature size in bytes when serialized.
    pub(crate) const SERIALIZED_LEN: usize = LEN * 32;

    /// Serializes the signature as `LEN * 32` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::SERIALIZED_LEN);
        for v in self.values.iter() {
            out.extend_from_slice(v);
        }
        out
    }

    /// Reconstructs a signature from bytes produced by [`Self::to_bytes`].
    ///
    /// Returns `None` if the length is wrong.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SERIALIZED_LEN {
            return None;
        }
        let mut values = Box::new([[0u8; 32]; LEN]);
        for (i, chunk) in bytes.chunks_exact(32).enumerate() {
            values[i].copy_from_slice(chunk);
        }
        Some(WotsSignature { values })
    }
}

/// Applies the chain function `iterations` times starting from `start`.
///
/// The chain function is domain separated by the chain index and the step
/// number so that values from different chains can never be confused.
fn chain(value: &[u8; 32], chain_idx: usize, from: u8, iterations: u8) -> [u8; 32] {
    let mut v = *value;
    for step in 0..iterations {
        let mut h = Sha256::new();
        h.update(b"dacs-wots-chain");
        h.update(&(chain_idx as u16).to_be_bytes());
        h.update(&[from + step]);
        h.update(&v);
        v = h.finalize();
    }
    v
}

/// Splits a digest into 67 base-16 digits: 64 message digits plus a
/// 3-digit checksum of `sum(15 - digit)`.
fn digits(message_digest: &Digest) -> [u8; LEN] {
    let mut out = [0u8; LEN];
    for (i, byte) in message_digest.iter().enumerate() {
        out[i * 2] = byte >> 4;
        out[i * 2 + 1] = byte & 0x0f;
    }
    let checksum: u32 = out[..LEN1].iter().map(|d| (CHAIN_MAX - d) as u32).sum();
    // Encode the 12-bit checksum as three base-16 digits, most significant first.
    out[LEN1] = ((checksum >> 8) & 0x0f) as u8;
    out[LEN1 + 1] = ((checksum >> 4) & 0x0f) as u8;
    out[LEN1 + 2] = (checksum & 0x0f) as u8;
    out
}

/// Derives a W-OTS keypair deterministically from a seed and an index.
///
/// Used by the Merkle scheme so the full private key never needs to be
/// stored: leaf keys are re-derived on demand.
pub(crate) fn keygen_from_seed(seed: &[u8; 32], index: u64) -> (WotsPrivateKey, WotsPublicKey) {
    let mut chains = Box::new([[0u8; 32]; LEN]);
    for (i, c) in chains.iter_mut().enumerate() {
        let mut h = Sha256::new();
        h.update(b"dacs-wots-keygen");
        h.update(seed);
        h.update(&index.to_be_bytes());
        h.update(&(i as u16).to_be_bytes());
        *c = h.finalize();
    }
    let sk = WotsPrivateKey { chains };
    let pk = public_key(&sk);
    (sk, pk)
}

/// Computes the public key corresponding to `sk`.
pub(crate) fn public_key(sk: &WotsPrivateKey) -> WotsPublicKey {
    let mut h = Sha256::new();
    h.update(b"dacs-wots-pk");
    for (i, c) in sk.chains.iter().enumerate() {
        let head = chain(c, i, 0, CHAIN_MAX);
        h.update(&head);
    }
    WotsPublicKey(h.finalize())
}

/// Signs a message (hashing it first) with a one-time key.
///
/// Reusing `sk` for a second, different message progressively leaks the
/// private key; callers must enforce one-time use (the Merkle layer does).
pub(crate) fn sign(sk: &WotsPrivateKey, message: &[u8]) -> WotsSignature {
    let digest = Sha256::digest(message);
    let ds = digits(&digest);
    let mut values = Box::new([[0u8; 32]; LEN]);
    for i in 0..LEN {
        values[i] = chain(&sk.chains[i], i, 0, ds[i]);
    }
    WotsSignature { values }
}

/// Recomputes the candidate public key from a signature and message.
///
/// If the signature is valid the result equals the signer's public key.
pub(crate) fn recover_public_key(sig: &WotsSignature, message: &[u8]) -> WotsPublicKey {
    let digest = Sha256::digest(message);
    let ds = digits(&digest);
    let mut h = Sha256::new();
    h.update(b"dacs-wots-pk");
    for (i, (value, digit)) in sig.values.iter().zip(ds.iter()).enumerate() {
        let head = chain(value, i, *digit, CHAIN_MAX - digit);
        h.update(&head);
    }
    WotsPublicKey(h.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verifies a W-OTS signature against a public key.
    fn verify(pk: &WotsPublicKey, message: &[u8], sig: &WotsSignature) -> bool {
        recover_public_key(sig, message) == *pk
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (sk, pk) = keygen_from_seed(&[1; 32], 0);
        let sig = sign(&sk, b"grant access to radiology records");
        assert!(verify(&pk, b"grant access to radiology records", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, pk) = keygen_from_seed(&[2; 32], 0);
        let sig = sign(&sk, b"permit");
        assert!(!verify(&pk, b"deny", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (sk, _) = keygen_from_seed(&[3; 32], 0);
        let (_, pk2) = keygen_from_seed(&[3; 32], 1);
        let sig = sign(&sk, b"msg");
        assert!(!verify(&pk2, b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, pk) = keygen_from_seed(&[4; 32], 0);
        let mut sig = sign(&sk, b"msg");
        sig.values[0][0] ^= 0xff;
        assert!(!verify(&pk, b"msg", &sig));
    }

    #[test]
    fn seeded_keygen_is_deterministic() {
        let seed = [9u8; 32];
        let (_, pk1) = keygen_from_seed(&seed, 7);
        let (_, pk2) = keygen_from_seed(&seed, 7);
        let (_, pk3) = keygen_from_seed(&seed, 8);
        assert_eq!(pk1, pk2);
        assert_ne!(pk1, pk3);
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let (sk, pk) = keygen_from_seed(&[5; 32], 0);
        let sig = sign(&sk, b"serialize me");
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), WotsSignature::SERIALIZED_LEN);
        let back = WotsSignature::from_bytes(&bytes).expect("length is exact");
        assert!(verify(&pk, b"serialize me", &back));
        assert!(WotsSignature::from_bytes(&bytes[1..]).is_none());
    }

    #[test]
    fn checksum_digits_cover_full_range() {
        // All-zero digest maximizes the checksum (64 * 15 = 960 = 0x3c0).
        let ds = digits(&[0u8; 32]);
        assert_eq!(&ds[LEN1..], &[0x3, 0xc, 0x0]);
        // All-0xff digest gives checksum zero.
        let ds = digits(&[0xffu8; 32]);
        assert_eq!(&ds[LEN1..], &[0, 0, 0]);
    }
}
