//! Merkle signature scheme (MSS): a many-time signature built from
//! [`crate::wots`] one-time keys and a Merkle hash tree.
//!
//! A keypair with height `h` can produce `2^h` signatures. The public key
//! is the 32-byte tree root. Signing consumes the next unused leaf; the
//! signature carries the W-OTS signature, the leaf index and the
//! authentication path from leaf to root.
//!
//! Leaf private keys are re-derived from a 32-byte seed on demand, so the
//! in-memory private state is tiny regardless of `h`.
//!
//! # Examples
//!
//! ```
//! use dacs_crypto::merkle::MerkleKeypair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut kp = MerkleKeypair::generate(&mut rng, 3); // 8 signatures
//! let sig = kp.sign(b"decision: permit").expect("leaves remain");
//! assert!(kp.public_root().verify(b"decision: permit", &sig));
//! ```

use crate::sha256::{Digest, Sha256};
use crate::wots;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Maximum supported tree height (2^20 signatures is far beyond what any
/// simulation here needs, and keygen cost grows as `2^h`).
pub(crate) const MAX_HEIGHT: u32 = 20;

/// Errors produced by the Merkle signature scheme.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MerkleError {
    /// All `2^h` one-time leaves have been used.
    LeavesExhausted,
    /// Requested height is zero or above the maximum, 20.
    InvalidHeight,
}

impl std::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerkleError::LeavesExhausted => write!(f, "all one-time signature leaves used"),
            MerkleError::InvalidHeight => write!(f, "tree height out of supported range"),
        }
    }
}

impl std::error::Error for MerkleError {}

fn leaf_hash(pk: &wots::WotsPublicKey) -> Digest {
    Sha256::digest_pair(b"dacs-mss-leaf", &pk.0)
}

fn node_hash(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(b"dacs-mss-node");
    h.update(left);
    h.update(right);
    h.finalize()
}

/// The public half of a Merkle keypair: the tree root and height.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct MerkleRoot {
    /// Tree root digest — this is the long-term public key.
    pub root: Digest,
    /// Tree height; bounds the leaf index in signatures.
    pub height: u32,
}

/// A many-time signature: W-OTS signature plus Merkle authentication path.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MerkleSignature {
    /// Index of the one-time leaf used.
    pub leaf_index: u64,
    /// Serialized W-OTS signature bytes.
    pub wots_sig: Vec<u8>,
    /// Sibling digests from leaf to root, lowest level first.
    pub auth_path: Vec<Digest>,
}

impl MerkleSignature {
    /// Approximate serialized size in bytes (used for wire accounting).
    pub fn byte_len(&self) -> usize {
        8 + self.wots_sig.len() + self.auth_path.len() * 32
    }
}

/// A Merkle many-time signing key.
///
/// Interior state (`next_leaf`) advances on every signature; signing
/// therefore takes `&mut self`. Wrap in a mutex for shared signers.
#[derive(Clone)]
pub struct MerkleKeypair {
    seed: [u8; 32],
    height: u32,
    next_leaf: u64,
    /// Full tree, level by level: `levels[0]` = leaf hashes, last = root.
    levels: Vec<Vec<Digest>>,
}

impl std::fmt::Debug for MerkleKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MerkleKeypair")
            .field("height", &self.height)
            .field("next_leaf", &self.next_leaf)
            .finish_non_exhaustive()
    }
}

impl MerkleKeypair {
    /// Generates a keypair of the given tree height (`2^height` one-time
    /// signatures).
    ///
    /// # Panics
    ///
    /// Panics if `height == 0` or `height > 20`.
    pub fn generate<R: RngCore>(rng: &mut R, height: u32) -> Self {
        Self::try_generate(rng, height).expect("valid height")
    }

    /// Fallible variant of [`Self::generate`].
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::InvalidHeight`] if `height == 0` or
    /// `height > MAX_HEIGHT`.
    pub(crate) fn try_generate<R: RngCore>(rng: &mut R, height: u32) -> Result<Self, MerkleError> {
        if height == 0 || height > MAX_HEIGHT {
            return Err(MerkleError::InvalidHeight);
        }
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Ok(Self::from_seed(seed, height))
    }

    /// Deterministic keypair construction from an explicit seed.
    ///
    /// # Panics
    ///
    /// Panics if `height == 0` or `height > MAX_HEIGHT`.
    pub(crate) fn from_seed(seed: [u8; 32], height: u32) -> Self {
        assert!(height > 0 && height <= MAX_HEIGHT, "height out of range");
        let leaf_count = 1u64 << height;
        let mut leaves = Vec::with_capacity(leaf_count as usize);
        for i in 0..leaf_count {
            let (_, pk) = wots::keygen_from_seed(&seed, i);
            leaves.push(leaf_hash(&pk));
        }
        let mut levels = vec![leaves];
        while levels.last().map(Vec::len).unwrap_or(0) > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len() / 2);
            for pair in prev.chunks(2) {
                next.push(node_hash(&pair[0], &pair[1]));
            }
            levels.push(next);
        }
        MerkleKeypair {
            seed,
            height,
            next_leaf: 0,
            levels,
        }
    }

    /// The public verification root.
    pub fn public_root(&self) -> MerkleRoot {
        MerkleRoot {
            root: self.levels.last().expect("root level")[0],
            height: self.height,
        }
    }

    /// Number of one-time signatures still available.
    pub fn remaining(&self) -> u64 {
        (1u64 << self.height) - self.next_leaf
    }

    /// Signs `message`, consuming the next unused leaf.
    ///
    /// # Errors
    ///
    /// Returns [`MerkleError::LeavesExhausted`] once all `2^h` leaves are
    /// spent; callers should rotate to a fresh keypair.
    pub fn sign(&mut self, message: &[u8]) -> Result<MerkleSignature, MerkleError> {
        let leaf = self.next_leaf;
        if leaf >= 1u64 << self.height {
            return Err(MerkleError::LeavesExhausted);
        }
        self.next_leaf += 1;

        let (sk, _) = wots::keygen_from_seed(&self.seed, leaf);
        let wots_sig = wots::sign(&sk, message);

        let mut auth_path = Vec::with_capacity(self.height as usize);
        let mut idx = leaf as usize;
        for level in 0..self.height as usize {
            let sibling = idx ^ 1;
            auth_path.push(self.levels[level][sibling]);
            idx >>= 1;
        }

        Ok(MerkleSignature {
            leaf_index: leaf,
            wots_sig: wots_sig.to_bytes(),
            auth_path,
        })
    }
}

impl MerkleRoot {
    /// Verifies a signature produced by the matching [`MerkleKeypair`].
    pub fn verify(&self, message: &[u8], sig: &MerkleSignature) -> bool {
        if sig.auth_path.len() != self.height as usize {
            return false;
        }
        if sig.leaf_index >= 1u64 << self.height {
            return false;
        }
        let Some(wots_sig) = wots::WotsSignature::from_bytes(&sig.wots_sig) else {
            return false;
        };
        let candidate_pk = wots::recover_public_key(&wots_sig, message);
        let mut node = leaf_hash(&candidate_pk);
        let mut idx = sig.leaf_index;
        for sibling in &sig.auth_path {
            node = if idx & 1 == 0 {
                node_hash(&node, sibling)
            } else {
                node_hash(sibling, &node)
            };
            idx >>= 1;
        }
        node == self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(height: u32, seed: u64) -> MerkleKeypair {
        let mut rng = StdRng::seed_from_u64(seed);
        MerkleKeypair::generate(&mut rng, height)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut kp = keypair(3, 1);
        let root = kp.public_root();
        let sig = kp.sign(b"capability: read ehr/*").unwrap();
        assert!(root.verify(b"capability: read ehr/*", &sig));
    }

    #[test]
    fn every_leaf_usable_then_exhausted() {
        let mut kp = keypair(2, 2);
        let root = kp.public_root();
        for i in 0..4u32 {
            let msg = format!("message {i}");
            let sig = kp.sign(msg.as_bytes()).unwrap();
            assert_eq!(sig.leaf_index, i as u64);
            assert!(root.verify(msg.as_bytes(), &sig));
        }
        assert_eq!(kp.sign(b"fifth"), Err(MerkleError::LeavesExhausted));
        assert_eq!(kp.remaining(), 0);
    }

    #[test]
    fn wrong_message_rejected() {
        let mut kp = keypair(2, 3);
        let root = kp.public_root();
        let sig = kp.sign(b"permit").unwrap();
        assert!(!root.verify(b"deny", &sig));
    }

    #[test]
    fn cross_leaf_signature_swap_rejected() {
        let mut kp = keypair(2, 4);
        let root = kp.public_root();
        let sig_a = kp.sign(b"msg a").unwrap();
        let mut sig_b = kp.sign(b"msg b").unwrap();
        // Claim sig_b was made by leaf 0.
        sig_b.leaf_index = sig_a.leaf_index;
        assert!(!root.verify(b"msg b", &sig_b));
    }

    #[test]
    fn truncated_auth_path_rejected() {
        let mut kp = keypair(3, 5);
        let root = kp.public_root();
        let mut sig = kp.sign(b"m").unwrap();
        sig.auth_path.pop();
        assert!(!root.verify(b"m", &sig));
    }

    #[test]
    fn out_of_range_leaf_rejected() {
        let mut kp = keypair(2, 6);
        let root = kp.public_root();
        let mut sig = kp.sign(b"m").unwrap();
        sig.leaf_index = 100;
        assert!(!root.verify(b"m", &sig));
    }

    #[test]
    fn deterministic_from_seed() {
        let kp1 = MerkleKeypair::from_seed([7u8; 32], 3);
        let kp2 = MerkleKeypair::from_seed([7u8; 32], 3);
        assert_eq!(kp1.public_root(), kp2.public_root());
    }

    #[test]
    #[should_panic(expected = "height out of range")]
    fn zero_height_panics() {
        let _ = MerkleKeypair::from_seed([0u8; 32], 0);
    }

    #[test]
    fn invalid_height_error() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            MerkleKeypair::try_generate(&mut rng, 0).err(),
            Some(MerkleError::InvalidHeight)
        );
        assert_eq!(
            MerkleKeypair::try_generate(&mut rng, MAX_HEIGHT + 1).err(),
            Some(MerkleError::InvalidHeight)
        );
    }
}
