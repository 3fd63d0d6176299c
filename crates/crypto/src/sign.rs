//! Unified signing interface over the two signature schemes used in the
//! system:
//!
//! * Merkle — the *real* hash-based many-time signature
//!   scheme ([`crate::merkle`]): verification is self-contained given the
//!   public root, exactly like the XML-DSig/X.509 signatures the paper
//!   assumes. Costs real hash work and ~2.4 KiB per signature, which is
//!   in the same ballpark as a 2008-era XML-DSig blob.
//! * simulated PKI — a *simulated* PKI signature: signing is an HMAC
//!   under a private key; verification consults a [`SimPkiRegistry`]
//!   oracle shared by the whole simulation. This models the trust
//!   semantics of a PKI (only the key holder can produce a signature that
//!   the registry validates for its public key) without the computational
//!   cost, and is what large-scale simulations use. The substitution is
//!   recorded in ARCHITECTURE.md, *Substitutions*.
//!
//! Both schemes are exercised by the message-security experiments (E7),
//! which compare their size and throughput impact.

use crate::hmac::{ct_eq, HmacSha256};
use crate::merkle::{MerkleKeypair, MerkleRoot, MerkleSignature};
use parking_lot::{Mutex, RwLock};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Identifies a signature scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub(crate) enum Scheme {
    /// Hash-based Merkle/W-OTS signatures (self-contained verification).
    Merkle,
    /// Registry-backed simulated PKI signatures.
    Sim,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Merkle => write!(f, "merkle"),
            Scheme::Sim => write!(f, "sim-pki"),
        }
    }
}

/// A verification key.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum PublicKey {
    /// Merkle tree root.
    Merkle(MerkleRoot),
    /// Simulated-PKI public identifier.
    Sim([u8; 32]),
}

impl PublicKey {
    /// The scheme this key belongs to.
    pub(crate) fn scheme(&self) -> Scheme {
        match self {
            PublicKey::Merkle(_) => Scheme::Merkle,
            PublicKey::Sim(_) => Scheme::Sim,
        }
    }

    /// Canonical byte encoding, used inside signed structures.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40);
        match self {
            PublicKey::Merkle(root) => {
                out.push(1u8);
                out.extend_from_slice(&root.height.to_be_bytes());
                out.extend_from_slice(&root.root);
            }
            PublicKey::Sim(id) => {
                out.push(2u8);
                out.extend_from_slice(id);
            }
        }
        out
    }

    /// Short hex fingerprint for logs and audit records.
    pub fn fingerprint(&self) -> String {
        let digest = crate::sha256::Sha256::digest(&self.to_canonical_bytes());
        crate::hex::encode(&digest[..8])
    }
}

/// A signature under either scheme.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Signature {
    /// Hash-based signature with embedded authentication path.
    Merkle(MerkleSignature),
    /// Simulated signature: HMAC tag plus modelled wire size.
    Sim {
        /// HMAC-SHA256 over the message under the private key.
        mac: [u8; 32],
        /// Size in bytes this signature models on the wire (e.g. 256 for
        /// an RSA-2048 signature).
        modeled_len: u32,
    },
}

impl Signature {
    /// Size this signature occupies on the wire.
    pub fn byte_len(&self) -> usize {
        match self {
            Signature::Merkle(sig) => sig.byte_len(),
            Signature::Sim { modeled_len, .. } => *modeled_len as usize,
        }
    }
}

/// Errors from signing operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SignError {
    /// The Merkle key has no one-time leaves left.
    KeyExhausted,
}

impl std::fmt::Display for SignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignError::KeyExhausted => write!(f, "signing key exhausted; rotate keypair"),
        }
    }
}

impl std::error::Error for SignError {}

/// The registry oracle backing the simulated PKI scheme.
///
/// One registry is shared per simulation (via [`CryptoCtx`]). It knows
/// the private key for every public key it issued, which is exactly the
/// simplification: verification asks the oracle to recompute the MAC.
/// It keeps each key as an HMAC context with the key already absorbed.
#[derive(Debug, Default)]
pub struct SimPkiRegistry {
    secrets: RwLock<HashMap<[u8; 32], HmacSha256>>,
}

/// `HMAC(key, message)` on a clone of a context keyed once.
fn mac_under(keyed: &HmacSha256, message: &[u8]) -> [u8; 32] {
    let mut mac = keyed.clone();
    mac.update(message);
    mac.finalize()
}

/// Wire size modelled for simulated signatures (RSA-2048-like).
const MODELED_SIG_LEN: u32 = 256;

impl SimPkiRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates and registers a fresh simulated keypair.
    pub fn generate<R: RngCore>(&self, rng: &mut R) -> ([u8; 32], [u8; 32]) {
        let mut sk = [0u8; 32];
        rng.fill_bytes(&mut sk);
        let pk = crate::sha256::Sha256::digest_pair(b"dacs-simpki-pk", &sk);
        self.secrets.write().insert(pk, HmacSha256::new(&sk));
        (pk, sk)
    }

    /// Verifies a simulated signature through the oracle.
    pub fn verify(&self, pk: &[u8; 32], message: &[u8], mac: &[u8; 32]) -> bool {
        let secrets = self.secrets.read();
        match secrets.get(pk) {
            Some(keyed) => ct_eq(&mac_under(keyed, message), mac),
            None => false,
        }
    }
}

/// A signing key under either scheme.
///
/// Signing takes `&self`: Merkle leaf state advances behind a mutex so
/// the key can be shared across components of a domain.
pub struct SigningKey {
    inner: SigningKeyInner,
}

enum SigningKeyInner {
    Merkle(Mutex<MerkleKeypair>),
    Sim {
        keyed: HmacSha256,
        pk: [u8; 32],
        modeled_len: u32,
    },
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("scheme", &self.public_key().scheme())
            .field("fingerprint", &self.public_key().fingerprint())
            .finish()
    }
}

impl SigningKey {
    /// Creates a Merkle signing key of the given height (`2^height`
    /// signatures available).
    pub fn generate_merkle<R: RngCore>(rng: &mut R, height: u32) -> Self {
        SigningKey {
            inner: SigningKeyInner::Merkle(Mutex::new(MerkleKeypair::generate(rng, height))),
        }
    }

    /// Creates a simulated-PKI signing key registered with `registry`.
    pub fn generate_sim<R: RngCore>(registry: &SimPkiRegistry, rng: &mut R) -> Self {
        let (pk, sk) = registry.generate(rng);
        SigningKey {
            inner: SigningKeyInner::Sim {
                keyed: HmacSha256::new(&sk),
                pk,
                modeled_len: MODELED_SIG_LEN,
            },
        }
    }

    /// The verification key for this signing key.
    pub fn public_key(&self) -> PublicKey {
        match &self.inner {
            SigningKeyInner::Merkle(kp) => PublicKey::Merkle(kp.lock().public_root()),
            SigningKeyInner::Sim { pk, .. } => PublicKey::Sim(*pk),
        }
    }

    /// Signs `message`.
    ///
    /// # Errors
    ///
    /// [`SignError::KeyExhausted`] if a Merkle key has no leaves left.
    pub fn sign(&self, message: &[u8]) -> Result<Signature, SignError> {
        match &self.inner {
            SigningKeyInner::Merkle(kp) => kp
                .lock()
                .sign(message)
                .map(Signature::Merkle)
                .map_err(|_| SignError::KeyExhausted),
            SigningKeyInner::Sim {
                keyed, modeled_len, ..
            } => Ok(Signature::Sim {
                mac: mac_under(keyed, message),
                modeled_len: *modeled_len,
            }),
        }
    }

    /// Remaining signatures, if the scheme is bounded.
    pub fn remaining(&self) -> Option<u64> {
        match &self.inner {
            SigningKeyInner::Merkle(kp) => Some(kp.lock().remaining()),
            SigningKeyInner::Sim { .. } => None,
        }
    }
}

/// Shared verification context for a whole simulation: holds the
/// simulated-PKI registry so `verify` works for both schemes through one
/// call.
#[derive(Clone, Debug)]
pub struct CryptoCtx {
    sim: Arc<SimPkiRegistry>,
}

impl Default for CryptoCtx {
    fn default() -> Self {
        Self::new()
    }
}

impl CryptoCtx {
    /// Creates a context with a fresh simulated-PKI registry.
    pub fn new() -> Self {
        CryptoCtx {
            sim: Arc::new(SimPkiRegistry::new()),
        }
    }

    /// The simulated-PKI registry (for key generation).
    pub fn registry(&self) -> &SimPkiRegistry {
        &self.sim
    }

    /// Verifies `sig` over `message` against `pk`.
    ///
    /// Returns `false` on any mismatch, including scheme mismatch between
    /// key and signature.
    pub fn verify(&self, pk: &PublicKey, message: &[u8], sig: &Signature) -> bool {
        match (pk, sig) {
            (PublicKey::Merkle(root), Signature::Merkle(s)) => root.verify(message, s),
            (PublicKey::Sim(id), Signature::Sim { mac, .. }) => self.sim.verify(id, message, mac),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn merkle_sign_verify_through_ctx() {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(1);
        let key = SigningKey::generate_merkle(&mut rng, 3);
        let pk = key.public_key();
        let sig = key.sign(b"decision").unwrap();
        assert!(ctx.verify(&pk, b"decision", &sig));
        assert!(!ctx.verify(&pk, b"other", &sig));
    }

    #[test]
    fn sim_sign_verify_through_ctx() {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(2);
        let key = SigningKey::generate_sim(ctx.registry(), &mut rng);
        let pk = key.public_key();
        let sig = key.sign(b"decision").unwrap();
        assert!(ctx.verify(&pk, b"decision", &sig));
        assert!(!ctx.verify(&pk, b"tampered", &sig));
    }

    /// One simulated-PKI key and signature, written down from the scalar
    /// SHA-256: whichever compression function the host runs, a
    /// signature made by an earlier build still verifies.
    #[test]
    fn a_sim_signature_is_pinned() {
        let ctx = CryptoCtx::new();
        let key = SigningKey::generate_sim(ctx.registry(), &mut StdRng::seed_from_u64(8));
        let message = b"authorisation decision: Permit";
        let sig = key.sign(message).unwrap();
        let (PublicKey::Sim(pk), Signature::Sim { mac, .. }) = (key.public_key(), &sig) else {
            panic!("a sim key makes sim signatures");
        };
        assert_eq!(
            crate::hex::encode(&pk),
            "40792c1bc2da92bb4ba953e15cb79ba1b3937fa8ed47ed5b09d3b82b5ff848d5"
        );
        assert_eq!(
            crate::hex::encode(mac),
            "8f4ff10555ba0cfc702f41d52d456dd4919d29e9dfe377c1ca06af0fabf0adf2"
        );
        assert!(ctx.verify(&key.public_key(), message, &sig));
    }

    #[test]
    fn sim_key_from_foreign_registry_rejected() {
        let ctx_a = CryptoCtx::new();
        let ctx_b = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(3);
        let key = SigningKey::generate_sim(ctx_a.registry(), &mut rng);
        let sig = key.sign(b"m").unwrap();
        // ctx_b's registry never issued this key.
        assert!(!ctx_b.verify(&key.public_key(), b"m", &sig));
    }

    #[test]
    fn scheme_mismatch_rejected() {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mk = SigningKey::generate_merkle(&mut rng, 2);
        let sk = SigningKey::generate_sim(ctx.registry(), &mut rng);
        let msig = mk.sign(b"m").unwrap();
        assert!(!ctx.verify(&sk.public_key(), b"m", &msig));
    }

    #[test]
    fn merkle_key_exhaustion_surfaces() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = SigningKey::generate_merkle(&mut rng, 1);
        assert_eq!(key.remaining(), Some(2));
        key.sign(b"a").unwrap();
        key.sign(b"b").unwrap();
        assert_eq!(key.sign(b"c").unwrap_err(), SignError::KeyExhausted);
    }

    #[test]
    fn signature_sizes() {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mk = SigningKey::generate_merkle(&mut rng, 4);
        let sk = SigningKey::generate_sim(ctx.registry(), &mut rng);
        let msig = mk.sign(b"m").unwrap();
        let ssig = sk.sign(b"m").unwrap();
        // 67 chains * 32 bytes + 4 * 32 path + 8 index.
        assert_eq!(msig.byte_len(), 67 * 32 + 4 * 32 + 8);
        assert_eq!(ssig.byte_len(), 256);
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(7);
        let k1 = SigningKey::generate_sim(ctx.registry(), &mut rng);
        let k2 = SigningKey::generate_sim(ctx.registry(), &mut rng);
        assert_eq!(k1.public_key().fingerprint(), k1.public_key().fingerprint());
        assert_ne!(k1.public_key().fingerprint(), k2.public_key().fingerprint());
    }
}
