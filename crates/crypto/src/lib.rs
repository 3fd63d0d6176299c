//! # dacs-crypto
//!
//! Cryptographic substrate for the DACS reproduction of *Architecting
//! Dependable Access Control Systems for Multi-Domain Computing
//! Environments* (Machulak, Parkin, van Moorsel, DSN 2008).
//!
//! The paper assumes an ambient WS-Security / XML-DSig / TLS / PKI stack.
//! This crate rebuilds the pieces the access control architecture
//! actually depends on, from scratch:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), the root primitive; on the
//!   CPU's SHA extensions where it has them, scalar otherwise.
//! * [`hmac`] — HMAC-SHA-256 for symmetric channel authentication.
//! * [`chacha20`] — stream cipher standing in for TLS/XML-Encryption
//!   confidentiality.
//! * [`wots`] / [`merkle`] — hash-based one-time and many-time
//!   signatures: genuine public-key-style verification built only from
//!   hashes (stands in for XML-DSig over X.509/RSA).
//! * [`sign`] — a unified signing interface plus a *simulated* PKI
//!   scheme backed by a registry oracle, for large simulations where
//!   real hash-based signing would dominate runtime (substitution
//!   documented in DESIGN.md §3).
//! * [`hex`] — hex helpers for fingerprints and test vectors.
//!
//! # Examples
//!
//! ```
//! use dacs_crypto::sign::{CryptoCtx, SigningKey};
//! use rand::SeedableRng;
//!
//! let ctx = CryptoCtx::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let key = SigningKey::generate_merkle(&mut rng, 4);
//! let sig = key.sign(b"authorisation decision: Permit")?;
//! assert!(ctx.verify(&key.public_key(), b"authorisation decision: Permit", &sig));
//! # Ok::<(), dacs_crypto::sign::SignError>(())
//! ```

// `unsafe_code` is allowed in one place: the call into SHA-256's
// SHA-extension path after its run-time CPU check (`sha256::compress`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod hex;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sign;
pub mod wots;

pub use sha256::{Digest, Sha256};
pub use sign::{CryptoCtx, PublicKey, Scheme, SignError, Signature, SigningKey, SimPkiRegistry};
