//! # dacs-capability
//!
//! The signed capability fast path: on first permit the decision
//! service mints a short-lived HMAC-SHA-256 capability token — subject,
//! resource, action, validity window and the issuing [`PolicyEpoch`]
//! all under the MAC. An enforcement point verifies it in full once,
//! on taking it in ([`CapabilityAuthority::admit`]), and until expiry
//! rechecks per use only what can change — window and epoch
//! ([`CapabilityAuthority::recheck`]) — skipping the decision source
//! (and its quorum fan-out) entirely on hits. This turns O(requests)
//! cluster load, and MAC computations, into O(unique grants).
//!
//! Revocation rides the existing epoch machinery: a policy push bumps
//! the domain epoch, the [`CapabilityAuthority`] observes it, and any
//! token stamped with a different epoch fails verification exactly when
//! a cached grant would have been invalidated. No new revocation
//! channel exists, so none can lag.
//!
//! The safety posture is deny-biased end to end: a token that fails
//! *any* check (MAC, binding, window, epoch), at admission or on use,
//! is simply not a token — the caller falls back to the real decision
//! source. The fast path can therefore deny-and-retry where the cluster
//! would permit, but never permit where the cluster would deny (see
//! `Pep`'s wiring in `dacs-pep` and the adversarial suites
//! `tests/capability.rs` and `tests/capability_admission.rs`).
//!
//! [`PolicyEpoch`]: dacs_pap::PolicyEpoch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod authority;
pub mod tamper;
mod token;

pub use authority::{AuthorityStats, CapabilityAuthority};
pub use token::{Admitted, CapabilityKey, CapabilityToken, TokenError, MAC_LEN};
