//! # dacs-pdp
//!
//! Policy Decision Point for the DACS reproduction of the DSN 2008
//! paper: the component that evaluates authorization decision queries
//! (Fig. 3/4) against the PAP's active policies, resolving attributes
//! through PIPs.
//!
//! * [`engine`] — the PDP service with PIP-backed attribute resolution
//!   over a per-epoch resolved snapshot of its root; it caches no
//!   answers.
//! * [`cache`] — [`HashedRequestCache`], the one request cache: 16
//!   locked TTL + SIEVE stripes keyed by a request's hash and checked
//!   against the whole request on every hit. The PEP's decision cache
//!   and its token store are both one.
//! * [`discovery`] — static binding vs directory-based PDP discovery
//!   with health tracking (§3.2 "Location of Policy Decision Points").
//! * [`class`] — workload classification ([`Priority`] lanes,
//!   [`DecisionClass`]) shared by the enforcement and replication
//!   layers.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod class;
pub mod discovery;
pub mod engine;

pub use cache::{CacheStats, HashedRequestCache};
pub use class::{DecisionClass, Priority};
pub use discovery::{Binding, PdpDirectory, PdpEndpoint, ReplicaPhase};
pub use engine::{CacheConfig, Pdp, PdpMetrics};

// Re-exported so the cluster layer can speak epochs without a direct
// `dacs-pap` dependency.
pub use dacs_pap::PolicyEpoch;
