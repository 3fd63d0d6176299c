//! # dacs-pap
//!
//! Policy Administration Point for the DACS reproduction of the DSN 2008
//! paper:
//!
//! * [`repository`] — versioned policy storage with an append-only
//!   audit log and an administrative policy that guards every mutation
//!   using the *same* policy language and engine that protect ordinary
//!   resources (§3.2 "Security of Access Control Systems").
//! * [`delegation`] — decentralized administrative delegation with
//!   namespace narrowing, depth limits, expiry and cascading revocation
//!   (§3.2 "Access Control Delegation").
//! * [`syndication`] — the PAP / policy-syndication-server hierarchy of
//!   Fig. 5, with per-node accept filters, report accounting, epoch
//!   stamping and offline-node catch-up (anti-entropy replay).
//! * [`epoch`] — [`PolicyEpoch`], the stamp of every push and of every
//!   answer decided after it (re-exported from `dacs-policy`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delegation;
pub mod repository;
pub mod syndication;

pub use dacs_policy::epoch;
pub use delegation::{DelegationError, DelegationRegistry};
pub use epoch::PolicyEpoch;
pub use repository::{AdminAction, AuditEntry, Pap, PapError};
pub use syndication::{CatchUpReport, LoggedUpdate, PropagationReport, SyndicationTree};
