//! # dacs-federation
//!
//! The multi-domain layer of the DACS reproduction of the DSN 2008
//! paper: everything Fig. 1 shows — autonomous domains with their own
//! PEP/PDP/PAP/PIP stacks, composed into virtual organisations with
//! shared capability services, scoped trust, VO-level meta-policies
//! (Chinese Wall), and the measured cross-domain authorization flows of
//! Fig. 2 and Fig. 3 running over a simulated network.
//!
//! * [`domain`] — one administrative domain wired end to end: a
//!   single-engine PDP, or (via `DomainBuilder::clustered`) a sharded,
//!   replicated, epoch-gated `PdpCluster` whose replica PAPs are
//!   leaves of the domain's own syndication tree.
//! * [`vo`] — virtual organisations, the CAS-style capability service
//!   and Brewer–Nash conflict classes.
//! * [`proto`] — the protocol message set with compact/verbose size
//!   accounting.
//! * [`flows`] — agent / pull / push flows with message, byte and
//!   latency traces. The flows enforce through each domain's PEP, so
//!   clustered domains transparently route every decision through
//!   quorum fan-out (and every `Pep::serve_batch` through one
//!   per-shard `PdpCluster::decide_batch`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod flows;
pub mod proto;
pub mod vo;

pub use domain::{ClusteredDecisionSource, Domain, DomainBuilder};
pub use flows::{
    federated_enrich, issue_capability_flow, push_flow, request_flow, FlowKind, FlowNet, FlowTrace,
};
pub use proto::{Msg, SizeModel};
pub use vo::{CapabilityService, ConflictClass, Vo};
