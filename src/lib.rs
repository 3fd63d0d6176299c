//! # dacs — Dependable Access Control for Multi-Domain Computing Environments
//!
//! A full reproduction, as a Rust workspace, of the system architected in
//! *Architecting Dependable Access Control Systems for Multi-Domain
//! Computing Environments* (Machulak, Parkin, van Moorsel, DSN 2008).
//!
//! This facade crate re-exports every layer:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`policy`] | `dacs-policy` | XACML-like language, evaluation engine, combining algorithms, conflict analysis, DSL |
//! | [`crypto`] | `dacs-crypto` | SHA-256, HMAC, ChaCha20, hash-based signatures, certificates |
//! | [`wire`] | `dacs-wire` | compact + XML-ish codecs, envelopes, message security |
//! | [`simnet`] | `dacs-simnet` | deterministic event-driven network simulator |
//! | [`rbac`] | `dacs-rbac` | RBAC96 with role hierarchies |
//! | [`mod@assert`] | `dacs-assert` | SAML-like signed assertions and capabilities |
//! | [`capability`] | `dacs-capability` | signed capability fast path: HMAC tokens minted on permit, verified once at admission and rechecked per use, revoked by policy epoch |
//! | [`pip`] | `dacs-pip` | attribute providers and resolution |
//! | [`pap`] | `dacs-pap` | versioned repository, admin policies, delegation, epoch-stamped syndication with catch-up |
//! | [`pdp`] | `dacs-pdp` | decision engine, caching, discovery, policy-epoch exposure |
//! | [`pep`] | `dacs-pep` | agent/push/pull enforcement, obligations |
//! | [`trust`] | `dacs-trust` | automated trust negotiation |
//! | [`federation`] | `dacs-federation` | domains (single-engine or cluster-backed), VOs, capability services, measured flows |
//! | [`cluster`] | `dacs-cluster` | sharded, replicated PDP cluster: consistent-hash routing, quorum decisions, epoch-gated replica re-sync, failover, batching |
//! | [`telemetry`] | `dacs-telemetry` | metric registry (counters/gauges/histograms), decision-path tracing, Prometheus-style exposition |
//! | [`core`] | `dacs-core` | scenarios, workloads, the experiment suite |
//!
//! # Quickstart
//!
//! ```
//! use dacs::policy::dsl::parse_policy;
//! use dacs::policy::eval::Evaluator;
//! use dacs::policy::policy::Decision;
//! use dacs::policy::request::RequestContext;
//!
//! let policy = parse_policy(r#"
//! policy "hello" deny-unless-permit {
//!   rule "readers" permit {
//!     target { action "id" == "read"; }
//!   }
//! }
//! "#)?;
//! let request = RequestContext::basic("alice", "doc/1", "read");
//! let mut ev = Evaluator::new(&request);
//! assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);
//! # Ok::<(), dacs::policy::dsl::ParseError>(())
//! ```

#![forbid(unsafe_code)]

pub use dacs_assert as assert;
pub use dacs_capability as capability;
pub use dacs_cluster as cluster;
pub use dacs_core as core;
pub use dacs_crypto as crypto;
pub use dacs_federation as federation;
pub use dacs_pap as pap;
pub use dacs_pdp as pdp;
pub use dacs_pep as pep;
pub use dacs_pip as pip;
pub use dacs_policy as policy;
pub use dacs_rbac as rbac;
pub use dacs_simnet as simnet;
pub use dacs_telemetry as telemetry;
pub use dacs_trust as trust;
pub use dacs_wire as wire;
