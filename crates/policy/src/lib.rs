//! # dacs-policy
//!
//! The policy language and evaluation core of the DACS reproduction of
//! *Architecting Dependable Access Control Systems for Multi-Domain
//! Computing Environments* (Machulak, Parkin, van Moorsel, DSN 2008).
//!
//! This crate is a from-scratch implementation of the XACML-like policy
//! machinery the paper builds on (§2.3):
//!
//! * [`attr`] / [`request`] — attribute categories, typed values and the
//!   request context (authorization decision query).
//! * [`target`] — indexable applicability tests (the per-set index
//!   itself is built by [`eval::resolve_references`]).
//! * [`expr`] — the condition expression language and function library.
//! * [`policy`] — rules, policies, policy sets, obligations.
//! * [`combining`] — the six combining algorithms with obligation
//!   propagation.
//! * [`eval`] — the evaluation engine (the heart of a PDP).
//! * [`epoch`] — the policy-state stamp every [`eval::Response`] carries.
//! * [`conflict`] — static modality-conflict analysis and shadowing
//!   detection (§3.1).
//! * [`dsl`] — a textual syntax with parser and pretty-printer, standing
//!   in for XACML's XML (size effects are modelled in `dacs-wire`).
//! * [`glob`] — wildcard matching for resource hierarchies.
//! * [`hash`] — the workspace's one hash function (request keys, cache
//!   stripes and buckets, shard-ring points).
//!
//! # Examples
//!
//! ```
//! use dacs_policy::dsl::parse_policy;
//! use dacs_policy::eval::Evaluator;
//! use dacs_policy::policy::Decision;
//! use dacs_policy::request::RequestContext;
//!
//! let policy = parse_policy(r#"
//! policy "hello" deny-unless-permit {
//!   rule "readers" permit {
//!     target { action "id" == "read"; }
//!   }
//! }
//! "#)?;
//!
//! let request = RequestContext::basic("alice", "doc/1", "read");
//! let mut evaluator = Evaluator::new(&request);
//! assert_eq!(evaluator.evaluate_policy(&policy).decision, Decision::Permit);
//! # Ok::<(), dacs_policy::dsl::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod combining;
pub mod conflict;
pub mod dsl;
pub mod epoch;
pub mod eval;
pub mod expr;
pub mod glob;
pub mod hash;
mod index;
pub mod policy;
pub mod request;
pub mod target;

pub use attr::{AttrValue, AttributeId, Category};
pub use eval::{EvalMetrics, Evaluator, PolicyStore, Response, Status};
pub use expr::{AttributeSource, Expr, Func};
pub use policy::{
    CombiningAlg, Decision, Effect, Obligation, ObligationExpr, Policy, PolicyElement, PolicyId,
    PolicySet, Rule,
};
pub use request::RequestContext;
pub use target::{AllOf, AnyOf, AttrMatch, MatchOp, Target};
