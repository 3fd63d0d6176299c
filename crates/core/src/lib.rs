//! # dacs-core
//!
//! The top layer of the DACS reproduction of *Architecting Dependable
//! Access Control Systems for Multi-Domain Computing Environments*
//! (DSN 2008): canned multi-domain scenarios, workload generation, and
//! the experiment suite that regenerates every figure and quantified
//! claim of the paper (see ARCHITECTURE.md).
//!
//! * [`scenario`] — healthcare and grid VOs, CAS wiring.
//! * [`workload`] — Zipf-skewed multi-domain request streams.
//! * [`experiments`] — E1–E20, each returning a printable table.
//! * [`stats`] — summaries and table rendering.
//!
//! # Examples
//!
//! ```
//! use dacs_core::scenario::healthcare_vo;
//! use dacs_crypto::sign::CryptoCtx;
//! use dacs_pep::EnforceRequest;
//! use dacs_policy::request::RequestContext;
//!
//! let ctx = CryptoCtx::new();
//! let vo = healthcare_vo(2, 10, &ctx);
//! let request = RequestContext::basic("user-0@domain-0", "records/1", "read");
//! assert!(vo.domains[0].pep.serve(EnforceRequest::of(&request, 0)).allowed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scenario;
pub mod stats;
pub mod workload;

pub use scenario::{grid_vo, healthcare_vo, with_shared_cas};
pub use stats::{Summary, Table};
pub use workload::{generate, WorkItem, WorkloadSpec, ZipfSampler};
