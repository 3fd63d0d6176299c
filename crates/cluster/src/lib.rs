//! # dacs-cluster
//!
//! Turns N independent [`dacs_pdp::Pdp`] instances into one dependable
//! decision service — the horizontal-scaling layer the DSN 2008 paper's
//! dependability argument needs between a single PDP and a federation:
//!
//! * [`shard`] — a [`ShardRouter`] that consistent-hashes request
//!   contexts (by subject/resource key) onto replica groups, so one
//!   key's requests always meet the same replicas.
//! * [`replica`] — a replica group that fans a query out to `k`
//!   replicas and combines the answers under a pluggable
//!   [`QuorumMode`], so a Byzantine or stale replica cannot silently
//!   grant access. Every answer carries the [`PolicyEpoch`] it was
//!   decided at, and a group withdraws a vote behind the one epoch its
//!   domain announced ([`PdpCluster::advance_epoch`]): a replica that
//!   returns from a crash behind it is asked but not counted until its
//!   catch-up replay lands. Nothing but the replay drives recovery.
//! * [`quorum`] — the combination rules: `FirstHealthy` (fast, trusts
//!   one replica), `Majority` (outvotes a minority of wrong replicas)
//!   and `UnanimousFailClosed` (any disagreement denies).
//! * [`fanout`] — the decision scheduler: a pool of worker threads
//!   fed from per-[`Priority`] runqueues with deadline-aware
//!   pop, so replica queries run concurrently (quorum latency ≈ max
//!   instead of sum) and bulk work can never queue ahead of
//!   interactive decisions. A replica goes to the pool only when its
//!   measured latency makes the hand-off worth it; jobs still queued
//!   when the verdict lands are skipped, and [`SchedulerConfig`] turns
//!   on adaptive quorum-width fan-out.
//! * [`PdpCluster::decide_batch`] decides a slice of requests shard by
//!   shard, evaluating equal requests once.
//! * [`metrics`] — [`ClusterMetrics`]: availability, degraded-mode,
//!   disagreement and fan-out accounting.
//!
//! Health tracking and failover integrate with the existing
//! [`dacs_pdp::PdpDirectory`] (`mark_down` / `mark_up`): every replica
//! registers there, the group keeps the [`dacs_pdp::PdpEndpoint`]
//! record registration returns, and the cluster routes around
//! endpoints whose record is not `Healthy` — the directory and the
//! cluster read one store.
//!
//! # Examples
//!
//! ```
//! use dacs_cluster::{ClusterBuilder, QuorumMode, StaticBackend};
//! use dacs_policy::policy::Decision;
//! use dacs_policy::request::RequestContext;
//! use std::sync::Arc;
//!
//! let cluster = ClusterBuilder::new("vo-pdp")
//!     .quorum(QuorumMode::Majority)
//!     .shard(vec![
//!         Arc::new(StaticBackend::new("s0-a", Decision::Permit)),
//!         Arc::new(StaticBackend::new("s0-b", Decision::Permit)),
//!         Arc::new(StaticBackend::new("s0-c", Decision::Deny)), // stale
//!     ])
//!     .build();
//! let req = RequestContext::basic("alice", "ehr/1", "read");
//! let outcome = cluster.decide(&req, 0);
//! // The majority outvotes the stale replica.
//! assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod fanout;
pub mod metrics;
pub mod quorum;
pub mod replica;
pub mod shard;

mod cluster;

pub use cluster::{ClusterBuilder, ClusterOutcome, PdpCluster};
pub use fanout::SchedulerConfig;
pub use metrics::ClusterMetrics;
pub use quorum::QuorumMode;
pub use replica::{DecisionBackend, StaticBackend, MAX_REPLICAS};
pub use shard::ShardRouter;

// Re-exported so cluster users can speak epochs without naming the PAP
// layer directly; `Priority`/`DecisionClass` so scheduler users can
// classify queries, and `ReplicaPhase` so lifecycle users can name a
// phase, without a direct `dacs-pdp` import.
pub use dacs_pdp::{DecisionClass, PolicyEpoch, Priority, ReplicaPhase};
