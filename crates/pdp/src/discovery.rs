//! PDP location: static binding vs directory-based discovery with
//! health tracking and failover (§3.2 "Location of Policy Decision
//! Points"). Experiment E13 compares the two under PDP churn.
//!
//! The directory owns one shared record per endpoint
//! ([`PdpEndpoint`]) and [`PdpDirectory::register`] hands it out, so a
//! holder (a cluster's replica group keeps one per slot) reads and
//! writes the same atomics the directory's name-keyed methods do —
//! those methods are the slow-path view over the records.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// An endpoint's position in the replica lifecycle:
///
/// ```text
/// Healthy ──crash / partition──▶ Crashed
///    ▲                              │
///    └──────────── returns ─────────┘
/// ```
///
/// Only `Healthy` endpoints are routable: discovery resolves to them
/// and replica groups dispatch to and count them. Whether a healthy
/// replica's *answer* counts is not a phase: it carries the policy
/// epoch it was decided at, and a replica group withdraws a vote behind
/// the epoch its domain announced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplicaPhase {
    /// Serving normally; eligible for routing and quorum counting.
    #[default]
    Healthy,
    /// Declared down (crash, partition).
    Crashed,
}

impl ReplicaPhase {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaPhase::Healthy => "healthy",
            ReplicaPhase::Crashed => "crashed",
        }
    }

    fn from_u8(raw: u8) -> ReplicaPhase {
        match raw {
            0 => ReplicaPhase::Healthy,
            _ => ReplicaPhase::Crashed,
        }
    }
}

/// The one shared record of a PDP known to the directory: identity plus
/// the two things every holder reads per decision — the lifecycle phase
/// and the latency estimate — as lock-free atomics.
#[derive(Debug)]
pub struct PdpEndpoint {
    name: String,
    domain: String,
    phase: AtomicU8,
    /// EWMA of observed decision latency in nanoseconds; 0 until the
    /// first sample.
    latency_ewma_ns: AtomicU64,
}

impl PdpEndpoint {
    /// Endpoint name, e.g. `"pdp-2.hospital-a"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The administrative domain it serves.
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// The lifecycle phase as last stored.
    pub fn phase(&self) -> ReplicaPhase {
        ReplicaPhase::from_u8(self.phase.load(Ordering::Acquire))
    }

    /// Stores a new lifecycle phase: one store, so every holder of the
    /// record sees the whole transition or none of it.
    pub fn set_phase(&self, phase: ReplicaPhase) {
        self.phase.store(phase as u8, Ordering::Release);
    }

    /// Whether the endpoint is routable (only [`ReplicaPhase::Healthy`]
    /// endpoints receive new work).
    pub fn is_healthy(&self) -> bool {
        self.phase() == ReplicaPhase::Healthy
    }

    /// Feeds one observed decision latency into the EWMA estimate: each
    /// new sample contributes 20%, so the estimate settles within a
    /// handful of observations yet rides out single outliers.
    /// Concurrent writers may lose a sample to each other: the estimate
    /// only ranks replicas and picks where they are evaluated, and the
    /// decision path pays a plain load and store for it.
    pub fn record_latency_ns(&self, sample_ns: u64) {
        let sample = sample_ns.max(1);
        let next = match self.latency_ewma_ns.load(Ordering::Relaxed) {
            0 => sample,
            // Written so no sample, however large, can overflow.
            ewma => ewma - ewma / 5 + sample / 5,
        };
        self.latency_ewma_ns.store(next, Ordering::Relaxed);
    }

    /// The current EWMA decision latency in nanoseconds, or `None`
    /// before the first recorded sample.
    pub fn latency_ewma_ns(&self) -> Option<u64> {
        match self.latency_ewma_ns.load(Ordering::Relaxed) {
            0 => None,
            ewma => Some(ewma),
        }
    }
}

/// How an enforcement point locates its decision point.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Binding {
    /// Fixed at deployment time; no failover (simple but fragile).
    Static {
        /// The bound PDP name.
        target: String,
    },
    /// Resolved per request through the directory (round-robin over
    /// healthy endpoints of the domain).
    Discovery,
}

/// A per-environment registry of PDP endpoints: the name-keyed,
/// slow-path view over the [`PdpEndpoint`] records it hands out.
#[derive(Debug, Default)]
pub struct PdpDirectory {
    endpoints: RwLock<Vec<Arc<PdpEndpoint>>>,
    rr: RwLock<HashMap<String, usize>>,
}

impl PdpDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the record registered under `name`, registering it as a
    /// healthy endpoint of `domain` first if the name is new. A name
    /// that is already known keeps its record untouched — domain, phase
    /// and latency estimate — so a cluster built on a directory shared
    /// with PEP discovery holds the very record discovery resolves
    /// through, and no endpoint is listed twice.
    pub fn register(&self, name: impl Into<String>, domain: impl Into<String>) -> Arc<PdpEndpoint> {
        let name = name.into();
        let mut endpoints = self.endpoints.write();
        if let Some(known) = endpoints.iter().find(|e| e.name == name) {
            return Arc::clone(known);
        }
        let endpoint = Arc::new(PdpEndpoint {
            name,
            domain: domain.into(),
            phase: AtomicU8::new(ReplicaPhase::Healthy as u8),
            latency_ewma_ns: AtomicU64::new(0),
        });
        endpoints.push(Arc::clone(&endpoint));
        endpoint
    }

    fn find(&self, name: &str) -> Option<Arc<PdpEndpoint>> {
        self.endpoints
            .read()
            .iter()
            .find(|e| e.name == name)
            .cloned()
    }

    fn set_phase(&self, name: &str, phase: ReplicaPhase) {
        if let Some(endpoint) = self.find(name) {
            endpoint.set_phase(phase);
        }
    }

    /// Marks an endpoint crashed (down, partitioned).
    pub fn mark_down(&self, name: &str) {
        self.set_phase(name, ReplicaPhase::Crashed);
    }

    /// Marks an endpoint healthy again. Replicas of a cluster return
    /// through `PdpCluster::mark_up`, which also marks the return so
    /// the replica's first vote at its group's epoch counts as a
    /// re-sync.
    pub fn mark_up(&self, name: &str) {
        self.set_phase(name, ReplicaPhase::Healthy);
    }

    /// The endpoint's current lifecycle phase, or `None` if it is not
    /// registered.
    pub fn health(&self, name: &str) -> Option<ReplicaPhase> {
        self.find(name).map(|e| e.phase())
    }

    /// Whether an endpoint of this name is registered (in any domain,
    /// healthy or not).
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_some()
    }

    /// Whether a named endpoint is currently healthy (crashed and
    /// unknown endpoints answer `false`).
    pub fn is_healthy(&self, name: &str) -> bool {
        self.find(name).is_some_and(|e| e.is_healthy())
    }

    /// Resolves a binding to a concrete healthy endpoint name.
    ///
    /// Static bindings resolve to their target only while it is healthy
    /// (`None` otherwise — the availability gap E13 measures);
    /// discovery round-robins over the domain's healthy endpoints.
    pub fn resolve(&self, binding: &Binding, domain: &str) -> Option<String> {
        match binding {
            Binding::Static { target } => {
                if self.is_healthy(target) {
                    Some(target.clone())
                } else {
                    None
                }
            }
            Binding::Discovery => {
                let endpoints = self.endpoints.read();
                let healthy: Vec<&Arc<PdpEndpoint>> = endpoints
                    .iter()
                    .filter(|e| e.domain == domain && e.is_healthy())
                    .collect();
                if healthy.is_empty() {
                    return None;
                }
                let mut rr = self.rr.write();
                let counter = rr.entry(domain.to_owned()).or_insert(0);
                // Keep the cursor bounded by the *current* healthy count:
                // an unbounded counter carries a stale offset across
                // mark_down/mark_up churn, which can skew the rotation
                // (e.g. repeatedly restarting at the same endpoint) once
                // the healthy set changes size.
                let index = *counter % healthy.len();
                *counter = (index + 1) % healthy.len();
                Some(healthy[index].name.clone())
            }
        }
    }

    /// All endpoints of a domain (healthy or not).
    pub fn endpoints_in(&self, domain: &str) -> Vec<Arc<PdpEndpoint>> {
        self.endpoints
            .read()
            .iter()
            .filter(|e| e.domain == domain)
            .cloned()
            .collect()
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.endpoints.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn directory() -> PdpDirectory {
        let d = PdpDirectory::new();
        d.register("pdp-1", "hospital-a");
        d.register("pdp-2", "hospital-a");
        d.register("pdp-x", "lab-b");
        d
    }

    #[test]
    fn static_binding_follows_health() {
        let d = directory();
        let b = Binding::Static {
            target: "pdp-1".into(),
        };
        assert_eq!(d.resolve(&b, "hospital-a"), Some("pdp-1".into()));
        d.mark_down("pdp-1");
        assert_eq!(d.resolve(&b, "hospital-a"), None);
        d.mark_up("pdp-1");
        assert_eq!(d.resolve(&b, "hospital-a"), Some("pdp-1".into()));
    }

    #[test]
    fn discovery_round_robins() {
        let d = directory();
        let b = Binding::Discovery;
        let picks: Vec<_> = (0..4)
            .map(|_| d.resolve(&b, "hospital-a").unwrap())
            .collect();
        assert_eq!(picks, vec!["pdp-1", "pdp-2", "pdp-1", "pdp-2"]);
    }

    #[test]
    fn discovery_fails_over() {
        let d = directory();
        d.mark_down("pdp-1");
        let b = Binding::Discovery;
        for _ in 0..3 {
            assert_eq!(d.resolve(&b, "hospital-a"), Some("pdp-2".into()));
        }
        d.mark_down("pdp-2");
        assert_eq!(d.resolve(&b, "hospital-a"), None);
    }

    #[test]
    fn rotation_stays_fair_after_health_churn() {
        let d = PdpDirectory::new();
        for name in ["pdp-1", "pdp-2", "pdp-3"] {
            d.register(name, "hospital-a");
        }
        let b = Binding::Discovery;
        // Leave the cursor mid-rotation, then shrink and regrow the
        // healthy set several times.
        d.resolve(&b, "hospital-a").unwrap();
        for _ in 0..5 {
            d.mark_down("pdp-2");
            d.mark_down("pdp-3");
            d.resolve(&b, "hospital-a").unwrap();
            d.mark_up("pdp-2");
            d.mark_up("pdp-3");
            d.resolve(&b, "hospital-a").unwrap();
        }
        // Fairness: over any window of 3×N consecutive resolves, each of
        // the three healthy endpoints is chosen exactly N times.
        let mut counts = std::collections::HashMap::new();
        for _ in 0..30 {
            *counts
                .entry(d.resolve(&b, "hospital-a").unwrap())
                .or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 3, "all endpoints in rotation: {counts:?}");
        for (name, count) in counts {
            assert_eq!(count, 10, "{name} over- or under-selected");
        }
    }

    #[test]
    fn rotation_cursor_stays_bounded() {
        let d = directory();
        let b = Binding::Discovery;
        for _ in 0..1000 {
            d.resolve(&b, "hospital-a").unwrap();
        }
        // Dropping to one endpoint must not strand the cursor on an
        // offset computed against the old healthy count.
        d.mark_down("pdp-1");
        for _ in 0..3 {
            assert_eq!(d.resolve(&b, "hospital-a"), Some("pdp-2".into()));
        }
        d.mark_up("pdp-1");
        let mut window: Vec<String> = (0..4)
            .map(|_| d.resolve(&b, "hospital-a").unwrap())
            .collect();
        window.sort();
        window.dedup();
        assert_eq!(window.len(), 2, "both endpoints return to rotation");
    }

    #[test]
    fn latency_ewma_tracks_and_smooths() {
        let d = directory();
        let pdp_1 = d.register("pdp-1", "hospital-a");
        assert_eq!(pdp_1.latency_ewma_ns(), None);
        pdp_1.record_latency_ns(100);
        assert_eq!(pdp_1.latency_ewma_ns(), Some(100));
        // A single outlier moves the estimate by only a fifth.
        pdp_1.record_latency_ns(1_100);
        assert_eq!(pdp_1.latency_ewma_ns(), Some(300));
        // Repeated samples converge toward the new level.
        for _ in 0..50 {
            pdp_1.record_latency_ns(1_100);
        }
        assert!(pdp_1.latency_ewma_ns().unwrap() > 1_000);
        // Estimates are per endpoint, sub-microsecond samples count,
        // and no sample overflows the arithmetic.
        let pdp_2 = d.register("pdp-2", "hospital-a");
        assert_eq!(pdp_2.latency_ewma_ns(), None);
        pdp_2.record_latency_ns(0);
        assert_eq!(pdp_2.latency_ewma_ns(), Some(1));
        pdp_2.record_latency_ns(u64::MAX);
        pdp_2.record_latency_ns(u64::MAX);
    }

    #[test]
    fn register_hands_out_one_record_per_name() {
        let d = directory();
        let first = d.register("pdp-1", "hospital-a");
        // A second registration — even under another domain — returns
        // the same record and lists nothing twice.
        let again = d.register("pdp-1", "vo-a");
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(again.domain(), "hospital-a");
        assert_eq!(d.len(), 3);
        // The record and the name-keyed view are one store.
        first.set_phase(ReplicaPhase::Crashed);
        assert_eq!(d.health("pdp-1"), Some(ReplicaPhase::Crashed));
        d.mark_up("pdp-1");
        assert!(first.is_healthy());
        assert_eq!(d.health("no-such"), None);
    }

    #[test]
    fn domains_are_isolated() {
        let d = directory();
        let b = Binding::Discovery;
        assert_eq!(d.resolve(&b, "lab-b"), Some("pdp-x".into()));
        assert_eq!(d.endpoints_in("lab-b").len(), 1);
        assert_eq!(d.endpoints_in("hospital-a").len(), 2);
        assert_eq!(d.resolve(&b, "no-such-domain"), None);
    }
}
