//! The cluster facade: router + replica groups + directory + metrics.

use crate::fanout::{FanoutPool, SchedulerConfig};
use crate::metrics::{add_rare, AtomicClusterMetrics, ClusterMetrics};
use crate::quorum::QuorumMode;
use crate::replica::{DecisionBackend, FanoutPlan, GroupOutcome, ReplicaGroup};
use crate::shard::ShardRouter;
use dacs_pdp::{DecisionClass, PdpDirectory, ReplicaPhase};
use dacs_policy::eval::Response;
use dacs_policy::hash::KeyState;
use dacs_policy::request::RequestContext;
use dacs_telemetry::{Histogram, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The outcome of one cluster decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterOutcome {
    /// The combined response; `None` when the target shard had no
    /// healthy replica (an availability gap).
    pub response: Option<Response>,
    /// The shard the request routed to.
    pub shard: usize,
    /// Replicas queried for this decision.
    pub replicas_queried: usize,
    /// Whether the shard served with fewer healthy replicas than
    /// configured.
    pub degraded: bool,
}

/// Builds a [`PdpCluster`] shard by shard.
pub struct ClusterBuilder {
    name: String,
    quorum: QuorumMode,
    shards: Vec<Vec<Arc<dyn DecisionBackend>>>,
    directory: Option<Arc<PdpDirectory>>,
    scheduler: Option<SchedulerConfig>,
    telemetry: Option<Arc<Telemetry>>,
    audit_every: usize,
}

impl ClusterBuilder {
    /// Starts a builder for a cluster registered under `name` (used as
    /// the directory domain for all replicas).
    pub fn new(name: impl Into<String>) -> Self {
        ClusterBuilder {
            name: name.into(),
            quorum: QuorumMode::Majority,
            shards: Vec::new(),
            directory: None,
            scheduler: None,
            telemetry: None,
            audit_every: 0,
        }
    }

    /// Renames the cluster. The name is the directory domain every
    /// replica registers under, so builders that accept a preconfigured
    /// `ClusterBuilder` as a template (e.g. `DomainBuilder::clustered`
    /// in `dacs-federation`) pin it to the owning domain's name — then
    /// ordinary discovery (`PdpDirectory::endpoints_in`) finds a
    /// domain's replicas by the domain name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the quorum mode (default [`QuorumMode::Majority`]).
    pub fn quorum(mut self, mode: QuorumMode) -> Self {
        self.quorum = mode;
        self
    }

    /// Uses an existing directory (e.g. one shared with PEP discovery)
    /// instead of a fresh one.
    pub fn directory(mut self, directory: Arc<PdpDirectory>) -> Self {
        self.directory = Some(directory);
        self
    }

    /// Appends one shard served by the given replicas.
    pub fn shard(mut self, replicas: Vec<Arc<dyn DecisionBackend>>) -> Self {
        self.shards.push(replicas);
        self
    }

    /// Configures the decision scheduler. The cluster builds its own
    /// worker pool of `config.workers` threads (instrumented with the
    /// builder's telemetry, when any) and — under
    /// [`QuorumMode::Majority`] with `config.adaptive_fanout` —
    /// dispatches only quorum-width replicas per query, escalating to
    /// EWMA-ranked backups on a contested or lost vote. Without a
    /// scheduler the same collector runs with no pool: full width,
    /// every replica it asks evaluated on the caller's thread.
    pub fn scheduler(mut self, config: SchedulerConfig) -> Self {
        self.scheduler = Some(config);
        self
    }

    /// Does nothing: recovery is always epoch-gated
    /// ([`PdpCluster::mark_up`]). Kept only while the repo benchmark
    /// still calls it.
    #[doc(hidden)]
    pub fn resync(self, _enabled: bool) -> Self {
        self
    }

    /// Attaches a telemetry registry + tracer: the cluster records
    /// decision latency, per-stage spans (`cluster_decide` / `route` /
    /// `fanout` / `quorum_wait` / `replica_decide`) and per-replica
    /// compute histograms into it, the registry reads every
    /// [`ClusterMetrics`] field through as `dacs_cluster_*`, and the
    /// scheduler's pool records its per-lane job counts and queue-wait
    /// histograms.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Replays every `n`th served query through the same collector,
    /// told not to stop early (all in-sync healthy replicas consulted
    /// on the caller's thread, majority combine) purely to *observe*
    /// divergence, recording [`ClusterMetrics::audit_queries`] and
    /// [`ClusterMetrics::audit_disagreements`]. This closes the blind
    /// spot documented on [`ClusterMetrics::disagreements`]: a served
    /// query stops at its settle point, which can hide a divergent
    /// replica forever. The audit verdict never replaces the served
    /// response and its sub-queries are not counted in
    /// [`ClusterMetrics::replica_queries`]. `0` (the default) disables
    /// sampling; with or without a scheduler, every cluster is audited
    /// the same way.
    pub fn audit_every(mut self, n: usize) -> Self {
        self.audit_every = n;
        self
    }

    /// Finishes the cluster, registering every replica the directory
    /// does not already know as healthy. A shared directory may know an
    /// endpoint from PEP discovery; the cluster then holds that record,
    /// so discovery round-robin never sees a duplicate.
    ///
    /// # Panics
    ///
    /// Panics if no shard was added.
    pub fn build(self) -> PdpCluster {
        assert!(!self.shards.is_empty(), "cluster needs at least one shard");
        let directory = self
            .directory
            .unwrap_or_else(|| Arc::new(PdpDirectory::new()));
        let telemetry = self.telemetry;
        let groups: Vec<ReplicaGroup> = self
            .shards
            .into_iter()
            .map(|replicas| {
                let registered = replicas.into_iter().map(|backend| {
                    let endpoint = directory.register(backend.name(), &self.name);
                    (backend, endpoint)
                });
                let group = ReplicaGroup::new(registered.collect());
                match &telemetry {
                    Some(t) => group.with_telemetry(t),
                    None => group,
                }
            })
            .collect();
        let mut slots = HashMap::new();
        for (shard, group) in groups.iter().enumerate() {
            for (slot, replica) in group.replica_names().into_iter().enumerate() {
                slots.entry(replica).or_insert((shard, slot));
            }
        }
        let scheduler = self.scheduler.map(|config| {
            let pool = FanoutPool::new(config.workers);
            let pool = match &telemetry {
                Some(t) => pool.with_telemetry(t),
                None => pool,
            };
            (pool, config)
        });
        let metrics = Arc::new(AtomicClusterMetrics::default());
        PdpCluster {
            router: ShardRouter::new(groups.len()),
            name: self.name,
            groups,
            slots,
            directory,
            quorum: self.quorum,
            scheduler,
            audit_every: self.audit_every,
            telemetry: telemetry.map(|t| ClusterTelemetry::new(t, &metrics)),
            metrics,
        }
    }
}

/// The timing half of the cluster's observability — tracer and
/// histograms, pre-resolved so the hot decide path never takes the
/// registry's name-lookup locks. Event counters are not here: they
/// live in [`AtomicClusterMetrics`] and the registry reads them
/// through.
struct ClusterTelemetry {
    telemetry: Arc<Telemetry>,
    decide_us: Arc<Histogram>,
    /// Requests per [`PdpCluster::decide_batch`] call.
    batch_size: Arc<Histogram>,
}

impl ClusterTelemetry {
    fn new(telemetry: Arc<Telemetry>, metrics: &Arc<AtomicClusterMetrics>) -> Self {
        let r = telemetry.registry();
        let metrics = Arc::clone(metrics);
        r.expose(move || metrics.snapshot().samples());
        ClusterTelemetry {
            decide_us: r.histogram("dacs_cluster_decide_us"),
            batch_size: r.histogram("dacs_batch_size"),
            telemetry,
        }
    }
}

/// A sharded, replicated decision service over N PDP backends.
pub struct PdpCluster {
    name: String,
    router: ShardRouter,
    groups: Vec<ReplicaGroup>,
    /// Replica name → (shard, slot): where the lifecycle calls find a
    /// replica's group and record.
    slots: HashMap<String, (usize, usize)>,
    directory: Arc<PdpDirectory>,
    quorum: QuorumMode,
    /// The worker pool and its dispatch settings; `None` plans every
    /// query with no pool.
    scheduler: Option<(FanoutPool, SchedulerConfig)>,
    audit_every: usize,
    telemetry: Option<ClusterTelemetry>,
    metrics: Arc<AtomicClusterMetrics>,
}

impl PdpCluster {
    /// The cluster name (its directory domain).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The consistent-hash router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The shared health directory.
    pub fn directory(&self) -> &Arc<PdpDirectory> {
        &self.directory
    }

    /// Marks a replica unhealthy (crash / partition).
    pub fn mark_down(&self, replica: &str) {
        self.directory.mark_down(replica);
    }

    /// Marks a replica up again.
    ///
    /// A returning replica whose policy epoch lags its group's maximum
    /// enters the `Syncing` phase instead of rejoining quorums: it is
    /// excluded from dispatch, quorum counting and discovery until its
    /// epoch reaches the maximum, and the first query of its group to
    /// see that readmits it (counted in [`ClusterMetrics::resyncs`]).
    /// Nothing else has to be called: whatever replays the missed
    /// updates into the replica — `SyndicationTree::catch_up` — is all
    /// recovery takes. A replica that is already current rejoins
    /// immediately. Either way the return is one store into the
    /// replica's record: a decide that starts after this call returns
    /// sees the final phase.
    pub fn mark_up(&self, replica: &str) {
        match self.slot_of(replica) {
            Some((group, slot)) => group.mark_up(slot),
            None => self.directory.mark_up(replica),
        }
    }

    /// The replica's position in the recovery lifecycle
    /// (`Healthy / Crashed / Syncing`), or `None` if no group contains
    /// it.
    pub fn replica_phase(&self, replica: &str) -> Option<ReplicaPhase> {
        let (group, slot) = self.slot_of(replica)?;
        Some(group.endpoint(slot).phase())
    }

    fn slot_of(&self, replica: &str) -> Option<(&ReplicaGroup, usize)> {
        let &(shard, slot) = self.slots.get(replica)?;
        Some((&self.groups[shard], slot))
    }

    /// The telemetry registry + tracer attached at build time
    /// ([`ClusterBuilder::telemetry`]), if any — shared with callers
    /// (decision sources) that want their own spans in the same trace.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref().map(|t| &t.telemetry)
    }

    /// Serves one decision on the Default scheduling lane: route to a
    /// shard, fan out, combine.
    pub fn decide(&self, request: &RequestContext, now_ms: u64) -> ClusterOutcome {
        self.decide_classed(request, now_ms, DecisionClass::default())
    }

    /// Serves one decision on `class`'s scheduling lane (with its
    /// deadline carried into the fan-out pool's deadline-aware pop):
    /// route to a shard, fan out, combine.
    pub fn decide_classed(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> ClusterOutcome {
        // Umbrella span: child of the caller's current span (the PEP's
        // `decide`, normally) or a fresh root for bare cluster use.
        let umbrella = self
            .telemetry
            .as_ref()
            .map(|t| t.telemetry.tracer().span("cluster_decide"));
        let _in_umbrella = umbrella.as_ref().map(|s| s.enter());
        let shard = {
            let _route = self
                .telemetry
                .as_ref()
                .map(|t| t.telemetry.tracer().span("route"));
            self.router.shard_for(request)
        };
        self.decide_on_shard(shard, request, now_ms, class)
    }

    /// Serves a batch on `class`'s scheduling lane, shard by shard, and
    /// returns outcomes aligned with `requests`. Each shard's requests
    /// are decided back-to-back, in submission order, so its replicas'
    /// caches stay hot; equal requests of one batch (found by canonical
    /// hash, confirmed by comparing the whole request — the binding
    /// `HashedRequestCache` uses) are decided once and answered
    /// together. Separate batches never share a decision.
    pub fn decide_batch(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<ClusterOutcome> {
        let mut order: Vec<(usize, usize)> = requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                // One span per request, so a batch's trace decomposes
                // into route + fanout stages like a single decision's.
                let _route = self
                    .telemetry
                    .as_ref()
                    .map(|t| t.telemetry.tracer().span("route"));
                (self.router.shard_for(request), i)
            })
            .collect();
        // Stable: submission order holds within a shard.
        order.sort_by_key(|&(shard, _)| shard);
        let mut outcomes: Vec<Option<ClusterOutcome>> = vec![None; requests.len()];
        // The current shard's decided requests, by canonical hash (a
        // finished hash, so the map folds it once, as a cache does).
        // Equal requests never span shards (routing is keyed), but
        // clearing per shard keeps the map small.
        let mut answered: HashMap<u64, usize, KeyState> = HashMap::default();
        let mut coalesced = 0;
        let mut current_shard = usize::MAX;
        for (shard, i) in order {
            if shard != current_shard {
                answered.clear();
                current_shard = shard;
            }
            let request = &requests[i];
            let hash = request.canonical_hash();
            let prior = answered.get(&hash).copied();
            outcomes[i] = match prior.filter(|&j| requests[j] == *request) {
                Some(j) => {
                    coalesced += 1;
                    outcomes[j].clone()
                }
                None => {
                    answered.insert(hash, i);
                    Some(self.decide_on_shard(shard, request, now_ms, class))
                }
            };
        }
        self.note_batch(requests.len(), coalesced);
        outcomes
            .into_iter()
            .map(|o| o.expect("every request answered"))
            .collect()
    }

    /// Serves a decision on a shard its caller has already routed to.
    fn decide_on_shard(
        &self,
        shard: usize,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> ClusterOutcome {
        // The clock is read only when telemetry will record the interval.
        let start = self.telemetry.as_ref().map(|_| Instant::now());
        let group = &self.groups[shard];
        // Built without a scheduler: no pool, full width.
        let scheduler = self.scheduler.as_ref();
        let plan = FanoutPlan {
            pool: scheduler.map(|(pool, _)| pool),
            adaptive: scheduler.is_some_and(|(_, config)| config.adaptive_fanout),
            class,
            every_vote: false,
        };
        let outcome = {
            // Entered, so worker-thread `replica_decide` spans (which
            // capture the dispatching thread's context) and the
            // `quorum_wait` span nest under the fan-out.
            let fanout = self
                .telemetry
                .as_ref()
                .map(|t| t.telemetry.tracer().span("fanout"));
            let _in_fanout = fanout.as_ref().map(|s| s.enter());
            group.query_planned(self.quorum, request, now_ms, &plan)
        };
        if self.account(group, &plan, &outcome) {
            self.audit(group, request, now_ms);
        }
        if let (Some(t), Some(start)) = (&self.telemetry, start) {
            t.decide_us.record(start.elapsed().as_micros() as u64);
        }
        ClusterOutcome {
            degraded: outcome.response.is_some() && outcome.healthy < group.len(),
            response: outcome.response,
            shard,
            replicas_queried: outcome.replicas_queried,
        }
    }

    /// Books one served query; returns whether its audit replay is due
    /// ([`ClusterBuilder::audit_every`]). The `fetch_add` that counts
    /// the query also numbers it, and "due" is decided from that
    /// number, so concurrent deciders can neither skip a due audit nor
    /// run one twice. A common query pays for `queries`,
    /// `replica_queries` and the `epoch_lag_last` store; the rest move
    /// only when they have something to add.
    fn account(&self, group: &ReplicaGroup, plan: &FanoutPlan<'_>, outcome: &GroupOutcome) -> bool {
        let m = &*self.metrics;
        let number = m.queries.fetch_add(1, Ordering::Relaxed) + 1;
        m.replica_queries
            .fetch_add(outcome.replicas_queried as u64, Ordering::Relaxed);
        if plan.adaptive && self.quorum.fans_out() {
            // Eligible replicas the adaptive quorum never had to query.
            let saved = outcome.healthy.saturating_sub(outcome.replicas_queried);
            add_rare(&m.fanout_saved, saved as u64);
        }
        add_rare(&m.caller_evaluations, outcome.caller_evaluations as u64);
        add_rare(&m.resyncs, outcome.readmitted as u64);
        add_rare(&m.stale_decisions_avoided, outcome.stale_excluded as u64);
        m.epoch_lag_last
            .store(outcome.max_epoch_lag, Ordering::Relaxed);
        if outcome.max_epoch_lag != 0 {
            m.epoch_lag_max
                .fetch_max(outcome.max_epoch_lag, Ordering::Relaxed);
        }
        match &outcome.response {
            None => {
                m.unavailable.fetch_add(1, Ordering::Relaxed);
            }
            Some(_) => {
                add_rare(&m.degraded, (outcome.healthy < group.len()) as u64);
                add_rare(&m.disagreements, outcome.disagreement as u64);
                add_rare(&m.fail_closed_denies, outcome.fail_closed as u64);
            }
        }
        self.audit_every != 0
            && outcome.response.is_some()
            && number.is_multiple_of(self.audit_every as u64)
    }

    /// The periodic divergence sampler ([`ClusterBuilder::audit_every`]):
    /// replays a served query through the collector with a plan that
    /// takes every in-sync replica's vote, on the caller's thread, and
    /// records what the settle point may have hidden. Observational
    /// only — the served response is never revised, and the replay's
    /// sub-queries stay out of the fan-out cost counters. Its roster is
    /// a roster like any other, so a readmission it performs counts.
    fn audit(&self, group: &ReplicaGroup, request: &RequestContext, now_ms: u64) {
        let plan = FanoutPlan {
            every_vote: true,
            ..FanoutPlan::default()
        };
        // Majority, not the configured mode: FirstHealthy would consult
        // a single replica and could never observe a disagreement.
        let audit = group.query_planned(QuorumMode::Majority, request, now_ms, &plan);
        let m = &*self.metrics;
        m.audit_queries.fetch_add(1, Ordering::Relaxed);
        add_rare(&m.audit_disagreements, audit.disagreement as u64);
        add_rare(&m.resyncs, audit.readmitted as u64);
    }

    fn note_batch(&self, submitted: usize, coalesced: usize) {
        let m = &*self.metrics;
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.batched_queries
            .fetch_add(submitted as u64, Ordering::Relaxed);
        add_rare(&m.coalesced, coalesced as u64);
        if let Some(t) = &self.telemetry {
            t.batch_size.record(submitted as u64);
        }
    }

    /// Snapshot of the cluster counters.
    pub fn metrics(&self) -> ClusterMetrics {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{EpochBackend, SlowBackend, StaticBackend};
    use dacs_policy::policy::Decision;

    /// A builder over `shards` × `replicas` always-permit backends
    /// named `s{shard}-r{replica}`.
    fn permit_builder(shards: usize, replicas: usize, quorum: QuorumMode) -> ClusterBuilder {
        let mut builder = ClusterBuilder::new("test-cluster").quorum(quorum);
        for s in 0..shards {
            builder = builder.shard(
                (0..replicas)
                    .map(|r| {
                        Arc::new(StaticBackend::new(format!("s{s}-r{r}"), Decision::Permit))
                            as Arc<dyn DecisionBackend>
                    })
                    .collect(),
            );
        }
        builder
    }

    fn permit_cluster(shards: usize, replicas: usize, quorum: QuorumMode) -> PdpCluster {
        permit_builder(shards, replicas, quorum).build()
    }

    #[test]
    fn routes_and_serves() {
        let cluster = permit_cluster(4, 3, QuorumMode::Majority);
        let req = RequestContext::basic("alice", "ehr/1", "read");
        let out = cluster.decide(&req, 0);
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.replicas_queried, 3);
        assert!(!out.degraded);
        // Same key routes to the same shard every time.
        assert_eq!(out.shard, cluster.decide(&req, 1).shard);
        let m = cluster.metrics();
        assert_eq!(m.queries, 2);
        assert_eq!(m.replica_queries, 6);
    }

    #[test]
    fn killing_a_replica_keeps_availability_and_marks_degraded() {
        let cluster = permit_cluster(1, 3, QuorumMode::Majority);
        cluster.mark_down("s0-r1");
        let req = RequestContext::basic("bob", "lab/9", "read");
        let out = cluster.decide(&req, 0);
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert!(out.degraded);
        assert_eq!(out.replicas_queried, 2);
        let m = cluster.metrics();
        assert_eq!(m.unavailable, 0);
        assert_eq!(m.degraded, 1);
        assert!((m.availability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn whole_shard_down_counts_unavailable_and_recovers() {
        let cluster = permit_cluster(1, 2, QuorumMode::FirstHealthy);
        cluster.mark_down("s0-r0");
        cluster.mark_down("s0-r1");
        let req = RequestContext::basic("eve", "ehr/3", "write");
        assert_eq!(cluster.decide(&req, 0).response, None);
        cluster.mark_up("s0-r1");
        assert!(cluster.decide(&req, 1).response.is_some());
        let m = cluster.metrics();
        assert_eq!(m.unavailable, 1);
        assert!((m.availability() - 0.5).abs() < 1e-9);
    }

    /// What a cluster is built with, by the shape of plan it gives: no
    /// scheduler, pooled, adaptive.
    fn schedulers() -> [(&'static str, Option<SchedulerConfig>); 3] {
        let pooled = || SchedulerConfig::new(4);
        [
            ("no pool", None),
            ("pooled", Some(pooled())),
            ("adaptive", Some(pooled().with_adaptive_fanout(true))),
        ]
    }

    fn scheduled(builder: ClusterBuilder, scheduler: Option<SchedulerConfig>) -> PdpCluster {
        match scheduler {
            Some(config) => builder.scheduler(config).build(),
            None => builder.build(),
        }
    }

    #[test]
    fn every_cluster_shape_decides_routes_and_counts_alike() {
        for (shape, scheduler) in schedulers() {
            let adaptive = scheduler.as_ref().is_some_and(|c| c.adaptive_fanout);
            let cluster = scheduled(permit_builder(2, 3, QuorumMode::Majority), scheduler);
            for i in 0..20 {
                let req = RequestContext::basic(format!("u{i}"), format!("res/{}", i % 4), "read");
                let out = cluster.decide(&req, i);
                assert_eq!(out.response.unwrap().decision, Decision::Permit, "{shape}");
                // Routing is independent of fan-out.
                assert_eq!(out.shard, cluster.router().shard_for(&req), "{shape}");
            }
            let m = cluster.metrics();
            assert_eq!(m.queries, 20, "{shape}");
            // Dispatched, not evaluated: the vote two agreeing permits
            // overtake counts at full width.
            let width = if adaptive { 2 } else { 3 };
            assert_eq!(m.replica_queries, 20 * width, "{shape}");
            assert_eq!(m.fanout_saved, 20 * (3 - width), "{shape}");
            assert_eq!(m.unavailable, 0, "{shape}");
        }
    }

    /// Shard 0 permits on three replicas, shard 1 denies on two, and
    /// shard 2's three replicas are down, so it answers nothing.
    fn permit_deny_down(scheduler: Option<SchedulerConfig>) -> PdpCluster {
        let replicas = |s: usize, n: usize, decision| {
            (0..n)
                .map(|r| {
                    Arc::new(StaticBackend::new(format!("s{s}-r{r}"), decision))
                        as Arc<dyn DecisionBackend>
                })
                .collect()
        };
        let builder = ClusterBuilder::new("mixed")
            .quorum(QuorumMode::Majority)
            .shard(replicas(0, 3, Decision::Permit))
            .shard(replicas(1, 2, Decision::Deny))
            .shard(replicas(2, 3, Decision::Permit));
        let cluster = scheduled(builder, scheduler);
        (0..3).for_each(|r| cluster.mark_down(&format!("s2-r{r}")));
        cluster
    }

    /// A batch hands every request the outcome a lone `decide_classed`
    /// on a twin cluster gives it — across shards that permit, deny and
    /// cannot answer, with repeats, with or without a pool — and decides
    /// each distinct request once.
    #[test]
    fn a_batch_answers_each_request_as_a_lone_decide_would() {
        let requests: Vec<RequestContext> = (0..36)
            .map(|i| {
                RequestContext::basic(format!("user-{}", i % 6), format!("res/{}", i % 4), "read")
            })
            .collect();
        let distinct = (0..requests.len())
            .filter(|&i| !requests[..i].contains(&requests[i]))
            .count();
        let class = DecisionClass::interactive();
        for scheduler in [None, Some(SchedulerConfig::new(2))] {
            let batched = permit_deny_down(scheduler.clone());
            let oracle = permit_deny_down(scheduler);
            let outcomes = batched.decide_batch(&requests, 7, class);
            assert_eq!(outcomes.len(), requests.len());
            let mut per_shard = [0; 3];
            for (request, outcome) in requests.iter().zip(&outcomes) {
                let expected = oracle.decide_classed(request, 7, class);
                assert_eq!(*outcome, expected, "{request:?}");
                per_shard[outcome.shard] += 1;
            }
            assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
            let m = batched.metrics();
            assert_eq!((m.batches, m.batched_queries), (1, requests.len() as u64));
            assert_eq!(m.queries, distinct as u64);
            assert_eq!(m.coalesced, (requests.len() - distinct) as u64);
        }
    }

    /// A pooled cluster's batch fans every distinct request out to all
    /// three replicas of its shard, on either scheduling lane.
    #[test]
    fn batches_fan_out_through_the_pool_on_either_lane() {
        let builder = permit_builder(2, 3, QuorumMode::Majority);
        let cluster = scheduled(builder, Some(SchedulerConfig::new(4)));
        for class in [DecisionClass::interactive(), DecisionClass::bulk()] {
            let requests: Vec<RequestContext> = (0..12)
                .map(|i| {
                    RequestContext::basic(
                        format!("user-{}", i % 4),
                        format!("res/{}", i % 3),
                        "read",
                    )
                })
                .collect();
            for outcome in cluster.decide_batch(&requests, 0, class) {
                assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
                assert_eq!(outcome.replicas_queried, 3);
            }
        }
        let m = cluster.metrics();
        // Distinct (subject, resource) pairs evaluate once per batch,
        // and each evaluation fanned out to all three shard replicas.
        assert_eq!((m.batches, m.batched_queries), (2, 24));
        assert_eq!(m.queries, 24);
        assert_eq!(m.replica_queries, m.queries * 3);
    }

    #[test]
    fn identical_queries_coalesce_to_one_evaluation() {
        let cluster = permit_cluster(2, 1, QuorumMode::FirstHealthy);
        let mut requests = vec![RequestContext::basic("alice", "ehr/1", "read"); 10];
        requests.push(RequestContext::basic("bob", "ehr/2", "read"));
        let outcomes = cluster.decide_batch(&requests, 0, DecisionClass::default());
        assert_eq!(outcomes.len(), 11);
        let m = cluster.metrics();
        // 10 identical + 1 distinct → 2 evaluations, 9 coalesced.
        assert_eq!(m.queries, 2);
        assert_eq!(m.coalesced, 9);
        assert_eq!(m.batched_queries, 11);
        assert_eq!(m.batches, 1);
    }

    /// Coalescing binds on the whole request, not on its routing key
    /// or on how its values print: equal requests share one evaluation;
    /// one more environment attribute — same subject, resource, action
    /// and shard — or an `Integer(1)` beside a `Double(1.0)` (which
    /// serialize alike) is a different query.
    #[test]
    fn coalescing_binds_on_the_whole_request() {
        use dacs_policy::attr::AttrValue;
        let cluster = permit_cluster(1, 1, QuorumMode::FirstHealthy);
        let plain = RequestContext::basic("alice", "ehr/1", "read");
        let at_night = plain.clone().with_env_attr("shift", "night");
        let int = plain.clone().with_env_attr("level", AttrValue::Integer(1));
        let double = plain.clone().with_env_attr("level", AttrValue::Double(1.0));
        assert_eq!(int.to_canonical_bytes(), double.to_canonical_bytes());
        let requests =
            [&plain, &at_night, &plain, &int, &double, &at_night].map(RequestContext::clone);
        let outcomes = cluster.decide_batch(&requests, 0, DecisionClass::default());
        assert_eq!(outcomes.len(), 6);
        let m = cluster.metrics();
        // Four distinct requests, two repeats.
        assert_eq!(m.queries, 4);
        assert_eq!(m.coalesced, 2);
    }

    #[test]
    fn coalescing_resets_between_flushes() {
        let cluster = permit_cluster(1, 1, QuorumMode::FirstHealthy);
        let request = [RequestContext::basic("alice", "ehr/1", "read")];
        cluster.decide_batch(&request, 0, DecisionClass::default());
        cluster.decide_batch(&request, 1, DecisionClass::default());
        let m = cluster.metrics();
        // Separate batches re-evaluate (freshness over reuse).
        assert_eq!(m.queries, 2);
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.batches, 2);
    }

    /// Tentpole (ISSUE 8): with `adaptive_fanout` on, an agreeing
    /// 5-replica majority shard is served by quorum-width dispatch —
    /// three sub-queries per decision, the two spares never touched —
    /// and the savings land in [`ClusterMetrics::fanout_saved`].
    #[test]
    fn adaptive_scheduler_queries_only_quorum_width_and_counts_savings() {
        let cluster = permit_builder(1, 5, QuorumMode::Majority)
            .scheduler(SchedulerConfig::new(4).with_adaptive_fanout(true))
            .build();
        for i in 0..10 {
            let req = RequestContext::basic(format!("u{i}"), "ehr/1", "read");
            let out = cluster.decide(&req, i);
            assert_eq!(out.response.unwrap().decision, Decision::Permit);
            assert_eq!(out.replicas_queried, 3, "quorum width of five");
        }
        let m = cluster.metrics();
        assert_eq!(m.queries, 10);
        assert_eq!(m.replica_queries, 30);
        assert_eq!(m.fanout_saved, 20, "two spare replicas saved per query");
        assert!((m.amplification() - 3.0).abs() < 1e-9);
    }

    /// Estimates on either side of the pool hand-off constant (10 µs),
    /// recorded through the directory: `(replica, ns)`.
    fn estimate(cluster: &PdpCluster, estimates: &[(&str, u64)]) {
        for &(replica, ns) in estimates {
            let record = cluster.directory().register(replica, cluster.name());
            record.record_latency_ns(ns);
        }
    }

    /// A pooled straggler that answers after the verdict, as an order
    /// of events: it is parked inside `decide` before the two cheap
    /// permits that form the majority are let through, the decision
    /// returns while it is still parked, and its answer, once released,
    /// changes no outcome and no counter — a started evaluation runs to
    /// its end and is discarded.
    #[test]
    fn a_straggler_answering_after_the_verdict_changes_no_outcome_or_counter() {
        let cheap = [
            SlowBackend::parked("m-cheap-0", Decision::Permit),
            SlowBackend::parked("m-cheap-1", Decision::Permit),
        ];
        let slow = SlowBackend::parked("m-slow", Decision::Deny);
        let cluster = ClusterBuilder::new("late-straggler")
            .quorum(QuorumMode::Majority)
            .scheduler(SchedulerConfig::new(4))
            .shard(vec![
                cheap[0].clone() as Arc<dyn DecisionBackend>,
                cheap[1].clone() as Arc<dyn DecisionBackend>,
                slow.clone() as Arc<dyn DecisionBackend>,
            ])
            .build();
        estimate(
            &cluster,
            &[
                ("m-cheap-0", 1_000),
                ("m-cheap-1", 1_001),
                ("m-slow", 1_000_000),
            ],
        );
        let req = RequestContext::basic("alice", "ehr/1", "read");
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                slow.wait_parked();
                cheap.iter().for_each(|c| c.release());
            });
            cluster.decide(&req, 0)
        });
        let settled = cluster.metrics();
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.replicas_queried, 3);
        assert_eq!(slow.answered(), 0, "majority waited for the straggler");
        assert_eq!((settled.queries, settled.caller_evaluations), (1, 2));
        assert_eq!((settled.disagreements, settled.fail_closed_denies), (0, 0));
        slow.release();
        slow.wait_answered();
        assert_eq!(cluster.metrics(), settled, "the late deny was counted");
    }

    /// Satellite (ISSUE 6): a majority quorum settles on the two fast
    /// Permits — the slow divergent replica answers after the verdict
    /// on a pool, and is never started without one — so
    /// `disagreements` stays a silent zero.
    /// The periodic audit sampler replays with a plan that takes every
    /// vote and flags the divergence exactly: seen by the audit, and
    /// only by the audit, with or without a scheduler.
    #[test]
    fn audit_sampler_observes_divergence_hidden_by_short_circuit() {
        for (shape, scheduler) in schedulers() {
            let builder = ClusterBuilder::new("audit-test")
                .quorum(QuorumMode::Majority)
                .audit_every(2)
                .shard(vec![
                    Arc::new(StaticBackend::new("a-fast-0", Decision::Permit))
                        as Arc<dyn DecisionBackend>,
                    Arc::new(StaticBackend::new("a-fast-1", Decision::Permit))
                        as Arc<dyn DecisionBackend>,
                    Arc::new(SlowBackend::new(
                        "a-slow-wrong",
                        Decision::Deny,
                        std::time::Duration::from_millis(40),
                    )) as Arc<dyn DecisionBackend>,
                ]);
            let cluster = scheduled(builder, scheduler);
            // Known to be slow, so it is dispatched last (an unmeasured
            // replica would be probed first).
            let slow = cluster.directory().register("a-slow-wrong", "audit-test");
            slow.record_latency_ns(40_000_000);
            let req = RequestContext::basic("alice", "ehr/1", "read");
            for i in 0..4 {
                let out = cluster.decide(&req, i);
                assert_eq!(out.response.unwrap().decision, Decision::Permit, "{shape}");
            }
            let m = cluster.metrics();
            assert_eq!(m.queries, 4, "{shape}");
            // The settle point never sees the deny; every 2nd served
            // query is replayed, and each replay observes it.
            assert_eq!(m.disagreements, 0, "{shape}");
            assert_eq!((m.audit_queries, m.audit_disagreements), (2, 2), "{shape}");
        }
    }

    /// Regression (ISSUE 12): whether an audit is due is decided under
    /// the lock acquisition that numbers the query, so concurrent
    /// deciders sample exactly every `n`th query — none skipped, none
    /// replayed twice.
    #[test]
    fn concurrent_deciders_audit_exactly_every_nth_query() {
        for scheduler in [None, Some(SchedulerConfig::new(4))] {
            let builder = permit_builder(1, 3, QuorumMode::Majority).audit_every(10);
            let cluster = scheduled(builder, scheduler);
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|scope| {
                for t in 0..4u64 {
                    let (cluster, barrier) = (&cluster, &barrier);
                    scope.spawn(move || {
                        let req = RequestContext::basic(format!("u{t}"), "ehr/1", "read");
                        barrier.wait();
                        for i in 0..250 {
                            assert!(cluster.decide(&req, i).response.is_some());
                        }
                    });
                }
            });
            let m = cluster.metrics();
            assert_eq!(m.queries, 1_000);
            assert_eq!(m.audit_queries, 100);
        }
    }

    /// Regression: a replica returning from a crash with a
    /// lagging policy epoch passes through `Syncing` — excluded from
    /// quorums — until its epoch reaches the group's maximum, and the
    /// next decide readmits it.
    #[test]
    fn resync_lifecycle_gates_recovering_replicas() {
        let fresh = Arc::new(EpochBackend::new("s0-fresh", Decision::Deny, 2));
        let stale = Arc::new(EpochBackend::new("s0-stale", Decision::Permit, 2));
        let third = Arc::new(EpochBackend::new("s0-third", Decision::Deny, 2));
        let cluster = ClusterBuilder::new("resync-test")
            .quorum(QuorumMode::Majority)
            .shard(vec![fresh.clone(), stale.clone(), third.clone()])
            .build();
        let phase = |replica| cluster.replica_phase(replica).unwrap();
        let req = RequestContext::basic("alice", "ehr/1", "read");

        // The stale replica crashes; the survivors see a policy update.
        cluster.mark_down("s0-stale");
        assert_eq!(phase("s0-stale"), ReplicaPhase::Crashed);
        fresh.set_epoch(3);
        third.set_epoch(3);

        // Recovery lands in Syncing, not Healthy: its epoch lags.
        cluster.mark_up("s0-stale");
        assert_eq!(phase("s0-stale"), ReplicaPhase::Syncing);
        let out = cluster.decide(&req, 0);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert!(out.degraded, "serving below configured replication");
        let m = cluster.metrics();
        assert_eq!((m.stale_decisions_avoided, m.resyncs), (1, 0));
        assert_eq!((m.epoch_lag_last, m.epoch_lag_max), (1, 1));

        // The catch-up replay moves the epoch, not the phase: the next
        // decide readmits the replica, which votes in it, and counts it
        // once.
        stale.set_epoch(3);
        assert_eq!(phase("s0-stale"), ReplicaPhase::Syncing);
        let out = cluster.decide(&req, 1);
        assert_eq!((out.degraded, out.replicas_queried), (false, 3));
        assert_eq!(phase("s0-stale"), ReplicaPhase::Healthy);
        cluster.decide(&req, 2);
        let m = cluster.metrics();
        assert_eq!(
            (m.resyncs, m.stale_decisions_avoided, m.epoch_lag_last),
            (1, 1, 0)
        );

        // A replica that crashed but missed nothing skips Syncing.
        cluster.mark_down("s0-third");
        cluster.mark_up("s0-third");
        assert_eq!(phase("s0-third"), ReplicaPhase::Healthy);
    }

    /// A cluster built with no lifecycle option gates a lagging return:
    /// a stale pair that would outvote the fresh replica comes back
    /// `Syncing`, and the fresh replica's deny stands alone.
    #[test]
    fn a_cluster_built_with_no_lifecycle_option_gates_a_lagging_return() {
        let cluster = ClusterBuilder::new("gated")
            .quorum(QuorumMode::Majority)
            .shard(vec![
                Arc::new(EpochBackend::new("r-fresh", Decision::Deny, 5)),
                Arc::new(EpochBackend::new("r-stale-0", Decision::Permit, 1)),
                Arc::new(EpochBackend::new("r-stale-1", Decision::Permit, 1)),
            ])
            .build();
        for replica in ["r-stale-0", "r-stale-1"] {
            cluster.mark_down(replica);
            cluster.mark_up(replica);
            assert_eq!(cluster.replica_phase(replica), Some(ReplicaPhase::Syncing));
        }
        let out = cluster.decide(&RequestContext::basic("bob", "x", "read"), 0);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert_eq!(out.replicas_queried, 1);
        let m = cluster.metrics();
        assert_eq!((m.stale_decisions_avoided, m.epoch_lag_max), (2, 4));
    }

    /// A roster reads epochs only when some replica is `Syncing`: an
    /// all-`Healthy` `decide` and `decide_batch`, each with its audit
    /// replay, call `policy_epoch` on no backend. A replica found caught
    /// up is readmitted, and counted in `resyncs`, exactly once though a
    /// served query and its audit replay both build a roster — by the
    /// served roster when its catch-up landed before the query (alone
    /// or in a batch), by the audit's when it landed while the query was
    /// deciding.
    #[test]
    fn rosters_read_no_epoch_until_a_replica_syncs_and_count_readmission_once() {
        let backends: Vec<_> = (0..3)
            .map(|r| Arc::new(EpochBackend::new(format!("c-r{r}"), Decision::Permit, 1)))
            .collect();
        let shard = backends
            .iter()
            .map(|b| b.clone() as Arc<dyn DecisionBackend>);
        let cluster = ClusterBuilder::new("c")
            .audit_every(1)
            .shard(shard.collect())
            .build();
        let requests = [
            RequestContext::basic("alice", "ehr/1", "read"),
            RequestContext::basic("bob", "ehr/2", "read"),
        ];
        let counts = || {
            let m = cluster.metrics();
            (
                m.queries,
                m.audit_queries,
                m.resyncs,
                m.stale_decisions_avoided,
            )
        };
        let class = DecisionClass::default();
        assert_eq!(cluster.decide(&requests[0], 0).replicas_queried, 3);
        cluster.decide_batch(&requests, 1, class);
        assert_eq!(backends.iter().map(|b| b.reads()).sum::<u64>(), 0);
        assert_eq!(counts(), (3, 3, 0, 0));

        for epoch in [2, 3] {
            cluster.mark_down("c-r2");
            backends[..2].iter().for_each(|b| b.set_epoch(epoch));
            cluster.mark_up("c-r2");
            assert_eq!(cluster.replica_phase("c-r2"), Some(ReplicaPhase::Syncing));
            backends[2].set_epoch(epoch);
            if epoch == 2 {
                assert_eq!(cluster.decide(&requests[0], epoch).replicas_queried, 3);
            } else {
                cluster.decide_batch(&requests, epoch, class);
            }
        }
        assert_eq!(counts(), (6, 6, 2, 0));

        // Mid-query: the served roster leaves a lagging replica out, a
        // voter lands its catch-up as it decides, and the audit's
        // roster readmits it.
        struct CatchUpWhileDeciding(Arc<EpochBackend>);
        impl DecisionBackend for CatchUpWhileDeciding {
            fn name(&self) -> &str {
                "m-trigger"
            }
            fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
                self.0.set_epoch(2);
                Response::decision(Decision::Permit)
            }
        }
        let stale = Arc::new(EpochBackend::new("m-stale", Decision::Permit, 1));
        let cluster = ClusterBuilder::new("mid-query")
            .audit_every(1)
            .shard(vec![
                Arc::new(CatchUpWhileDeciding(stale.clone())),
                Arc::new(EpochBackend::new("m-fresh", Decision::Permit, 2)),
                stale,
            ])
            .build();
        cluster.mark_up("m-stale");
        assert_eq!(cluster.decide(&requests[0], 2).replicas_queried, 2);
        let m = cluster.metrics();
        assert_eq!(
            (m.audit_queries, m.resyncs, m.stale_decisions_avoided),
            (1, 1, 1)
        );
    }

    /// The reference the lifecycle is checked against: one replica is
    /// a phase and a policy epoch. A crash, a return and a decide are
    /// all that may change the phase; a return and a readmission read
    /// the epochs.
    #[derive(Clone, Copy)]
    struct ModelReplica {
        phase: ReplicaPhase,
        epoch: u64,
    }

    fn model_max(group: &[ModelReplica]) -> u64 {
        group.iter().map(|m| m.epoch).max().unwrap()
    }

    fn model_mark_up(group: &mut [ModelReplica], r: usize) {
        group[r].phase = if group[r].epoch < model_max(group) {
            ReplicaPhase::Syncing
        } else {
            ReplicaPhase::Healthy
        };
    }

    proptest::proptest! {
        /// Satellite (ISSUE 16): under any schedule of crash, return,
        /// policy push, catch-up and decide on two clusters that share
        /// one directory, every replica's phase — read through the
        /// cluster *and* through the directory, which are one record —
        /// follows the reference state machine, and every decision
        /// readmits, counts and excludes exactly the replicas the
        /// reference predicts.
        #[test]
        fn lifecycle_follows_the_reference_state_machine(
            schedule in proptest::collection::vec((0u8..5, 0usize..6, 0u8..8), 1..120),
        ) {
            let directory = Arc::new(PdpDirectory::new());
            let mut backends = Vec::new();
            let clusters: Vec<PdpCluster> = ["a", "b"]
                .iter()
                .map(|c| {
                    let shard: Vec<Arc<EpochBackend>> = (0..3)
                        .map(|r| Arc::new(EpochBackend::new(format!("{c}-r{r}"), Decision::Permit, 1)))
                        .collect();
                    backends.push(shard.clone());
                    ClusterBuilder::new(*c)
                        .directory(Arc::clone(&directory))
                        .shard(shard.into_iter().map(|b| b as Arc<dyn DecisionBackend>).collect())
                        .build()
                })
                .collect();
            let healthy = ModelReplica { phase: ReplicaPhase::Healthy, epoch: 1 };
            let mut model = [[healthy; 3]; 2];
            let mut resyncs = [0u64; 2];
            let request = RequestContext::basic("alice", "ehr/1", "read");
            for (step, &(op, target, mask)) in schedule.iter().enumerate() {
                let (c, r) = (target / 3, target % 3);
                let (cluster, group) = (&clusters[c], &mut model[c]);
                let name = format!("{}-r{r}", cluster.name());
                match op {
                    0 => {
                        cluster.mark_down(&name);
                        group[r].phase = ReplicaPhase::Crashed;
                    }
                    1 => {
                        cluster.mark_up(&name);
                        model_mark_up(group, r);
                    }
                    2 => {
                        // A push reaches the replicas that are up and
                        // that this round's mask selects.
                        let epoch = group.iter().map(|m| m.epoch).max().unwrap() + 1;
                        for (i, m) in group.iter_mut().enumerate() {
                            if m.phase != ReplicaPhase::Crashed && mask & (1 << i) != 0 {
                                m.epoch = epoch;
                                backends[c][i].set_epoch(epoch);
                            }
                        }
                    }
                    3 => {
                        // A catch-up reaches a replica that is up, and
                        // moves its epoch, not its phase.
                        if group[r].phase != ReplicaPhase::Crashed {
                            group[r].epoch = model_max(group);
                            backends[c][r].set_epoch(group[r].epoch);
                        }
                    }
                    _ => {
                        // The roster readmits every `Syncing` replica at
                        // the maximum epoch.
                        let (max, mut readmitted) = (model_max(group), 0);
                        for m in group.iter_mut().filter(|m| m.phase == ReplicaPhase::Syncing && m.epoch == max) {
                            m.phase = ReplicaPhase::Healthy;
                            readmitted += 1;
                        }
                        resyncs[c] += readmitted;
                        let voters = group.iter().filter(|m| m.phase == ReplicaPhase::Healthy).count();
                        let stale = group.iter().filter(|m| m.phase == ReplicaPhase::Syncing).count();
                        let before = cluster.metrics();
                        let out = cluster.decide(&request, step as u64);
                        let after = cluster.metrics();
                        proptest::prop_assert_eq!(after.resyncs - before.resyncs, readmitted, "step {}", step);
                        proptest::prop_assert_eq!(out.response.is_none(), voters == 0, "step {}", step);
                        proptest::prop_assert_eq!(out.replicas_queried, voters, "step {}", step);
                        proptest::prop_assert_eq!(out.degraded, voters != 0 && voters < 3, "step {}", step);
                        proptest::prop_assert_eq!(
                            after.stale_decisions_avoided - before.stale_decisions_avoided,
                            stale as u64,
                            "step {}", step
                        );
                        proptest::prop_assert_eq!(
                            after.unavailable - before.unavailable,
                            (voters == 0) as u64,
                            "step {}", step
                        );
                    }
                }
                for (cluster, group) in clusters.iter().zip(&model) {
                    for (i, m) in group.iter().enumerate() {
                        let name = format!("{}-r{i}", cluster.name());
                        proptest::prop_assert_eq!(cluster.replica_phase(&name), Some(m.phase), "{} at step {}", &name, step);
                        proptest::prop_assert_eq!(directory.health(&name), Some(m.phase), "{} at step {}", &name, step);
                    }
                }
            }
            for (cluster, expected) in clusters.iter().zip(resyncs) {
                proptest::prop_assert_eq!(cluster.metrics().resyncs, expected);
            }
        }
    }

    /// Satellite (ISSUE 16): the return of a stale replica is one store
    /// into its record, so there is no window in which it is routable.
    /// A decide that starts after `mark_up` returned never counts its
    /// vote while its epoch lags, and discovery never hands it to a PEP
    /// meanwhile — the two-variable version (directory health, then a
    /// separate sync flag) answered "healthy" to discovery throughout.
    /// Once its catch-up lands, the next decide — the lifecycle
    /// thread's or an observer's — readmits it, once. No sleeps and no
    /// clock: the lifecycle thread holds each gated window open until
    /// both observers have checked inside it.
    #[test]
    fn a_returning_stale_replica_is_never_routable_before_its_resync_completes() {
        use dacs_pdp::Binding;
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let fresh: Vec<Arc<EpochBackend>> = ["g-r0", "g-r1"]
            .iter()
            .map(|n| Arc::new(EpochBackend::new(*n, Decision::Deny, 1)))
            .collect();
        let stale = Arc::new(EpochBackend::new("g-stale", Decision::Permit, 1));
        let cluster = ClusterBuilder::new("gate")
            .shard(vec![fresh[0].clone(), fresh[1].clone(), stale.clone()])
            .build();
        // The round whose gated window is open, 0 while none is.
        let (gated, done) = (AtomicU64::new(0), AtomicBool::new(false));
        let (decides, resolves, violations) =
            (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        // Runs `routes_to_stale` until the lifecycle finishes. A call
        // with the same round's window open on both sides ran wholly
        // inside it, so it is counted in `checked` and must not have
        // seen the stale replica; the lifecycle thread keeps each
        // window open until both observers have counted one.
        // Violations are tallied, not panicked on: a dead observer
        // would park the lifecycle thread instead of failing the test.
        let observe = |checked: &AtomicU64, routes_to_stale: &dyn Fn() -> bool| {
            while !done.load(Ordering::SeqCst) {
                let before = gated.load(Ordering::SeqCst);
                let routed = routes_to_stale();
                if before != 0 && before == gated.load(Ordering::SeqCst) {
                    violations.fetch_add(routed as u64, Ordering::SeqCst);
                    checked.fetch_add(1, Ordering::SeqCst);
                }
            }
        };
        let request = RequestContext::basic("alice", "ehr/1", "read");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                observe(&decides, &|| {
                    // The two fresh replicas deny; three voters or a
                    // permit mean the stale one was counted.
                    let out = cluster.decide(&request, 0);
                    out.replicas_queried != 2
                        || out.response.map(|r| r.decision) != Some(Decision::Deny)
                })
            });
            scope.spawn(|| {
                observe(&resolves, &|| {
                    let pick = cluster.directory().resolve(&Binding::Discovery, "gate");
                    pick.as_deref() == Some("g-stale")
                })
            });
            for round in 2..200u64 {
                cluster.mark_down("g-stale");
                fresh.iter().for_each(|f| f.set_epoch(round));
                cluster.mark_up("g-stale");
                let seen = (
                    decides.load(Ordering::SeqCst),
                    resolves.load(Ordering::SeqCst),
                );
                gated.store(round, Ordering::SeqCst);
                while decides.load(Ordering::SeqCst) == seen.0
                    || resolves.load(Ordering::SeqCst) == seen.1
                {
                    std::thread::yield_now();
                }
                let phase = |expected| (cluster.replica_phase("g-stale") != Some(expected)) as u64;
                violations.fetch_add(phase(ReplicaPhase::Syncing), Ordering::SeqCst);
                gated.store(0, Ordering::SeqCst);
                stale.set_epoch(round);
                cluster.decide(&request, 0);
                violations.fetch_add(phase(ReplicaPhase::Healthy), Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert!(decides.load(Ordering::SeqCst) >= 198 && resolves.load(Ordering::SeqCst) >= 198);
        assert_eq!(cluster.metrics().resyncs, 198);
    }

    /// A straggler cancelled by the quorum short-circuit still closes
    /// a `cancelled:` span — dispatched work is never silently
    /// unaccounted in a trace — and is never evaluated. On a one-worker
    /// pool, the held replica is parked
    /// inside `decide` before the cheap deny is let through, so the
    /// queued replica is still behind it when unanimity settles on the
    /// deny; once both are released, the worker finishes the held one
    /// and skips the queued one at dequeue.
    #[test]
    fn cancelled_stragglers_close_spans_instead_of_leaking() {
        use dacs_telemetry::Telemetry;
        let telemetry = Arc::new(Telemetry::new());
        let deny = SlowBackend::parked("c-deny", Decision::Deny);
        let held = SlowBackend::parked("c-held", Decision::Permit);
        let queued = SlowBackend::parked("c-queued", Decision::Permit);
        let cluster = ClusterBuilder::new("cancel-spans")
            .quorum(QuorumMode::UnanimousFailClosed)
            .scheduler(SchedulerConfig::new(1))
            .telemetry(Arc::clone(&telemetry))
            .shard(vec![
                deny.clone() as Arc<dyn DecisionBackend>,
                held.clone() as Arc<dyn DecisionBackend>,
                queued.clone() as Arc<dyn DecisionBackend>,
            ])
            .build();
        estimate(
            &cluster,
            &[
                ("c-deny", 1_000),
                ("c-held", 1_000_000),
                ("c-queued", 1_000_001),
            ],
        );
        let req = RequestContext::basic("bob", "lab/7", "read");
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                held.wait_parked();
                deny.release();
            });
            cluster.decide(&req, 0)
        });
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert_eq!(out.replicas_queried, 3);
        held.release();
        queued.release();
        // Teardown joins the worker, so every span has closed after it.
        drop(cluster);
        assert_eq!((held.answered(), queued.answered()), (1, 0));
        let spans = telemetry.tracer().snapshot();
        let mut notes: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == "replica_decide")
            .map(|s| s.note.as_deref().unwrap_or_default())
            .collect();
        notes.sort_unstable();
        assert_eq!(
            notes,
            ["cancelled:c-queued", "replica:c-deny", "replica:c-held"],
            "spans: {spans:?}"
        );
        assert_eq!(telemetry.tracer().dropped(), 0);
    }

    #[test]
    fn shared_directory_integrates_with_discovery() {
        let directory = Arc::new(PdpDirectory::new());
        let cluster = ClusterBuilder::new("vo-a")
            .directory(directory.clone())
            .shard(vec![
                Arc::new(StaticBackend::new("pdp-1", Decision::Permit)) as Arc<dyn DecisionBackend>,
            ])
            .build();
        // The replica is discoverable through the ordinary directory API.
        assert!(directory.is_healthy("pdp-1"));
        assert_eq!(directory.endpoints_in("vo-a").len(), 1);
        cluster.mark_down("pdp-1");
        assert!(!directory.is_healthy("pdp-1"));
    }

    #[test]
    fn shared_directory_does_not_duplicate_known_endpoints() {
        let directory = Arc::new(PdpDirectory::new());
        // "pdp-1" is already registered for ordinary PEP discovery.
        directory.register("pdp-1", "hospital-a");
        let _cluster = ClusterBuilder::new("vo-a")
            .directory(directory.clone())
            .shard(vec![
                Arc::new(StaticBackend::new("pdp-1", Decision::Permit)) as Arc<dyn DecisionBackend>,
                Arc::new(StaticBackend::new("pdp-2", Decision::Permit)) as Arc<dyn DecisionBackend>,
            ])
            .build();
        // One row total for pdp-1: discovery rotation stays unskewed.
        assert_eq!(directory.len(), 2);
        assert_eq!(directory.endpoints_in("hospital-a").len(), 1);
        assert_eq!(directory.endpoints_in("vo-a").len(), 1);
    }
}
