//! The cluster facade: router + replica groups + directory + metrics.

use crate::fanout::{FanoutPool, SchedulerConfig};
use crate::metrics::{add_rare, AtomicClusterMetrics, ClusterMetrics};
use crate::quorum::QuorumMode;
use crate::replica::{DecisionBackend, FanoutPlan, GroupOutcome, ReplicaGroup};
use crate::shard::ShardRouter;
use dacs_pdp::{DecisionClass, PdpDirectory, PolicyEpoch, ReplicaPhase};
use dacs_policy::eval::Response;
use dacs_policy::hash::KeyState;
use dacs_policy::request::RequestContext;
use dacs_telemetry::{Histogram, Span, Stage, Telemetry};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

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

    /// Attaches a telemetry registry + tracer: the cluster records its
    /// per-stage spans (`cluster_decide` / `route` / `fanout` /
    /// `quorum_wait` / `replica_decide`, each feeding its stage's
    /// histogram) and the `dacs_batch_size` histogram into it, the
    /// registry reads every [`ClusterMetrics`] field through as
    /// `dacs_cluster_*`, and the scheduler's pool exposes its per-lane
    /// job counts and records its queue-wait histograms.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
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
                ReplicaGroup::new(registered.collect())
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
        // With a handle, the registry reads the metrics through.
        let batch_size = telemetry.as_ref().map(|t| {
            let exposed = Arc::clone(&metrics);
            t.registry().expose(move || exposed.snapshot().samples());
            t.registry().histogram("dacs_batch_size")
        });
        PdpCluster {
            router: ShardRouter::new(groups.len()),
            name: self.name,
            groups,
            slots,
            directory,
            quorum: self.quorum,
            scheduler,
            telemetry,
            batch_size,
            metrics,
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
    /// The handle the stages' spans go to, and the registry reads
    /// [`ClusterMetrics`] through.
    telemetry: Option<Arc<Telemetry>>,
    /// Requests per [`PdpCluster::decide_batch`] call, with a handle.
    batch_size: Option<Arc<Histogram>>,
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

    /// Marks a replica up again: one store of `Healthy`, so a decide
    /// that starts after this call asks it — first, until one of its
    /// votes counts. A replica that returns behind the target
    /// ([`PdpCluster::advance_epoch`]) has its votes withdrawn
    /// ([`ClusterMetrics::stale_decisions_avoided`]) until its catch-up
    /// replay lands; its first counted vote is its re-sync
    /// ([`ClusterMetrics::resyncs`]). Nothing else has to be called.
    pub fn mark_up(&self, replica: &str) {
        match self.slot_of(replica) {
            Some((group, slot)) => group.mark_up(slot),
            None => self.directory.mark_up(replica),
        }
    }

    /// The replica's position in the recovery lifecycle
    /// (`Healthy / Crashed`), or `None` if no group contains it.
    pub fn replica_phase(&self, replica: &str) -> Option<ReplicaPhase> {
        let (group, slot) = self.slot_of(replica)?;
        Some(group.endpoint(slot).phase())
    }

    /// Moves every group's target forward to `epoch`, the one its domain
    /// just announced: from the next query on, a vote behind it is
    /// withdrawn. `Domain::propagate_policy` calls this on every push;
    /// a bare `SyndicationTree`'s pusher must too.
    pub fn advance_epoch(&self, epoch: PolicyEpoch) {
        for group in &self.groups {
            group.advance_epoch(epoch);
        }
    }

    fn slot_of(&self, replica: &str) -> Option<(&ReplicaGroup, usize)> {
        let &(shard, slot) = self.slots.get(replica)?;
        Some((&self.groups[shard], slot))
    }

    /// The telemetry registry + tracer attached at build time
    /// ([`ClusterBuilder::telemetry`]), if any — shared with callers
    /// (decision sources) that want their own spans in the same trace.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// A span of `stage` under the thread's current one, with a handle.
    fn span(&self, stage: Stage) -> Option<Span<'_>> {
        self.telemetry.as_ref().map(|t| t.tracer().span(stage))
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
        let umbrella = self.span(Stage::ClusterDecide);
        let _in_umbrella = umbrella.as_ref().map(|s| s.enter());
        let shard = {
            let _route = self.span(Stage::Route);
            self.router.shard_for(request)
        };
        self.decide_on_shard(shard, request, now_ms, class)
    }

    /// Serves a batch on `class`'s scheduling lane, shard by shard, and
    /// returns outcomes aligned with `requests`. Each shard's requests
    /// are decided back-to-back, in submission order; equal requests of
    /// one batch (found by canonical hash, confirmed by comparing the
    /// whole request — the binding `HashedRequestCache` uses) are
    /// decided once and answered together. Separate batches never share
    /// a decision.
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
                let _route = self.span(Stage::Route);
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
        let group = &self.groups[shard];
        // Built without a scheduler: no pool, full width.
        let scheduler = self.scheduler.as_ref();
        let plan = FanoutPlan {
            pool: scheduler.map(|(pool, _)| pool),
            adaptive: scheduler.is_some_and(|(_, config)| config.adaptive_fanout),
            class,
            telemetry: self.telemetry(),
        };
        let outcome = {
            // Entered, so worker-thread `replica_decide` spans (which
            // capture the dispatching thread's context) and the
            // `quorum_wait` span nest under the fan-out.
            let fanout = self.span(Stage::Fanout);
            let _in_fanout = fanout.as_ref().map(|s| s.enter());
            group.query_planned(self.quorum, request, now_ms, &plan)
        };
        self.account(group, &plan, &outcome);
        ClusterOutcome {
            degraded: outcome.response.is_some() && outcome.healthy < group.len(),
            response: outcome.response,
            shard,
            replicas_queried: outcome.replicas_queried,
        }
    }

    /// Books one served query. A common query pays for `queries`,
    /// `replica_queries` and the `epoch_lag_last` store; the rest move
    /// only when they have something to add.
    fn account(&self, group: &ReplicaGroup, plan: &FanoutPlan<'_>, outcome: &GroupOutcome) {
        let m = &*self.metrics;
        m.queries.fetch_add(1, Ordering::Relaxed);
        m.replica_queries
            .fetch_add(outcome.replicas_queried as u64, Ordering::Relaxed);
        if plan.adaptive && self.quorum.fans_out() {
            // Eligible replicas the adaptive quorum never had to query.
            let eligible = outcome.healthy + outcome.stale_excluded;
            let saved = eligible.saturating_sub(outcome.replicas_queried);
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
    }

    fn note_batch(&self, submitted: usize, coalesced: usize) {
        let m = &*self.metrics;
        m.batches.fetch_add(1, Ordering::Relaxed);
        m.batched_queries
            .fetch_add(submitted as u64, Ordering::Relaxed);
        add_rare(&m.coalesced, coalesced as u64);
        if let Some(h) = &self.batch_size {
            h.record(submitted as u64);
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

    /// Regression: a replica returning from a crash with a lagging
    /// policy epoch is asked at once, but its votes are withdrawn until
    /// its answers carry the cluster's target epoch; the next decide
    /// after its catch-up asks it first and counts its vote, once, as
    /// its re-sync.
    #[test]
    fn resync_lifecycle_gates_recovering_replicas() {
        let fresh = Arc::new(EpochBackend::new("s0-fresh", Decision::Deny, 2));
        let stale = Arc::new(EpochBackend::new("s0-stale", Decision::Permit, 2));
        let third = Arc::new(EpochBackend::new("s0-third", Decision::Deny, 2));
        let cluster = ClusterBuilder::new("resync-test")
            .quorum(QuorumMode::Majority)
            .shard(vec![fresh.clone(), stale.clone(), third.clone()])
            .build();
        cluster.advance_epoch(PolicyEpoch(2));
        let phase = |replica| cluster.replica_phase(replica).unwrap();
        let req = RequestContext::basic("alice", "ehr/1", "read");

        // The stale replica crashes; the survivors see a policy update.
        cluster.mark_down("s0-stale");
        assert_eq!(phase("s0-stale"), ReplicaPhase::Crashed);
        fresh.set_epoch(3);
        third.set_epoch(3);
        cluster.advance_epoch(PolicyEpoch(3));

        // Its return is one store of `Healthy`; its vote, behind the
        // target, is withdrawn.
        cluster.mark_up("s0-stale");
        assert_eq!(phase("s0-stale"), ReplicaPhase::Healthy);
        let out = cluster.decide(&req, 0);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert!(out.degraded, "serving below configured replication");
        let m = cluster.metrics();
        assert_eq!((m.stale_decisions_avoided, m.resyncs), (1, 0));
        assert_eq!((m.epoch_lag_last, m.epoch_lag_max), (1, 1));

        // The catch-up replay moves the epoch: the next decide counts
        // the replica's vote, and counts its re-sync once.
        stale.set_epoch(3);
        let out = cluster.decide(&req, 1);
        assert_eq!((out.degraded, out.replicas_queried), (false, 3));
        cluster.decide(&req, 2);
        let m = cluster.metrics();
        assert_eq!(
            (m.resyncs, m.stale_decisions_avoided, m.epoch_lag_last),
            (1, 1, 0)
        );

        // A replica that crashed but missed nothing votes at once; its
        // first counted vote is a re-sync all the same.
        cluster.mark_down("s0-third");
        cluster.mark_up("s0-third");
        assert_eq!(phase("s0-third"), ReplicaPhase::Healthy);
        cluster.decide(&req, 3);
        let m = cluster.metrics();
        assert_eq!((m.resyncs, m.stale_decisions_avoided), (2, 1));
    }

    /// A cluster built with no lifecycle option judges a lagging return:
    /// a stale pair that would outvote the fresh replica comes back
    /// `Healthy`, is asked, and is withdrawn, so the fresh replica's
    /// deny stands alone.
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
        cluster.advance_epoch(PolicyEpoch(5));
        for replica in ["r-stale-0", "r-stale-1"] {
            cluster.mark_down(replica);
            cluster.mark_up(replica);
            assert_eq!(cluster.replica_phase(replica), Some(ReplicaPhase::Healthy));
        }
        let out = cluster.decide(&RequestContext::basic("bob", "x", "read"), 0);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert_eq!(out.replicas_queried, 3);
        let m = cluster.metrics();
        assert_eq!((m.stale_decisions_avoided, m.epoch_lag_max), (2, 4));
    }

    /// A decide reads no epoch from a backend — each answer carries its
    /// own, judged against the target loaded once per query — and a
    /// returned replica's re-sync counts exactly once: by the served
    /// query when the catch-up landed before it (alone or in a batch),
    /// by the next served query when it landed while the query was
    /// deciding.
    #[test]
    fn rosters_read_no_epoch_until_a_replica_syncs_and_count_readmission_once() {
        let backends: Vec<_> = (0..3)
            .map(|r| Arc::new(EpochBackend::new(format!("c-r{r}"), Decision::Permit, 1)))
            .collect();
        let shard = backends
            .iter()
            .map(|b| b.clone() as Arc<dyn DecisionBackend>);
        let cluster = ClusterBuilder::new("c").shard(shard.collect()).build();
        cluster.advance_epoch(PolicyEpoch(1));
        let requests = [
            RequestContext::basic("alice", "ehr/1", "read"),
            RequestContext::basic("bob", "ehr/2", "read"),
        ];
        let counts = || {
            let m = cluster.metrics();
            (m.queries, m.resyncs, m.stale_decisions_avoided)
        };
        let class = DecisionClass::default();
        assert_eq!(cluster.decide(&requests[0], 0).replicas_queried, 3);
        cluster.decide_batch(&requests, 1, class);
        assert_eq!(counts(), (3, 0, 0));

        for epoch in [2, 3] {
            cluster.mark_down("c-r2");
            backends[..2].iter().for_each(|b| b.set_epoch(epoch));
            cluster.advance_epoch(PolicyEpoch(epoch));
            cluster.mark_up("c-r2");
            backends[2].set_epoch(epoch);
            if epoch == 2 {
                assert_eq!(cluster.decide(&requests[0], epoch).replicas_queried, 3);
            } else {
                cluster.decide_batch(&requests, epoch, class);
            }
        }
        assert_eq!(counts(), (6, 2, 0));

        // Mid-query: the served query asks the returned replica first
        // and withdraws its vote, a voter lands its catch-up as it
        // decides, and the next query counts the returned replica's
        // vote.
        struct CatchUpWhileDeciding(Arc<EpochBackend>);
        impl DecisionBackend for CatchUpWhileDeciding {
            fn name(&self) -> &str {
                "m-trigger"
            }
            fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
                self.0.set_epoch(2);
                Response {
                    epoch: PolicyEpoch(2),
                    ..Response::decision(Decision::Permit)
                }
            }
        }
        let stale = Arc::new(EpochBackend::new("m-stale", Decision::Permit, 1));
        let cluster = ClusterBuilder::new("mid-query")
            .shard(vec![
                Arc::new(CatchUpWhileDeciding(stale.clone())),
                Arc::new(EpochBackend::new("m-fresh", Decision::Permit, 2)),
                stale,
            ])
            .build();
        cluster.advance_epoch(PolicyEpoch(2));
        estimate(&cluster, &[("m-trigger", 1_000), ("m-fresh", 2_000)]);
        cluster.mark_up("m-stale");
        assert_eq!(cluster.decide(&requests[0], 2).replicas_queried, 3);
        let m = cluster.metrics();
        assert_eq!((m.resyncs, m.stale_decisions_avoided), (0, 1));
        for now_ms in [3, 4] {
            cluster.decide(&requests[0], now_ms);
            let m = cluster.metrics();
            assert_eq!((m.resyncs, m.stale_decisions_avoided), (1, 1));
        }
    }

    /// The reference the lifecycle is checked against: one replica is
    /// a phase, a policy epoch, whether it returned without a counted
    /// vote since, and whether it has an estimate; the group is the
    /// replicas and a target epoch. A crash and a return are all that
    /// change the phase; a push moves the target.
    #[derive(Clone, Copy)]
    struct ModelReplica {
        phase: ReplicaPhase,
        epoch: u64,
        returned: bool,
        measured: bool,
    }

    proptest::proptest! {
        /// Satellite (ISSUE 16): under any schedule of crash, return,
        /// policy push, catch-up and decide on two clusters that share
        /// one directory, every replica's phase — read through the
        /// cluster *and* through the directory, which are one record —
        /// follows the two-phase reference, and every decision asks,
        /// withdraws and re-syncs exactly the replicas the reference
        /// predicts: returned and unmeasured replicas first in slot
        /// order, each vote behind the target withdrawn, until a
        /// majority of the replicas left agree.
        #[test]
        fn lifecycle_follows_the_reference_state_machine(
            schedule in proptest::collection::vec((0u8..5, 0usize..6), 1..120),
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
                    let cluster = ClusterBuilder::new(*c)
                        .directory(Arc::clone(&directory))
                        .shard(shard.into_iter().map(|b| b as Arc<dyn DecisionBackend>).collect())
                        .build();
                    cluster.advance_epoch(PolicyEpoch(1));
                    cluster
                })
                .collect();
            let healthy = ModelReplica { phase: ReplicaPhase::Healthy, epoch: 1, returned: false, measured: false };
            let mut model = [[healthy; 3]; 2];
            let mut targets = [1u64; 2];
            let mut resyncs = [0u64; 2];
            let request = RequestContext::basic("alice", "ehr/1", "read");
            for (step, &(op, target)) in schedule.iter().enumerate() {
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
                        group[r].phase = ReplicaPhase::Healthy;
                        group[r].returned = true;
                    }
                    2 => {
                        // A push reaches every replica that is up and
                        // current; one behind holds at its gap.
                        targets[c] += 1;
                        for (i, m) in group.iter_mut().enumerate() {
                            if m.phase == ReplicaPhase::Healthy && m.epoch + 1 == targets[c] {
                                m.epoch = targets[c];
                                backends[c][i].set_epoch(m.epoch);
                            }
                        }
                        cluster.advance_epoch(PolicyEpoch(targets[c]));
                    }
                    3 => {
                        // A catch-up reaches a replica that is up, and
                        // moves its epoch, not its phase.
                        if group[r].phase == ReplicaPhase::Healthy {
                            group[r].epoch = targets[c];
                            backends[c][r].set_epoch(group[r].epoch);
                        }
                    }
                    _ => {
                        // Asked in dispatch order: every replica with no
                        // estimate to trust (returned or never asked) in
                        // slot order, then the measured ones — which a
                        // push never skips, so all of them are current.
                        let up: Vec<usize> = (0..3).filter(|&i| group[i].phase == ReplicaPhase::Healthy).collect();
                        let (first, rest): (Vec<usize>, Vec<usize>) =
                            up.iter().partition(|&&i| group[i].returned || !group[i].measured);
                        let (mut votes, mut withdrawn, mut readmitted) = (0usize, 0usize, 0u64);
                        for &i in first.iter().chain(&rest) {
                            let m = &mut group[i];
                            m.measured = true;
                            if m.epoch < targets[c] {
                                withdrawn += 1;
                            } else {
                                votes += 1;
                                readmitted += std::mem::take(&mut m.returned) as u64;
                            }
                            if votes > 0 && votes > (up.len() - withdrawn) / 2 {
                                break;
                            }
                        }
                        resyncs[c] += readmitted;
                        let before = cluster.metrics();
                        let out = cluster.decide(&request, step as u64);
                        let after = cluster.metrics();
                        proptest::prop_assert_eq!(after.resyncs - before.resyncs, readmitted, "step {}", step);
                        proptest::prop_assert_eq!(out.response.is_none(), votes == 0, "step {}", step);
                        proptest::prop_assert_eq!(out.replicas_queried, up.len(), "step {}", step);
                        let voters = up.len() - withdrawn;
                        proptest::prop_assert_eq!(out.degraded, votes != 0 && voters < 3, "step {}", step);
                        proptest::prop_assert_eq!(
                            after.stale_decisions_avoided - before.stale_decisions_avoided,
                            withdrawn as u64,
                            "step {}", step
                        );
                        proptest::prop_assert_eq!(
                            after.unavailable - before.unavailable,
                            (votes == 0) as u64,
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
    /// into its record, and whether its vote counts is judged on the
    /// answer, so there is no window in which a decide counts it while
    /// it lags: a stale pair that would outvote the fresh replica never
    /// turns a decide that starts after the push into a permit. Once
    /// the catch-up lands, the next decide — the lifecycle thread's or
    /// the observer's — counts each returned replica's re-sync, once.
    /// No sleeps and no clock: the lifecycle thread holds each gated
    /// window open until the observer has checked inside it.
    #[test]
    fn a_returning_stale_replica_is_never_routable_before_its_resync_completes() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        let fresh = Arc::new(EpochBackend::new("g-r0", Decision::Deny, 1));
        let stale: Vec<Arc<EpochBackend>> = ["g-s1", "g-s2"]
            .iter()
            .map(|n| Arc::new(EpochBackend::new(*n, Decision::Permit, 1)))
            .collect();
        let cluster = ClusterBuilder::new("gate")
            .shard(vec![fresh.clone(), stale[0].clone(), stale[1].clone()])
            .build();
        cluster.advance_epoch(PolicyEpoch(1));
        // The round whose gated window is open, 0 while none is.
        let (gated, done) = (AtomicU64::new(0), AtomicBool::new(false));
        let (checked, violations) = (AtomicU64::new(0), AtomicU64::new(0));
        let request = RequestContext::basic("alice", "ehr/1", "read");
        std::thread::scope(|scope| {
            // A decide with the same round's window open on both sides
            // ran wholly inside it, so it is counted in `checked` and
            // must deny. Violations are tallied, not panicked on: a dead
            // observer would park the lifecycle thread instead of
            // failing the test.
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    let before = gated.load(Ordering::SeqCst);
                    let out = cluster.decide(&request, 0);
                    if before != 0 && before == gated.load(Ordering::SeqCst) {
                        let permitted = out.response.map(|r| r.decision) != Some(Decision::Deny);
                        violations.fetch_add(permitted as u64, Ordering::SeqCst);
                        checked.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
            for round in 2..200u64 {
                for s in ["g-s1", "g-s2"] {
                    cluster.mark_down(s);
                }
                fresh.set_epoch(round);
                cluster.advance_epoch(PolicyEpoch(round));
                for s in ["g-s1", "g-s2"] {
                    cluster.mark_up(s);
                }
                let seen = checked.load(Ordering::SeqCst);
                gated.store(round, Ordering::SeqCst);
                while checked.load(Ordering::SeqCst) == seen {
                    std::thread::yield_now();
                }
                gated.store(0, Ordering::SeqCst);
                stale.iter().for_each(|s| s.set_epoch(round));
                let caught_up = cluster.decide(&request, 0).response.unwrap();
                violations.fetch_add(
                    (caught_up.decision != Decision::Permit) as u64,
                    Ordering::SeqCst,
                );
            }
            done.store(true, Ordering::SeqCst);
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
        assert!(checked.load(Ordering::SeqCst) >= 198);
        assert_eq!(cluster.metrics().resyncs, 2 * 198);
    }

    /// A straggler cancelled by the quorum short-circuit still closes
    /// a `cancelled:<slot>` span — dispatched work is never silently
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
            .filter(|s| s.stage == Stage::ReplicaDecide)
            .map(|s| s.note.expect("every replica span is noted").to_string())
            .collect();
        notes.sort_unstable();
        // By slot: c-deny is 0, c-held 1, c-queued 2.
        assert_eq!(
            notes,
            ["cancelled:2", "replica:0", "replica:1"],
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
