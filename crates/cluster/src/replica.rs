//! Replica groups: `k` decision backends serving one shard, with
//! directory-driven health tracking and quorum combination.
//!
//! Each replica slot pairs its backend with the shared
//! [`PdpEndpoint`] record the directory handed out at registration:
//! lifecycle phase and latency estimate are read and written through
//! the slot, so the decision paths take no lock and look no name up —
//! and a `mark_down` through the directory is seen by the very next
//! query, because it is the same record.
//!
//! A vote counts only at the group's target epoch, the one its domain
//! last announced ([`crate::PdpCluster::advance_epoch`]): one behind it
//! is withdrawn as a panicked one is.
//!
//! A group answers a query one way: one collector loop combines
//! answers *incrementally* — majority settles as soon as a majority
//! agrees (dispatching only quorum width under adaptive fan-out),
//! unanimity settles on the first deny, and first-healthy on its
//! primary's answer. Where a replica is evaluated follows one rule: a
//! cluster built with `ClusterBuilder::scheduler` has a pool, and a
//! replica goes to it when something else of its dispatch is in flight
//! and it has not been answering faster than a hand-off costs; every
//! other is evaluated on the collector's own thread. A cluster built
//! without one has no pool, and the caller evaluates every replica it
//! asks.

use crate::fanout::{CancelToken, FanoutAnswer, FanoutPool};
use crate::quorum::{self, QuorumMode};
use dacs_pdp::{DecisionClass, Pdp, PdpEndpoint, PolicyEpoch, ReplicaPhase};
use dacs_policy::eval::Response;
use dacs_policy::policy::Decision;
use dacs_policy::request::RequestContext;
use dacs_telemetry::{Note, SpanCtx, Stage, Telemetry, Tracer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Anything that can answer an authorization decision query.
///
/// [`Pdp`] is the production backend; experiments wrap it (or replace
/// it) to model stale, Byzantine or crashed replicas. Backends must be
/// thread-safe: the pooled fan-out evaluates them from pool workers.
pub trait DecisionBackend: Send + Sync {
    /// The backend's endpoint name (registered in the
    /// [`dacs_pdp::PdpDirectory`]).
    fn name(&self) -> &str;
    /// Serves one decision query, stamped with the epoch it was decided
    /// at ([`Response::epoch`]). Once asked, a query runs to its end:
    /// an answer that arrives after its fan-out's verdict is discarded.
    fn decide(&self, request: &RequestContext, now_ms: u64) -> Response;
}

impl DecisionBackend for Pdp {
    fn name(&self) -> &str {
        Pdp::name(self)
    }
    fn decide(&self, request: &RequestContext, now_ms: u64) -> Response {
        Pdp::decide(self, request, now_ms)
    }
}

/// A backend that always answers the same decision — a stand-in for a
/// stale or Byzantine replica in tests and experiments.
pub struct StaticBackend {
    name: String,
    decision: Decision,
}

impl StaticBackend {
    /// Creates a backend answering `decision` for every query.
    pub fn new(name: impl Into<String>, decision: Decision) -> Self {
        StaticBackend {
            name: name.into(),
            decision,
        }
    }
}

impl DecisionBackend for StaticBackend {
    fn name(&self) -> &str {
        &self.name
    }
    fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
        Response::decision(self.decision)
    }
}

/// The outcome of querying one replica group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct GroupOutcome {
    /// The combined response; `None` when no replica was healthy.
    pub response: Option<Response>,
    /// Replicas dispatched. A vote the verdict overtakes — a job
    /// cancelled at dequeue, a replica the caller never started — still
    /// counts as dispatched work.
    pub replicas_queried: usize,
    /// Replicas that could vote at query time: `Healthy`, less those
    /// whose votes were withdrawn as behind the group's target epoch.
    pub healthy: usize,
    /// Returned replicas ([`ReplicaGroup`]'s `mark_up`) whose first vote
    /// at the target this query counted.
    pub readmitted: usize,
    /// Votes withdrawn as behind the group's target epoch — each one a
    /// stale vote that was *not* counted.
    pub stale_excluded: usize,
    /// The largest policy-epoch lag among the withdrawn votes (0 when
    /// none was withdrawn).
    pub max_epoch_lag: u64,
    /// Whether the answers the settle point saw disagreed. The
    /// collector stops at the verdict, so a divergent vote that would
    /// only have come after it is not observed.
    pub disagreement: bool,
    /// Whether the quorum forced a fail-closed deny.
    pub fail_closed: bool,
    /// Evaluations the query ran on the caller's own thread, not on a
    /// pool: all of them when the plan has no pool.
    pub caller_evaluations: usize,
}

impl GroupOutcome {
    /// No answer from `eligible` voters and nothing queried: the
    /// availability-gap outcome, and the base every other outcome
    /// updates.
    fn unanswered(eligible: usize) -> GroupOutcome {
        GroupOutcome {
            response: None,
            replicas_queried: 0,
            healthy: eligible,
            readmitted: 0,
            stale_excluded: 0,
            max_epoch_lag: 0,
            disagreement: false,
            fail_closed: false,
            caller_evaluations: 0,
        }
    }

    /// The unanimity floor's fail-closed deny over `eligible` voters,
    /// stamped with the `target` the floor was judged at.
    fn floored(target: PolicyEpoch, eligible: usize) -> GroupOutcome {
        GroupOutcome {
            response: Some(Response {
                epoch: target,
                ..Response::decision(Decision::Deny)
            }),
            fail_closed: true,
            ..GroupOutcome::unanswered(eligible)
        }
    }

    /// `verdict` reached by querying `queried` of `eligible` voters.
    fn decided(verdict: quorum::Verdict, queried: usize, eligible: usize) -> GroupOutcome {
        GroupOutcome {
            response: Some(verdict.response),
            replicas_queried: queried,
            disagreement: verdict.disagreement,
            fail_closed: verdict.fail_closed,
            ..GroupOutcome::unanswered(eligible)
        }
    }
}

/// `k` replicas serving one shard of the keyspace.
///
/// # Examples
///
/// A [`crate::PdpCluster`] of one shard is one group:
///
/// ```
/// use dacs_cluster::{ClusterBuilder, DecisionBackend, QuorumMode, StaticBackend};
/// use dacs_policy::policy::Decision;
/// use dacs_policy::request::RequestContext;
/// use std::sync::Arc;
///
/// let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
/// for (name, decision) in [
///     ("r0", Decision::Deny), // stale replica
///     ("r1", Decision::Permit),
///     ("r2", Decision::Permit),
/// ] {
///     replicas.push(Arc::new(StaticBackend::new(name, decision)));
/// }
/// let cluster = ClusterBuilder::new("demo")
///     .quorum(QuorumMode::Majority)
///     .shard(replicas)
///     .build();
/// let request = RequestContext::basic("alice", "ehr/1", "read");
/// let out = cluster.decide(&request, 0);
/// // The fresh majority outvotes the stale replica, asked first.
/// assert_eq!(out.response.unwrap().decision, Decision::Permit);
/// assert_eq!(cluster.metrics().disagreements, 1);
/// // The directory is the authority on health: the group keeps the
/// // record registration handed out.
/// cluster.directory().mark_down("r0");
/// cluster.decide(&request, 1);
/// assert_eq!(cluster.metrics().disagreements, 1);
/// ```
pub(crate) struct ReplicaGroup {
    replicas: Vec<Arc<Replica>>,
    /// The policy epoch the group's domain last announced: a vote
    /// stamped behind it is withdrawn. Only moves forward; stored with
    /// `Release` after the push it announces, loaded with `Acquire`.
    target: AtomicU64,
}

/// One replica slot: the backend that decides, the directory's shared
/// record of it and its position in the group, which names it in a
/// span. Behind one `Arc` so a fan-out job takes all of it with a
/// single clone.
struct Replica {
    backend: Arc<dyn DecisionBackend>,
    endpoint: Arc<PdpEndpoint>,
    slot: u32,
    /// Set by a return, cleared by the first vote counted after it.
    returned: AtomicBool,
}

/// Where one query's replica spans go: the tracer, and the parent span
/// captured on the *dispatching* thread (workers have no entered
/// context).
type SpanSite<'t> = (&'t Tracer, Option<SpanCtx>);

/// How one query should be dispatched: the pool to hand off to,
/// whether fan-out is adaptive (quorum-width), and the query's
/// scheduling class. Built by the cluster from its `SchedulerConfig`,
/// if it has one, plus the caller's [`DecisionClass`]; the default is
/// the plan of a cluster built without one — no pool, full width.
#[derive(Default)]
pub(crate) struct FanoutPlan<'a> {
    /// The worker pool jobs are submitted to; `None` and the caller
    /// evaluates every replica.
    pub pool: Option<&'a FanoutPool>,
    /// Dispatch only quorum-width replicas under majority, escalating
    /// to backups on a contested or lost vote.
    pub adaptive: bool,
    /// The scheduling lane and deadline the query's jobs carry.
    pub class: DecisionClass,
    /// Where the query's `replica_decide` and `quorum_wait` spans go;
    /// `None` and it records none.
    pub telemetry: Option<&'a Arc<Telemetry>>,
}

/// What a pooled query costs over and above its evaluations
/// (`cluster.self_ns` read 10.9 µs for three hand-offs on the benchmark
/// host): a replica that has been answering faster gains nothing from a
/// worker. A per-query cost held against a per-replica estimate,
/// whatever the dispatch width, and verified only at the extremes the
/// repo has (1.2 µs in-process `Pdp`s, 2 ms sleepers): where the
/// crossover really falls — five 9 µs replicas run 45 µs serially here —
/// is unmeasured until a slow-replica workload is in the benchmark.
/// A constant, not an estimator: a measured overhead goes stale the
/// moment queries stop reaching the pool.
const POOL_HANDOFF_NS: u64 = 10_000;

/// The most one sample may weigh, in multiples of the estimate: at the
/// EWMA's weight of a fifth, one evaluation at most doubles it. The
/// path hangs on the estimate, and raw, a 1.2 µs replica preempted once
/// for 45 µs rides the pool for the dozen queries it takes to decay:
/// what a query costs would depend on what the host did to the last.
const SAMPLE_CAP: u64 = 6;

/// What the pooled jobs of one query share — one request copy, one
/// telemetry handle and the parent span — built at its first hand-off:
/// a query the caller evaluates whole has none.
struct Handoff {
    request: RequestContext,
    now_ms: u64,
    telemetry: Option<Arc<Telemetry>>,
    parent: Option<SpanCtx>,
    cancel: CancelToken,
    tx: Sender<FanoutAnswer>,
}

/// One replica query handed to a pool worker. Dropping it — after
/// evaluating, skipped at dequeue, mid-panic, or discarded unrun by a
/// closing pool — sends its answer, so every handed-off job answers
/// exactly once and the collector can neither miscount its outstanding
/// votes nor block on one that will never arrive. A `None` response is
/// a withdrawn vote, not an answer.
struct FanoutJob {
    replica: Arc<Replica>,
    handoff: Arc<Handoff>,
    role: fn(u32) -> Note,
    index: usize,
    response: Option<Response>,
}

impl Drop for FanoutJob {
    fn drop(&mut self) {
        let _ = self.handoff.tx.send((self.index, self.response.take()));
    }
}

impl FanoutJob {
    fn run(mut self) {
        let h = &self.handoff;
        let site = h.telemetry.as_ref().map(|t| (t.tracer(), h.parent));
        let start = Instant::now();
        (self.response, _) = self.replica.evaluate(
            &h.request,
            h.now_ms,
            Some(&h.cancel),
            site,
            self.role,
            start,
        );
    }
}

impl Replica {
    /// The one evaluation routine — pool worker and collector's own
    /// thread alike: skips the evaluation if `cancel` is set (a pool
    /// job's dequeue check; the collector passes `None`, since it sets
    /// the token only after its own last evaluation), asks the backend
    /// under `catch_unwind`, feeds the estimate, notes its span with
    /// `role` and its slot. `None` back is a withdrawn vote: skipped, or
    /// the backend panicked.
    ///
    /// The evaluation is timed from `start`, the caller's reading of
    /// the clock, and the instant it ended comes back beside the vote
    /// (`start` itself for one that never ran): the collector starts
    /// its next evaluation there, so a run of evaluations on one thread
    /// reads the clock once per evaluation plus once.
    fn evaluate(
        &self,
        request: &RequestContext,
        now_ms: u64,
        cancel: Option<&CancelToken>,
        site: Option<SpanSite<'_>>,
        role: fn(u32) -> Note,
        start: Instant,
    ) -> (Option<Response>, Instant) {
        let mut span = site.map(|(tracer, parent)| tracer.span_under(parent, Stage::ReplicaDecide));
        let mut note = |role: fn(u32) -> Note| {
            if let Some(s) = span.as_mut() {
                s.set_note(role(self.slot));
            }
        };
        if cancel.is_some_and(CancelToken::is_cancelled) {
            // The skip still closes a zero-duration span: in a trace a
            // cancelled straggler shows up closed, not leaked.
            note(Note::Cancelled);
            return (None, start);
        }
        note(role);
        // A panicking backend is a withdrawn vote, not a dead thread.
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.backend.decide(request, now_ms)
        }))
        .ok();
        let end = Instant::now();
        match &response {
            Some(_) => {
                // Only completed evaluations feed the EWMA: a panicked
                // one's elapsed time measures the panic, not the
                // replica.
                let elapsed = end - start;
                // One preempted evaluation is not a slow replica.
                let estimate = self.endpoint.latency_ewma_ns().unwrap_or(u64::MAX);
                let ns = (elapsed.as_nanos() as u64).min(estimate.saturating_mul(SAMPLE_CAP));
                self.endpoint.record_latency_ns(ns);
            }
            None => note(Note::Cancelled),
        }
        (response, end)
    }
}

impl ReplicaGroup {
    /// Creates a group over the given backends, each paired with the
    /// record `PdpDirectory::register` handed out for it; slots keep
    /// the given order.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is empty.
    pub fn new(replicas: Vec<(Arc<dyn DecisionBackend>, Arc<PdpEndpoint>)>) -> Self {
        assert!(!replicas.is_empty(), "a replica group needs replicas");
        let replicas = (0..)
            .zip(replicas)
            .map(|(slot, (backend, endpoint))| {
                Arc::new(Replica {
                    backend,
                    endpoint,
                    slot,
                    returned: AtomicBool::new(false),
                })
            })
            .collect();
        ReplicaGroup {
            replicas,
            target: AtomicU64::new(0),
        }
    }

    /// Moves the group's target epoch forward to `epoch` (never back):
    /// from the next query on, a vote stamped behind it is withdrawn.
    pub(crate) fn advance_epoch(&self, epoch: PolicyEpoch) {
        self.target.fetch_max(epoch.0, Ordering::AcqRel);
    }

    /// The directory record of the replica in `slot` (configured
    /// order): its lifecycle phase and latency estimate.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn endpoint(&self, slot: usize) -> &Arc<PdpEndpoint> {
        &self.replicas[slot].endpoint
    }

    /// Brings the replica in `slot` back from a crash: one store of
    /// `Healthy`, after marking the return. Its votes count once they
    /// carry the target epoch, and the first that does is its re-sync.
    pub(crate) fn mark_up(&self, slot: usize) {
        let replica = &self.replicas[slot];
        replica.returned.store(true, Ordering::Release);
        replica.endpoint.set_phase(ReplicaPhase::Healthy);
    }

    /// Replica count (healthy or not).
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Names of all replicas, in slot order.
    pub fn replica_names(&self) -> Vec<String> {
        self.replicas
            .iter()
            .map(|r| r.endpoint.name().to_string())
            .collect()
    }

    /// Fans `request` out to the group's eligible replicas — on the
    /// plan's pool or the caller's own thread — and combines the answers
    /// incrementally, per the rule table on the collector. The moment a
    /// verdict is reached the fan-out's `CancelToken` is set: jobs still
    /// queued are skipped at dequeue, and a pooled evaluation already
    /// under way runs to its end with its answer discarded.
    ///
    /// Decision-equivalent to [`quorum::combine`] over every eligible
    /// replica's answer: a majority winner holds `⌊e/2⌋+1` votes — an
    /// absolute majority of *all* eligible replicas, which no straggler
    /// can overturn — a unanimity short-circuit fires only once the
    /// combined decision can only be deny, and when nothing settles
    /// early `combine` itself runs over the answers in configured
    /// replica order. What changes is cost: a majority stops evaluating
    /// at quorum width, saving `e − ⌊e/2⌋ − 1` evaluations per query.
    /// One exception, over a lost vote: a first-healthy primary that
    /// panics is replaced by the *fastest* remaining replica (dispatch
    /// order), not the next configured one.
    ///
    /// The collector runs over the `Healthy` replicas, judging every
    /// vote against the target epoch loaded once for the query —
    /// unless the healthy set cannot decide under `mode` at all: nobody
    /// healthy is an availability gap, and a set that is a minority of
    /// the configured group may not decide under
    /// [`QuorumMode::UnanimousFailClosed`] — it might consist entirely
    /// of stale or Byzantine replicas, so the group fails closed
    /// without spending any evaluations. The collector applies the same
    /// floor to the replicas left once stale votes are withdrawn, so a
    /// stale replica cannot prop a partition over it.
    pub(crate) fn query_planned(
        &self,
        mode: QuorumMode,
        request: &RequestContext,
        now_ms: u64,
        plan: &FanoutPlan<'_>,
    ) -> GroupOutcome {
        let eligible: Vec<&Arc<Replica>> = self
            .replicas
            .iter()
            .filter(|r| r.endpoint.is_healthy())
            .collect();
        let e = eligible.len();
        let target = PolicyEpoch(self.target.load(Ordering::Acquire));
        if e == 0 {
            GroupOutcome::unanswered(0)
        } else if mode == QuorumMode::UnanimousFailClosed && e * 2 <= self.replicas.len() {
            GroupOutcome::floored(target, e)
        } else {
            self.collect(mode, &eligible, request, now_ms, plan, target)
        }
    }

    /// `(latency estimate, index into eligible)` in dispatch order,
    /// each estimate read once: the first `pinned` stay in configured
    /// order, the rest sort by ascending EWMA latency; unmeasured
    /// replicas sort first — probing them is how they earn an estimate.
    /// A returned replica's estimate predates its crash, so it counts
    /// as unmeasured until its first vote at the target is counted.
    fn ewma_order(eligible: &[&Arc<Replica>], pinned: usize) -> Vec<(Option<u64>, usize)> {
        let estimates = eligible.iter().map(|r| {
            let returned = r.returned.load(Ordering::Relaxed);
            r.endpoint.latency_ewma_ns().filter(|_| !returned)
        });
        let mut order: Vec<_> = estimates.zip(0..).collect();
        order[pinned..].sort_by_key(|&(estimate, _)| estimate);
        order
    }

    /// Whether the answers so far (newest last) already fix the
    /// combined verdict under `mode`, whatever the stragglers say.
    fn settled(
        mode: QuorumMode,
        needed: usize,
        received: &[(usize, Response)],
    ) -> Option<quorum::Verdict> {
        let (_, newest) = received.last()?;
        let disagreement = received.iter().any(|(_, r)| r.decision != newest.decision);
        let verdict = |response: &Response, fail_closed| quorum::Verdict {
            response: response.clone(),
            disagreement,
            fail_closed,
        };
        match mode {
            QuorumMode::FirstHealthy => Some(verdict(newest, false)),
            QuorumMode::Majority => {
                let votes = || {
                    received
                        .iter()
                        .filter(|(_, r)| r.decision == newest.decision)
                };
                if votes().count() < needed {
                    return None;
                }
                // Deterministic tie-break, matching `quorum::combine`:
                // the winning decision's response (and obligations)
                // come from the lowest-index replica that voted for it,
                // not from whichever answer happened to arrive first.
                let (_, response) = votes().min_by_key(|(i, _)| *i)?;
                Some(verdict(response, false))
            }
            // Any deny or any disagreement makes the combined decision
            // deny regardless of the stragglers. `fail_closed` marks
            // only forced denies (disagreement), not genuine all-deny
            // verdicts — matching `quorum::combine`.
            QuorumMode::UnanimousFailClosed if disagreement => {
                Some(verdict(&Response::decision(Decision::Deny), true))
            }
            QuorumMode::UnanimousFailClosed => {
                (newest.decision == Decision::Deny).then(|| verdict(newest, false))
            }
        }
    }

    /// The one fan-out collector: dispatch an initial width of
    /// replicas, take answers until [`ReplicaGroup::settled`] fixes the
    /// verdict, escalating one replica at a time. The only per-mode
    /// inputs are data:
    ///
    /// | mode | dispatch order | initial width | settles when | where |
    /// |------|----------------|---------------|--------------|-------|
    /// | `FirstHealthy` | `eligible[0]`, then ascending EWMA | 1 | any answer arrives | caller: nothing to overlap |
    /// | `Majority` | ascending EWMA | `⌊e/2⌋+1` adaptive, `e` otherwise | one decision holds `⌊e/2⌋+1` votes | pool if the estimate is missing or at least [`POOL_HANDOFF_NS`], else caller |
    /// | `UnanimousFailClosed` | ascending EWMA | `e` | a deny or a disagreement arrives | as `Majority` |
    /// | any, no pool | as its mode | as its mode | as its mode | caller |
    ///
    /// That is one dispatch rule: a replica goes to the pool iff the
    /// plan has a pool, something else of its dispatch is in flight, and
    /// its estimate is missing or at least [`POOL_HANDOFF_NS`]; the
    /// caller evaluates every other. An escalation fires with nothing in
    /// flight, so it runs on the caller. Pool-bound members of a
    /// dispatch are submitted before the caller evaluates its own (a
    /// slow replica overlaps them); the caller consults `settled` after
    /// each answer and never starts what the verdict overtakes —
    /// dispatched and skipped, like a job cancelled at dequeue.
    ///
    /// Escalation is the same for every row: the next replica in order
    /// is dispatched at once when everything in flight has answered
    /// without settling (a contested, lost or withdrawn vote — a needed
    /// voter). A vote behind `target` is withdrawn, and the majority to
    /// settle is counted over the replicas left. When every eligible
    /// replica has answered without settling, whatever was counted is
    /// combined in configured replica order by [`quorum::combine`],
    /// under unanimity only above the floor.
    fn collect(
        &self,
        mode: QuorumMode,
        eligible: &[&Arc<Replica>],
        request: &RequestContext,
        now_ms: u64,
        plan: &FanoutPlan<'_>,
        target: PolicyEpoch,
    ) -> GroupOutcome {
        let e = eligible.len();
        let (pinned, initial, role): (_, _, fn(u32) -> Note) = match mode {
            QuorumMode::FirstHealthy => (1, 1, Note::Primary),
            QuorumMode::Majority if plan.adaptive => (0, e / 2 + 1, Note::Replica),
            // Unanimity needs every eligible replica's vote anyway.
            QuorumMode::Majority | QuorumMode::UnanimousFailClosed => (0, e, Note::Replica),
        };
        // Ascending-EWMA dispatch puts likely-fast replicas at the head
        // of the pool queue, so the settle point arrives as early as
        // possible and slow stragglers are the ones left queued for the
        // cancel token to skip.
        let order = Self::ewma_order(eligible, pinned);
        // The one dispatch rule, by position in `order`: the pool a
        // replica is handed to, `None` for the caller's own thread.
        let pool_for = |p: usize| {
            let overlaps = initial > 1 && p < initial;
            let dear = order[p].0.is_none_or(|ns| ns >= POOL_HANDOFF_NS);
            plan.pool.filter(|_| overlaps && dear)
        };
        // The parent of every replica span: read on the calling thread,
        // so a worker's span nests under its enforcement.
        let parent = plan.telemetry.and_then(|_| dacs_telemetry::current());
        let site = plan.telemetry.map(|t| (t.tracer(), parent));
        // Quorum assembly as a stage — a span from the first hand-off to
        // whichever exit fires — exists only for a query that waits on a
        // channel.
        let mut pooled = None;
        let mut dispatched = 0usize;
        // A caller-bound replica is only counted: the loop evaluates it.
        let dispatch_next = |dispatched: &mut usize, pooled: &mut Option<_>, role| {
            let p = *dispatched;
            *dispatched += 1;
            let Some(pool) = pool_for(p) else { return };
            let (handoff, ..) = pooled.get_or_insert_with(|| {
                let (tx, rx) = channel();
                let handoff = Handoff {
                    request: request.clone(),
                    now_ms,
                    telemetry: plan.telemetry.cloned(),
                    parent,
                    cancel: CancelToken::new(),
                    tx,
                };
                let wait = site.map(|(tracer, _)| tracer.span(Stage::QuorumWait));
                (Arc::new(handoff), rx, wait)
            });
            let job = FanoutJob {
                replica: Arc::clone(eligible[order[p].1]),
                handoff: Arc::clone(handoff),
                role,
                index: order[p].1,
                response: None,
            };
            pool.submit_classed(Box::new(move || job.run()), plan.class);
        };
        for _ in 0..initial {
            dispatch_next(&mut dispatched, &mut pooled, role);
        }

        // Answers as (eligible-index, response): the index keeps winner
        // selection deterministic in *configured* replica order even
        // though arrival order is a thread-scheduling race.
        let mut received: Vec<(usize, Response)> = Vec::with_capacity(e);
        let mut answered = 0usize;
        // Votes withdrawn, the worst one's lag, and re-syncs counted.
        let (mut withdrawn, mut lag, mut readmitted) = (0usize, 0u64, 0usize);
        // Positions below `mine` are no longer the caller's to evaluate.
        let (mut mine, mut caller_evaluations) = (0usize, 0usize);
        // When the caller's last evaluation ended: the next one starts
        // there. Forgotten across a wait on the pool, which is no
        // replica's time.
        let mut clock: Option<Instant> = None;
        let verdict = loop {
            let answer = if let Some(p) = (mine..dispatched).find(|&p| pool_for(p).is_none()) {
                (mine, caller_evaluations) = (p + 1, caller_evaluations + 1);
                let role = if p < initial { role } else { Note::Replica };
                let index = order[p].1;
                let start = clock.unwrap_or_else(Instant::now);
                let (response, end) =
                    eligible[index].evaluate(request, now_ms, None, site, role, start);
                clock = Some(end);
                (index, response)
            } else {
                clock = None;
                let (_, rx, _) = pooled.as_ref().expect("an unanswered job is pooled");
                rx.recv()
                    .expect("the collector holds a sender; every job answers")
            };
            answered += 1;
            match answer {
                (_, Some(response)) if response.epoch < target => {
                    withdrawn += 1;
                    lag = lag.max(target.lag_behind(response.epoch));
                }
                (index, Some(response)) => {
                    let returned = &eligible[index].returned;
                    if returned.load(Ordering::Relaxed) && returned.swap(false, Ordering::AcqRel) {
                        readmitted += 1;
                    }
                    received.push((index, response));
                }
                (_, None) => {}
            }
            let settled = Self::settled(mode, (e - withdrawn) / 2 + 1, &received);
            if let Some(verdict) = settled {
                break Some(verdict);
            }
            if answered == dispatched {
                if dispatched == e {
                    break None;
                }
                // Contested, lost or withdrawn votes: what is in flight
                // cannot settle, so the next-best replica becomes a
                // needed voter.
                dispatch_next(&mut dispatched, &mut pooled, Note::Replica);
            }
        };
        // Settled or not, nothing a straggler says can matter now.
        if let Some((handoff, ..)) = &pooled {
            handoff.cancel.cancel();
        }
        let voters = e - withdrawn;
        let mut outcome = match verdict {
            Some(verdict) => GroupOutcome::decided(verdict, dispatched, voters),
            // Every vote was lost (panicking backends) or withdrawn
            // (behind the target): an availability gap, not a decision.
            None if received.is_empty() => GroupOutcome {
                replicas_queried: dispatched,
                ..GroupOutcome::unanswered(voters)
            },
            None if mode == QuorumMode::UnanimousFailClosed
                && voters * 2 <= self.replicas.len() =>
            {
                GroupOutcome {
                    replicas_queried: dispatched,
                    ..GroupOutcome::floored(target, voters)
                }
            }
            None => {
                received.sort_by_key(|(i, _)| *i);
                let responses: Vec<Response> = received.into_iter().map(|(_, r)| r).collect();
                GroupOutcome::decided(quorum::combine(mode, &responses), dispatched, voters)
            }
        };
        // A deny the quorum rule made up was judged at the target.
        if let Some(response) = &mut outcome.response {
            response.epoch = response.epoch.max(target);
        }
        GroupOutcome {
            readmitted,
            stale_excluded: withdrawn,
            max_epoch_lag: lag,
            caller_evaluations,
            ..outcome
        }
    }
}

#[cfg(test)]
impl ReplicaGroup {
    /// Fans `request` out to the group's healthy replicas on the
    /// caller's thread — the plan of a cluster built without a
    /// scheduler: no pool, full width — and combines the answers under
    /// `mode`, stopping at the settle point. A vote behind the group's
    /// target epoch is withdrawn, counted in
    /// [`GroupOutcome::stale_excluded`], and a replica whose evaluation
    /// panics costs its vote, not the caller.
    ///
    /// Latency is the sum of the replicas asked, likely-fast ones first;
    /// a cluster built with `ClusterBuilder::scheduler` overlaps the
    /// ones worth a hand-off.
    pub(crate) fn query(
        &self,
        mode: QuorumMode,
        request: &RequestContext,
        now_ms: u64,
    ) -> GroupOutcome {
        self.query_planned(mode, request, now_ms, &FanoutPlan::default())
    }
}

#[cfg(test)]
use std::time::Duration;

/// A straggler for tests across this crate (short-circuit,
/// cancellation and starvation cases). An evaluation parks inside the
/// backend until its `delay` has passed or the test calls
/// [`SlowBackend::release`]; like any backend, once asked it runs to
/// its end.
///
/// [`SlowBackend::parked`] is the form for stating "the verdict did
/// not wait for it" as an order rather than a duration: its delay is a
/// hang guard no passing run comes near, so it answers only once the
/// test releases it — after the verdict has returned.
#[cfg(test)]
pub(crate) struct SlowBackend {
    name: String,
    decision: Decision,
    delay: Duration,
    state: std::sync::Mutex<Parked>,
    changed: std::sync::Condvar,
}

/// Evaluations that have parked and answered.
#[cfg(test)]
#[derive(Default)]
struct Parked {
    released: bool,
    parked: usize,
    answered: usize,
}

#[cfg(test)]
impl SlowBackend {
    /// How long anything parked or waiting here blocks before giving
    /// up, so that a regression fails its test's order assertion
    /// instead of hanging the suite.
    const HANG_GUARD: Duration = Duration::from_secs(30);

    pub(crate) fn new(name: impl Into<String>, decision: Decision, delay: Duration) -> Self {
        SlowBackend {
            name: name.into(),
            decision,
            delay,
            state: Default::default(),
            changed: Default::default(),
        }
    }

    /// A backend that answers only after [`SlowBackend::release`].
    pub(crate) fn parked(name: impl Into<String>, decision: Decision) -> Arc<Self> {
        Arc::new(Self::new(name, decision, Self::HANG_GUARD))
    }

    /// Lets parked and future evaluations answer at once.
    pub(crate) fn release(&self) {
        self.state.lock().unwrap().released = true;
        self.changed.notify_all();
    }

    /// Evaluations that returned an answer.
    pub(crate) fn answered(&self) -> usize {
        self.state.lock().unwrap().answered
    }

    /// Blocks until an evaluation is parked inside the backend.
    pub(crate) fn wait_parked(&self) {
        self.wait_until("an evaluation parks", |s| s.parked > 0);
    }

    /// Blocks until an evaluation has answered.
    pub(crate) fn wait_answered(&self) {
        self.wait_until("an evaluation answers", |s| s.answered > 0);
    }

    fn wait_until(&self, what: &str, reached: impl Fn(&Parked) -> bool) {
        let state = self.state.lock().unwrap();
        let (_state, guard) = self
            .changed
            .wait_timeout_while(state, Self::HANG_GUARD, |s| !reached(s))
            .unwrap();
        assert!(
            !guard.timed_out(),
            "{}: gave up waiting until {what}",
            self.name
        );
    }
}

#[cfg(test)]
impl DecisionBackend for SlowBackend {
    fn name(&self) -> &str {
        &self.name
    }
    /// Unreleased, it answers no sooner than its delay after it was
    /// asked, however early a wait wakes.
    fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
        let deadline = Instant::now() + self.delay;
        let mut state = self.state.lock().unwrap();
        state.parked += 1;
        self.changed.notify_all();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if state.released || remaining.is_zero() {
                break;
            }
            state = self.changed.wait_timeout(state, remaining).unwrap().0;
        }
        state.answered += 1;
        self.changed.notify_all();
        Response::decision(self.decision)
    }
}

/// A backend whose answers carry an externally settable policy epoch
/// — the test stand-in for a replica whose PAP lags the syndication
/// timeline.
#[cfg(test)]
pub(crate) struct EpochBackend {
    name: String,
    decision: Decision,
    epoch: AtomicU64,
}

#[cfg(test)]
impl EpochBackend {
    pub(crate) fn new(name: impl Into<String>, decision: Decision, epoch: u64) -> Self {
        EpochBackend {
            name: name.into(),
            decision,
            epoch: AtomicU64::new(epoch),
        }
    }

    pub(crate) fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
    }
}

#[cfg(test)]
impl DecisionBackend for EpochBackend {
    fn name(&self) -> &str {
        &self.name
    }
    fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
        Response {
            epoch: PolicyEpoch(self.epoch.load(Ordering::Acquire)),
            ..Response::decision(self.decision)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_pdp::PdpDirectory;
    use proptest::prelude::*;

    #[test]
    fn first_healthy_queries_exactly_one() {
        let (g, _) = group(&[Decision::Permit, Decision::Permit, Decision::Permit]);
        let out = g.query(QuorumMode::FirstHealthy, &RequestContext::new(), 0);
        assert_eq!(out.replicas_queried, 1);
        assert_eq!(out.healthy, 3);
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
    }

    #[test]
    fn failover_skips_unhealthy_replicas() {
        let (g, dir) = group(&[Decision::Deny, Decision::Permit]);
        dir.mark_down("r0");
        let out = g.query(QuorumMode::FirstHealthy, &RequestContext::new(), 0);
        // r0 (the Deny) is down; the query routes around it.
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.healthy, 1);
        dir.mark_up("r0");
        let out = g.query(QuorumMode::FirstHealthy, &RequestContext::new(), 0);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
    }

    #[test]
    fn all_down_is_unavailable_not_a_decision() {
        let pool = pool();
        for (shape, plan) in plans(&pool) {
            let (g, dir) = group(&[Decision::Permit, Decision::Permit]);
            dir.mark_down("r0");
            dir.mark_down("r1");
            let out = g.query_planned(QuorumMode::Majority, &RequestContext::new(), 0, &plan);
            assert_eq!(out.response, None, "{shape}");
            assert_eq!(out.replicas_queried, 0, "{shape}");
        }
    }

    #[test]
    fn majority_fans_out_to_all_healthy() {
        let (g, _) = group(&[Decision::Permit, Decision::Deny, Decision::Permit]);
        let out = g.query(QuorumMode::Majority, &RequestContext::new(), 0);
        assert_eq!(out.replicas_queried, 3);
        assert!(out.disagreement);
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
    }

    #[test]
    fn unanimity_refuses_minority_partitions() {
        let (pool, req) = (pool(), RequestContext::new());
        for (shape, plan) in plans(&pool) {
            let unanimity =
                |g: &ReplicaGroup| g.query_planned(QuorumMode::UnanimousFailClosed, &req, 0, &plan);
            // Only the stale replica survives; unanimity over {stale}
            // would rubber-stamp it, so the group fails closed instead.
            let (g, dir) = group(&[Decision::Permit, Decision::Permit, Decision::Permit]);
            dir.mark_down("r0");
            dir.mark_down("r1");
            let out = unanimity(&g);
            assert_eq!(out.response.unwrap().decision, Decision::Deny, "{shape}");
            assert!(out.fail_closed, "{shape}");
            assert_eq!(out.replicas_queried, 0, "{shape}: no evaluations spent");
            // Restore a majority: unanimity can permit again.
            dir.mark_up("r0");
            let out = unanimity(&g);
            assert_eq!(out.response.unwrap().decision, Decision::Permit, "{shape}");
        }
    }

    fn pool() -> FanoutPool {
        FanoutPool::new(4)
    }

    fn plan(pool: &FanoutPool, adaptive: bool) -> FanoutPlan<'_> {
        FanoutPlan {
            pool: Some(pool),
            adaptive,
            ..FanoutPlan::default()
        }
    }

    /// Each shape of plan a cluster builds: no pool (no scheduler),
    /// pooled, adaptive.
    fn plans(pool: &FanoutPool) -> [(&'static str, FanoutPlan<'_>); 3] {
        [
            ("no pool", FanoutPlan::default()),
            ("pooled", plan(pool, false)),
            ("pooled adaptive", plan(pool, true)),
        ]
    }

    /// `g`'s answer to an empty request under `mode`, dispatched by
    /// `plan`.
    fn ask(g: &ReplicaGroup, mode: QuorumMode, now_ms: u64, plan: &FanoutPlan<'_>) -> GroupOutcome {
        g.query_planned(mode, &RequestContext::new(), now_ms, plan)
    }

    /// A replica whose every evaluation panics: a lost vote.
    struct Panicky(String);

    impl DecisionBackend for Panicky {
        fn name(&self) -> &str {
            &self.0
        }
        fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
            panic!("backend bug");
        }
    }

    fn group(decisions: &[Decision]) -> (ReplicaGroup, Arc<PdpDirectory>) {
        lossy_group(decisions, None)
    }

    /// Takes the replica in `slot` down and brings it back, as a crash
    /// and a return do.
    fn returned(group: &ReplicaGroup, slot: usize) {
        group.endpoint(slot).set_phase(ReplicaPhase::Crashed);
        group.mark_up(slot);
    }

    /// One permitting [`EpochBackend`] `r{i}` per policy epoch,
    /// registered healthy, with the backends.
    fn epoch_group(epochs: &[u64]) -> (ReplicaGroup, Arc<PdpDirectory>, Vec<Arc<EpochBackend>>) {
        let backends: Vec<Arc<EpochBackend>> = epochs
            .iter()
            .enumerate()
            .map(|(i, &epoch)| {
                Arc::new(EpochBackend::new(format!("r{i}"), Decision::Permit, epoch))
            })
            .collect();
        let replicas = backends
            .iter()
            .map(|b| b.clone() as Arc<dyn DecisionBackend>);
        let (g, directory) = grouped(replicas.collect());
        (g, directory, backends)
    }

    /// One static backend `r{i}` per decision, registered healthy, with
    /// replica `lost` (if any) swapped for a [`Panicky`].
    fn lossy_group(
        decisions: &[Decision],
        lost: Option<usize>,
    ) -> (ReplicaGroup, Arc<PdpDirectory>) {
        let replicas = decisions.iter().enumerate().map(|(i, d)| {
            let name = format!("r{i}");
            if lost == Some(i) {
                Arc::new(Panicky(name)) as Arc<dyn DecisionBackend>
            } else {
                Arc::new(StaticBackend::new(name, *d))
            }
        });
        grouped(replicas.collect())
    }

    /// A group over `replicas`, registered healthy under `"cluster"`
    /// in a fresh directory.
    fn grouped(replicas: Vec<Arc<dyn DecisionBackend>>) -> (ReplicaGroup, Arc<PdpDirectory>) {
        let directory = Arc::new(PdpDirectory::new());
        let replicas = replicas
            .into_iter()
            .map(|backend| {
                let endpoint = directory.register(backend.name(), "cluster");
                (backend, endpoint)
            })
            .collect();
        (ReplicaGroup::new(replicas), directory)
    }

    #[test]
    fn parallel_majority_latency_tracks_fast_majority_not_slowest() {
        // Two instant Permits and one parked straggler: the majority
        // verdict returns while the straggler has not answered.
        let straggler = SlowBackend::parked("r2", Decision::Deny);
        let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
        for name in ["r0", "r1"] {
            replicas.push(Arc::new(StaticBackend::new(name, Decision::Permit)));
        }
        replicas.push(straggler.clone());
        let (g, _) = grouped(replicas);
        let pool = pool();
        let out = ask(&g, QuorumMode::Majority, 0, &plan(&pool, false));
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(straggler.answered(), 0, "majority waited for the straggler");
        assert_eq!(out.replicas_queried, 3, "all replicas were dispatched");
        straggler.release();
    }

    #[test]
    fn parallel_unanimity_short_circuits_on_first_deny() {
        // One instant Deny and two parked Permits: unanimity can only
        // end in deny, so it answers before either permit does.
        let permits = [
            SlowBackend::parked("r1", Decision::Permit),
            SlowBackend::parked("r2", Decision::Permit),
        ];
        let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
        replicas.push(Arc::new(StaticBackend::new("r0", Decision::Deny)));
        replicas.extend(
            permits
                .iter()
                .map(|p| p.clone() as Arc<dyn DecisionBackend>),
        );
        let (g, _) = grouped(replicas);
        let pool = pool();
        let out = ask(&g, QuorumMode::UnanimousFailClosed, 0, &plan(&pool, false));
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        for permit in &permits {
            assert_eq!(permit.answered(), 0, "unanimity waited for a permit");
            permit.release();
        }
    }

    #[test]
    fn parallel_majority_winner_is_deterministic_in_configured_order() {
        // r0 carries an obligation on its Permit, r1 permits bare.
        // `quorum::combine` always returns r0's obligations; the pooled
        // collector must too, whatever the arrival order.
        use dacs_policy::policy::Obligation;
        struct Obliged(String);
        impl DecisionBackend for Obliged {
            fn name(&self) -> &str {
                &self.0
            }
            fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
                let mut r = Response::decision(Decision::Permit);
                r.obligations.push(Obligation {
                    id: "log-access".into(),
                    params: Vec::new(),
                });
                r
            }
        }
        let (g, _) = grouped(vec![
            Arc::new(Obliged("r0".into())) as Arc<dyn DecisionBackend>,
            Arc::new(StaticBackend::new("r1", Decision::Permit)) as Arc<dyn DecisionBackend>,
        ]);
        let pool = pool();
        for i in 0..25 {
            let out = ask(&g, QuorumMode::Majority, i, &plan(&pool, false));
            let response = out.response.unwrap();
            assert_eq!(response.decision, Decision::Permit);
            assert_eq!(
                response.obligations.len(),
                1,
                "obligations must come from the lowest-index winning vote (iteration {i})"
            );
        }
    }

    #[test]
    fn parallel_majority_survives_a_panicking_replica() {
        let (g, _) = lossy_group(&[Decision::Permit; 3], Some(0));
        let pool = pool();
        // The panicking replica's answer is simply lost; the two
        // healthy permits still form a majority — repeatedly, because
        // the panic must not cost a pool worker.
        for i in 0..8 {
            let out = ask(&g, QuorumMode::Majority, i, &plan(&pool, false));
            assert_eq!(out.response.unwrap().decision, Decision::Permit);
        }
    }

    #[test]
    fn parallel_queries_feed_the_latency_ewma() {
        let (g, _) = group(&[Decision::Permit, Decision::Permit, Decision::Permit]);
        let pool = pool();
        assert_eq!(g.endpoint(0).latency_ewma_ns(), None);
        for _ in 0..2 {
            ask(&g, QuorumMode::UnanimousFailClosed, 0, &plan(&pool, false));
        }
        // Unanimity waits for every replica, so all three got timed.
        // (Majority may cancel a straggler before it runs.)
        for slot in 0..3 {
            assert!(
                g.endpoint(slot).latency_ewma_ns().is_some(),
                "r{slot} has no latency sample"
            );
        }
    }

    /// The caller times an evaluation from where its last one ended,
    /// and a wait on the pool belongs to no replica. So a fast replica
    /// asked on the caller right after a slow one, or right after the
    /// collector waited out a slow pooled vote, records its own time:
    /// whatever it recorded fits in what the query took beyond the slow
    /// replica's delay. (Inheriting the slow time would record at least
    /// the delay.)
    #[test]
    fn a_caller_evaluation_records_its_own_time_not_what_came_before() {
        const DELAY: Duration = Duration::from_millis(40);
        // An estimate so dear that no sample is capped, and so last in
        // dispatch order.
        const DEAR: u64 = 1_000_000_000;
        // The fast replica's sample, from what it moved its estimate to
        // (to within the EWMA's rounding, downwards).
        let sample = |g: &ReplicaGroup, slot| {
            let ewma = g.endpoint(slot).latency_ewma_ns().unwrap();
            Duration::from_nanos(5 * (ewma - (DEAR - DEAR / 5)))
        };
        let query = |g: &ReplicaGroup, plan: &FanoutPlan<'_>| {
            let start = Instant::now();
            let out = g.query_planned(QuorumMode::Majority, &RequestContext::new(), 0, plan);
            (out, start.elapsed())
        };

        // No pool: the slow replica sorts first, and a majority of two
        // asks both on the caller.
        let slow = Arc::new(SlowBackend::new("slow", Decision::Permit, DELAY));
        let (g, _) = grouped(vec![
            slow.clone() as Arc<dyn DecisionBackend>,
            Arc::new(StaticBackend::new("fast", Decision::Permit)),
        ]);
        g.endpoint(0).record_latency_ns(1);
        g.endpoint(1).record_latency_ns(DEAR);
        let (out, took) = query(&g, &FanoutPlan::default());
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!((out.caller_evaluations, slow.answered()), (2, 1));
        let fast = sample(&g, 1);
        assert!(fast <= took - DELAY, "recorded {fast:?} of {took:?}");

        // Pooled: the cheap replica denies on the caller, the collector
        // waits on the pool for the slow one's permit, and the contested
        // vote escalates to the fast one, on the caller again.
        let pool = pool();
        let slow = Arc::new(SlowBackend::new("slow", Decision::Permit, DELAY));
        let (g, _) = grouped(vec![
            Arc::new(StaticBackend::new("cheap", Decision::Deny)) as Arc<dyn DecisionBackend>,
            slow.clone(),
            Arc::new(StaticBackend::new("fast", Decision::Permit)),
        ]);
        g.endpoint(0).record_latency_ns(1);
        g.endpoint(1).record_latency_ns(2 * POOL_HANDOFF_NS);
        g.endpoint(2).record_latency_ns(DEAR);
        let (out, took) = query(&g, &plan(&pool, true));
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert!(out.disagreement);
        assert_eq!((out.caller_evaluations, slow.answered()), (2, 1));
        let fast = sample(&g, 2);
        assert!(fast <= took - DELAY, "recorded {fast:?} of {took:?}");
    }

    /// Regression: a stale replica's vote is withdrawn from
    /// majority counting until it catches up — even when the stale
    /// replicas outnumber the fresh ones — under every plan. The group
    /// judges votes against its target epoch, not against its peers.
    #[test]
    fn stale_replicas_excluded_from_majority_until_synced() {
        let (pool, req) = (pool(), RequestContext::new());
        for (shape, plan) in plans(&pool) {
            // r0 saw the lockdown (epoch 5, denies); r1/r2 are stale at
            // epoch 3 and would still permit. Counted, they outvote r0.
            let fresh = Arc::new(EpochBackend::new("r0", Decision::Deny, 5));
            let stale_1 = Arc::new(EpochBackend::new("r1", Decision::Permit, 3));
            let stale_2 = Arc::new(EpochBackend::new("r2", Decision::Permit, 3));
            let (g, _) = grouped(vec![
                fresh as Arc<dyn DecisionBackend>,
                stale_1.clone() as Arc<dyn DecisionBackend>,
                stale_2 as Arc<dyn DecisionBackend>,
            ]);
            let majority = || g.query_planned(QuorumMode::Majority, &req, 0, &plan);

            // With no epoch announced the stale majority falsely permits.
            let out = majority();
            assert_eq!(out.response.unwrap().decision, Decision::Permit, "{shape}");

            // The pair returns behind the announced epoch: asked, and
            // withdrawn, so only the fresh replica's vote counts.
            g.advance_epoch(PolicyEpoch(5));
            returned(&g, 1);
            returned(&g, 2);
            let out = majority();
            let response = out.response.unwrap();
            assert_eq!(response.decision, Decision::Deny, "{shape}");
            assert_eq!(response.epoch, PolicyEpoch(5), "{shape}");
            assert_eq!(out.healthy, 1, "{shape}: only the current replica counts");
            assert_eq!(out.replicas_queried, 3, "{shape}: stale asked, withdrawn");
            assert_eq!(out.stale_excluded, 2, "{shape}");
            assert_eq!(out.max_epoch_lag, 2, "{shape}: r1/r2 trail epoch 5 by 2");
            assert_eq!(out.readmitted, 0, "{shape}");

            // r1 catches up, and the next query counts its vote (its
            // answer is its own; the epoch decides whether it counts,
            // not what it says): its re-sync. The 1-1 split fails closed
            // rather than permitting.
            stale_1.set_epoch(5);
            let out = majority();
            assert_eq!(out.readmitted, 1, "{shape}");
            assert_eq!(out.response.unwrap().decision, Decision::Deny, "{shape}");
            assert!(out.fail_closed, "{shape}: split vote after the catch-up");
            assert_eq!(out.stale_excluded, 1, "{shape}: r2 still withdrawn");
            // Its re-sync counts once.
            assert_eq!(majority().readmitted, 0, "{shape}");
        }
    }

    #[test]
    fn unanimity_floor_counts_eligible_not_healthy() {
        // Three live replicas, two of them answering behind the target
        // epoch: once their votes are withdrawn, the replicas left are
        // a minority of the configured group, so unanimity fails closed
        // — a stale pair cannot prop the partition over the floor.
        let (g, _, backends) = epoch_group(&[2, 1, 1]);
        g.advance_epoch(PolicyEpoch(2));
        let unanimity = || g.query(QuorumMode::UnanimousFailClosed, &RequestContext::new(), 0);
        let out = unanimity();
        let response = out.response.unwrap();
        assert_eq!(response.decision, Decision::Deny);
        assert_eq!(response.epoch, PolicyEpoch(2), "judged at the target");
        assert!(out.fail_closed);
        assert_eq!((out.replicas_queried, out.stale_excluded), (3, 2));
        // One catches up: two current votes of three clear the floor.
        backends[1].set_epoch(2);
        let out = unanimity();
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert!(!out.fail_closed);
        assert_eq!(out.stale_excluded, 1);
    }

    #[test]
    fn all_replicas_syncing_is_unavailable_not_stale_service() {
        // r0 is down holding the group's epoch; the two that are up
        // answer behind it.
        let (g, dir, backends) = epoch_group(&[2, 1, 1]);
        g.advance_epoch(PolicyEpoch(2));
        dir.mark_down("r0");
        let out = g.query(QuorumMode::FirstHealthy, &RequestContext::new(), 0);
        assert_eq!(out.response, None, "no current vote → no decision");
        assert_eq!((out.replicas_queried, out.stale_excluded), (2, 2));
        // r1 catches up: the next query counts its answer.
        backends[1].set_epoch(2);
        let out = g.query(QuorumMode::FirstHealthy, &RequestContext::new(), 0);
        assert!(out.response.is_some());
        assert_eq!(
            (out.replicas_queried, out.stale_excluded),
            (1, 0),
            "r1 is the primary"
        );
    }

    #[test]
    fn adaptive_majority_dispatches_only_quorum_width_on_agreement() {
        // Five agreeing replicas: the quorum needs ⌊5/2⌋+1 = 3 votes,
        // so adaptive fan-out must leave two replicas unqueried.
        let decisions = [Decision::Permit; 5];
        let (g, _) = group(&decisions);
        let pool = pool();
        let out = ask(&g, QuorumMode::Majority, 0, &plan(&pool, true));
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.replicas_queried, 3, "only the quorum width dispatched");
        assert_eq!(out.healthy, 5);
    }

    #[test]
    fn adaptive_majority_escalates_a_contested_vote() {
        // The two likely-fastest replicas split 1-1: neither decision
        // holds an absolute majority of the three eligible replicas, so
        // the third must be pulled in as a needed voter — and the final
        // decision must match what full-width dispatch would say.
        let (g, _) = group(&[Decision::Deny, Decision::Permit, Decision::Permit]);
        let pool = pool();
        let out = ask(&g, QuorumMode::Majority, 0, &plan(&pool, true));
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.replicas_queried, 3, "escalated to the full width");
        assert!(out.disagreement);
    }

    /// Estimates on either side of the hand-off constant.
    const CHEAP_NS: u64 = POOL_HANDOFF_NS / 10;
    const DEAR_NS: u64 = POOL_HANDOFF_NS * 100;

    /// Seeds every replica's estimate (a fresh record takes its first
    /// sample whole), a little apart so the dispatch order is the
    /// configured one.
    fn estimated(group: &ReplicaGroup, ns: u64) {
        for slot in 0..group.len() {
            group.endpoint(slot).record_latency_ns(ns + slot as u64);
        }
    }

    /// A one-worker pool whose worker is held inside a job until the
    /// returned latch is released: whatever a query hands it stays in
    /// the backlog to be counted.
    fn held_pool() -> (FanoutPool, Arc<SlowBackend>) {
        let pool = FanoutPool::new(1);
        let latch = SlowBackend::parked("latch", Decision::Deny);
        let held = latch.clone();
        pool.submit(Box::new(move || {
            held.decide(&RequestContext::new(), 0);
        }));
        latch.wait_parked();
        (pool, latch)
    }

    /// The caller side of the rule: replicas that have been answering
    /// faster than a hand-off are evaluated where the query is, nothing
    /// reaches the pool, the caller stops at the settle point, and every
    /// other count reads what a one-worker pool reads for the same
    /// votes over replicas worth a hand-off.
    #[test]
    fn cheap_replicas_are_evaluated_on_the_caller_and_count_like_pooled_ones() {
        use Decision::{Deny, Permit};
        let (held, latch) = held_pool();
        let one_worker = FanoutPool::new(1);
        let req = RequestContext::new();
        for (mode, adaptive, votes, evaluated) in [
            (
                QuorumMode::Majority,
                false,
                [Permit, Deny, Permit, Permit, Permit],
                4,
            ),
            (QuorumMode::Majority, true, [Permit; 5], 3),
            (
                QuorumMode::UnanimousFailClosed,
                false,
                [Permit, Permit, Deny, Permit, Permit],
                3,
            ),
        ] {
            let (cheap, _) = group(&votes);
            estimated(&cheap, CHEAP_NS);
            let out = cheap.query_planned(mode, &req, 0, &plan(&held, adaptive));
            assert_eq!(
                out.caller_evaluations, evaluated,
                "{mode} adaptive={adaptive}"
            );
            assert_eq!(held.backlog(), 0, "a cheap replica was handed to the pool");

            let (dear, _) = group(&votes);
            estimated(&dear, DEAR_NS);
            let pooled = dear.query_planned(mode, &req, 0, &plan(&one_worker, adaptive));
            assert_eq!(pooled.caller_evaluations, 0, "{mode} adaptive={adaptive}");
            let counted_alike = GroupOutcome {
                caller_evaluations: 0,
                ..out
            };
            assert_eq!(counted_alike, pooled, "{mode} adaptive={adaptive}");
        }
        latch.release();
    }

    /// The pool side: a replica with no estimate (the pool is how it
    /// earns one) and one at least as slow as a hand-off both ride a
    /// lane. (The name is older than the deletion of hedging.)
    #[test]
    fn unmeasured_slow_and_hedged_replicas_go_to_the_pool() {
        let pool = pool();
        for estimate in [None, Some(DEAR_NS), Some(POOL_HANDOFF_NS)] {
            let (g, _) = group(&[Decision::Permit; 3]);
            if let Some(ns) = estimate {
                (0..3).for_each(|slot| g.endpoint(slot).record_latency_ns(ns));
            }
            let out = ask(&g, QuorumMode::Majority, 0, &plan(&pool, false));
            assert_eq!(out.response.unwrap().decision, Decision::Permit);
            assert_eq!(out.replicas_queried, 3);
            assert_eq!(out.caller_evaluations, 0, "estimate {estimate:?}");
        }
    }

    /// A mixed dispatch, as an order of events: the slow replica is
    /// handed to the pool *before* the caller evaluates its cheap ones
    /// (they are let through only once it is parked inside its
    /// evaluation), and the verdict returns while it is still parked.
    /// Released afterwards, it runs to its end: nothing abandons an
    /// evaluation once it has started.
    #[test]
    fn mixed_dispatch_pools_the_straggler_first_and_settles_without_it() {
        let cheap = [
            SlowBackend::parked("r0", Decision::Permit),
            SlowBackend::parked("r1", Decision::Permit),
        ];
        let straggler = SlowBackend::parked("r2", Decision::Deny);
        let (g, _) = grouped(vec![
            cheap[0].clone() as Arc<dyn DecisionBackend>,
            cheap[1].clone(),
            straggler.clone(),
        ]);
        for (slot, ns) in [(0, CHEAP_NS), (1, CHEAP_NS), (2, DEAR_NS)] {
            g.endpoint(slot).record_latency_ns(ns);
        }
        let pool = pool();
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                straggler.wait_parked();
                cheap.iter().for_each(|c| c.release());
            });
            ask(&g, QuorumMode::Majority, 0, &plan(&pool, false))
        });
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.caller_evaluations, 2);
        assert_eq!(out.replicas_queried, 3);
        assert_eq!(
            straggler.answered(),
            0,
            "the verdict waited for the straggler"
        );
        straggler.release();
        straggler.wait_answered();
    }

    /// A full-width majority of five cheap replicas stops evaluating at
    /// the settle point — three evaluations, counted by the backends —
    /// while all five count as dispatched, exactly as two jobs
    /// cancelled at dequeue would.
    #[test]
    fn caller_evaluated_majority_stops_at_the_settle_point() {
        let counting: Vec<Arc<SlowBackend>> = (0..5)
            .map(|i| SlowBackend::parked(format!("r{i}"), Decision::Permit))
            .collect();
        counting.iter().for_each(|c| c.release());
        let backends = counting
            .iter()
            .map(|c| c.clone() as Arc<dyn DecisionBackend>);
        let (g, _) = grouped(backends.collect());
        estimated(&g, CHEAP_NS);
        let (pool, latch) = held_pool();
        let out = ask(&g, QuorumMode::Majority, 0, &plan(&pool, false));
        assert_eq!(out.response.unwrap().decision, Decision::Permit);
        assert_eq!(out.replicas_queried, 5);
        assert_eq!(out.caller_evaluations, 3);
        assert_eq!(counting.iter().map(|c| c.answered()).sum::<usize>(), 3);
        assert_eq!(pool.backlog(), 0);
        latch.release();
    }

    /// An evaluation that was held up once — parked here, preempted on
    /// a busy host — at most doubles its replica's estimate
    /// ([`SAMPLE_CAP`]): the replica is still the caller's on the next
    /// query, so what a query costs does not hang on what the host did
    /// to the one before.
    #[test]
    fn one_held_up_evaluation_does_not_send_a_cheap_replica_to_the_pool() {
        let held_up = SlowBackend::parked("r0", Decision::Permit);
        let (g, _) = grouped(vec![
            held_up.clone() as Arc<dyn DecisionBackend>,
            Arc::new(StaticBackend::new("r1", Decision::Permit)),
            Arc::new(StaticBackend::new("r2", Decision::Permit)),
        ]);
        estimated(&g, CHEAP_NS);
        let (pool, latch) = held_pool();
        let req = RequestContext::new();
        // Unanimity over three permits needs every vote, every time.
        let ask = || {
            let plan = plan(&pool, false);
            g.query_planned(QuorumMode::UnanimousFailClosed, &req, 0, &plan)
        };
        let out = std::thread::scope(|scope| {
            scope.spawn(|| {
                held_up.wait_parked();
                held_up.release();
            });
            ask()
        });
        assert_eq!(out.caller_evaluations, 3);
        let estimate = g.endpoint(0).latency_ewma_ns().unwrap();
        assert!(
            estimate <= 2 * CHEAP_NS,
            "one sample carried a {CHEAP_NS} ns estimate to {estimate} ns"
        );
        assert_eq!(ask().caller_evaluations, 3);
        assert_eq!(pool.backlog(), 0, "the held-up replica went to the pool");
        latch.release();
    }

    /// A replica that panics on the caller — a cheap one of a pooled
    /// plan, any one of a plan with no pool — is a withdrawn vote, not a
    /// dead caller: the two surviving permits still form a majority,
    /// three lost votes are an availability gap, and this thread is
    /// still here to assert it.
    #[test]
    fn a_panic_on_the_caller_is_a_withdrawn_vote() {
        let (pool, latch) = held_pool();
        let req = RequestContext::new();
        let no_pool = FanoutPlan::default();
        for plan in [no_pool, plan(&pool, false)] {
            let (g, _) = lossy_group(&[Decision::Permit; 3], Some(0));
            estimated(&g, CHEAP_NS);
            let out = g.query_planned(QuorumMode::Majority, &req, 0, &plan);
            assert_eq!(out.response.unwrap().decision, Decision::Permit);
            assert_eq!(out.caller_evaluations, 3);

            let lost =
                (0..3).map(|i| Arc::new(Panicky(format!("r{i}"))) as Arc<dyn DecisionBackend>);
            let (g, _) = grouped(lost.collect());
            estimated(&g, CHEAP_NS);
            let out = g.query_planned(QuorumMode::Majority, &req, 0, &plan);
            assert_eq!(out.response, None, "a lost majority is unanswered");
            assert_eq!(out.caller_evaluations, 3);
        }
        assert_eq!(pool.backlog(), 0);
        latch.release();
    }

    /// An escalation fires only once everything in flight has answered,
    /// so there is nothing for it to overlap: it runs on the caller
    /// whatever its replica's estimate — after a contested vote the
    /// caller took itself, and after one the pool took. The lone
    /// first-healthy primary is the same rule.
    #[test]
    fn a_lone_escalation_runs_on_the_caller_whatever_its_estimate() {
        let votes = [Decision::Deny, Decision::Permit, Decision::Permit];
        let req = RequestContext::new();
        let pool = pool();
        for (estimates, on_caller) in [
            ([CHEAP_NS, CHEAP_NS + 1, CHEAP_NS + 2], 3),
            ([CHEAP_NS, CHEAP_NS + 1, DEAR_NS], 3),
            ([DEAR_NS, DEAR_NS + 1, DEAR_NS + 2], 1),
        ] {
            let (g, _) = group(&votes);
            for (slot, ns) in estimates.into_iter().enumerate() {
                g.endpoint(slot).record_latency_ns(ns);
            }
            let out = g.query_planned(QuorumMode::Majority, &req, 0, &plan(&pool, true));
            assert_eq!(out.response.unwrap().decision, Decision::Permit);
            assert_eq!(out.replicas_queried, 3, "escalated to the full width");
            assert_eq!(out.caller_evaluations, on_caller, "{estimates:?}");
        }
        let (g, _) = group(&votes);
        let out = g.query_planned(QuorumMode::FirstHealthy, &req, 0, &plan(&pool, false));
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
        assert_eq!((out.replicas_queried, out.caller_evaluations), (1, 1));
    }

    proptest! {
        /// Decision equivalence for the one collector, against an oracle
        /// that is not the collector: for any vote pattern, under every
        /// quorum mode, every plan answers what [`quorum::combine`]
        /// answers over the drawn decisions of the eligible replicas in
        /// configured order — with or without one lost vote (a
        /// panicking backend), which is that decision removed — while
        /// never dispatching fewer than quorum width or more than every
        /// eligible replica. A lost vote is replaced at once as a needed
        /// voter in every mode (the chosen behaviour for a lost
        /// first-healthy primary, whose replacement is the fastest
        /// remaining replica, not the next configured one — worked out
        /// here from the drawn speeds). Each replica draws no estimate,
        /// one under or one over the hand-off constant, and the plans
        /// are no pool and pooled (full width and adaptive), so the
        /// equivalence covers caller, pooled and mixed dispatch.
        #[test]
        fn every_plan_answers_what_combine_answers_over_the_eligible_votes(
            codes in prop::collection::vec(0u8..4, 3..8),
            lost in 0usize..12,
            speeds in prop::collection::vec(0u8..3, 8..9),
        ) {
            let decisions: Vec<Decision> = codes
                .iter()
                .map(|c| match c {
                    0 => Decision::Permit,
                    1 => Decision::Deny,
                    2 => Decision::NotApplicable,
                    _ => Decision::Indeterminate,
                })
                .collect();
            let eligible = decisions.len();
            let lost = (lost < eligible).then_some(lost);
            let votes: Vec<Response> = (0..eligible)
                .filter(|&slot| lost != Some(slot))
                .map(|slot| Response::decision(decisions[slot]))
                .collect();
            let pool = FanoutPool::new(4);
            let req = RequestContext::new();
            for mode in QuorumMode::ALL {
                let oracle = quorum::combine(mode, &votes);
                // The one documented exception: a lost first-healthy
                // primary is replaced by the fastest remaining replica
                // where `combine` takes the next configured one: the
                // lowest estimate, an unmeasured replica ahead of any,
                // ties to the lowest slot.
                let expected = if mode == QuorumMode::FirstHealthy && lost == Some(0) {
                    let backup = (1..eligible).min_by_key(|&slot| speeds[slot]);
                    decisions[backup.expect("three replicas or more")]
                } else {
                    oracle.response.decision
                };
                for (shape, plan) in plans(&pool) {
                    // A fresh group per run: one run's EWMA samples
                    // must not reorder the next run's dispatch.
                    let (g, _) = lossy_group(&decisions, lost);
                    for (slot, speed) in speeds.iter().take(eligible).enumerate() {
                        match speed {
                            0 => {}
                            1 => g.endpoint(slot).record_latency_ns(CHEAP_NS),
                            _ => g.endpoint(slot).record_latency_ns(DEAR_NS),
                        }
                    }
                    let out = g.query_planned(mode, &req, 0, &plan);
                    prop_assert_eq!(
                        Some(expected),
                        out.response.as_ref().map(|r| r.decision),
                        "{} {} lost={:?} over {:?} at {:?}",
                        mode,
                        shape,
                        lost,
                        decisions,
                        speeds
                    );
                    if plan.pool.is_none() {
                        let asked = 1..=out.replicas_queried;
                        prop_assert!(asked.contains(&out.caller_evaluations));
                    }
                    if mode == QuorumMode::UnanimousFailClosed {
                        // A deny that arrives first ends the query
                        // before the disagreement can be observed.
                        prop_assert!(oracle.fail_closed || !out.fail_closed);
                    } else {
                        prop_assert_eq!(oracle.fail_closed, out.fail_closed);
                    }
                    let quorum_width = if mode.fans_out() { eligible / 2 + 1 } else { 1 };
                    prop_assert!(out.replicas_queried >= quorum_width);
                    prop_assert!(out.replicas_queried <= eligible);
                }
            }
        }
    }

    #[test]
    fn quorum_degrades_with_health() {
        // With the honest majority down, the stale replica wins the vote:
        // the degraded-mode risk ClusterMetrics tracks.
        let (g, dir) = group(&[Decision::Permit, Decision::Permit, Decision::Deny]);
        dir.mark_down("r0");
        dir.mark_down("r1");
        let out = g.query(QuorumMode::Majority, &RequestContext::new(), 0);
        assert_eq!(out.healthy, 1);
        assert_eq!(out.response.unwrap().decision, Decision::Deny);
    }
}
