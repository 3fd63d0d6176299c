//! A deterministic allocation budget for the miss path, in place of a
//! timing assertion: one `Pdp::decide` over the repo benchmark's
//! domain shape costs a small fixed number of heap allocations, none
//! of them per policy walked, and routing a request allocates nothing.
//! Passes or fails on logic — the count is the same on every host — and
//! is the guard that keeps a `Vec<char>` per target match, or a store
//! lookup per policy, from growing back. The work
//! counters beside it say the same of evaluation: a decide reaches the
//! policies its request can apply to, however many the domain holds.
//! The same goes one layer up: a quorum decision costs the decides its
//! settle point needs plus a fixed handful, and a vote withdrawn as
//! behind the domain's epoch costs its decide and nothing more — with
//! or without a scheduler, when its replicas
//! are cheap enough for the collector to evaluate on the caller:
//! nothing is built for a pool the query never reaches — and a batch of
//! repeats costs what one of them does. And one layer further up: an
//! enforcement that misses the PEP's decision cache costs its decide, the
//! source's one-element answer vector and the request's cached copy; one
//! answered by the PEP's decision cache, or by an admitted capability
//! token, allocates nothing at all, denied or permitted — no copy of
//! the stored request, no signing buffer, no formatted reason, and no
//! audit record: its header and ids are copied into rings allocated
//! when the PEP was built, before and after they wrap. Tracing adds
//! nothing to either: a span is a `Copy` record borrowed from its
//! tracer and pushed into a ring allocated with it. Two cases count
//! bytes as well as calls: a provisioned subject is one exact-size
//! record, whether the attribute store is filled directly or through a
//! domain's builder; and a request of short ids is one block, and so
//! is its clone.

use dacs::cluster::{
    ClusterBuilder, DecisionClass, QuorumMode, ReplicaPhase, SchedulerConfig, ShardRouter,
};
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{Domain, DomainBuilder};
use dacs::pdp::CacheConfig;
use dacs::pep::{EnforceRequest, DEFAULT_AUDIT_CAPACITY};
use dacs::pip::StaticAttributes;
use dacs::policy::policy::Decision;
use dacs::policy::request::RequestContext;
use dacs::policy::AttributeId;
use dacs::telemetry::{Stage, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread, and the bytes they asked for
    /// (the harness runs tests on parallel threads; each counts only
    /// its own).
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAllocator;

fn count_one(bytes: usize) {
    // `try_with`: a thread may still allocate while its locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| {
        let (calls, requested) = n.get();
        n.set((calls + 1, requested + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations (and regrowths) this thread makes inside `work`.
fn allocations_in<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let ((calls, _), result) = requested_in(work);
    (calls, result)
}

/// The same with the bytes those allocations (and regrowths, at their
/// new size) asked for.
fn requested_in<R>(work: impl FnOnce() -> R) -> ((u64, u64), R) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = work();
    let after = ALLOCATIONS.with(Cell::get);
    ((after.0 - before.0, after.1 - before.1), result)
}

/// The benchmark's domain: the lockdown gate (doctors may touch
/// `records/*`, role from the PIP) and `aux` quarantine policies whose
/// glob targets match no `records/*` request.
fn domain_with_aux_policies(aux: usize) -> Domain {
    aux_policies_builder(aux).build(&CryptoCtx::new())
}

fn aux_policies_builder(aux: usize) -> DomainBuilder {
    let mut builder = Domain::builder("q").policy(alternating_lockdown_gate("q", 0));
    for k in 0..aux {
        builder = builder.policy_dsl(&format!(
            r#"policy "aux-{k}" deny-overrides {{
                 rule "quarantine" deny {{ target {{ resource "id" ~= "aux-{k}/*"; }} }}
               }}"#
        ));
    }
    builder.subject_attr("user-1@q", "role", "doctor")
}

/// Allocations of one steady-state `decide` (the snapshot is built by
/// an earlier call), with the verdict checked.
fn decide_allocations(domain: &Domain, request: &RequestContext, expected: Decision) -> u64 {
    assert_eq!(domain.pdp.decide(request, 0).decision, expected);
    let (count, response) = allocations_in(|| domain.pdp.decide(request, 1));
    assert_eq!(response.decision, expected);
    count
}

/// What one decide may allocate: the PIP's answer to the gate's
/// condition (the provider's owned bag; its short string sits in the
/// value) — kept in the memo's inline head, whose key is the fixed
/// symbol of `role` — while the condition itself reads the literal and
/// the bag where they live, and nothing scales with the policies
/// walked. A permit makes exactly this, and a deny over a subject the
/// provider does not know makes none.
const DECIDE_BUDGET: u64 = 1;

#[test]
fn decide_allocates_a_small_fixed_number_whatever_the_policy_count() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let stranger = RequestContext::basic("user-2@q", "records/7", "read");

    let seventeen = domain_with_aux_policies(16);
    let thirty_three = domain_with_aux_policies(32);

    let permit = decide_allocations(&seventeen, &doctor, Decision::Permit);
    assert!(
        permit <= DECIDE_BUDGET,
        "one decide over 17 policies made {permit} allocations (budget {DECIDE_BUDGET})"
    );
    let deny = decide_allocations(&seventeen, &stranger, Decision::Deny);
    assert!(
        deny <= DECIDE_BUDGET,
        "a denying decide over 17 policies made {deny} allocations (budget {DECIDE_BUDGET})"
    );

    // Sixteen more policies whose targets do not match add nothing.
    assert_eq!(
        decide_allocations(&thirty_three, &doctor, Decision::Permit),
        permit,
        "allocations grew with the number of non-matching policies"
    );
    assert_eq!(
        decide_allocations(&thirty_three, &stranger, Decision::Deny),
        deny,
        "allocations grew with the number of non-matching policies"
    );
}

/// The same guard for evaluation work, on the counters instead of the
/// allocator: the snapshot's target index hands a `records/*` read the
/// gate and nothing else, so what one decide evaluates does not depend
/// on how many quarantine policies stand beside it, and a write into
/// one quarantined tree reaches exactly that tree's policy more. (The
/// write names a record too: the gate denies a request for `aux-3/7`
/// alone, and the deny-overrides root stops there, index or scan.)
#[test]
fn decide_reaches_the_policies_that_can_apply_whatever_the_policy_count() {
    let read = RequestContext::basic("user-1@q", "records/7", "read");
    let mut write = RequestContext::basic("user-1@q", "records/7", "write");
    write.add(AttributeId::resource("id"), "aux-3/7");
    // Work booked by one steady-state decide, merging included.
    let work_of = |domain: &Domain, request: &RequestContext, expected: Decision| {
        domain.pdp.decide(request, 0);
        let before = domain.pdp.metrics().eval;
        let (count, response) = allocations_in(|| domain.pdp.decide(request, 1));
        assert_eq!(response.decision, expected);
        assert!(
            count <= DECIDE_BUDGET,
            "{count} allocations for {request:?}"
        );
        let after = domain.pdp.metrics().eval;
        (
            after.policies_evaluated - before.policies_evaluated,
            after.targets_checked - before.targets_checked,
        )
    };
    let sixteen = domain_with_aux_policies(16);
    let sixty_four = domain_with_aux_policies(64);
    // The root set, the gate, its rule.
    assert_eq!(work_of(&sixteen, &read, Decision::Permit), (1, 3));
    assert_eq!(work_of(&sixty_four, &read, Decision::Permit), (1, 3));
    // One policy more: its own target and its rule's.
    assert_eq!(work_of(&sixteen, &write, Decision::Deny), (2, 5));
    assert_eq!(work_of(&sixty_four, &write, Decision::Deny), (2, 5));
}

/// What `PdpCluster::decide` may allocate around its replicas'
/// decides when the collector evaluates the whole quorum on the caller
/// — nothing per name looked up, per lock taken or per phase checked,
/// and no channel, request copy, boxed job or shared cancel flag for a
/// pool the query never reaches — and nothing to route it. Today it
/// makes 3: the roster, the dispatch order and the vector of answers.
const COLLECTOR_BUDGET: u64 = 4;

/// Every replica has been answering fast: whatever this build's decides
/// cost, a scheduler's collector keeps them on the caller (an estimate
/// moves a fifth of the way per sample), and equal estimates dispatch
/// in configured order.
fn pin_estimates(domain: &Domain) {
    let cluster = domain.cluster.as_ref().expect("clustered");
    for replica in domain.replica_names() {
        let record = cluster.directory().register(&replica, "q");
        (0..64).for_each(|_| record.record_latency_ns(1));
    }
}

/// The `quorum_miss` shape: one shard, three replicas, majority, no
/// scheduler.
fn quorum_miss_builder() -> DomainBuilder {
    aux_policies_builder(16)
        .clustered(ClusterBuilder::new("q").quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
}

fn quorum_miss_domain() -> Domain {
    quorum_miss_builder().build(&CryptoCtx::new())
}

/// Sets the lifecycle phase of the domain's replica in `slot`.
fn set_phase(domain: &Domain, slot: usize, phase: ReplicaPhase) {
    let cluster = domain.cluster.as_ref().expect("clustered");
    let replica = &domain.replica_names()[slot];
    cluster.directory().register(replica, "q").set_phase(phase);
}

/// A replica's first decide builds its policy snapshot: takes each
/// pair of the three down in turn, so that `decide` asks every replica
/// alone once, then brings them all back.
fn ask_each_replica_alone(domain: &Domain, mut decide: impl FnMut()) {
    for asked in 0..3 {
        (0..3).for_each(|slot| set_phase(domain, slot, ReplicaPhase::Crashed));
        set_phase(domain, asked, ReplicaPhase::Healthy);
        decide();
    }
    (0..3).for_each(|slot| set_phase(domain, slot, ReplicaPhase::Healthy));
}

/// Takes the domain's replica in `slot` down over a policy update and
/// brings it back on the cluster alone, its syndication leaf still cut
/// off, so that it returns behind its domain's epoch. The update
/// pushes the gate already in force, so the verdict does not move;
/// `warm_up` decides once at the new epoch before the return, so the
/// survivors' snapshots are rebuilt before anything is counted.
fn return_behind(domain: &Domain, slot: usize, warm_up: impl FnOnce()) {
    let cluster = domain.cluster.as_ref().expect("clustered");
    let replica = &domain.replica_names()[slot];
    assert!(domain.crash_replica(replica));
    domain.propagate_policy(alternating_lockdown_gate("q", 0), 0);
    warm_up();
    cluster.mark_up(replica);
    assert_eq!(cluster.replica_phase(replica), Some(ReplicaPhase::Healthy));
}

/// Everybody healthy: two agreeing votes settle a majority of three, so
/// the decide costs two engine decides — the third replica is
/// dispatched and never started — plus the fixed handful.
#[test]
fn quorum_decide_allocates_its_replicas_decides_plus_a_fixed_handful() {
    let domain = quorum_miss_domain();
    let cluster = domain.cluster.as_ref().expect("clustered");
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    // Allocations of one decide that dispatches `voters` replicas and
    // asks `decides` of them.
    let quorum_decide = |now_ms, voters, decides| {
        pin_estimates(&domain);
        let asked = cluster.metrics().caller_evaluations;
        let (count, outcome) = allocations_in(|| cluster.decide(&doctor, now_ms));
        assert_eq!(outcome.replicas_queried, voters);
        assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
        assert_eq!(cluster.metrics().caller_evaluations - asked, decides);
        count
    };
    ask_each_replica_alone(&domain, || {
        quorum_decide(0, 1, 1);
    });
    let healthy = quorum_decide(1, 3, 2);
    assert!(
        healthy <= 2 * DECIDE_BUDGET + COLLECTOR_BUDGET,
        "a 1x3 majority decide made {healthy} allocations"
    );
    // A replica alone: one decide fewer, the same fixed handful.
    (1..3).for_each(|slot| set_phase(&domain, slot, ReplicaPhase::Crashed));
    let alone = quorum_decide(2, 1, 1);
    (1..3).for_each(|slot| set_phase(&domain, slot, ReplicaPhase::Healthy));
    let decide = healthy - alone;
    assert!(decide <= DECIDE_BUDGET, "one engine decide made {decide}");
    // A replica that returned behind is `Healthy` and asked first; its
    // answer is behind the domain's epoch, so its vote is withdrawn —
    // and that costs its decide and nothing else. One behind: it and
    // the two current votes, three decides. Two behind: both, and the
    // one current vote is a majority of the votes left, three again.
    let gated_decide = |now_ms, voters, decides, stale| {
        let before = cluster.metrics().stale_decisions_avoided;
        let count = quorum_decide(now_ms, voters, decides);
        let withdrawn = cluster.metrics().stale_decisions_avoided - before;
        assert_eq!(withdrawn, stale, "stale votes withdrawn");
        count
    };
    return_behind(&domain, 2, || {
        quorum_decide(3, 2, 2);
    });
    let one_gated = gated_decide(4, 3, 3, 1);
    return_behind(&domain, 1, || {
        gated_decide(5, 2, 2, 1);
    });
    let two_gated = gated_decide(6, 3, 3, 2);
    assert_eq!(
        one_gated,
        healthy + decide,
        "a withdrawn vote cost more than its decide"
    );
    assert_eq!(
        two_gated, one_gated,
        "a second withdrawn vote changed the cost"
    );
}

/// What `PdpCluster::decide_batch` may allocate besides the decides,
/// whatever the batch's length — and nothing per request: the requests
/// are borrowed, not cloned. Today it makes 4: the routing order, the
/// outcome slots (which the outcomes reuse), the coalescing map and the
/// outcomes.
const BATCH_BUDGET: u64 = 5;

/// What the decision source's one call adds around the cluster: its
/// answer vector, for a batch of one (a lone quorum decide) and for a
/// larger batch (one `decide_batch` call) alike.
const SOURCE_HOP: u64 = 1;

/// A decide of `requests` at `now_ms`: its allocations and the verdicts
/// it returned, counted and read outside the allocation count.
type Decide<'a> = dyn Fn(&[RequestContext], u64) -> (u64, Vec<Option<Decision>>) + 'a;

/// Sixteen copies of one request, handed to the cluster as one batch,
/// cost what the request alone costs: the copies coalesce onto its
/// decision. The decision source around the cluster adds its answer
/// vector to each call, whichever way it routes the batch.
#[test]
fn a_batch_of_repeats_allocates_what_a_batch_of_one_does() {
    let domain = quorum_miss_domain();
    let cluster = domain.cluster.as_ref().expect("clustered");
    let source = domain.decision_source();
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let class = DecisionClass::default();
    let cluster_batch: &Decide = &|requests, now_ms| {
        let (count, outcomes) = allocations_in(|| cluster.decide_batch(requests, now_ms, class));
        let verdicts = outcomes.into_iter().map(|o| o.response.map(|r| r.decision));
        (count, verdicts.collect())
    };
    let source_batch: &Decide = &|requests, now_ms| {
        let (count, answers) =
            allocations_in(|| source.decide_batch_with_grants_classed(requests, now_ms, class));
        let verdicts = answers.into_iter().map(|(r, _)| Some(r.decision));
        (count, verdicts.collect())
    };
    // Allocations of one decide of `n` copies that dispatches `voters`
    // replicas.
    let batch_of = |n: usize, now_ms, voters, decide: &Decide| {
        let requests = vec![doctor.clone(); n];
        pin_estimates(&domain);
        let before = cluster.metrics();
        let (count, verdicts) = decide(&requests, now_ms);
        assert_eq!(verdicts, vec![Some(Decision::Permit); n]);
        let after = cluster.metrics();
        assert_eq!(after.queries - before.queries, 1);
        assert_eq!(after.replica_queries - before.replica_queries, voters);
        assert_eq!(after.coalesced - before.coalesced, n as u64 - 1);
        assert_eq!(
            after.caller_evaluations - before.caller_evaluations,
            voters.min(2)
        );
        count
    };
    ask_each_replica_alone(&domain, || {
        batch_of(1, 0, 1, cluster_batch);
    });
    let one = batch_of(1, 1, 3, cluster_batch);
    let sixteen = batch_of(16, 2, 3, cluster_batch);
    assert_eq!(sixteen, one, "sixteen copies cost more than one");
    let budget = 2 * DECIDE_BUDGET + COLLECTOR_BUDGET + BATCH_BUDGET;
    assert!(one <= budget, "a batch of one made {one} allocations");

    // Through the decision source, sixteen copies are that same call,
    // and one request a lone quorum decide.
    let through_source = batch_of(16, 3, 3, source_batch);
    assert_eq!(through_source, sixteen + SOURCE_HOP, "a batch's source hop");
    pin_estimates(&domain);
    let (lone, _) = allocations_in(|| cluster.decide_classed(&doctor, 4, class));
    let through_source = batch_of(1, 5, 3, source_batch);
    assert_eq!(
        through_source,
        lone + SOURCE_HOP,
        "a lone query's source hop"
    );
}

/// The `planned_quorum` shape: one shard, five replicas, adaptive
/// majority behind a one-worker scheduler — with every replica's
/// estimate under the hand-off constant, so the three-wide quorum is
/// evaluated on the caller by the same loop for the same handful:
/// before the collector could evaluate on the caller the same decide
/// made 40 allocations on this thread (and its three decides' 21 on the
/// worker's); today it makes 12.
#[test]
fn a_caller_evaluated_planned_decide_builds_nothing_for_the_pool() {
    let scheduler = SchedulerConfig::new(1).with_adaptive_fanout(true);
    let domain = aux_policies_builder(16)
        .clustered(
            ClusterBuilder::new("q")
                .quorum(QuorumMode::Majority)
                .scheduler(scheduler),
        )
        .cluster_topology(1, 5)
        .build(&CryptoCtx::new());
    let cluster = domain.cluster.as_ref().expect("clustered");
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let planned_decide = |now_ms| {
        pin_estimates(&domain);
        let on_caller = cluster.metrics().caller_evaluations;
        let class = DecisionClass::interactive();
        let (count, outcome) = allocations_in(|| cluster.decide_classed(&doctor, now_ms, class));
        assert_eq!(outcome.replicas_queried, 3);
        assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
        assert_eq!(cluster.metrics().caller_evaluations - on_caller, 3);
        count
    };
    // The first decides build each replica's policy snapshot (the
    // quorum is whichever three sort first).
    (0..3).for_each(|now_ms| {
        planned_decide(now_ms);
    });
    let planned = planned_decide(3).min(planned_decide(4));
    let budget = 3 * DECIDE_BUDGET + COLLECTOR_BUDGET;
    assert!(
        planned <= budget,
        "a caller-evaluated 1x5 adaptive-majority decide made {planned} allocations (budget {budget})"
    );
}

/// What a `Pep::serve` answered without the decision source may
/// allocate, while the audit ring fills as after it wraps: nothing. The
/// record is a header and three id copies into the two flat rings the
/// PEP allocated when it was built.
const HIT_BUDGET: u64 = 0;

/// Allocations of each of two steady-state `serve`s of `request` that
/// come out `allowed` (an earlier serve went to the source and filled
/// the cache or admitted the token), the larger of the two.
fn hit_allocations(domain: &Domain, request: &RequestContext, allowed: bool) -> u64 {
    let serve = |now_ms| {
        let (count, result) =
            allocations_in(|| domain.pep.serve(EnforceRequest::of(request, now_ms)));
        assert_eq!(result.allowed, allowed);
        count
    };
    serve(0);
    serve(1).max(serve(2))
}

/// A domain whose PEP answers a repeated request from its decision
/// cache, and one whose PEP answers it from an admitted token.
fn hit_domains() -> [Domain; 2] {
    let cached = aux_policies_builder(16).pep_cache(CacheConfig {
        capacity: 64,
        ttl_ms: 1_000,
    });
    let tokens = aux_policies_builder(16).capability(1_000);
    [cached, tokens].map(|builder| builder.build(&CryptoCtx::new()))
}

#[test]
fn a_cache_hit_and_a_token_hit_allocate_nothing_while_the_audit_ring_fills() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let [cached, tokens] = hit_domains();

    let cache_hit = hit_allocations(&cached, &doctor, true);
    assert_eq!(cached.pep.stats().cache_hits, 2, "both were cache hits");
    assert_eq!(cache_hit, HIT_BUDGET, "a PEP-cache hit allocated");

    // A denied hit too: its reason is a borrowed fixed text.
    let stranger = RequestContext::basic("user-2@q", "records/7", "read");
    let denied_hit = hit_allocations(&cached, &stranger, false);
    assert_eq!(cached.pep.stats().cache_hits, 4, "all four were cache hits");
    assert_eq!(denied_hit, HIT_BUDGET, "a denied PEP-cache hit allocated");

    let token_hit = hit_allocations(&tokens, &doctor, true);
    assert_eq!(tokens.pep.stats().token_hits, 2, "both were token hits");
    assert_eq!(token_hit, HIT_BUDGET, "a token hit allocated");
}

/// Served past the audit ring's capacity, a hit displaces the oldest
/// record and still allocates nothing: not for the hash, the look-up,
/// the full-request check, the result or the record.
#[test]
fn a_hit_allocates_nothing_once_the_audit_ring_has_wrapped() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    for domain in hit_domains() {
        let serve = || domain.pep.serve(EnforceRequest::of(&doctor, 1));
        (0..=DEFAULT_AUDIT_CAPACITY).for_each(|_| assert!(serve().allowed));
        let before = domain.pep.stats();
        assert_eq!(before.audit_dropped, 1, "the ring has wrapped");
        let (count, result) = allocations_in(serve);
        assert!(result.allowed);
        let after = domain.pep.stats();
        assert_eq!(
            (after.cache_hits + after.token_hits) - (before.cache_hits + before.token_hits),
            1,
            "answered without the decision source"
        );
        assert_eq!(after.audit_dropped, 2);
        assert_eq!(count, HIT_BUDGET, "a hit on a wrapped ring allocated");
    }
}

/// What a `Pep::serve` that misses its decision cache allocates besides
/// the one `Pdp::decide` it asks: the source's one-element answer
/// vector, and the request's copy the cache keeps (one block: its short
/// ids sit in its entries). The hash, the lookups, the result and the
/// audit record allocate nothing, as on a hit.
const MISS_OVERHEAD: u64 = 2;

#[test]
fn a_cache_miss_allocates_its_decide_plus_the_answer_vector_and_the_cached_copy() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let domain = aux_policies_builder(16)
        .pep_cache(CacheConfig {
            capacity: 64,
            ttl_ms: 10,
        })
        .build(&CryptoCtx::new());
    let decide = decide_allocations(&domain, &doctor, Decision::Permit);
    // A TTL apart, every serve misses: the expired entry is dropped
    // and its slot reused by the insert. The first serves build the
    // cache's slot and free list.
    let serve = |now_ms| {
        let (count, result) =
            allocations_in(|| domain.pep.serve(EnforceRequest::of(&doctor, now_ms)));
        assert!(result.allowed);
        count
    };
    (0..3).for_each(|k| {
        serve(10 * k);
    });
    let miss = serve(30);
    let cache = domain.pep.cache_stats().expect("cached");
    assert_eq!((cache.hits, cache.misses), (0, 4), "every serve missed");
    assert_eq!(
        miss,
        decide + MISS_OVERHEAD,
        "a PEP-cache miss made {miss} allocations around a {decide}-allocation decide"
    );
}

/// Tracing allocates nothing: with a `Telemetry` attached, a PEP-cache
/// hit still allocates nothing, and a 1×3 majority decide allocates
/// exactly what the untraced one does — no note is formatted, no span
/// clones a handle, and the span sink never grows.
#[test]
fn a_traced_request_allocates_what_an_untraced_one_does() {
    let doctor = RequestContext::basic("user-1@q", "records/7", "read");
    let telemetry = Arc::new(Telemetry::new());
    let cached = aux_policies_builder(16)
        .pep_cache(CacheConfig {
            capacity: 64,
            ttl_ms: 1_000,
        })
        .telemetry(Arc::clone(&telemetry))
        .build(&CryptoCtx::new());
    let cache_hit = hit_allocations(&cached, &doctor, true);
    assert_eq!(cached.pep.stats().cache_hits, 2, "both were cache hits");
    assert_eq!(cache_hit, HIT_BUDGET, "a traced PEP-cache hit allocated");

    // One steady-state decide: two settling votes, the third replica
    // dispatched and never started.
    let decide = |domain: &Domain| {
        let cluster = domain.cluster.as_ref().expect("clustered");
        ask_each_replica_alone(domain, || {
            cluster.decide(&doctor, 0);
        });
        pin_estimates(domain);
        let (count, outcome) = allocations_in(|| cluster.decide(&doctor, 1));
        assert_eq!(outcome.replicas_queried, 3);
        assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
        count
    };
    let untraced = decide(&quorum_miss_domain());
    let telemetry = Arc::new(Telemetry::new());
    let traced_domain = quorum_miss_builder()
        .telemetry(Arc::clone(&telemetry))
        .build(&CryptoCtx::new());
    let traced = decide(&traced_domain);
    let spans = telemetry.tracer().snapshot();
    let replica_spans = spans
        .iter()
        .filter(|s| s.stage == Stage::ReplicaDecide)
        .count();
    assert_eq!(replica_spans, 3 + 2, "the decides were traced");
    assert_eq!(traced, untraced, "tracing a quorum decide allocated");
}

/// Subjects provisioned, one `role` each, in the provisioning case.
const SUBJECTS: u64 = 1_024;

/// What provisioning one subject with one attribute may allocate: its
/// record — the short key sits in its bucket and the short value in the
/// record's one entry; no spare slots, no copy of the name, no second
/// copy held by the domain's builder.
const PROVISION_BUDGET: u64 = 1;

/// The bytes it may ask for, the store's table included: a 32-byte
/// record, and a share of the table — a 41-byte bucket (the key's
/// 24-byte `Str`, the record's 16-byte handle and a control byte),
/// 2 048 of them for 1 024 subjects, and as many again in the smaller
/// tables it outgrew: 196 today. (With the key and the value each in a
/// block of its own, 197 in 3 allocations; as a map of owned keys to
/// four-slot vectors of owned names, with 49-byte buckets, about 410.)
const PROVISION_BYTES: u64 = 197;

/// The allocations and bytes `provision` makes to provision
/// [`SUBJECTS`] subjects, whose names are built before the count; the
/// store it returns is checked after it.
fn provisioning(provision: impl FnOnce(&[String]) -> Arc<StaticAttributes>) -> (u64, u64) {
    let names: Vec<String> = (0..SUBJECTS).map(|u| format!("user-{u:04}@q")).collect();
    let (counts, store) = requested_in(|| provision(&names));
    assert_eq!(
        store.attributes_of("user-0007@q"),
        vec![("role".to_owned(), "doctor".into())]
    );
    counts
}

/// Checks one way's counts against the budgets. The table grows once
/// per doubling, so that many allocations are granted besides them.
fn assert_provisioned_within_budget(way: &str, (calls, bytes): (u64, u64)) {
    let doublings = u64::from(SUBJECTS.ilog2()) + 1;
    assert!(
        calls <= PROVISION_BUDGET * SUBJECTS + doublings,
        "{way}: {SUBJECTS} subjects made {calls} allocations"
    );
    assert!(
        bytes <= PROVISION_BYTES * SUBJECTS,
        "{way}: {SUBJECTS} subjects asked for {bytes} bytes"
    );
}

/// The attribute store keeps one exact-size record per subject, and a
/// domain's builder writes into the store its domain keeps: provisioning
/// a subject through either costs its record.
#[test]
fn provisioning_a_subject_allocates_its_record_and_nothing_more() {
    let store = provisioning(|names| {
        let store = Arc::new(StaticAttributes::new());
        for name in names {
            store.add_subject_attr(name, "role", "doctor");
        }
        store
    });
    assert_provisioned_within_budget("the store", store);

    // The builder's share: a domain with the subjects, less the same
    // domain without them. A first build initialises what any build
    // initialises once.
    let crypto = CryptoCtx::new();
    let build = |names: &[String]| {
        let mut builder = Domain::builder("q").policy(alternating_lockdown_gate("q", 0));
        for name in names {
            builder = builder.subject_attr(name, "role", "doctor");
        }
        Arc::clone(&builder.build(&crypto).idp_attributes)
    };
    build(&[]);
    let (bare_calls, bare_bytes) = requested_in(|| build(&[])).0;
    let (calls, bytes) = provisioning(build);
    assert_provisioned_within_budget("the builder", (calls - bare_calls, bytes - bare_bytes));
}

/// The router hashes the ids where the request holds them, and a
/// one-shard router does not hash at all.
#[test]
fn routing_allocates_nothing() {
    let request = RequestContext::basic("user-1@q", "records/7", "read");
    for shards in [1, 2] {
        let router = ShardRouter::new(shards);
        let (count, shard) = allocations_in(|| router.shard_for(&request));
        assert!(shard < shards);
        assert_eq!(count, 0, "shard_for over {shards} shards allocated");
    }
}

/// A request is one vector of three 32-byte entries, each holding its
/// name (an interned symbol) and its one value inline, its short id
/// text in place — and its clone, which every request-cache insert
/// makes, is the same one block. (With names as shared statics and ids
/// as `String`s it asked for 192 bytes in one allocation, its clone for
/// 192 plus the ids in four; as a B-tree of bags grown to capacity four,
/// 926 bytes in seven allocations, its clone 734 in ten; as a vector of
/// owned names and bag vectors, 246 bytes in seven, its clone 270 in
/// ten.)
#[test]
fn a_basic_request_asks_for_the_bytes_it_holds() {
    let ids = || {
        (
            String::from("user-1234@q"),
            String::from("records/7"),
            String::from("read"),
        )
    };
    let (subject, resource, action) = ids();
    // The id strings are moved in, so what is counted is the container.
    let ((calls, bytes), request) =
        requested_in(|| RequestContext::basic(subject, resource, action));
    assert_eq!((calls, bytes), (1, 96), "the entries, and nothing else");

    let ((calls, bytes), copy) = requested_in(|| request.clone());
    assert_eq!(copy, request);
    assert_eq!((calls, bytes), (1, 96), "its clone is the entries again");
}

#[test]
fn request_id_accessors_do_not_allocate() {
    let request = RequestContext::basic("user-1@q", "records/7", "read");
    let (count, ids) = allocations_in(|| {
        (
            request.subject_id(),
            request.resource_id(),
            request.action_id(),
        )
    });
    assert_eq!(ids, (Some("user-1@q"), Some("records/7"), Some("read")));
    assert_eq!(count, 0);
}
