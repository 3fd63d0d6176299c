//! Snapshot coherence of `Pdp::decide`, against one oracle.
//!
//! The PDP evaluates a per-epoch resolved copy of its root instead of
//! walking references through the PAP. The oracle is the reference
//! walk — `Evaluator::with_source(..).evaluate_element(&root, pap)`, a
//! fresh resolve of the PAP as it stands, evaluated unindexed, sharing
//! no snapshot or index with the PDP — and every `Response`
//! (decision, obligations, status text) must equal it after any
//! sequence of PAP mutations, refused ones included. The work counters are compared in two halves: the
//! snapshot's target index leaves out of a set's loop the children the
//! request cannot apply to, so the structural counters (policies, sets,
//! rules, targets) may only *fall* against the walk, while the
//! expression counters stay equal — a child left out never reached a
//! condition. Fixed cases pin what the PAP refuses to store (a cycle, a
//! tree that would reach the element limit) and what the resolver
//! leaves as a reference (a dangling one), with exact counters — the
//! index leaves nothing out of their loops — and a two-thread case pins
//! the coherence rule: a `decide` that starts after a mutation returned
//! never sees the tree from before it.

use dacs::core::scenario::alternating_lockdown_gate;
use dacs::pap::{Pap, PapError, PolicyEpoch};
use dacs::pdp::Pdp;
use dacs::pep::{EnforceRequest, Pep};
use dacs::pip::{PipRegistry, ResolvingSource, StaticAttributes};
use dacs::policy::dsl::parse_policy;
use dacs::policy::eval::{EvalMetrics, Evaluator, Response, Status, TreeError};
use dacs::policy::policy::{CombiningAlg, Decision, Policy, PolicyElement, PolicyId, PolicySet};
use dacs::policy::request::RequestContext;
use dacs::policy::AttributeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};

const ROOT: &str = "root";
const INNER: &str = "inner";
const POLICY_IDS: [&str; 5] = ["p0", "p1", "p2", "p3", "p4"];

fn root_element() -> PolicyElement {
    PolicyElement::PolicySetRef(PolicyId::new(ROOT))
}

/// A PIP that knows `role` for two of the three subjects the request
/// pool uses, so conditions on it permit, deny and come up empty.
fn pips() -> Arc<PipRegistry> {
    let statics = Arc::new(StaticAttributes::new());
    statics.add_subject_attr("alice", "role", "doctor");
    statics.add_subject_attr("bob", "role", "auditor");
    let mut registry = PipRegistry::new();
    registry.add(statics);
    Arc::new(registry)
}

/// Every subject × resource × action, then the requests an index has
/// to get right and a scan gets right for free: no `resource.id` at all
/// (an empty bag is `NoMatch`), two of them (either may match), one
/// that is an integer (a glob on it is `Indeterminate`), and an integer
/// beside a string.
fn request_pool() -> Vec<RequestContext> {
    let mut pool = Vec::new();
    for subject in ["alice", "bob", "carol"] {
        for resource in ["records/1", "aux/9", "lab/3"] {
            for action in ["read", "write"] {
                pool.push(RequestContext::basic(subject, resource, action));
            }
        }
    }
    let without_resource = |subject: &str, action: &str| {
        let mut request = RequestContext::new();
        request.add(AttributeId::subject("id"), subject);
        request.add(AttributeId::action("id"), action);
        request
    };
    let resource = || AttributeId::resource("id");
    for subject in ["alice", "bob"] {
        pool.push(without_resource(subject, "read"));
        let mut two = RequestContext::basic(subject, "lab/3", "write");
        two.add(resource(), "aux/9");
        pool.push(two);
        let mut integer = without_resource(subject, "read");
        integer.add(resource(), 9i64);
        pool.push(integer.clone());
        integer.add(resource(), "records/1");
        pool.push(integer);
    }
    pool
}

/// The reference walk: what `Pdp::decide` must return right now.
fn oracle(
    pap: &Pap,
    pips: &PipRegistry,
    root: &PolicyElement,
    request: &RequestContext,
    now_ms: u64,
) -> (Response, EvalMetrics) {
    let source = ResolvingSource::new(request, pips, now_ms);
    let mut evaluator = Evaluator::with_source(request, &source);
    // The walk knows no epoch; a PDP stamps its answer with the PAP's.
    let response = Response {
        epoch: pap.policy_epoch(),
        ..evaluator.evaluate_element(root, pap)
    };
    (response, evaluator.metrics)
}

fn pick(rng: &mut StdRng, options: &[&'static str]) -> &'static str {
    options[rng.gen_range(0..options.len())]
}

/// The six work counters of an evaluation, for subtraction: the four
/// structural ones, then the two expression ones.
fn counts(m: EvalMetrics) -> [u64; 6] {
    [
        m.policies_evaluated,
        m.policy_sets_evaluated,
        m.rules_evaluated,
        m.targets_checked,
        m.expr.functions_applied,
        m.expr.attribute_lookups,
    ]
}

/// How many of [`counts`] are structural.
const STRUCTURAL: usize = 4;

/// Decides on `pdp`; returns the response and the work it booked.
fn decide_counting(pdp: &Pdp, request: &RequestContext, now_ms: u64) -> (Response, [u64; 6]) {
    let before = counts(pdp.metrics().eval);
    let response = pdp.decide(request, now_ms);
    let after = counts(pdp.metrics().eval);
    (response, std::array::from_fn(|i| after[i] - before[i]))
}

/// A target on `resource.id`: literals, globs with and without a
/// literal prefix, a two-way `any` on the one attribute, and operators
/// that name no value.
fn resource_target(rng: &mut StdRng) -> &'static str {
    pick(
        rng,
        &[
            r#"resource "id" ~= "records/*";"#,
            r#"resource "id" ~= "aux/*";"#,
            r#"resource "id" ~= "l?b/*";"#,
            r#"resource "id" ~= "records/?";"#,
            r#"resource "id" ~= "*";"#,
            r#"resource "id" ~= "*/9";"#,
            r#"resource "id" == "records/1";"#,
            r#"resource "id" == "aux/9";"#,
            r#"resource "id" == 9;"#,
            r#"resource "id" contains "ec";"#,
            r#"resource "id" >= "b";"#,
            r#"any { all { resource "id" == "lab/3"; } all { resource "id" ~= "aux/*"; } }"#,
        ],
    )
}

/// A policy drawn from a small grammar: every rule-combining
/// algorithm (the invalid `only-one-applicable` included); own targets
/// that are match-all, on `resource.id` ([`resource_target`]), or an
/// `any` of two `all`s over different attributes; rule targets on the
/// action, on the resource, on both or on nothing — and, for a third of
/// the policies, a resource target on *every* rule under a match-all
/// own target, the quarantine shape the index posts by its rules;
/// PIP-backed conditions, a condition on an attribute nobody provides
/// (an evaluation error), and obligations at rule and policy level.
fn random_policy(rng: &mut StdRng, id: &str) -> Policy {
    let alg = CombiningAlg::ALL[rng.gen_range(0..CombiningAlg::ALL.len())];
    let mut src = format!("policy \"{id}\" {alg} {{\n");
    let quarantine_shape = rng.gen_bool(0.33);
    if !quarantine_shape && rng.gen_bool(0.6) {
        let target = if rng.gen_bool(0.15) {
            r#"any { all { resource "id" ~= "aux/*"; } all { action "id" == "write"; } }"#
        } else {
            resource_target(rng)
        };
        src += &format!("  target {{ {target} }}\n");
    }
    let rules = if quarantine_shape {
        rng.gen_range(1..4)
    } else {
        rng.gen_range(0..4)
    };
    for r in 0..rules {
        let effect = pick(rng, &["permit", "deny"]);
        src += &format!("  rule \"r{r}\" {effect} {{\n");
        let on_action = rng.gen_bool(0.5);
        let on_resource = quarantine_shape || rng.gen_bool(0.25);
        if on_action || on_resource {
            src += "    target {";
            if on_action {
                let action = pick(rng, &["read", "write"]);
                src += &format!(" action \"id\" == \"{action}\";");
            }
            if on_resource {
                src += &format!(" {}", resource_target(rng));
            }
            src += " }\n";
        }
        match rng.gen_range(0..5) {
            0 | 1 => {
                let role = pick(rng, &["doctor", "auditor"]);
                src += &format!("    condition is-in(\"{role}\", attr(subject, \"role\"))\n");
            }
            2 => src += "    condition eq(attr!(subject, \"clearance\"), \"top\")\n",
            _ => {}
        }
        if rng.gen_bool(0.4) {
            src += &format!(
                "    obligation \"log-{id}\" on {effect} {{ \"who\" = attr(subject, \"id\"); }}\n"
            );
        }
        src += "  }\n";
    }
    if rng.gen_bool(0.3) {
        let on = pick(rng, &["permit", "deny"]);
        src += &format!(
            "  obligation \"audit-{id}\" on {on} {{ \"what\" = attr(resource, \"id\"); }}\n"
        );
    }
    src += "}\n";
    parse_policy(&src).unwrap_or_else(|e| panic!("generated policy parses: {e}\n{src}"))
}

/// A stored set: references to a random subset of the policy ids
/// (some never submitted, some removed — dangling), sometimes an
/// inline policy, and set references: the root's go to `inner`,
/// `inner`'s back to the root or to itself. A back-edge closes a cycle
/// through `inner`, which the PAP refuses to store.
fn random_set(rng: &mut StdRng, id: &str) -> PolicySet {
    let alg = CombiningAlg::ALL[rng.gen_range(0..CombiningAlg::ALL.len())];
    let mut set = PolicySet::new(id, alg);
    for policy in POLICY_IDS {
        if rng.gen_bool(0.5) {
            set = set.with_policy_ref(policy);
        }
    }
    if rng.gen_bool(0.2) {
        set = set.with_policy(random_policy(rng, "inline"));
    }
    let mut more = rng.gen_bool(0.5);
    while more {
        let target = if id == ROOT || rng.gen_bool(0.3) {
            INNER
        } else {
            ROOT
        };
        set.elements
            .push(PolicyElement::PolicySetRef(PolicyId::new(target)));
        more = rng.gen_bool(0.05);
    }
    set
}

/// One random mutation of `pap`, or the set install it draws, which
/// the caller makes. Refused operations (rollback to a version that
/// does not exist, removing an absent policy) are part of the
/// schedule: they must leave the PDP coherent too.
fn mutate(rng: &mut StdRng, pap: &Pap, stamp: &mut u64, now_ms: u64) -> Option<PolicySet> {
    let id = POLICY_IDS[rng.gen_range(0..POLICY_IDS.len())];
    match rng.gen_range(0..6) {
        0 | 1 => {
            pap.submit("admin", random_policy(rng, id), now_ms)
                .expect("no admin policy installed");
        }
        2 => {
            let _ = pap.rollback("admin", &PolicyId::new(id), rng.gen_range(0..4), now_ms);
        }
        3 => {
            let _ = pap.remove("admin", &PolicyId::new(id), now_ms);
        }
        4 => {
            *stamp += 1;
            pap.apply_syndicated_stamped(
                "parent",
                random_policy(rng, id),
                PolicyEpoch(*stamp),
                now_ms,
            );
        }
        _ => {
            let set = if rng.gen_bool(0.5) { ROOT } else { INNER };
            return Some(random_set(rng, set));
        }
    }
    None
}

/// Installs `set`. A refused install is no mutation: the PAP's epoch
/// and both PDPs' answers to `request` stay as they were.
fn install(pap: &Pap, pdp: &Pdp, set: PolicySet, request: &RequestContext, now_ms: u64) {
    let epoch = pap.epoch();
    let before = pdp.decide(request, now_ms);
    if pap.install_set(set).is_err() {
        assert_eq!(pap.epoch(), epoch, "a refused install moved the epoch");
        assert_eq!(pdp.decide(request, now_ms), before);
    }
}

fn run_schedule(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pap = Arc::new(Pap::new("pap.snapshot"));
    let pips = pips();
    let root = root_element();
    let requests = request_pool();
    let mut stamp = 0u64;
    // Populate before the PDPs exist: their first snapshot then holds
    // resolved bodies, so a PDP that kept it past a mutation would
    // answer from stale content rather than look the references up.
    for id in POLICY_IDS {
        pap.submit("admin", random_policy(&mut rng, id), 0).unwrap();
    }
    // Either may close a cycle; a refused set is not stored.
    let _ = pap.install_set(random_set(&mut rng, INNER));
    let _ = pap.install_set(random_set(&mut rng, ROOT));
    let pdp = Pdp::new("pdp.schedule", pap.clone(), root.clone(), pips.clone());

    for step in 0..160u64 {
        if rng.gen_bool(0.4) {
            if let Some(set) = mutate(&mut rng, &pap, &mut stamp, step) {
                let request = &requests[rng.gen_range(0..requests.len())];
                install(&pap, &pdp, set, request, step);
            }
            continue;
        }
        let request = &requests[rng.gen_range(0..requests.len())];
        let (expected, work) = oracle(&pap, &pips, &root, request, step);

        let (got, spent) = decide_counting(&pdp, request, step);
        assert_eq!(got, expected, "seed {seed} step {step}: {request:?}");
        // The snapshot removes look-ups, and its index the children
        // the request cannot apply to: structural work may only fall,
        // and what reaches a condition is what the walk reached.
        let work = counts(work);
        assert_eq!(
            spent[STRUCTURAL..],
            work[STRUCTURAL..],
            "seed {seed} step {step}: expression work diverged from the reference walk"
        );
        assert!(
            spent
                .iter()
                .zip(work)
                .all(|(spent, walked)| *spent <= walked),
            "seed {seed} step {step}: {spent:?} exceeds the reference walk's {work:?}"
        );
    }
}

proptest! {
    #[test]
    fn decide_equals_the_reference_walk_under_random_pap_schedules(seed in any::<u64>()) {
        run_schedule(seed);
    }
}

fn permit_all(id: &str) -> Policy {
    parse_policy(&format!(
        r#"policy "{id}" deny-unless-permit {{ rule "ok" permit {{ }} }}"#
    ))
    .expect("static DSL")
}

/// A PDP over a fresh PAP holding `sets`, rooted at `ROOT`.
fn pdp_over(sets: Vec<PolicySet>, policies: Vec<Policy>) -> (Arc<Pap>, Arc<Pdp>) {
    let pap = Arc::new(Pap::new("pap.fixed"));
    for policy in policies {
        pap.submit("admin", policy, 0).expect("no admin policy");
    }
    for set in sets {
        pap.install_set(set)
            .expect("an acyclic set within both limits");
    }
    let pdp = Arc::new(Pdp::new("pdp.fixed", pap.clone(), root_element(), pips()));
    (pap, pdp)
}

/// The response and the work of `pdp.decide`, both equal to the
/// reference walk's.
fn assert_matches_oracle(pap: &Pap, pdp: &Pdp, request: &RequestContext) -> (Response, [u64; 6]) {
    let (expected, work) = oracle(pap, pdp.pips(), &root_element(), request, 0);
    let (got, spent) = decide_counting(pdp, request, 0);
    assert_eq!(got, expected);
    assert_eq!(spent, counts(work));
    (got, spent)
}

#[test]
fn dangling_policy_ref_stays_a_reference_and_is_indeterminate() {
    let root = PolicySet::new(ROOT, CombiningAlg::DenyOverrides)
        .with_policy_ref("present")
        .with_policy_ref("absent");
    let (pap, pdp) = pdp_over(vec![root], vec![permit_all("present")]);
    let request = RequestContext::basic("alice", "records/1", "read");

    let (response, _) = assert_matches_oracle(&pap, &pdp, &request);
    assert_eq!(response.decision, Decision::Indeterminate);
    assert_eq!(
        response.status,
        Status::Error("unresolved policy reference absent".into())
    );

    // Submitting the missing policy is a mutation like any other: the
    // next decide resolves it.
    pap.submit("admin", permit_all("absent"), 1).unwrap();
    let (response, _) = assert_matches_oracle(&pap, &pdp, &request);
    assert_eq!(response.decision, Decision::Permit);
}

fn with_set_refs(mut set: PolicySet, to: &str, edges: usize) -> PolicySet {
    for _ in 0..edges {
        set.elements
            .push(PolicyElement::PolicySetRef(PolicyId::new(to)));
    }
    set
}

/// A set that references itself once or twice is not stored, so the
/// root dangles: `Indeterminate`, and the PEP denies. A root built in
/// code that the resolver refuses denies the same way.
#[test]
fn a_self_referencing_set_is_refused_at_install_and_the_pep_denies() {
    let request = RequestContext::basic("alice", "records/1", "read");
    let denies = |pdp: Arc<Pdp>| {
        let pep = Pep::builder("pep.fixed").source(pdp).build();
        let outcome = pep.serve(EnforceRequest::of(&request, 0));
        assert!(!outcome.allowed, "Indeterminate must fail safe");
        assert_eq!(pep.stats().failsafe_denials, 1);
    };
    for back_edges in [1, 2] {
        let (pap, pdp) = pdp_over(Vec::new(), vec![permit_all("present")]);
        let root = with_set_refs(
            PolicySet::new(ROOT, CombiningAlg::DenyOverrides).with_policy_ref("present"),
            ROOT,
            back_edges,
        );
        let epoch = pap.epoch();
        assert_eq!(
            pap.install_set(root),
            Err(PapError::Tree(TreeError::Cycle(PolicyId::new(ROOT))))
        );
        assert_eq!(pap.epoch(), epoch);
        let (response, _) = assert_matches_oracle(&pap, &pdp, &request);
        assert_eq!(
            response.status,
            Status::Error("unresolved policy set reference root".into())
        );
        denies(pdp);
    }

    let mut deep = PolicySet::new("leaf", CombiningAlg::DenyOverrides).with_policy_ref("present");
    for level in 0..64 {
        let id = format!("level-{level}");
        deep = PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides).with_policy_set(deep);
    }
    let pap = Arc::new(Pap::new("pap.fixed"));
    pap.submit("admin", permit_all("present"), 0).unwrap();
    let root = PolicyElement::PolicySet(Box::new(deep));
    let pdp = Arc::new(Pdp::new("pdp.inline", pap.clone(), root.clone(), pips()));
    let (expected, _) = oracle(&pap, pdp.pips(), &root, &request, 0);
    let (response, spent) = decide_counting(&pdp, &request, 0);
    assert_eq!(response, expected);
    assert_eq!(
        response.status,
        Status::Error(TreeError::TooDeep.to_string())
    );
    assert_eq!(spent, [0; 6], "a refused tree evaluates nothing");
    denies(pdp);
}

/// Two sets that reference each other: whichever is stored second
/// closes the cycle and is refused; the first stays, its reference to
/// the second dangling.
#[test]
fn mutually_referencing_sets_are_refused_at_install() {
    for edges in [1, 2] {
        let root = with_set_refs(
            PolicySet::new(ROOT, CombiningAlg::PermitOverrides).with_policy_ref("present"),
            INNER,
            edges,
        );
        let inner = with_set_refs(
            PolicySet::new(INNER, CombiningAlg::DenyUnlessPermit),
            ROOT,
            edges,
        );
        for (first, second) in [(&root, &inner), (&inner, &root)] {
            let (pap, pdp) = pdp_over(vec![first.clone()], vec![permit_all("present")]);
            assert_eq!(
                pap.install_set(second.clone()),
                Err(PapError::Tree(TreeError::Cycle(second.id.clone())))
            );
            for request in request_pool() {
                assert_matches_oracle(&pap, &pdp, &request);
            }
        }
    }
}

/// Fifteen sets, each referencing the next twice, stored first to
/// last and last to first. The install that would put a stored set at
/// 2¹⁴ elements or more is refused, so a PDP over `s0` reaches fewer,
/// and no snapshot of the full chain's 2¹⁶ − 1 elements is ever built.
#[test]
fn a_doubling_chain_is_refused_before_a_snapshot_reaches_the_element_limit() {
    const SETS: usize = 15;
    let link = |k: usize| {
        let id = format!("s{k}");
        with_set_refs(
            PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides),
            &format!("s{}", k + 1),
            2,
        )
    };
    // Stored first to last, `s_k` puts `s0` at 2^(k+2) − 1 elements;
    // last to first, `s_k` holds 2^(16−k) − 1.
    let forward: Vec<usize> = (0..SETS).collect();
    let backward: Vec<usize> = (0..SETS).rev().collect();
    for (order, refused) in [(forward, 13), (backward, 1)] {
        let pap = Arc::new(Pap::new("pap.chain"));
        for k in order {
            let expected = if k == refused {
                Err(PapError::Tree(TreeError::TooLarge))
            } else {
                Ok(())
            };
            assert_eq!(pap.install_set(link(k)), expected, "s{k}");
        }
        let root = PolicyElement::PolicySetRef(PolicyId::new("s0"));
        let pdp = Pdp::new("pdp.chain", pap, root, pips());
        let response = pdp.decide(&RequestContext::basic("alice", "records/1", "read"), 0);
        assert_eq!(
            response.status,
            Status::Error(format!("unresolved policy set reference s{refused}"))
        );
        let reached = pdp.metrics().eval;
        assert!(reached.policies_evaluated + reached.policy_sets_evaluated < 1 << 14);
    }
}

#[test]
fn nested_policy_set_ref_resolves_through_both_levels() {
    let mut root = PolicySet::new(ROOT, CombiningAlg::FirstApplicable);
    root.elements
        .push(PolicyElement::PolicySetRef(PolicyId::new(INNER)));
    let inner = PolicySet::new(INNER, CombiningAlg::DenyOverrides).with_policy_ref("gate");
    let (pap, pdp) = pdp_over(vec![root, inner], vec![alternating_lockdown_gate("d", 0)]);
    // The gate's id is "d-gate": `inner` dangles until it is renamed.
    let doctor = RequestContext::basic("alice", "records/1", "read");
    assert_eq!(
        assert_matches_oracle(&pap, &pdp, &doctor).0.decision,
        Decision::Indeterminate
    );
    pap.install_set(PolicySet::new(INNER, CombiningAlg::DenyOverrides).with_policy_ref("d-gate"))
        .unwrap();
    assert_eq!(
        assert_matches_oracle(&pap, &pdp, &doctor).0.decision,
        Decision::Permit
    );
    let auditor = RequestContext::basic("bob", "records/1", "read");
    assert_eq!(
        assert_matches_oracle(&pap, &pdp, &auditor).0.decision,
        Decision::Deny
    );
    // A new gate version two references deep flips the verdict at once.
    pap.submit("admin", alternating_lockdown_gate("d", 1), 1)
        .unwrap();
    assert_eq!(
        assert_matches_oracle(&pap, &pdp, &doctor).0.decision,
        Decision::Deny
    );
}

/// The writer alternates the lockdown gate; after each `submit`
/// returns it releases the reader (a channel send), which decides and
/// must see exactly the new version's verdict, then hands the turn back. A third thread decides freely
/// throughout, so snapshot rebuilds race with the writer and with the
/// released reader; whichever version it catches, the verdict is a
/// clean Permit or Deny. No sleeps, no clock: only the writer's return
/// orders the reader.
#[test]
fn a_decide_that_starts_after_submit_returned_sees_the_new_verdict() {
    const VERSIONS: u64 = 400;
    let root = PolicySet::new(ROOT, CombiningAlg::DenyOverrides)
        .with_policy_ref("d-gate")
        .with_policy_ref("aux");
    let aux = parse_policy(
        r#"policy "aux" deny-overrides {
             rule "quarantine" deny { target { resource "id" ~= "aux/*"; } }
           }"#,
    )
    .unwrap();
    let (pap, pdp) = pdp_over(vec![root], vec![alternating_lockdown_gate("d", 0), aux]);
    let doctor = RequestContext::basic("alice", "records/1", "read");
    let verdict_of = |version: u64| {
        if version.is_multiple_of(2) {
            Decision::Permit
        } else {
            Decision::Deny
        }
    };

    let (released, turn) = mpsc::channel::<u64>();
    let (done, resume) = mpsc::channel::<()>();
    let writing = AtomicBool::new(true);
    let (pap, pdp, doctor, writing) = (&pap, &pdp, &doctor, &writing);

    // Each thread owns its channel ends, so a failed assertion on one
    // side hangs up on the other instead of leaving it blocked.
    std::thread::scope(|s| {
        s.spawn(move || {
            for version in 1..=VERSIONS {
                pap.submit("admin", alternating_lockdown_gate("d", version), version)
                    .unwrap();
                if released.send(version).is_err() || resume.recv().is_err() {
                    break;
                }
            }
            writing.store(false, Ordering::SeqCst);
        });
        s.spawn(move || {
            for version in turn.iter() {
                let response = pdp.decide(doctor, version);
                assert_eq!(
                    response.decision,
                    verdict_of(version),
                    "decided on a tree older than gate v{version}"
                );
                assert_eq!(response.status, Status::Ok);
                if done.send(()).is_err() {
                    break;
                }
            }
        });
        s.spawn(move || {
            while writing.load(Ordering::SeqCst) {
                let response = pdp.decide(doctor, 0);
                assert!(
                    matches!(response.decision, Decision::Permit | Decision::Deny),
                    "a racing decide saw a torn tree: {response:?}"
                );
                assert_eq!(response.status, Status::Ok);
            }
        });
    });
}
