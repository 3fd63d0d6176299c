//! Cross-crate integration tests: the VO flows riding per-domain PDP
//! clusters — all three query sequences (pull, push, agent) under
//! injected replica crashes, Chinese-Wall meta-policy across domains,
//! batch-aware PEP semantics, and the `Syncing` recovery lifecycle on
//! the multi-domain topology.

use dacs::cluster::{ClusterBuilder, QuorumMode, ReplicaPhase};
use dacs::core::scenario::{clustered_healthcare_vo, with_shared_cas};
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{
    issue_capability_flow, push_flow, request_flow, ConflictClass, Domain, DomainBuilder, FlowKind,
    FlowNet, SizeModel, Vo,
};
use dacs::pdp::{Binding, CacheConfig, PdpDirectory};
use dacs::pep::{
    EnforceOptions, EnforceRequest, EnforcementResult, EnforcementStats, Pep, ServingPath,
};
use dacs::policy::policy::Decision;
use dacs::policy::request::RequestContext;
use dacs::simnet::LinkSpec;
use std::sync::Arc;

fn fnet(vo: &Vo) -> FlowNet {
    FlowNet::build(vo, 9, LinkSpec::lan(), LinkSpec::wan())
}

/// Pull, agent and push flows against clustered domains: every
/// enforcement routes through the quorum, audit
/// records cover every enforcement, and the shared directory exposes
/// every domain's replicas to ordinary discovery.
#[test]
fn pull_agent_and_push_flows_ride_clustered_domains() {
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    let vo = with_shared_cas(
        clustered_healthcare_vo(2, 8, &ctx, directory.clone()),
        3_600_000,
    );
    let mut net = fnet(&vo);

    // Cross-domain discovery: one shared directory sees every domain's
    // replicas, resolvable per domain through the ordinary binding API.
    for d in &vo.domains {
        assert_eq!(directory.endpoints_in(&d.name).len(), 3, "{}", d.name);
        assert!(directory.resolve(&Binding::Discovery, &d.name).is_some());
    }

    // Pull (cross-domain: the doctor role travels via the home IdP).
    let pull = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        "user-1@domain-1",
        0,
        "records/1",
        "read",
        0,
        SizeModel::Compact,
    );
    assert!(pull.allowed);
    assert!(pull.kinds.contains(&"attribute-query"));

    // Agent (PDP embedded in the PEP — same clustered decision path).
    let agent = request_flow(
        &mut net,
        &vo,
        FlowKind::Agent,
        "user-1@domain-1",
        0,
        "records/2",
        "read",
        1,
        SizeModel::Compact,
    );
    assert!(agent.allowed);

    // Push: capability issuance, then a capability-bearing request —
    // the local autonomy overlay still consults the cluster.
    let (cap, issue) = issue_capability_flow(
        &mut net,
        &vo,
        "user-1@domain-1",
        "shared/*",
        &["read".to_string()],
        "domain-0",
        2,
        SizeModel::Compact,
    );
    assert!(issue.allowed);
    let cap = cap.expect("prescreen permits shared reads");
    let push = push_flow(
        &mut net,
        &vo,
        "user-1@domain-1",
        0,
        "shared/data",
        "read",
        &cap,
        3,
        SizeModel::Compact,
    );
    assert!(push.allowed);

    // All three enforcements rode domain-0's cluster — single
    // decisions, so straight to the quorum with no batch flush — and
    // each produced exactly one audit record.
    let cluster = vo.domains[0].cluster.as_ref().expect("clustered");
    let m = cluster.metrics();
    assert_eq!(m.queries, 3, "pull + agent + push overlay");
    assert_eq!(m.batches, 0, "single decisions are no batch");
    assert_eq!(m.unavailable, 0);
    assert_eq!(vo.domains[0].pep.audit_log().len(), 3);

    // A replica crash degrades the quorum but never the answer.
    let names = vo.domains[0].replica_names();
    assert!(vo.domains[0].crash_replica(&names[0]));
    assert!(!directory.is_healthy(&names[0]));
    let trace = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        "user-1@domain-1",
        0,
        "records/3",
        "read",
        4,
        SizeModel::Compact,
    );
    assert!(trace.allowed, "two healthy replicas still form a majority");
    let m = cluster.metrics();
    assert!(m.degraded >= 1);
    assert_eq!(m.unavailable, 0);
    assert_eq!(vo.domains[0].pep.audit_log().len(), 4);
}

/// The VO-level Chinese Wall still binds across clustered domains, and
/// a wall-blocked request never reaches the target domain's cluster.
#[test]
fn chinese_wall_enforced_across_clustered_domains() {
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    let mut vo = clustered_healthcare_vo(3, 6, &ctx, directory);
    vo.add_conflict_class(ConflictClass {
        name: "rivals".into(),
        domains: ["domain-0".to_string(), "domain-1".to_string()]
            .into_iter()
            .collect(),
    });
    let mut net = fnet(&vo);
    let subject = "user-0@domain-2";

    let first = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        subject,
        0,
        "records/1",
        "read",
        0,
        SizeModel::Compact,
    );
    assert!(first.allowed);
    let before = vo.domains[1].cluster.as_ref().unwrap().metrics().queries;
    for t in 1..4 {
        let rival = request_flow(
            &mut net,
            &vo,
            FlowKind::Pull,
            subject,
            1,
            "records/1",
            "read",
            t,
            SizeModel::Compact,
        );
        assert!(!rival.allowed, "wall must block the rival domain");
        assert_eq!(rival.messages, 2, "blocked at the PEP boundary");
    }
    // The wall fired before enforcement: the rival's cluster was never
    // consulted, and no audit record was produced for blocked flows.
    let after = vo.domains[1].cluster.as_ref().unwrap().metrics().queries;
    assert_eq!(before, after);
    assert_eq!(vo.domains[1].pep.audit_log().len(), 0);
    // The neutral domain stays reachable.
    let neutral = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        subject,
        2,
        "records/1",
        "read",
        5,
        SizeModel::Compact,
    );
    assert!(neutral.allowed);
}

// The alternating per-domain gate shared with experiment E17: even
// versions permit doctors on `records/*`, odd versions are an
// admin-only lockdown — the integration suite pins exactly the
// behavior the experiment measures.
use dacs::core::scenario::alternating_lockdown_gate as churn_gate;

fn churn_domain(ctx: &CryptoCtx, name: &str, directory: Arc<PdpDirectory>, seed: u64) -> Domain {
    let mut builder = Domain::builder(name)
        .policy(churn_gate(name, 0))
        .clustered(
            ClusterBuilder::new(name)
                .quorum(QuorumMode::Majority)
                .directory(directory),
        )
        .seed(seed);
    for u in 0..4 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    builder.build(ctx)
}

/// Pull flows under replica crashes plus concurrent per-domain policy
/// updates: every flow's outcome matches the domain's root-PAP ground
/// truth (zero false permits, zero false denies while a quorum holds),
/// and every enforcement left an audit record. The crashed pair
/// answers again before its syndication link is back — stale, and
/// gated — and heals when `recover_replica` restores the link.
#[test]
fn crash_churn_with_updates_leaks_zero_false_permits() {
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    let vo = Vo::new(
        "vo-churn",
        ctx.clone(),
        vec![
            churn_domain(&ctx, "domain-0", directory.clone(), 31),
            churn_domain(&ctx, "domain-1", directory.clone(), 32),
        ],
    );
    let mut net = fnet(&vo);
    let replica_names: Vec<Vec<String>> = vo.domains.iter().map(|d| d.replica_names()).collect();

    let mut false_permits = 0u64;
    let mut false_denies = 0u64;
    let mut enforcements = 0usize;
    for t in 0..240u64 {
        // Deterministic churn: every 60 ticks, each domain's replicas
        // 1 and 2 sleep through a policy update, answer again while
        // still cut off from their syndication node, and then recover.
        let (round, step) = (t / 60, t % 60);
        for (d, domain) in vo.domains.iter().enumerate() {
            if step == 20 {
                domain.propagate_policy(churn_gate(&domain.name, round + 1), t);
            }
            for replica in &replica_names[d][1..] {
                match step {
                    10 => assert!(domain.crash_replica(replica)),
                    30 => domain.cluster.as_ref().unwrap().mark_up(replica),
                    45 => assert!(domain.recover_replica(replica)),
                    _ => {}
                }
            }
        }
        // Alternate home/cross-domain pulls over both domains.
        let home = (t % 2) as usize;
        let target = if t % 5 == 0 { 1 - home } else { home };
        let subject = format!("user-{}@domain-{home}", t % 4);
        let request = RequestContext::basic(subject.as_str(), "records/1", "read");
        let domain = &vo.domains[target];
        let enriched = if domain.is_home_of(&subject) {
            request.clone()
        } else {
            dacs::federation::federated_enrich(&vo, &request, &subject)
        };
        let expected = domain.pdp.decide(&enriched, t).decision;
        let trace = request_flow(
            &mut net,
            &vo,
            FlowKind::Pull,
            &subject,
            target,
            "records/1",
            "read",
            t,
            SizeModel::Compact,
        );
        enforcements += 1;
        if trace.allowed && expected != Decision::Permit {
            false_permits += 1;
        }
        if !trace.allowed && expected == Decision::Permit {
            false_denies += 1;
        }
    }
    assert_eq!(false_permits, 0, "epoch gating must hold under churn");
    assert_eq!(
        false_denies, 0,
        "the fresh anchor keeps the quorum truthful"
    );
    // Audit completeness: one record per enforcement, VO-wide.
    let audit_total: usize = vo.domains.iter().map(|d| d.pep.audit_log().len()).sum();
    assert_eq!(audit_total, enforcements);
    // The churn actually exercised the lifecycle.
    for d in &vo.domains {
        let m = d.cluster.as_ref().unwrap().metrics();
        assert!(m.resyncs >= 4, "{}: resyncs {}", d.name, m.resyncs);
        assert!(m.stale_decisions_avoided > 0, "{}", d.name);
        assert_eq!(m.unavailable, 0, "{}", d.name);
    }
}

/// The `Syncing` lifecycle over the multi-domain topology (extends
/// E16's guarantee): `recover_replica` alone heals a replica that slept
/// through an update — it returns `Syncing`, the same call replays it
/// to the domain's max epoch, and the next enforcement readmits it —
/// in every domain independently.
#[test]
fn recovering_replica_syncs_before_rejoining_each_domains_quorum() {
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    let vo = Vo::new(
        "vo-sync",
        ctx.clone(),
        vec![
            churn_domain(&ctx, "domain-0", directory.clone(), 41),
            churn_domain(&ctx, "domain-1", directory.clone(), 42),
        ],
    );
    let mut net = fnet(&vo);

    for (d, domain) in vo.domains.iter().enumerate() {
        let names = domain.replica_names();
        let subject = format!("user-0@{}", domain.name);
        let pull = |net: &mut FlowNet, now: u64| {
            request_flow(
                net,
                &vo,
                FlowKind::Pull,
                &subject,
                d,
                "records/1",
                "read",
                now,
                SizeModel::Compact,
            )
        };
        assert!(
            pull(&mut net, 0).allowed,
            "{}: doctors read v0",
            domain.name
        );

        // r1 crashes; the lockdown lands while it sleeps, and the
        // reference engine on the root PAP flips at once.
        let phase = || domain.replica_phase(&names[1]);
        assert!(domain.crash_replica(&names[1]));
        assert_eq!(phase(), Some(ReplicaPhase::Crashed), "{}", domain.name);
        let epoch = domain.propagate_policy(churn_gate(&domain.name, 1), 10);
        assert_eq!(epoch.0, 2, "{}: bootstrap + lockdown", domain.name);
        let request = RequestContext::basic(subject.as_str(), "records/1", "read");
        assert_eq!(domain.pdp.decide(&request, 10).decision, Decision::Deny);

        // Mid-flow recovery, one call: back `Syncing`, and already
        // replayed to the lockdown's epoch.
        assert!(domain.recover_replica(&names[1]));
        assert_eq!(phase(), Some(ReplicaPhase::Syncing), "{}", domain.name);
        // The next enforcement readmits it, and all three vote for the
        // lockdown: no stale vote was ever there to exclude.
        let cluster = domain.cluster.as_ref().unwrap();
        let before = cluster.metrics();
        let denied = pull(&mut net, 11);
        assert!(!denied.allowed, "{}: lockdown enforced", domain.name);
        assert_eq!(phase(), Some(ReplicaPhase::Healthy), "{}", domain.name);
        let m = cluster.metrics();
        assert_eq!(m.replica_queries - before.replica_queries, 3);
        assert_eq!((m.resyncs, m.stale_decisions_avoided), (1, 0));

        // Back to a full, truthful quorum: the next update flips the
        // decision again with all three replicas voting.
        domain.propagate_policy(churn_gate(&domain.name, 2), 30);
        assert!(pull(&mut net, 31).allowed, "{}", domain.name);
        let m = cluster.metrics();
        assert_eq!(m.resyncs, 1, "{}", domain.name);
        assert_eq!(m.degraded, 0, "{}: a full quorum throughout", domain.name);
        // Unknown names are a polite no-op.
        assert!(!domain.crash_replica("pdp.none"));
        assert!(!domain.recover_replica("pdp.none"));
    }
}

/// Regression pinning batch-aware PEP semantics: decisions and
/// obligations via the batched path (`serve_batch`, one
/// `PdpCluster::decide_batch` call) are identical to unbatched enforcement
/// (`serve`, straight to the quorum), and a deny inside a coalesced
/// batch never leaks as a permit to a neighboring query.
#[test]
fn batched_enforcement_matches_unbatched_and_denies_never_leak() {
    let ctx = CryptoCtx::new();
    let unbatched_vo = clustered_healthcare_vo(1, 8, &ctx, Arc::new(PdpDirectory::new()));
    let batched_vo = clustered_healthcare_vo(1, 8, &ctx, Arc::new(PdpDirectory::new()));
    let unbatched = &unbatched_vo.domains[0];
    let batched = &batched_vo.domains[0];

    // Doctor read (permit + log obligation), auditor read (explicit
    // deny), stranger write (deny), shared/* (NotApplicable → fail-safe
    // deny): the full decision surface.
    let requests = [
        RequestContext::basic("user-0@domain-0", "records/1", "read"),
        RequestContext::basic("user-7@domain-0", "records/1", "read"),
        RequestContext::basic("mallory@domain-0", "records/2", "write"),
        RequestContext::basic("user-0@domain-0", "shared/1", "read"),
    ];
    let flushed = batched
        .pep
        .serve_batch(&requests, 0, EnforceOptions::default());
    for ((t, request), b) in requests.iter().enumerate().zip(flushed) {
        let a = unbatched.pep.serve(EnforceRequest::of(request, t as u64));
        assert_eq!(a.allowed, b.allowed, "{request:?}");
        assert_eq!(a.decision, b.decision, "{request:?}");
        assert_eq!(a.fulfilled, b.fulfilled, "obligations must match");
    }

    // One coalesced batch mixing permits and denies, with duplicates:
    // each request gets its own verdict — the duplicate deny coalesces
    // onto one evaluation yet never surfaces as its neighbor's permit.
    let batch = vec![
        requests[0].clone(), // permit
        requests[1].clone(), // deny
        requests[0].clone(), // duplicate permit (coalesces)
        requests[1].clone(), // duplicate deny (coalesces)
        requests[3].clone(), // fail-safe deny
    ];
    let coalesced_before = batched.cluster.as_ref().unwrap().metrics().coalesced;
    let results = batched
        .pep
        .serve_batch(&batch, 100, EnforceOptions::default());
    assert_eq!(results.len(), 5);
    assert!(results[0].allowed);
    assert!(!results[1].allowed);
    assert_eq!(results[1].decision, Decision::Deny);
    assert!(results[2].allowed, "duplicate permit follows its twin");
    assert!(!results[3].allowed, "coalesced deny stays a deny");
    assert_eq!(results[3].decision, Decision::Deny);
    assert!(!results[4].allowed, "NotApplicable stays fail-safe denied");
    assert_eq!(results[0].fulfilled, vec!["log".to_string()]);
    let m = batched.cluster.as_ref().unwrap().metrics();
    assert_eq!(
        m.coalesced - coalesced_before,
        2,
        "both duplicates coalesced onto outstanding evaluations"
    );
    // Batched enforcement audits every request.
    assert_eq!(batched.pep.audit_log().len(), requests.len() + batch.len());

    // The same through each store a PEP answers from before the quorum.
    // Per request, `serve` on one domain and a batch of one on its twin
    // return, audit and count alike: once filling the store, once
    // answered by it. Then, past every TTL, a whole batch against the
    // same requests served one by one, missing and then hitting.
    let requests = [
        RequestContext::basic("user-0@domain-0", "records/1", "read"), // mints
        RequestContext::basic("user-0@domain-0", "records/1", "write"), // log obligation
        RequestContext::basic("user-7@domain-0", "records/1", "read"), // deny
        RequestContext::basic("mallory@domain-0", "shared/1", "write"), // fail-safe deny
    ];
    let stores: [Store; 2] = [
        (
            "pep cache",
            |b| {
                b.pep_cache(CacheConfig {
                    capacity: 64,
                    ttl_ms: 1_000,
                })
            },
            [ServingPath::Cache; 4],
        ),
        (
            "capability",
            |b| b.capability(1_000),
            [
                ServingPath::Token,
                ServingPath::Source,
                ServingPath::Source,
                ServingPath::Source,
            ],
        ),
    ];
    for (store, with_store, answered_by) in stores {
        let [single, batched] = [(); 2].map(|()| with_store(gate_domain()).build(&ctx));
        let mut second = Vec::new();
        for now_ms in [0, 1] {
            for request in &requests {
                let one = enforced(&single.pep, |pep| {
                    vec![pep.serve(EnforceRequest::of(request, now_ms))]
                });
                let batch = enforced(&batched.pep, |pep| {
                    let options = EnforceOptions::default();
                    pep.serve_batch(std::slice::from_ref(request), now_ms, options)
                });
                assert_eq!(one, batch, "{store} at {now_ms}: {request:?}");
                if now_ms == 1 {
                    second.push(one.1[0]);
                }
            }
        }
        assert_eq!(second, answered_by, "{store}: the store answered");
        for now_ms in [2_000, 2_001] {
            let one = enforced(&single.pep, |pep| {
                let serve = |request| pep.serve(EnforceRequest::of(request, now_ms));
                requests.iter().map(serve).collect()
            });
            let batch = enforced(&batched.pep, |pep| {
                pep.serve_batch(&requests, now_ms, EnforceOptions::default())
            });
            assert_eq!(one, batch, "{store} at {now_ms}: a whole batch");
        }
    }

    // Push model: a capability-bearing read whose local overlay an
    // admitted token answers is audited as a token hit.
    let vo = Vo::new(
        "vo-push",
        ctx.clone(),
        vec![gate_domain().capability(1_000).build(&ctx)],
    );
    let vo = with_shared_cas(vo, 1_000);
    let cas = vo.cas.as_ref().expect("shared CAS");
    let pep = &vo.domains[0].pep;
    let read = RequestContext::basic("user-0@domain-0", "shared/1", "read");
    let capability = cas
        .issue(
            "user-0@domain-0",
            "shared/*",
            &["read".into()],
            "domain-0",
            0,
        )
        .expect("the VO pre-screen grants shared reads");
    assert!(pep.serve(EnforceRequest::of(&read, 0)).allowed, "mints");
    let (results, paths, moved) = enforced(pep, |pep| {
        vec![pep.serve_with_capability(EnforceRequest::of(&read, 1), &capability)]
    });
    assert!(results[0].allowed);
    assert_eq!(paths, [ServingPath::Token]);
    assert_eq!((moved.token_hits, moved.allowed), (1, 1));
}

/// A PEP store under comparison: its name, how a domain gets it, and
/// what answers each request once it is filled.
type Store = (
    &'static str,
    fn(DomainBuilder) -> DomainBuilder,
    [ServingPath; 4],
);

/// A gate whose reads are unconditional permits for doctors — so a
/// capability domain mints a token for each — and whose writes carry a
/// `log` obligation; `records/*` is otherwise denied and every other
/// tree is not applicable.
const GATE: &str = r#"
policy "domain-0-gate" first-applicable {
  rule "doctors-read" permit {
    target { action "id" == "read"; }
    condition is-in("doctor", attr(subject, "role"))
  }
  rule "doctors-write" permit {
    target {
      resource "id" ~= "records/*";
      action "id" == "write";
    }
    condition is-in("doctor", attr(subject, "role"))
    obligation "log" on permit {
      "who" = attr(subject, "id");
    }
  }
  rule "default-deny" deny {
    target { resource "id" ~= "records/*"; }
  }
}
"#;

/// `domain-0` under [`GATE`] behind a 1×3 majority quorum, with a
/// doctor (`user-0`) and an auditor (`user-7`).
fn gate_domain() -> DomainBuilder {
    Domain::builder("domain-0")
        .policy_dsl(GATE)
        .clustered(ClusterBuilder::new("domain-0").quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        .subject_attr("user-0@domain-0", "role", "doctor")
        .subject_attr("user-7@domain-0", "role", "auditor")
}

/// What one call of `serve` did to `pep`: its results, the serving
/// paths of the audit records it appended, and how far it moved each
/// enforcement counter.
fn enforced(
    pep: &Pep,
    serve: impl FnOnce(&Pep) -> Vec<EnforcementResult>,
) -> (Vec<EnforcementResult>, Vec<ServingPath>, EnforcementStats) {
    let (before, audited) = (pep.stats(), pep.audit_log().len());
    let results = serve(pep);
    let paths = pep.audit_log()[audited..].iter().map(|r| r.path).collect();
    let after = pep.stats();
    let moved = EnforcementStats {
        allowed: after.allowed - before.allowed,
        denied: after.denied - before.denied,
        failsafe_denials: after.failsafe_denials - before.failsafe_denials,
        obligation_failures: after.obligation_failures - before.obligation_failures,
        cache_hits: after.cache_hits - before.cache_hits,
        token_hits: after.token_hits - before.token_hits,
        tokens_minted: after.tokens_minted - before.tokens_minted,
        token_rejects: after.token_rejects - before.token_rejects,
        audit_dropped: after.audit_dropped - before.audit_dropped,
    };
    (results, paths, moved)
}
