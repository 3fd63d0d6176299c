//! Integration tests spanning the whole stack: VO construction,
//! cross-domain flows, audit completeness, architecture comparisons.

use dacs::core::scenario::{grid_vo, healthcare_vo, with_shared_cas};
use dacs::core::workload::{generate, WorkloadSpec};
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{
    issue_capability_flow, push_flow, request_flow, ConflictClass, FlowKind, FlowNet, SizeModel,
};
use dacs::pap::Pap;
use dacs::pdp::{CacheConfig, Pdp};
use dacs::pep::{EnforceRequest, Pep};
use dacs::pip::{AttributeProvider, PipRegistry};
use dacs::policy::attr::{AttrValue, AttributeId};
use dacs::policy::dsl::parse_policy;
use dacs::policy::policy::{Decision, PolicyElement, PolicyId};
use dacs::policy::request::RequestContext;
use dacs::simnet::LinkSpec;
use std::sync::Arc;

fn fnet(vo: &dacs::federation::Vo) -> FlowNet {
    FlowNet::build(vo, 5, LinkSpec::lan(), LinkSpec::wan())
}

#[test]
fn vo_workload_end_to_end_accounting() {
    let ctx = CryptoCtx::new();
    let vo = healthcare_vo(3, 20, &ctx);
    let mut net = fnet(&vo);
    let spec = WorkloadSpec {
        domains: 3,
        users_per_domain: 20,
        resources_per_domain: 50,
        cross_domain_fraction: 0.4,
        actions: vec!["read".into(), "write".into()],
        ..WorkloadSpec::default()
    };
    let items = generate(&spec, 200, 1);
    let mut allowed = 0usize;
    let mut total_messages = 0u64;
    for (i, item) in items.iter().enumerate() {
        let t = request_flow(
            &mut net,
            &vo,
            FlowKind::Pull,
            &item.subject,
            item.target_domain,
            &item.resource,
            &item.action,
            i as u64,
            SizeModel::Compact,
        );
        // Intra-domain pulls cost 4 messages, cross-domain 6.
        let expected = if item.cross_domain { 6 } else { 4 };
        assert_eq!(t.messages, expected, "item {item:?}");
        allowed += t.allowed as usize;
        total_messages += t.messages;
    }
    // Doctors are 70% of users; reads are half the actions; writes are
    // home-only. Sanity-band on the allow rate.
    assert!(allowed > 40 && allowed < 160, "allowed {allowed}");
    assert!(total_messages >= 4 * 200);

    // Audit completeness: every request produced exactly one enforcement
    // record somewhere.
    let audit_total: usize = vo.domains.iter().map(|d| d.pep.audit_log().len()).sum();
    assert_eq!(audit_total, 200);
}

#[test]
fn agent_pull_push_message_ordering() {
    // The paper's three query sequences: agent < push (amortized) < pull
    // in per-request message cost for cross-domain traffic.
    let ctx = CryptoCtx::new();
    let vo = with_shared_cas(healthcare_vo(2, 8, &ctx), 3_600_000);
    let mut net = fnet(&vo);
    let subject = "user-1@domain-1";

    let pull = request_flow(
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
    assert!(pull.allowed);
    let agent = request_flow(
        &mut net,
        &vo,
        FlowKind::Agent,
        subject,
        0,
        "records/2",
        "read",
        1,
        SizeModel::Compact,
    );
    assert!(agent.allowed);

    let (cap, issue) = issue_capability_flow(
        &mut net,
        &vo,
        subject,
        "shared/*",
        &["read".to_string()],
        "domain-0",
        0,
        SizeModel::Compact,
    );
    let cap = cap.unwrap();
    let k = 10u64;
    let mut push_msgs = issue.messages;
    for i in 0..k {
        let t = push_flow(
            &mut net,
            &vo,
            subject,
            0,
            &format!("shared/{i}"),
            "read",
            &cap,
            10 + i,
            SizeModel::Compact,
        );
        assert!(t.allowed);
        push_msgs += t.messages;
    }
    let push_per_request = push_msgs as f64 / k as f64;
    assert!(agent.messages < pull.messages);
    assert!(push_per_request < pull.messages as f64);
}

#[test]
fn capability_expiry_enforced_end_to_end() {
    let ctx = CryptoCtx::new();
    let vo = with_shared_cas(healthcare_vo(2, 4, &ctx), 1_000); // 1 s TTL
    let mut net = fnet(&vo);
    let (cap, _) = issue_capability_flow(
        &mut net,
        &vo,
        "user-0@domain-1",
        "shared/*",
        &["read".to_string()],
        "domain-0",
        0,
        SizeModel::Compact,
    );
    let cap = cap.unwrap();
    let fresh = push_flow(
        &mut net,
        &vo,
        "user-0@domain-1",
        0,
        "shared/x",
        "read",
        &cap,
        500,
        SizeModel::Compact,
    );
    assert!(fresh.allowed);
    let stale = push_flow(
        &mut net,
        &vo,
        "user-0@domain-1",
        0,
        "shared/x",
        "read",
        &cap,
        5_000,
        SizeModel::Compact,
    );
    assert!(!stale.allowed, "expired capability must be rejected");
}

#[test]
fn chinese_wall_is_sticky_across_flows() {
    let ctx = CryptoCtx::new();
    let mut vo = healthcare_vo(3, 5, &ctx);
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
    // Unrelated domain is fine.
    let neutral = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        subject,
        2,
        "records/1",
        "read",
        1,
        SizeModel::Compact,
    );
    assert!(neutral.allowed);
    // The rival is permanently off-limits for this subject.
    for t in 2..5 {
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
        assert!(!rival.allowed);
    }
}

#[test]
fn grid_scenario_cross_domain_submission() {
    let ctx = CryptoCtx::new();
    let vo = grid_vo(3, &ctx);
    let mut net = fnet(&vo);
    // researcher@site-1 submits to site-0: role travels via federated
    // attribute fetch.
    let t = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        "researcher@site-1",
        0,
        "queue/batch",
        "submit",
        0,
        SizeModel::Compact,
    );
    assert!(t.allowed);
    assert_eq!(t.messages, 6);
    // A stranger cannot.
    let t = request_flow(
        &mut net,
        &vo,
        FlowKind::Pull,
        "stranger@site-1",
        0,
        "queue/batch",
        "submit",
        1,
        SizeModel::Compact,
    );
    assert!(!t.allowed);
}

#[test]
fn experiments_run_and_render() {
    // Small-scale smoke of the full experiment suite (the harness runs
    // the real scale).
    let tables = [
        dacs::core::experiments::e5_syndication(),
        dacs::core::experiments::e8_push_vs_pull(),
        dacs::core::experiments::e10_trust_negotiation(),
        dacs::core::experiments::e13_pdp_discovery(200),
    ];
    for t in &tables {
        let rendered = t.render();
        assert!(rendered.contains("##"));
        assert!(t.rows.iter().all(|r| r.len() == t.headers.len()));
    }
}

#[test]
fn pap_epoch_invalidates_decisions_vo_wide() {
    let ctx = CryptoCtx::new();
    let vo = healthcare_vo(1, 4, &ctx);
    let d = &vo.domains[0];
    let req = RequestContext::basic("user-0@domain-0", "records/5", "read");
    assert!(d.pep.serve(EnforceRequest::of(&req, 0)).allowed);
    // The domain authority installs a lockdown policy version at its PAP.
    let lockdown = dacs::policy::dsl::parse_policy(
        r#"
policy "domain-0-gate" first-applicable {
  rule "lockdown" deny { }
}
"#,
    )
    .unwrap();
    d.pap.submit("domain-bootstrap", lockdown, 100).unwrap();
    assert!(
        !d.pep.serve(EnforceRequest::of(&req, 101)).allowed,
        "new policy version applies"
    );
    // Rollback restores access.
    d.pap
        .rollback(
            "domain-bootstrap",
            &dacs::policy::policy::PolicyId::new("domain-0-gate"),
            1,
            200,
        )
        .unwrap();
    assert!(d.pep.serve(EnforceRequest::of(&req, 201)).allowed);
}

/// A PIP that, the first time it is asked, pushes a lockdown to the
/// PAP, stamps it with the next policy epoch and announces that
/// epoch to the PEP — what `Domain::propagate_policy` does — from
/// inside the evaluation that asked it; it answers `role = doctor`
/// for everyone.
struct Pusher {
    pap: Arc<Pap>,
    pep: std::sync::OnceLock<std::sync::Weak<Pep>>,
    pushed: std::sync::atomic::AtomicBool,
}

impl AttributeProvider for Pusher {
    fn name(&self) -> &str {
        "pusher"
    }

    fn provide(
        &self,
        _id: &AttributeId,
        _request: &RequestContext,
        now_ms: u64,
    ) -> Option<Vec<AttrValue>> {
        if !self.pushed.swap(true, std::sync::atomic::Ordering::Relaxed) {
            let lockdown = parse_policy(
                r#"policy "gate" deny-unless-permit { rule "nobody" permit {
                     condition is-in("nobody", attr(subject, "role")) } }"#,
            )
            .unwrap();
            self.pap.submit("admin", lockdown, now_ms).unwrap();
            let stamp = self.pap.policy_epoch().next();
            assert!(self.pap.observe_policy_epoch(stamp));
            let pep = self.pep.get().and_then(std::sync::Weak::upgrade).unwrap();
            pep.advance_epoch(stamp);
        }
        Some(vec!["doctor".into()])
    }
}

/// An enforcement that straddles a policy push caches the permit its
/// decide reached on the pre-push policy after the push has been
/// announced, but no later enforcement is served it: the answer
/// carries the epoch its decide read first, and the PEP has moved
/// past it, so the entry is a miss.
#[test]
fn an_enforcement_that_straddles_a_push_never_serves_its_answer_after_it() {
    let pap = Arc::new(Pap::new("pap.straddle"));
    let gate = r#"policy "gate" deny-unless-permit { rule "doctors" permit {
                    condition is-in("doctor", attr(subject, "role")) } }"#;
    pap.submit("admin", parse_policy(gate).unwrap(), 0).unwrap();
    let pusher = Arc::new(Pusher {
        pap: pap.clone(),
        pep: std::sync::OnceLock::new(),
        pushed: std::sync::atomic::AtomicBool::new(false),
    });
    let mut pips = PipRegistry::new();
    pips.add(pusher.clone());
    let pdp = Arc::new(Pdp::new(
        "pdp.straddle",
        pap,
        PolicyElement::PolicyRef(PolicyId::new("gate")),
        Arc::new(pips),
    ));
    let pep = Arc::new(
        Pep::builder("pep.straddle")
            .source(pdp.clone())
            .cache(CacheConfig {
                capacity: 64,
                ttl_ms: 1_000_000,
            })
            .build(),
    );
    pusher.pep.set(Arc::downgrade(&pep)).unwrap();
    let alice = RequestContext::basic("alice", "ehr/1", "read");
    let serve = |now_ms| pep.serve(EnforceRequest::of(&alice, now_ms)).allowed;

    // Began before the push: decided on the policy it started with.
    assert!(serve(0));
    // Every enforcement that starts after the push sees the lockdown.
    assert!(!serve(1), "the pre-push permit was served from the cache");
    assert!(!serve(2));
    assert_eq!(pdp.decide(&alice, 3).decision, Decision::Deny);
    let stats = pep.cache_stats().unwrap();
    assert_eq!((stats.hits, stats.misses), (1, 2), "one lookup per serve");
    assert_eq!(pep.stats().cache_hits, 1);
}
