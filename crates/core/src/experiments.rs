//! The experiment suite: one function per paper artefact (Fig. 1–5) and
//! per Section-3 claim, as indexed in DESIGN.md §5. Each returns a
//! [`Table`] that the harness binary prints and EXPERIMENTS.md records.

// The alternating gate of E16–E18 (shared with the federation-cluster
// integration tests): even versions permit doctors on `records/*`, odd
// versions are a lockdown (admins only — nobody in the workload), so
// every update flips the correct decision and a replica deciding on
// any stale version errs observably.
use crate::scenario::alternating_lockdown_gate as lockdown_gate;
use crate::scenario::{healthcare_vo, with_shared_cas};
use crate::stats::{f2, us_as_ms, Summary, Table};
use crate::workload::{generate, WorkloadSpec};
use dacs_cluster::{ClusterBuilder, DecisionBackend, PdpCluster, QuorumMode, SchedulerConfig};
use dacs_crypto::sign::{CryptoCtx, SigningKey};
use dacs_federation::{
    federated_enrich, issue_capability_flow, push_flow, request_flow, ClusteredDecisionSource,
    Domain, FlowKind, FlowNet, SizeModel, Vo,
};
use dacs_pap::{DelegationRegistry, SyndicationTree};
use dacs_pdp::{Binding, CacheConfig, Pdp, PdpDirectory};
use dacs_pep::{EnforceOptions, EnforceRequest, Pep};
use dacs_pip::{PipRegistry, StaticAttributes};
use dacs_policy::conflict;
use dacs_policy::eval::{resolve_references, EvalMetrics, Evaluator};
use dacs_policy::policy::{
    CombiningAlg, Decision, Effect, Policy, PolicyElement, PolicyId, PolicySet, Rule,
};
use dacs_policy::request::RequestContext;
use dacs_policy::target::{AttrMatch, Target};
use dacs_policy::AttributeId;
use dacs_simnet::LinkSpec;
use dacs_telemetry::Stage;
use dacs_trust::{chain_scenario, negotiate, Strategy};
use dacs_wire::security::{SecureChannel, SecurityMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

fn flownet(vo: &Vo, seed: u64) -> FlowNet {
    FlowNet::build(vo, seed, LinkSpec::lan(), LinkSpec::wan())
}

/// E1 (Fig. 1): end-to-end authorization across a VO of N domains.
pub fn e1_vo_end_to_end(requests: usize) -> Table {
    let mut table = Table::new(
        "E1 — Fig. 1: VO end-to-end authorization (pull model)",
        &[
            "domains",
            "requests",
            "allowed%",
            "msgs/req",
            "bytes/req",
            "lat p50 (ms)",
            "lat p95 (ms)",
        ],
    );
    for n in [2usize, 4, 8] {
        let ctx = CryptoCtx::new();
        let vo = healthcare_vo(n, 50, &ctx);
        let mut fnet = flownet(&vo, 17);
        let spec = WorkloadSpec {
            domains: n,
            users_per_domain: 50,
            resources_per_domain: 100,
            cross_domain_fraction: 0.3,
            actions: vec!["read".into(), "write".into()],
            ..WorkloadSpec::default()
        };
        let items = generate(&spec, requests, 100 + n as u64);
        let mut allowed = 0usize;
        let (mut msgs, mut bytes) = (0u64, 0u64);
        let mut lats = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let trace = request_flow(
                &mut fnet,
                &vo,
                FlowKind::Pull,
                &item.subject,
                item.target_domain,
                &item.resource,
                &item.action,
                i as u64,
                SizeModel::Compact,
            );
            allowed += trace.allowed as usize;
            msgs += trace.messages;
            bytes += trace.bytes;
            lats.push(trace.latency_us);
        }
        let lat = Summary::of(&lats);
        table.row(vec![
            n.to_string(),
            requests.to_string(),
            f2(100.0 * allowed as f64 / requests as f64),
            f2(msgs as f64 / requests as f64),
            f2(bytes as f64 / requests as f64),
            us_as_ms(lat.p50),
            us_as_ms(lat.p95),
        ]);
    }
    table
}

/// E2 (Fig. 2): capability issuance amortized over K uses.
pub fn e2_capability_flow() -> Table {
    let mut table = Table::new(
        "E2 — Fig. 2: capability-issuing (push) flow, reuse factor K",
        &[
            "K (uses/cap)",
            "msgs total",
            "msgs/req",
            "bytes/req",
            "lat p50 (ms)",
        ],
    );
    for k in [1u64, 2, 4, 8, 16, 64] {
        let ctx = CryptoCtx::new();
        let vo = with_shared_cas(healthcare_vo(2, 8, &ctx), 3_600_000);
        let mut fnet = flownet(&vo, 23);
        let subject = "user-1@domain-1";
        let (cap, issue_trace) = issue_capability_flow(
            &mut fnet,
            &vo,
            subject,
            "shared/*",
            &["read".to_string()],
            "domain-0",
            0,
            SizeModel::Compact,
        );
        let cap = cap.expect("prescreen permits shared reads");
        let mut msgs = issue_trace.messages;
        let mut bytes = issue_trace.bytes;
        let mut lats = Vec::new();
        for i in 0..k {
            let t = push_flow(
                &mut fnet,
                &vo,
                subject,
                0,
                &format!("shared/item-{i}"),
                "read",
                &cap,
                1 + i,
                SizeModel::Compact,
            );
            assert!(t.allowed, "push request must carry: {t:?}");
            msgs += t.messages;
            bytes += t.bytes;
            lats.push(t.latency_us);
        }
        let lat = Summary::of(&lats);
        table.row(vec![
            k.to_string(),
            msgs.to_string(),
            f2(msgs as f64 / k as f64),
            f2(bytes as f64 / k as f64),
            us_as_ms(lat.p50),
        ]);
    }
    table
}

/// `count` policies, how many of them match the probe, and the probe.
fn synthetic_policies(
    count: usize,
    matching_fraction: f64,
    seed: u64,
) -> (Vec<Policy>, u64, String) {
    // Policies target disjoint resource prefixes; a fraction match the
    // probe resource prefix "hot/".
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut matching = 0;
    for i in 0..count {
        let hot = rng.gen::<f64>() < matching_fraction;
        matching += u64::from(hot);
        let prefix = if hot {
            "hot".to_string()
        } else {
            format!("cold-{i}")
        };
        let policy = Policy::new(
            PolicyId::new(format!("p-{i}")),
            CombiningAlg::PermitOverrides,
        )
        .with_target(Target::all(vec![AttrMatch::glob(
            AttributeId::resource("id"),
            format!("{prefix}/*"),
        )]))
        .with_rule(
            Rule::new("readers", Effect::Permit).with_target(Target::all(vec![AttrMatch::equals(
                AttributeId::action("id"),
                "read",
            )])),
        );
        out.push(policy);
    }
    (out, matching, "hot/item".to_string())
}

/// E3 (Fig. 3): pull-model PDP cost as the policy base grows — the
/// reference walk (every policy's target inspected: the paper's linear
/// curve) beside the PDP, whose snapshot index reaches the `hot/*`
/// policies and no others.
pub fn e3_policy_scaling() -> Table {
    let mut table = Table::new(
        "E3 — Fig. 3: policy-issuing (pull) PDP cost vs policy count",
        &[
            "policies",
            "targets checked/req (walk)",
            "targets checked/req (indexed)",
            "rules eval/req",
            "decide µs (walk)",
            "decide µs (indexed)",
        ],
    );
    for p in [16usize, 64, 256, 1024] {
        let (policies, hot, probe) = synthetic_policies(p, 0.05, 42);
        let pap = Arc::new(dacs_pap::Pap::new("pap.e3"));
        // deny-overrides cannot short-circuit on Permit, so the walk
        // inspects every policy target: the linear-scan worst case (the
        // paper's per-request evaluation cost concern).
        let mut root = PolicySet::new("root", CombiningAlg::DenyOverrides);
        for pol in policies {
            root = root.with_policy_ref(PolicyId::new(pol.id.as_str()));
            pap.submit("bench", pol, 0).unwrap();
        }
        pap.install_set(root);
        let root = PolicyElement::PolicySetRef(PolicyId::new("root"));
        let pdp = Pdp::new(
            "pdp.e3",
            pap.clone(),
            root.clone(),
            Arc::new(PipRegistry::new()),
        );
        let request = RequestContext::basic("u@d", probe.as_str(), "read");
        let iters = 200usize;
        let per_iter_us = |start: Instant| start.elapsed().as_micros() as f64 / iters as f64;

        // The walk scans the tree the PDP indexes: same resolved
        // bodies, no store look-up on either side.
        let resolved = resolve_references(&root, pap.as_ref());
        let start = Instant::now();
        let mut walk = EvalMetrics::default();
        let mut walked = None;
        for _ in 0..iters {
            let mut evaluator = Evaluator::new(pap.as_ref(), &request);
            walked = Some(evaluator.evaluate_element(resolved.root()));
            walk = evaluator.metrics;
        }
        let walk_us = per_iter_us(start);

        let start = Instant::now();
        let mut decided = None;
        for _ in 0..iters {
            decided = Some(pdp.decide(&request, 0));
        }
        let indexed_us = per_iter_us(start);
        let m = pdp.metrics();
        assert_eq!(
            decided, walked,
            "{p} policies: the index changed the answer"
        );
        assert_eq!(
            m.eval.policies_evaluated,
            hot * m.decisions,
            "{p} policies: a decide reaches the hot/* policies and no others"
        );
        assert_eq!(walk.policies_evaluated, p as u64);
        assert_eq!(m.eval.rules_evaluated, walk.rules_evaluated * m.decisions);
        table.row(vec![
            p.to_string(),
            f2(walk.targets_checked as f64),
            f2(m.eval.targets_checked as f64 / m.decisions as f64),
            f2(m.eval.rules_evaluated as f64 / m.decisions as f64),
            f2(walk_us),
            f2(indexed_us),
        ]);
    }
    table
}

/// E4 (Fig. 4): PIP attribute retrieval volume and combining-algorithm
/// behaviour.
pub fn e4_xacml_dataflow() -> Table {
    let mut table = Table::new(
        "E4 — Fig. 4: XACML data flow — attribute volume and combining algorithms",
        &["series", "param", "lookups/req", "decision", "rules eval"],
    );
    // Part A: attribute volume.
    for a in [1usize, 4, 16, 64] {
        let statics = Arc::new(StaticAttributes::new());
        let mut conj = Vec::new();
        for i in 0..a {
            statics.add_subject_attr("alice", &format!("attr-{i}"), i as i64);
            conj.push(dacs_policy::Expr::apply(
                dacs_policy::Func::Eq,
                vec![
                    dacs_policy::Expr::attr_required(AttributeId::subject(format!("attr-{i}"))),
                    dacs_policy::Expr::val(i as i64),
                ],
            ));
        }
        let policy = Policy::new("attrs", CombiningAlg::DenyUnlessPermit).with_rule(
            Rule::new("all-attrs", Effect::Permit).with_condition(dacs_policy::Expr::and(conj)),
        );
        let pap = Arc::new(dacs_pap::Pap::new("pap.e4"));
        pap.submit("bench", policy, 0).unwrap();
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Pdp::new(
            "pdp.e4",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("attrs")),
            Arc::new(pips),
        );
        let request = RequestContext::basic("alice", "r", "read");
        let resp = pdp.decide(&request, 0);
        let m = pdp.metrics();
        table.row(vec![
            "attribute-volume".into(),
            a.to_string(),
            f2(m.eval.expr.attribute_lookups as f64),
            resp.decision.to_string(),
            m.eval.rules_evaluated.to_string(),
        ]);
    }
    // Part B: combining algorithms over a permit+deny conflict.
    for alg in CombiningAlg::ALL {
        if alg == CombiningAlg::OnlyOneApplicable {
            // Applicability-based: evaluated over disjoint targets below.
            continue;
        }
        let policy = Policy::new("mix", alg)
            .with_rule(Rule::new("r-permit", Effect::Permit))
            .with_rule(Rule::new("r-deny", Effect::Deny));
        let store = dacs_policy::eval::EmptyStore;
        let request = RequestContext::basic("u", "r", "read");
        let mut ev = dacs_policy::Evaluator::new(&store, &request);
        let resp = ev.evaluate_policy(&policy);
        table.row(vec![
            "combining".into(),
            alg.name().into(),
            f2(ev.metrics.expr.attribute_lookups as f64),
            resp.decision.to_string(),
            ev.metrics.rules_evaluated.to_string(),
        ]);
    }
    table
}

/// E5 (Fig. 5): syndication-tree propagation cost.
pub fn e5_syndication() -> Table {
    let mut table = Table::new(
        "E5 — Fig. 5: PAP syndication hierarchy propagation",
        &[
            "depth",
            "fanout",
            "nodes",
            "msgs/update",
            "vs pull-per-decision (1k decisions)",
        ],
    );
    for (depth, fanout) in [(1u32, 2u32), (2, 2), (3, 2), (2, 4), (3, 4)] {
        let mut tree = SyndicationTree::uniform("root", depth, fanout);
        let policy = Policy::new("global-baseline", CombiningAlg::DenyOverrides)
            .with_rule(Rule::new("ok", Effect::Permit));
        let report = tree.propagate(policy, 0);
        assert!(tree.converged(&PolicyId::new("global-baseline")));
        // Baseline: every decision fetches the policy remotely
        // (request + response = 2 messages per decision at each node).
        let nodes = tree.len();
        let pull_baseline = 1000u64 * 2;
        table.row(vec![
            depth.to_string(),
            fanout.to_string(),
            nodes.to_string(),
            report.total_messages().to_string(),
            format!("{} vs {}", report.total_messages(), pull_baseline),
        ]);
    }
    table
}

/// E6: decision caching — hit rate vs staleness (false permits).
pub fn e6_caching(requests: usize) -> Table {
    let mut table = Table::new(
        "E6 — §3.2 caching: TTL vs hit rate vs stale (false) permits",
        &["ttl (ms)", "hit rate", "false-permit %", "pdp evals"],
    );
    for ttl in [0u64, 100, 1_000, 10_000] {
        let pap = Arc::new(dacs_pap::Pap::new("pap.e6"));
        let policy = dacs_policy::dsl::parse_policy(
            r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
        )
        .unwrap();
        pap.submit("bench", policy, 0).unwrap();
        let statics = Arc::new(StaticAttributes::new());
        for u in 0..20 {
            statics.add_subject_attr(&format!("user-{u}"), "role", "doctor");
        }
        let mut pips = PipRegistry::new();
        pips.add(statics.clone());
        let mut pdp = Pdp::new(
            "pdp.e6",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        );
        if ttl > 0 {
            pdp = pdp.with_cache(CacheConfig {
                capacity: 1024,
                ttl_ms: ttl,
            });
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut revoked: Vec<bool> = vec![false; 20];
        let mut false_permits = 0usize;
        // One request per ms; revoke one random user every 500 ms.
        for t in 0..requests as u64 {
            if t % 500 == 499 {
                let victim = rng.gen_range(0..20);
                if !revoked[victim] {
                    statics.remove_subject(&format!("user-{victim}"));
                    revoked[victim] = true;
                }
            }
            let u = rng.gen_range(0..20);
            let request = RequestContext::basic(format!("user-{u}"), "records/1", "read");
            let resp = pdp.decide(&request, t);
            if resp.decision == Decision::Permit && revoked[u] {
                false_permits += 1;
            }
        }
        let m = pdp.metrics();
        let hit_rate = m.cache_hits as f64 / m.decisions as f64;
        table.row(vec![
            ttl.to_string(),
            f2(hit_rate),
            f2(100.0 * false_permits as f64 / requests as f64),
            (m.decisions - m.cache_hits).to_string(),
        ]);
    }
    table
}

/// E7: message security overhead (Juric et al. comparison).
pub fn e7_message_security(iters: usize) -> Table {
    let mut table = Table::new(
        "E7 — §3.2 message security: size and throughput by protection mode",
        &[
            "mode",
            "scheme",
            "codec",
            "wire bytes",
            "size ×plain",
            "wrap+unwrap µs",
        ],
    );
    // Representative message: a decision request for a mid-size context.
    let msg = dacs_federation::Msg::DecisionRequest {
        request: RequestContext::basic("user-7@domain-1", "records/патология-42", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("dept", "radiology"),
    };
    for model in [SizeModel::Compact, SizeModel::Verbose] {
        let payload_len = msg.size(model);
        let payload = vec![0u8; payload_len];
        let mut plain_len = 0usize;
        for (mode, scheme) in [
            (SecurityMode::Plain, "—"),
            (SecurityMode::Signed, "sim-pki"),
            (SecurityMode::Signed, "merkle"),
            (SecurityMode::SignedEncrypted, "sim-pki"),
        ] {
            let ctx = CryptoCtx::new();
            let mut rng = StdRng::seed_from_u64(9);
            let key = Arc::new(match scheme {
                "merkle" => SigningKey::generate_merkle(&mut rng, 12),
                _ => SigningKey::generate_sim(ctx.registry(), &mut rng),
            });
            let make = |id: &str| -> SecureChannel {
                match mode {
                    SecurityMode::Plain => SecureChannel::plain(id, ctx.clone()),
                    SecurityMode::Signed => SecureChannel::signed(id, ctx.clone(), key.clone()),
                    SecurityMode::SignedEncrypted => SecureChannel::signed_encrypted(
                        id,
                        ctx.clone(),
                        key.clone(),
                        b"secret",
                        "e7",
                    ),
                }
            };
            let mut sender = make("pep");
            let mut receiver = make("pdp");
            receiver.add_peer("pep", key.public_key());

            let sample = sender.wrap(&payload).expect("key not exhausted");
            let wire = sample.wire_len();
            if mode == SecurityMode::Plain {
                plain_len = wire;
            }
            receiver.unwrap(&sample).expect("verifies");

            let start = Instant::now();
            for _ in 0..iters {
                let m = sender.wrap(&payload).expect("key not exhausted");
                receiver.unwrap(&m).expect("verifies");
            }
            let us = start.elapsed().as_micros() as f64 / iters as f64;
            table.row(vec![
                mode.name().into(),
                scheme.into(),
                format!("{model:?}"),
                wire.to_string(),
                f2(wire as f64 / plain_len.max(1) as f64),
                f2(us),
            ]);
        }
    }
    table
}

/// E8: push-vs-pull trade-off, measured over real flows.
pub fn e8_push_vs_pull() -> Table {
    let mut table = Table::new(
        "E8 — §2.2 push vs pull (measured): K cross-domain requests per client",
        &[
            "K",
            "pull msgs",
            "pull bytes",
            "push msgs (incl. issuance)",
            "push bytes",
            "msg winner",
        ],
    );
    for k in [1u64, 2, 4, 8, 16] {
        let ctx = CryptoCtx::new();
        let vo = with_shared_cas(healthcare_vo(2, 8, &ctx), 3_600_000);
        let mut fnet = flownet(&vo, 29);
        let subject = "user-1@domain-1";

        // Pull: K cross-domain reads on records/* (6 messages each:
        // service round trip + decision round trip + attribute fetch).
        let (mut pull_msgs, mut pull_bytes) = (0u64, 0u64);
        for i in 0..k {
            let t = request_flow(
                &mut fnet,
                &vo,
                FlowKind::Pull,
                subject,
                0,
                &format!("records/{i}"),
                "read",
                i,
                SizeModel::Compact,
            );
            assert!(t.allowed, "doctor read must pass: {t:?}");
            pull_msgs += t.messages;
            pull_bytes += t.bytes;
        }

        // Push: one issuance then K capability-bearing requests.
        let (cap, issue_trace) = issue_capability_flow(
            &mut fnet,
            &vo,
            subject,
            "shared/*",
            &["read".to_string()],
            "domain-0",
            0,
            SizeModel::Compact,
        );
        let cap = cap.expect("prescreen permits shared reads");
        let (mut push_msgs, mut push_bytes) = (issue_trace.messages, issue_trace.bytes);
        for i in 0..k {
            let t = push_flow(
                &mut fnet,
                &vo,
                subject,
                0,
                &format!("shared/{i}"),
                "read",
                &cap,
                100 + i,
                SizeModel::Compact,
            );
            assert!(t.allowed, "capability must carry: {t:?}");
            push_msgs += t.messages;
            push_bytes += t.bytes;
        }

        table.row(vec![
            k.to_string(),
            pull_msgs.to_string(),
            pull_bytes.to_string(),
            push_msgs.to_string(),
            push_bytes.to_string(),
            if push_msgs < pull_msgs {
                "push"
            } else if push_msgs == pull_msgs {
                "tie"
            } else {
                "pull"
            }
            .into(),
        ]);
    }
    table
}

/// E9: static conflict analysis scaling.
pub fn e9_conflict_analysis() -> Table {
    let mut table = Table::new(
        "E9 — §3.1 static conflict analysis scaling",
        &["policies", "conflicts found", "cube pairs", "analysis µs"],
    );
    for p in [32usize, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(77);
        let mut policies = Vec::with_capacity(p);
        for i in 0..p {
            // Half permit, half deny; resources drawn from 16 shared
            // prefixes so overlaps occur.
            let effect = if i % 2 == 0 {
                Effect::Permit
            } else {
                Effect::Deny
            };
            let prefix = rng.gen_range(0..16);
            let role = format!("role-{}", rng.gen_range(0..8));
            let policy = Policy::new(PolicyId::new(format!("p{i}")), CombiningAlg::DenyOverrides)
                .with_rule(Rule::new("r", effect).with_target(Target::all(vec![
                    AttrMatch::glob(AttributeId::resource("id"), format!("area-{prefix}/*")),
                    AttrMatch::equals(AttributeId::subject("role"), role),
                ])));
            policies.push(policy);
        }
        let start = Instant::now();
        let analysis = conflict::analyze(policies.iter());
        let us = start.elapsed().as_micros();
        table.row(vec![
            p.to_string(),
            analysis.conflicts.len().to_string(),
            analysis.cubes_compared.to_string(),
            us.to_string(),
        ]);
    }
    table
}

/// E10: trust negotiation rounds/disclosure vs chain depth.
pub fn e10_trust_negotiation() -> Table {
    let mut table = Table::new(
        "E10 — §3.1 trust negotiation: chain depth × strategy",
        &[
            "depth",
            "strategy",
            "success",
            "rounds",
            "client disclosed",
            "server disclosed",
        ],
    );
    for depth in [0u32, 1, 2, 4, 8] {
        for (strategy, name) in [
            (Strategy::Eager, "eager"),
            (Strategy::Parsimonious, "parsimonious"),
        ] {
            let (client, server, goal) = chain_scenario(depth, 6);
            let out = negotiate(&client, &server, &goal, strategy, 100);
            table.row(vec![
                depth.to_string(),
                name.into(),
                out.success.to_string(),
                out.rounds.to_string(),
                out.disclosed_by_client.len().to_string(),
                out.disclosed_by_server.len().to_string(),
            ]);
        }
    }
    table
}

/// E11: delegation chain depth vs validation and revocation cost.
pub fn e11_delegation() -> Table {
    let mut table = Table::new(
        "E11 — §3.2 delegation: chain depth vs validation / revocation",
        &[
            "chain depth",
            "validate µs",
            "chain length found",
            "revoked grants",
        ],
    );
    for depth in [1u32, 2, 4, 8, 16] {
        let mut reg = DelegationRegistry::new();
        reg.add_root("vo-root");
        let mut delegator = "vo-root".to_string();
        let mut first_grant = None;
        for d in 0..depth {
            let delegatee = format!("authority-{d}");
            let g = reg
                .grant(&delegator, &delegatee, "ns/*", depth - d, 1_000_000, 0)
                .expect("chain grant");
            if first_grant.is_none() {
                first_grant = Some(g);
            }
            delegator = delegatee;
        }
        let leaf = format!("authority-{}", depth - 1);
        let start = Instant::now();
        let iters = 200;
        let mut found = None;
        for _ in 0..iters {
            found = reg.validate(&leaf, "ns/policy-1", 10);
        }
        let us = start.elapsed().as_micros() as f64 / iters as f64;
        let revoked = reg.revoke(first_grant.expect("depth >= 1")).unwrap();
        table.row(vec![
            depth.to_string(),
            f2(us),
            found.map(|d| d.to_string()).unwrap_or("-".into()),
            revoked.to_string(),
        ]);
    }
    table
}

/// E12: RBAC scale — check latency vs users and hierarchy depth.
pub fn e12_rbac_scale() -> Table {
    let mut table = Table::new(
        "E12 — §3.1 RBAC scale: access check cost vs users / hierarchy depth",
        &["users", "roles", "depth", "check µs (warm)"],
    );
    for (users, roles, depth) in [(100usize, 10usize, 2u32), (1_000, 32, 4), (10_000, 64, 6)] {
        let mut rbac = dacs_rbac::Rbac::new();
        for r in 0..roles {
            rbac.add_role(format!("role-{r}"));
        }
        // Chain the first `depth` roles into a hierarchy.
        for d in 1..depth as usize {
            rbac.add_inheritance(&format!("role-{d}"), &format!("role-{}", d - 1))
                .unwrap();
        }
        for r in 0..roles {
            rbac.grant(
                &format!("role-{r}"),
                dacs_rbac::Permission::new("read", format!("area-{r}/*")),
            )
            .unwrap();
        }
        let mut rng = StdRng::seed_from_u64(3);
        for u in 0..users {
            let name = format!("user-{u}");
            rbac.add_user(&name);
            rbac.assign(&name, &format!("role-{}", rng.gen_range(0..roles)))
                .unwrap();
        }
        // Warm the closure cache, then measure.
        let _warmed = rbac.check("user-0", "read", "area-0/x");
        let iters = 2_000;
        let start = Instant::now();
        let mut hits = 0usize;
        for i in 0..iters {
            let u = i % users;
            if rbac.check(&format!("user-{u}"), "read", "area-0/doc") {
                hits += 1;
            }
        }
        let us = start.elapsed().as_micros() as f64 / iters as f64;
        let _ = hits;
        table.row(vec![
            users.to_string(),
            roles.to_string(),
            depth.to_string(),
            f2(us),
        ]);
    }
    table
}

/// E13: PDP location — static binding vs discovery under churn.
pub fn e13_pdp_discovery(requests: usize) -> Table {
    let mut table = Table::new(
        "E13 — §3.2 PDP location: static binding vs discovery under churn",
        &["binding", "pdp replicas", "failure rate", "availability %"],
    );
    for (replicas, fail_p) in [(1usize, 0.1f64), (3, 0.1), (3, 0.3)] {
        for binding_name in ["static", "discovery"] {
            let dir = PdpDirectory::new();
            for r in 0..replicas {
                dir.register(format!("pdp-{r}"), "domain-a");
            }
            let binding = match binding_name {
                "static" => Binding::Static {
                    target: "pdp-0".into(),
                },
                _ => Binding::Discovery,
            };
            let mut rng = StdRng::seed_from_u64(31);
            let mut served = 0usize;
            for _ in 0..requests {
                // Churn: each window, each endpoint flips down/up.
                for r in 0..replicas {
                    let name = format!("pdp-{r}");
                    if rng.gen::<f64>() < fail_p {
                        dir.mark_down(&name);
                    } else {
                        dir.mark_up(&name);
                    }
                }
                if dir.resolve(&binding, "domain-a").is_some() {
                    served += 1;
                }
            }
            table.row(vec![
                binding_name.into(),
                replicas.to_string(),
                f2(fail_p),
                f2(100.0 * served as f64 / requests as f64),
            ]);
        }
    }
    table
}

/// Builds the E14 testbed: a sharded PDP cluster where each shard runs
/// one *stale* replica (bound to a pre-lockdown PAP that permits
/// everyone) ahead of `fresh_per_shard` fresh replicas. Returns the
/// cluster plus a ground-truth PDP on the fresh policy.
fn e14_cluster(
    shards: usize,
    fresh_per_shard: usize,
    quorum: QuorumMode,
) -> (PdpCluster, Pdp, Vec<String>) {
    let fresh_pap = Arc::new(dacs_pap::Pap::new("pap.fresh"));
    let gate = dacs_policy::dsl::parse_policy(
        r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
    )
    .unwrap();
    fresh_pap.submit("admin", gate, 0).unwrap();

    // The stale PAP still carries the pre-lockdown policy: permit all.
    let stale_pap = Arc::new(dacs_pap::Pap::new("pap.stale"));
    let permissive = dacs_policy::dsl::parse_policy(
        r#"
policy "gate" deny-unless-permit {
  rule "everyone" permit { }
}
"#,
    )
    .unwrap();
    stale_pap.submit("admin", permissive, 0).unwrap();

    let statics = Arc::new(StaticAttributes::new());
    for u in 0..10 {
        statics.add_subject_attr(&format!("user-{u}"), "role", "doctor");
    }
    let mut pips = PipRegistry::new();
    pips.add(statics);
    let pips = Arc::new(pips);
    let root = PolicyElement::PolicyRef(PolicyId::new("gate"));

    let mut builder = ClusterBuilder::new("e14").quorum(quorum);
    let mut replica_names = Vec::new();
    for s in 0..shards {
        let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
        // Stale replica first: the worst case for FirstHealthy, which
        // trusts whichever healthy replica it reaches first.
        let stale_name = format!("s{s}-stale");
        replica_names.push(stale_name.clone());
        replicas.push(Arc::new(Pdp::new(
            stale_name,
            stale_pap.clone(),
            root.clone(),
            pips.clone(),
        )));
        for r in 0..fresh_per_shard {
            let name = format!("s{s}-r{r}");
            replica_names.push(name.clone());
            replicas.push(Arc::new(
                Pdp::new(name, fresh_pap.clone(), root.clone(), pips.clone()).with_cache(
                    CacheConfig {
                        capacity: 512,
                        ttl_ms: 1_000,
                    },
                ),
            ));
        }
        builder = builder.shard(replicas);
    }
    let truth = Pdp::new("truth", fresh_pap, root, pips);
    (builder.build(), truth, replica_names)
}

/// The simulated control plane of the churn experiments: a controller
/// node sends each `(at_us, event)` in order over a LAN link, and
/// `Network::run_until` delivers them as the experiment's clock passes.
fn control_plane<E>(seed: u64, events: Vec<(u64, E)>) -> dacs_simnet::Network<E> {
    let mut net = dacs_simnet::Network::new(seed);
    let controller = net.add_node("controller");
    let control_plane = net.add_node("control-plane");
    net.set_link(controller, control_plane, LinkSpec::lan());
    for (at_us, event) in events {
        net.send_after(at_us, controller, control_plane, 64, event);
    }
    net
}

/// E14: cluster dependability — availability, degraded service and
/// wrong decisions under replica crash churn, by quorum mode.
///
/// Fault injection runs on `dacs-simnet`: a controller node schedules
/// crash/recover messages over a LAN link; as the simulated clock
/// passes each delivery, the corresponding replica is marked down/up in
/// the cluster's directory. Each shard carries one stale replica that
/// never saw the lockdown policy update, so "wrong" decisions separate
/// into false permits (stale replica trusted) and false denies
/// (fail-closed quorum overruled a correct permit).
pub fn e14_cluster_dependability(requests: usize) -> Table {
    let mut table = Table::new(
        "E14 — cluster dependability: quorum mode under replica churn (4 shards × 3 replicas, 1 stale/shard)",
        &[
            "quorum",
            "availability %",
            "degraded %",
            "false permits",
            "false denies",
            "fanout/req",
            "decide µs (mean)",
        ],
    );
    #[derive(Clone, PartialEq, Debug)]
    enum Churn {
        Crash(String),
        Recover(String),
    }
    for quorum in QuorumMode::ALL {
        let (cluster, truth, replica_names) = e14_cluster(4, 2, quorum);

        // Schedule crash/recover churn on the simulated network.
        let horizon_us = requests as u64 * 1_000;
        let mut rng = StdRng::seed_from_u64(41);
        let mut churn = Vec::new();
        for name in &replica_names {
            let mut t = rng.gen_range(0..horizon_us / 2);
            while t < horizon_us {
                let outage = rng.gen_range(horizon_us / 20..horizon_us / 8);
                churn.push((t, Churn::Crash(name.clone())));
                churn.push((t + outage, Churn::Recover(name.clone())));
                t += outage + rng.gen_range(horizon_us / 10..horizon_us / 3);
            }
        }
        let mut net = control_plane(14, churn);

        let mut false_permits = 0u64;
        let mut false_denies = 0u64;
        // Time only the cluster decide itself — ground-truth evaluation
        // and fault-event bookkeeping are measurement scaffolding.
        let mut decide_time = std::time::Duration::ZERO;
        for t in 0..requests as u64 {
            // Apply every fault event the simulated clock has passed.
            net.run_until(t * 1_000, |_net, delivery| match delivery.payload {
                Churn::Crash(ref name) => cluster.mark_down(name),
                Churn::Recover(ref name) => cluster.mark_up(name),
            });
            let u = rng.gen_range(0..20);
            let request =
                RequestContext::basic(format!("user-{u}"), format!("records/{}", u % 7), "read");
            let expected = truth.decide(&request, t).decision;
            let started = Instant::now();
            let outcome = cluster.decide(&request, t);
            decide_time += started.elapsed();
            if let Some(response) = outcome.response {
                if response.decision == Decision::Permit && expected != Decision::Permit {
                    false_permits += 1;
                }
                if response.decision != Decision::Permit && expected == Decision::Permit {
                    false_denies += 1;
                }
            }
        }
        let elapsed_us = decide_time.as_micros() as f64 / requests as f64;
        let m = cluster.metrics();
        table.row(vec![
            quorum.name().into(),
            f2(100.0 * m.availability()),
            f2(100.0 * m.degraded_rate()),
            false_permits.to_string(),
            false_denies.to_string(),
            f2(m.amplification()),
            f2(elapsed_us),
        ]);
    }
    table
}

/// A decision backend that answers correctly but slowly — the E15
/// stand-in for an overloaded or far-away replica whose tail latency
/// the fan-out strategies must hide. Counts the evaluations it began.
struct SlowPermit {
    name: String,
    delay: std::time::Duration,
    asked: std::sync::atomic::AtomicU64,
}

impl DecisionBackend for SlowPermit {
    fn name(&self) -> &str {
        &self.name
    }
    fn decide(&self, _request: &RequestContext, _now_ms: u64) -> dacs_policy::eval::Response {
        self.asked
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::thread::sleep(self.delay);
        dacs_policy::eval::Response::decision(Decision::Permit)
    }
}

/// Builds the E15 testbed: one majority shard of three replicas — one
/// *slow* replica listed ahead of two fast ones — built with
/// `scheduler` or without one. The pool and cluster share `telemetry`,
/// so per-stage histograms (queue wait, replica compute, quorum wait)
/// decompose the same run the latency table summarizes. Returned
/// beside the cluster: the slow replica.
fn e15_cluster(
    scheduler: Option<SchedulerConfig>,
    slow: std::time::Duration,
    telemetry: &Arc<dacs_telemetry::Telemetry>,
) -> (PdpCluster, Arc<SlowPermit>) {
    let sleeper = Arc::new(SlowPermit {
        name: "r-slow".into(),
        delay: slow,
        asked: Default::default(),
    });
    let replicas: Vec<Arc<dyn DecisionBackend>> = vec![
        sleeper.clone(),
        Arc::new(dacs_cluster::StaticBackend::new(
            "r-fast-0",
            Decision::Permit,
        )),
        Arc::new(dacs_cluster::StaticBackend::new(
            "r-fast-1",
            Decision::Permit,
        )),
    ];
    let builder = ClusterBuilder::new("e15")
        .quorum(QuorumMode::Majority)
        .telemetry(Arc::clone(telemetry))
        .shard(replicas);
    let cluster = match scheduler {
        Some(config) => builder.scheduler(config),
        None => builder,
    };
    (cluster.build(), sleeper)
}

/// A registry histogram's p99, recorded in ns, printed in µs with two
/// decimals.
fn p99_us(telemetry: &dacs_telemetry::Telemetry, name: &str) -> String {
    f2(telemetry.registry().histogram(name).percentile(0.99) as f64 / 1e3)
}

/// E15: fan-out latency — the majority quorum served by the caller
/// alone vs through the pool, under one slow replica plus
/// simnet-injected crash churn.
///
/// One shard runs a 2 ms-slow replica (first in configured order) next
/// to two fast replicas; a simnet controller schedules crash/recover
/// events that take the slow replica down for part of the run. The
/// `caller` row is the cluster built without a scheduler: its first
/// query asks its replicas in configured order, every one unmeasured,
/// and pays the sleeper once; from then on the estimate orders the
/// sleeper last and two fast votes settle before it is reached. The
/// `pooled` row is the same cluster with a scheduler: the sleeper's
/// estimate is above the pool hand-off constant, so it rides the pool
/// on every query it is up for, while the two fast replicas — once
/// measured — settle the vote on the caller without waiting for it.
/// Decision correctness is identical across rows — the table isolates
/// the latency distribution (p50/p99/p999, spread) and, via each row's
/// telemetry registry, the per-stage breakdown of where a decision's
/// time goes: pool queue wait vs replica compute vs quorum assembly
/// wait.
pub fn e15_fanout_latency(requests: usize) -> Table {
    let mut table = Table::new(
        "E15 — fan-out latency: caller vs pooled (3-replica majority, one 2 ms-slow, crash churn)",
        &[
            "strategy",
            "lat p50 (µs)",
            "lat p99 (µs)",
            "lat p999 (µs)",
            "lat stddev (µs)",
            "queue p99 (µs)",
            "replica p99 (µs)",
            "quorum p99 (µs)",
            "on caller",
            "availability %",
            "slow replica asked",
        ],
    );
    let slow = std::time::Duration::from_millis(2);
    #[derive(Clone, PartialEq, Debug)]
    enum Churn {
        Crash,
        Recover,
    }
    // Headroom beyond the replica count: a 2 ms straggler parks a
    // worker until it finishes, and only jobs still queued when the
    // verdict lands are skipped.
    for (strategy, scheduler) in [("caller", None), ("pooled", Some(SchedulerConfig::new(6)))] {
        let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
        let (cluster, sleeper) = e15_cluster(scheduler, slow, &telemetry);

        // Identical, deterministic churn schedule for every row: the
        // slow replica crashes and recovers on a simulated control
        // plane (≈ one outage per third of the horizon).
        let horizon_us = requests as u64 * 1_000;
        let mut rng = StdRng::seed_from_u64(53);
        let (mut t, mut churn) = (rng.gen_range(0..horizon_us / 3), Vec::new());
        while t < horizon_us {
            let outage = rng.gen_range(horizon_us / 12..horizon_us / 6);
            churn.extend([(t, Churn::Crash), (t + outage, Churn::Recover)]);
            t += outage + rng.gen_range(horizon_us / 6..horizon_us / 3);
        }
        let mut net = control_plane(15, churn);

        let mut lats = Vec::with_capacity(requests);
        for i in 0..requests as u64 {
            net.run_until(i * 1_000, |_net, delivery| match delivery.payload {
                Churn::Crash => cluster.mark_down("r-slow"),
                Churn::Recover => cluster.mark_up("r-slow"),
            });
            let u = i % 16;
            let request =
                RequestContext::basic(format!("user-{u}"), format!("records/{}", u % 5), "read");
            let started = Instant::now();
            let outcome = cluster.decide(&request, i);
            lats.push(started.elapsed().as_micros() as u64);
            debug_assert!(outcome.response.is_some(), "replicas remain available");
        }
        let lat = Summary::of(&lats);
        let m = cluster.metrics();
        // Per-stage breakdown from the shared registry, recorded in ns
        // and printed in µs: the pool-less row never queues or waits on
        // a quorum channel, so those histograms stay empty (p99 = 0) —
        // the comparison itself.
        let stage_p99 = |name: &str| p99_us(&telemetry, name);
        table.row(vec![
            strategy.into(),
            lat.p50.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            f2(lat.stddev),
            stage_p99("dacs_fanout_queue_wait_ns"),
            stage_p99(Stage::ReplicaDecide.metric()),
            stage_p99(Stage::QuorumWait.metric()),
            m.caller_evaluations.to_string(),
            f2(100.0 * m.availability()),
            sleeper
                .asked
                .load(std::sync::atomic::Ordering::Relaxed)
                .to_string(),
        ]);
    }
    table
}

/// The E16 control-plane events, scheduled on the simulated network.
#[derive(Clone, PartialEq, Debug)]
enum ResyncEvent {
    /// Replica index crashes (directory down + syndication node offline).
    Crash(usize),
    /// Replica index returns (node online + directory up; the cluster
    /// gates it as `Syncing` while its epoch lags).
    Recover(usize),
    /// The global PAP propagates policy version `k` down the tree.
    Update(u64),
    /// Replica index replays its missed updates; the next decide
    /// readmits it.
    CatchUp(usize),
}

/// Builds the E16 testbed: a syndication tree whose three leaves are
/// the local PAPs of three PDP replicas forming one majority-quorum
/// shard behind the alternating lockdown gate, plus a ground-truth PDP
/// on the root PAP.
fn e16_testbed() -> (PdpCluster, SyndicationTree, Pdp, Vec<usize>, Vec<String>) {
    let mut tree = SyndicationTree::new("pap.e16");
    let statics = Arc::new(StaticAttributes::new());
    for u in 0..16 {
        statics.add_subject_attr(&format!("user-{u}"), "role", "doctor");
    }
    let mut pips = PipRegistry::new();
    pips.add(statics);
    let pips = Arc::new(pips);
    let root = PolicyElement::PolicyRef(PolicyId::new("e16-gate"));

    let mut leaves = Vec::new();
    let mut names = Vec::new();
    let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
    for r in 0..3usize {
        let name = format!("e16-r{r}");
        let leaf = tree.add_child(0, name.clone(), None);
        replicas.push(Arc::new(
            Pdp::new(
                name.clone(),
                tree.node(leaf).pap.clone(),
                root.clone(),
                pips.clone(),
            )
            .with_cache(CacheConfig {
                capacity: 512,
                ttl_ms: 1_000,
            }),
        ));
        leaves.push(leaf);
        names.push(name);
    }
    // Version 0 reaches everyone before any churn.
    tree.propagate(lockdown_gate("e16", 0), 0);

    let cluster = ClusterBuilder::new("e16")
        .quorum(QuorumMode::Majority)
        .shard(replicas)
        .build();
    let truth = Pdp::new("truth", tree.node(0).pap.clone(), root, pips);
    (cluster, tree, truth, leaves, names)
}

/// E16: replica re-sync — staleness errors under crash churn plus
/// concurrent policy updates, with recovery that is epoch-gated by
/// construction and readmits itself.
///
/// Two replicas of a three-replica majority shard crash over every
/// policy update (the root pushes an alternating permit/lockdown
/// policy down the syndication tree; offline leaves miss it) and later
/// recover stale. The pair returns as `Syncing`, excluded from quorum
/// counting until its `SyndicationTree::catch_up` replay lands a little
/// later, and the first decide after that readmits it: nothing in the
/// loop asks for readmission. The shard keeps answering correctly from
/// the fresh replica — zero staleness errors, at the cost of a
/// degraded-service window that [`dacs_cluster::ClusterMetrics`]
/// accounts (`resyncs`, `stale_decisions_avoided`, epoch-lag gauges).
pub fn e16_replica_resync(requests: usize) -> Table {
    let mut table = Table::new(
        "E16 — replica re-sync: crash churn + policy updates, self-readmitting epoch-gated recovery (3 replicas, majority)",
        &[
            "availability %",
            "degraded %",
            "false permits",
            "false denies",
            "resyncs",
            "stale votes avoided",
            "epoch lag max",
        ],
    );
    assert!(requests >= 64, "e16 needs a few churn rounds");
    let (cluster, mut tree, truth, leaves, names) = e16_testbed();

    // Eight deterministic rounds. In each, replicas 1 and 2 crash
    // shortly before a policy update and recover shortly after it: they
    // are always stale on return. Replica 0 never crashes and anchors
    // the fresh view.
    let round_ms = (requests / 8) as u64;
    let mut churn = Vec::new();
    let mut send = |at_ms: u64, event| churn.push((at_ms * 1_000, event));
    for j in 0..8u64 {
        let base = j * round_ms;
        send(base + round_ms / 4, ResyncEvent::Crash(1));
        send(base + round_ms / 4, ResyncEvent::Crash(2));
        send(base + round_ms / 2, ResyncEvent::Update(j + 1));
        send(base + round_ms * 5 / 8, ResyncEvent::Recover(1));
        send(base + round_ms * 5 / 8, ResyncEvent::Recover(2));
        send(base + round_ms * 3 / 4, ResyncEvent::CatchUp(1));
        send(base + round_ms * 3 / 4, ResyncEvent::CatchUp(2));
    }
    let mut net = control_plane(16, churn);

    let mut false_permits = 0u64;
    let mut false_denies = 0u64;
    for t in 0..requests as u64 {
        net.run_until(t * 1_000, |_net, delivery| match delivery.payload {
            ResyncEvent::Crash(r) => {
                cluster.mark_down(&names[r]);
                tree.set_online(leaves[r], false);
            }
            ResyncEvent::Recover(r) => {
                tree.set_online(leaves[r], true);
                cluster.mark_up(&names[r]);
            }
            ResyncEvent::Update(k) => {
                tree.propagate(lockdown_gate("e16", k), t);
            }
            ResyncEvent::CatchUp(r) => {
                tree.catch_up(leaves[r], t);
            }
        });
        let u = t % 16;
        let request =
            RequestContext::basic(format!("user-{u}"), format!("records/{}", u % 5), "read");
        let expected = truth.decide(&request, t).decision;
        if let Some(response) = cluster.decide(&request, t).response {
            if response.decision == Decision::Permit && expected != Decision::Permit {
                false_permits += 1;
            }
            if response.decision != Decision::Permit && expected == Decision::Permit {
                false_denies += 1;
            }
        }
    }
    let m = cluster.metrics();
    table.row(vec![
        f2(100.0 * m.availability()),
        f2(100.0 * m.degraded_rate()),
        false_permits.to_string(),
        false_denies.to_string(),
        m.resyncs.to_string(),
        m.stale_decisions_avoided.to_string(),
        m.epoch_lag_max.to_string(),
    ]);
    table
}

/// Builds the E17 testbed: a 3-domain VO where every domain backs its
/// PEP with a 3-replica majority shard (replica PAPs = leaves of the
/// domain's syndication tree), all replicas sharing one VO-wide
/// [`PdpDirectory`], with PEP enforcement routed through the domain's
/// quorum.
fn e17_vo(ctx: &CryptoCtx) -> (Vo, Vec<Arc<dacs_telemetry::Telemetry>>) {
    let directory = Arc::new(PdpDirectory::new());
    let mut domains = Vec::with_capacity(3);
    // One registry per domain: the per-stage latency columns stay
    // separable per cluster instead of blending all nine replicas.
    let mut telemetries = Vec::with_capacity(3);
    for d in 0..3usize {
        let name = format!("domain-{d}");
        let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
        let mut builder = Domain::builder(&name)
            .policy(lockdown_gate(&name, 0))
            .clustered(
                ClusterBuilder::new(&name)
                    .quorum(QuorumMode::Majority)
                    .directory(directory.clone()),
            )
            .cluster_topology(1, 3)
            .pdp_cache(CacheConfig {
                capacity: 512,
                ttl_ms: 1_000,
            })
            .telemetry(Arc::clone(&telemetry))
            .seed(170 + d as u64);
        for u in 0..16 {
            builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
        }
        domains.push(builder.build(ctx));
        telemetries.push(telemetry);
    }
    (Vo::new("vo-fed", ctx.clone(), domains), telemetries)
}

/// The E17 control-plane events, scheduled on the simulated network:
/// `(domain index, replica index)` churn plus per-domain policy
/// updates.
#[derive(Clone, PartialEq, Debug)]
enum FedEvent {
    /// Replica crashes: directory down + syndication leaf offline.
    Crash(usize, usize),
    /// Replica answers again while its syndication leaf is still cut
    /// off — `PdpCluster::mark_up` alone: it returns `Syncing`, behind.
    Return(usize, usize),
    /// Replica recovers — `Domain::recover_replica`, which replays
    /// what it missed; the next decide readmits it.
    Recover(usize, usize),
    /// The domain authority propagates policy version `k` down its
    /// syndication tree.
    Update(usize, u64),
}

/// E17: federated clusters — the VO flows riding per-domain PDP
/// clusters under replica crash churn plus concurrent per-domain
/// policy updates, with recovery that heals itself.
///
/// Each of the 3 domains runs a 3-replica majority shard whose replica
/// PAPs are syndication leaves of that domain's authority; all nine
/// replicas share one VO-wide directory, and every enforcement rides
/// the domain's quorum. Per round, each domain's replicas 1 and 2
/// crash over a policy update (staggered across domains, so updates
/// are concurrent VO-wide) and answer again stale while their
/// syndication leaves are still cut off: back up in the cluster, held
/// in `Syncing` and out of every quorum, so replica 0 — the fresh
/// anchor — decides alone (the stale-vote and epoch-lag columns count
/// that window). A little later one `Domain::recover_replica` call
/// replays what each missed and the next decide readmits it. One round
/// also injects a full-shard blackout per domain — a window of honest
/// unavailability, answered fail-safe. Every pull flow (≈40%
/// cross-domain, riding the federated attribute fetch) is compared
/// against the domain's root-PAP reference PDP. Both false-permit
/// columns are exactly zero; the blackout window is the only
/// availability gap.
pub fn e17_federated_cluster(requests: usize) -> Table {
    let mut table = Table::new(
        "E17 — federated clusters: 3-domain VO, per-domain 3-replica majority shards, crash churn + concurrent policy updates (shared directory)",
        &[
            "domain",
            "availability %",
            "degraded %",
            "false permits",
            "xdom false permits",
            "false denies",
            "resyncs",
            "stale votes avoided",
            "epoch lag max",
            "enforce p99 (µs)",
            "replica p99 (µs)",
        ],
    );
    assert!(requests >= 64, "e17 needs a few churn rounds");
    let ctx = CryptoCtx::new();
    let (vo, telemetries) = e17_vo(&ctx);
    let mut fnet = flownet(&vo, 171);
    let replica_names: Vec<Vec<String>> = vo.domains.iter().map(|d| d.replica_names()).collect();

    // Eight rounds of churn, staggered across domains so the three
    // authorities update concurrently but not in lockstep. Replicas 1
    // and 2 of every domain sleep through each update, answer again
    // behind and then recover; round 3 adds a brief full-shard
    // blackout.
    let round_ms = (requests / 8) as u64;
    let mut churn = Vec::new();
    let mut send = |at_ms: u64, event| churn.push((at_ms * 1_000, event));
    for j in 0..8u64 {
        let base = j * round_ms;
        for d in 0..3usize {
            let off = d as u64 * round_ms / 32;
            send(base + round_ms / 4 + off, FedEvent::Crash(d, 1));
            send(base + round_ms / 4 + off, FedEvent::Crash(d, 2));
            send(base + round_ms / 2 + off, FedEvent::Update(d, j + 1));
            for r in 1..3usize {
                send(base + round_ms * 5 / 8 + off, FedEvent::Return(d, r));
                send(base + round_ms * 3 / 4 + off, FedEvent::Recover(d, r));
            }
            if j == 3 {
                // Full-shard blackout, clear of any update: the replicas
                // return current, so this costs availability, never
                // correctness.
                for r in 0..3usize {
                    send(base + round_ms * 13 / 16 + off, FedEvent::Crash(d, r));
                    send(base + round_ms * 7 / 8 + off, FedEvent::Recover(d, r));
                }
            }
        }
    }
    let mut net = control_plane(17, churn);

    let mut rng = StdRng::seed_from_u64(173);
    let mut false_permits = [0u64; 3];
    let mut xdom_false_permits = [0u64; 3];
    let mut false_denies = [0u64; 3];
    for t in 0..requests as u64 {
        net.run_until(t * 1_000, |_net, delivery| match delivery.payload {
            FedEvent::Crash(d, r) => {
                vo.domains[d].crash_replica(&replica_names[d][r]);
            }
            FedEvent::Return(d, r) => {
                let cluster = vo.domains[d].cluster.as_ref();
                cluster
                    .expect("e17 domains are clustered")
                    .mark_up(&replica_names[d][r]);
            }
            FedEvent::Recover(d, r) => {
                vo.domains[d].recover_replica(&replica_names[d][r]);
            }
            FedEvent::Update(d, k) => {
                vo.domains[d].propagate_policy(lockdown_gate(&vo.domains[d].name, k), t);
            }
        });
        let home = rng.gen_range(0..3usize);
        let target = if rng.gen::<f64>() < 0.4 {
            (home + 1 + rng.gen_range(0..2usize)) % 3
        } else {
            home
        };
        let u = rng.gen_range(0..16);
        let subject = format!("user-{u}@domain-{home}");
        let resource = format!("records/{}", u % 5);
        let request = RequestContext::basic(subject.as_str(), resource.as_str(), "read");
        let domain = &vo.domains[target];
        // Ground truth: the domain's root-PAP reference engine on the
        // same (enriched) request the flow will enforce.
        let enriched = if domain.is_home_of(&subject) {
            request.clone()
        } else {
            federated_enrich(&vo, &request, &subject)
        };
        let expected = domain.pdp.decide(&enriched, t).decision;
        let trace = request_flow(
            &mut fnet,
            &vo,
            FlowKind::Pull,
            &subject,
            target,
            &resource,
            "read",
            t,
            SizeModel::Compact,
        );
        if trace.allowed && expected != Decision::Permit {
            false_permits[target] += 1;
            if target != home {
                xdom_false_permits[target] += 1;
            }
        }
        if !trace.allowed && expected == Decision::Permit {
            // Includes the blackout windows, where the shard is
            // unavailable and the PEP denies fail-safe.
            false_denies[target] += 1;
        }
    }

    for (d, domain) in vo.domains.iter().enumerate() {
        let m = domain
            .cluster
            .as_ref()
            .expect("e17 domains are clustered")
            .metrics();
        let p99 = |stage: Stage| p99_us(&telemetries[d], stage.metric());
        table.row(vec![
            domain.name.clone(),
            f2(100.0 * m.availability()),
            f2(100.0 * m.degraded_rate()),
            false_permits[d].to_string(),
            xdom_false_permits[d].to_string(),
            false_denies[d].to_string(),
            m.resyncs.to_string(),
            m.stale_decisions_avoided.to_string(),
            m.epoch_lag_max.to_string(),
            p99(Stage::PepEnforce),
            p99(Stage::ReplicaDecide),
        ]);
    }
    table
}

/// A compact clustered run with full decision tracing, for telemetry
/// artifacts and the observability acceptance tests: one E17-style
/// domain (majority 1×3 shard, pooled fan-out, PEP with a decision
/// cache) serves `requests` enforcements
/// under mid-run replica churn and a policy update, so the trace
/// carries cache hits *and* misses, fan-outs, cancellations and a
/// syndication catch-up.
///
/// Returns the run's telemetry — render the registry with
/// `Registry::render_text`, dump the trace with `Tracer::dump_json` —
/// and the caller-side wall-clock latency of every enforcement in
/// nanoseconds, so the registry's `dacs_pep_enforce_ns` percentiles
/// can be cross-checked against a [`Summary`] of the same run. The
/// domain is dropped before the call returns, and with it the
/// cluster's pool, whose drop joins its workers: every span of the run
/// has closed by then.
pub fn traced_cluster_run(requests: usize) -> (Arc<dacs_telemetry::Telemetry>, Vec<u64>) {
    let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
    let ctx = CryptoCtx::new();
    let name = "traced";
    let mut builder = Domain::builder(name)
        .policy(lockdown_gate(name, 0))
        .clustered(
            ClusterBuilder::new(name)
                .quorum(QuorumMode::Majority)
                .scheduler(SchedulerConfig::new(4)),
        )
        .cluster_topology(1, 3)
        .pep_cache(CacheConfig {
            capacity: 256,
            ttl_ms: 1_000_000,
        })
        .telemetry(Arc::clone(&telemetry))
        .seed(0x7ace);
    for u in 0..8 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    let domain = builder.build(&ctx);
    let replicas = domain.replica_names();

    let mut lats = Vec::with_capacity(requests);
    for i in 0..requests as u64 {
        if i == (requests / 3) as u64 {
            domain.crash_replica(&replicas[2]);
        }
        if i == (requests / 2) as u64 {
            // The update lands while the replica sleeps (it recovers
            // stale and catches up in one call, and the next decide
            // readmits it), and flushes the PEP cache — the second half
            // re-misses before re-caching.
            domain.propagate_policy(lockdown_gate(name, 2), i);
            domain.recover_replica(&replicas[2]);
        }
        let u = i % 8;
        let request = RequestContext::basic(
            format!("user-{u}@{name}"),
            format!("records/{}", u % 5),
            "read",
        );
        let started = Instant::now();
        let result = domain.pep.serve(EnforceRequest::of(&request, i));
        lats.push(started.elapsed().as_nanos() as u64);
        debug_assert!(result.allowed, "even gate versions permit doctors");
    }
    drop(domain);
    (telemetry, lats)
}

/// The sequential levels of a traced enforcement: each parent stage
/// with the only child stages that may hang under it. The children run
/// one after another inline, so their time sums towards the parent's.
pub const SEQUENTIAL_LEVELS: [(Stage, &[Stage]); 4] = [
    (
        Stage::PepEnforce,
        &[Stage::Cache, Stage::Decide, Stage::Obligations],
    ),
    (Stage::Decide, &[Stage::SourceDecide]),
    // A single decision goes straight to the cluster, whose umbrella
    // span decomposes into routing + fan-out.
    (Stage::SourceDecide, &[Stage::ClusterDecide]),
    (Stage::ClusterDecide, &[Stage::Route, Stage::Fanout]),
];

/// Per parent stage of [`SEQUENTIAL_LEVELS`]: the number of parent
/// spans and the share of their summed time that no child span
/// accounts for (span bookkeeping, metrics accounting, a preemption
/// between two stages). A timing figure: the harness's `--trace` run
/// prints it, `cargo test` asserts only the tree's shape.
pub fn unaccounted_shares(spans: &[dacs_telemetry::SpanRecord]) -> Vec<(Stage, usize, f64)> {
    SEQUENTIAL_LEVELS
        .iter()
        .map(|&(stage, _)| {
            let parents = spans.iter().filter(|s| s.stage == stage);
            let ids: std::collections::HashSet<u64> = parents.clone().map(|s| s.id).collect();
            let parent_ns: u64 = parents.map(|s| s.dur_ns).sum();
            let child_ns: u64 = spans
                .iter()
                .filter(|c| ids.contains(&c.parent))
                .map(|c| c.dur_ns)
                .sum();
            let share = 1.0 - child_ns as f64 / (parent_ns as f64).max(1.0);
            (stage, ids.len(), share)
        })
        .collect()
}

/// Builds the E18 domain: a 1×5 majority shard behind the alternating
/// lockdown gate plus sixteen auxiliary policies (so every quorum
/// decision pays a realistic multi-policy evaluation on five replicas),
/// 16 doctors, no decision caches anywhere — the quorum path's cost
/// *is* the fan-out — and, optionally, the signed-capability fast path.
fn e18_domain(capability: bool, ttl_ms: u64, ctx: &CryptoCtx) -> Domain {
    let name = "cap";
    let mut builder = Domain::builder(name)
        .policy(lockdown_gate(name, 0))
        .clustered(ClusterBuilder::new(name).quorum(QuorumMode::Majority))
        .cluster_topology(1, 5)
        .seed(0xe18);
    for k in 0..16 {
        builder = builder.policy_dsl(&format!(
            r#"
policy "aux-{k}" deny-overrides {{
  rule "quarantine" deny {{
    target {{ resource "id" ~= "aux-{k}/*"; }}
  }}
}}
"#
        ));
    }
    if capability {
        builder = builder.capability(ttl_ms);
    }
    for u in 0..16 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    builder.build(ctx)
}

/// E18: the capability ceiling — decisions/sec with the signed-token
/// fast path vs raw quorum fan-out at equal workload, plus revocation
/// latency under epoch-bump churn.
///
/// Phase A runs the same 80-grant workload (16 doctors × 5 records)
/// through two identical clustered domains, one with
/// [`dacs_federation::DomainBuilder::capability`] enabled: the quorum
/// path pays a
/// 5-replica multi-policy evaluation per request, the token path pays
/// it and an HMAC verify once per unique grant and a window-and-epoch
/// recheck thereafter. Each row's
/// rate comes from the best of five whole-loop timed laps over a
/// steady-state domain (single short timing windows on a shared
/// machine measure the scheduler, not the path); a separate untimed
/// pass first checks every enforcement against the domain's root-PAP
/// reference engine (E16/E17-style ground truth). The release harness
/// measures the `speedup` column at ≈ 20× (quorum 94–100 k dps, token
/// 1.90–2.02 M). It read 6–10× until the per-epoch policy snapshot
/// halved the quorum path the tokens are compared against, then 3.46×
/// while every token hit re-hashed its MAC; verifying once at admission
/// made a hit a cache probe plus three compares.
///
/// Phase B (`token+churn` row) adds the E16 churn shape: per round,
/// replica 1 crashes over a policy update and recovers, replaying what
/// it missed in the same call, while the update —
/// alternating permit/lockdown — revokes every outstanding token via
/// the epoch bump. A canary token minted immediately before each push
/// measures the revocation latency: the number of ticks the canary
/// stays verifiable after the push lands. The invariant says zero —
/// the epoch bump *is* the push, so a stale token can never outlive
/// the policy state it was minted under.
pub fn e18_capability_ceiling(requests: usize) -> Table {
    let mut table = Table::new(
        "E18 — capability ceiling: signed-token fast path vs quorum fan-out (1×5 majority, 16 subjects × 5 resources), plus epoch-bump revocation churn",
        &[
            "path",
            "decisions/sec",
            "speedup ×",
            "cluster queries",
            "tokens minted",
            "token hits",
            "stale rejects",
            "false permits",
            "false denies",
            "revocation lag (ticks)",
        ],
    );
    assert!(
        requests >= 160,
        "e18 needs enough requests to amortize minting"
    );
    // One untimed correctness lap plus TIMED_LAPS timed ones, phase B
    // running both churn variants — keep tokens alive across all of it.
    const TIMED_LAPS: u64 = 5;
    let ttl_ms = 8 * requests as u64 + 1_000_000;
    let spec: Vec<RequestContext> = (0..80)
        .map(|k| {
            RequestContext::basic(
                format!("user-{}@cap", k % 16),
                format!("records/{}", k % 5),
                "read",
            )
        })
        .collect();

    // Phase A: the throughput ceiling at equal workload, no churn.
    let mut quorum_dps = f64::NAN;
    for capability in [false, true] {
        let ctx = CryptoCtx::new();
        let domain = e18_domain(capability, ttl_ms, &ctx);
        // Correctness lap: every enforcement against the reference
        // engine. On the token path this is also the mint warm-up.
        let (mut false_permits, mut false_denies) = (0u64, 0u64);
        for i in 0..requests as u64 {
            let request = &spec[(i as usize) % spec.len()];
            let expected = domain.pdp.decide(request, i).decision;
            let allowed = domain.pep.serve(EnforceRequest::of(request, i)).allowed;
            false_permits += u64::from(allowed && expected != Decision::Permit);
            false_denies += u64::from(!allowed && expected == Decision::Permit);
        }
        // Timed laps over the steady state: best of five, whole-loop.
        let mut best = f64::INFINITY;
        for lap in 1..=TIMED_LAPS {
            let base = lap * requests as u64;
            let started = Instant::now();
            for i in 0..requests as u64 {
                domain.pep.serve(EnforceRequest::of(
                    &spec[(i as usize) % spec.len()],
                    base + i,
                ));
            }
            best = best.min(started.elapsed().as_secs_f64());
        }
        let dps = requests as f64 / best.max(1e-9);
        if !capability {
            quorum_dps = dps;
        }
        let stats = domain.pep.stats();
        let stale = domain
            .capability
            .as_ref()
            .map(|a| a.stats().rejected_stale_epoch)
            .unwrap_or(0);
        let m = domain.cluster.as_ref().expect("e18 is clustered").metrics();
        table.row(vec![
            if capability { "token" } else { "quorum" }.into(),
            format!("{dps:.0}"),
            f2(dps / quorum_dps),
            m.queries.to_string(),
            stats.tokens_minted.to_string(),
            stats.token_hits.to_string(),
            stale.to_string(),
            false_permits.to_string(),
            false_denies.to_string(),
            "0".into(),
        ]);
    }

    // Phase B: revocation churn on a fresh token domain. Lap 0 checks
    // every enforcement against the reference engine; the timed laps
    // replay the same churn schedule (ticks, and so pushed gate
    // versions, keep counting up) and take the best whole-lap rate.
    let ctx = CryptoCtx::new();
    let domain = e18_domain(true, ttl_ms, &ctx);
    let authority = domain.capability.clone().expect("capability enabled");
    let names = domain.replica_names();
    let round = (requests as u64 / 8).max(8);
    let (mut false_permits, mut false_denies) = (0u64, 0u64);
    let mut revocation_lag_max = 0u64;
    let mut best = f64::INFINITY;
    for lap in 0..=TIMED_LAPS {
        let started = Instant::now();
        for offset in 0..requests as u64 {
            let t = lap * requests as u64 + offset;
            let phase = offset % round;
            if phase == round / 4 {
                domain.crash_replica(&names[1]);
            }
            if phase == round / 2 {
                // Canary: minted under the pre-push epoch, probed
                // after the push until it stops verifying.
                let canary = authority.mint("user-0@cap", "records/0", "read", t);
                domain.propagate_policy(lockdown_gate("cap", t / round + 1), t);
                let mut lag = 0u64;
                while lag < 64
                    && authority
                        .verify(&canary, "user-0@cap", "records/0", "read", t + lag)
                        .is_ok()
                {
                    lag += 1;
                }
                revocation_lag_max = revocation_lag_max.max(lag);
            }
            if phase == round * 5 / 8 {
                domain.recover_replica(&names[1]);
            }
            let request = &spec[(offset as usize) % spec.len()];
            if lap == 0 {
                let expected = domain.pdp.decide(request, t).decision;
                let allowed = domain.pep.serve(EnforceRequest::of(request, t)).allowed;
                false_permits += u64::from(allowed && expected != Decision::Permit);
                false_denies += u64::from(!allowed && expected == Decision::Permit);
            } else {
                domain.pep.serve(EnforceRequest::of(request, t));
            }
        }
        if lap > 0 {
            best = best.min(started.elapsed().as_secs_f64());
        }
    }
    let dps = requests as f64 / best.max(1e-9);
    let stats = domain.pep.stats();
    let m = domain.cluster.as_ref().expect("e18 is clustered").metrics();
    table.row(vec![
        "token+churn".into(),
        format!("{dps:.0}"),
        f2(dps / quorum_dps),
        m.queries.to_string(),
        stats.tokens_minted.to_string(),
        stats.token_hits.to_string(),
        authority.stats().rejected_stale_epoch.to_string(),
        false_permits.to_string(),
        false_denies.to_string(),
        revocation_lag_max.to_string(),
    ]);
    table
}

/// A compact capability-enabled run with full telemetry, for the e18
/// artifact and the observability tests: one clustered token domain
/// serves `requests` enforcements with a mid-run policy push, so the
/// registry carries the `dacs_capability_*` mint/verify/reject
/// counters and the verify-latency histogram alongside the usual
/// enforcement metrics, and the traces show `token` fast-path spans.
pub fn capability_telemetry_run(requests: usize) -> Arc<dacs_telemetry::Telemetry> {
    let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
    let ctx = CryptoCtx::new();
    let name = "cap";
    let mut builder = Domain::builder(name)
        .policy(lockdown_gate(name, 0))
        .clustered(ClusterBuilder::new(name).quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        .capability(requests as u64 + 1_000_000)
        .telemetry(Arc::clone(&telemetry))
        .seed(0xcab);
    for u in 0..8 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    let domain = builder.build(&ctx);
    for i in 0..requests as u64 {
        if i == (requests / 2) as u64 {
            // Revokes every outstanding token mid-run: stale rejects
            // and re-mints land in the counters.
            domain.propagate_policy(lockdown_gate(name, 2), i);
        }
        let u = i % 8;
        let request = RequestContext::basic(
            format!("user-{u}@{name}"),
            format!("records/{}", u % 5),
            "read",
        );
        let result = domain.pep.serve(EnforceRequest::of(&request, i));
        debug_assert!(result.allowed, "even gate versions permit doctors");
    }
    telemetry
}

/// The E19 testbed: one clustered domain whose 1×5 majority shard
/// rides a scheduler with adaptive fan-out (a deliberately small
/// single-worker pool, so a flood can actually saturate it),
/// 16 aux policies deep enough that each replica evaluation has
/// real weight, and a quarter of the subjects auditors — denied by the
/// gate — so the ground-truth check exercises both verdicts.
fn e19_domain(telemetry: &Arc<dacs_telemetry::Telemetry>) -> Domain {
    let name = "sched";
    let mut builder = Domain::builder(name)
        .policy(lockdown_gate(name, 0))
        .clustered(
            ClusterBuilder::new(name)
                .quorum(QuorumMode::Majority)
                .scheduler(SchedulerConfig::new(1).with_adaptive_fanout(true)),
        )
        .cluster_topology(1, 5)
        .telemetry(Arc::clone(telemetry))
        .seed(0xe19);
    for k in 0..16 {
        builder = builder.policy_dsl(&format!(
            r#"
policy "aux-{k}" deny-overrides {{
  rule "quarantine" deny {{
    target {{ resource "id" ~= "aux-{k}/*"; }}
  }}
}}
"#
        ));
    }
    for u in 0..16 {
        let role = if u % 4 == 3 { "auditor" } else { "doctor" };
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", role);
    }
    builder.build(&CryptoCtx::new())
}

/// Counts an enforcement verdict against its precomputed ground truth.
fn e19_tally(
    allowed: bool,
    expected: bool,
    false_permits: &std::sync::atomic::AtomicU64,
    false_denies: &std::sync::atomic::AtomicU64,
) {
    use std::sync::atomic::Ordering;
    if allowed && !expected {
        false_permits.fetch_add(1, Ordering::Relaxed);
    }
    if !allowed && expected {
        false_denies.fetch_add(1, Ordering::Relaxed);
    }
}

/// E19: scheduler saturation — the interactive lane's latency while
/// ten closed-loop bulk streams flood the same single-worker decision
/// pool with ten times the interactive volume.
///
/// Phase A measures the unloaded baseline: three laps of `requests`
/// interactive enforcements (5 ms deadline, so the deadline-aware pop
/// is live), caller-side wall clock per decision, percentiles taken
/// from the best lap (the E18 best-of-laps rationale: a single short
/// window on a shared machine measures the OS, not the lanes). Phase B
/// starts ten bulk threads, each pushing `requests` bulk-lane
/// enforcements through the same PEP, and re-runs the identical
/// interactive stream concurrently — the classic mixed-tenancy shape
/// the priority lanes exist for. Every enforcement in every phase is
/// compared against the domain's root-PAP reference verdict (the gate
/// is static, so ground truth is precomputed per subject×resource and
/// checked lock-free in the flood threads too).
///
/// Lane isolation itself — saturated interactive p50 and p99 staying
/// near their unloaded counterparts, where a FIFO pool would add the
/// full bulk backlog to *every* decision — is a wall-clock comparison:
/// the table reports both phases, reported, not gated — the repo
/// benchmark judges timing. Nor is it what these rows compare any
/// more: an in-process replica answers faster than a pool hand-off
/// costs, so once measured the flood is evaluated by the flooding
/// threads themselves (the `on caller` column) and never reaches the
/// pool; `dacs-cluster`'s tests over slow backends pin the lanes. The
/// function *asserts* the two invariants that hold on logic alone,
/// whichever thread evaluates:
///
/// 1. **Adaptive fan-out** — replica sub-queries per decision never
///    exceed the quorum width (3 of 5 under majority: the replicas
///    agree, so nothing escalates), and `fanout_saved` shows replicas
///    actually skipped.
/// 2. **Correctness under load** — zero false permits and zero false
///    denies across both phases, flood included.
pub fn e19_scheduler_saturation(requests: usize) -> Table {
    use std::sync::atomic::{AtomicU64, Ordering};
    let mut table = Table::new(
        "E19 — scheduler saturation: interactive lane vs a 10-thread bulk flood (1×5 majority, adaptive fan-out, 1 worker)",
        &[
            "phase",
            "interactive p99 (µs)",
            "interactive p50 (µs)",
            "decisions/sec",
            "bulk decisions",
            "replica q/decision",
            "fanout saved",
            "deadline misses",
            "false permits",
            "false denies",
            "on caller",
        ],
    );
    assert!(requests >= 64, "e19 needs enough samples for a p99");
    const BULK_THREADS: usize = 10;
    const QUORUM_WIDTH: u64 = 3; // floor(5/2) + 1 under majority
    let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
    let domain = Arc::new(e19_domain(&telemetry));
    let cluster = domain.cluster.clone().expect("e19 is clustered");

    // Root-PAP ground truth, precomputed once: the gate is static for
    // the whole run, so the expected verdict depends only on the
    // subject's role (doctors permit, auditors deny).
    let spec: Vec<RequestContext> = (0..64)
        .map(|k| {
            RequestContext::basic(
                format!("user-{}@sched", k % 16),
                format!("records/{}", k % 4),
                "read",
            )
        })
        .collect();
    let expected: Vec<bool> = spec
        .iter()
        .map(|r| domain.pdp.decide(r, 0).decision == Decision::Permit)
        .collect();
    assert!(
        expected.iter().any(|e| *e) && expected.iter().any(|e| !*e),
        "ground truth must cover permits and denies"
    );
    let false_permits = Arc::new(AtomicU64::new(0));
    let false_denies = Arc::new(AtomicU64::new(0));

    // The interactive stream, shared by both phases: LAPS windows of
    // `requests` enforcements each, per-decision caller-side latency,
    // a live 5 ms deadline, ground truth on every verdict. Each
    // percentile takes the best lap — single short timing windows on a
    // shared machine measure the OS scheduler, not the lanes (the E18
    // best-of-laps rationale). Returns (p50, p99, elapsed seconds).
    const LAPS: usize = 3;
    let measure = |base: u64| -> (u64, u64, f64) {
        let (mut best_p50, mut best_p99) = (u64::MAX, u64::MAX);
        let started = Instant::now();
        for lap in 0..LAPS {
            let mut latencies = Vec::with_capacity(requests);
            for i in 0..requests {
                let k = i % spec.len();
                let begun = Instant::now();
                let outcome = domain.pep.serve(
                    EnforceRequest::of(&spec[k], base + (lap * requests + i) as u64)
                        .interactive()
                        .with_deadline_ms(5),
                );
                latencies.push(begun.elapsed().as_micros() as u64);
                e19_tally(outcome.allowed, expected[k], &false_permits, &false_denies);
            }
            let lap_summary = Summary::of(&latencies);
            best_p50 = best_p50.min(lap_summary.p50);
            best_p99 = best_p99.min(lap_summary.p99);
        }
        (best_p50, best_p99, started.elapsed().as_secs_f64())
    };
    let deadline_misses = || {
        telemetry
            .registry()
            .counter_value("dacs_sched_deadline_miss_total")
            .unwrap_or(0)
    };

    // Warm-up: settles the worker pool and the per-replica EWMA the
    // adaptive fan-out ranks by.
    for i in 0..64u64 {
        domain
            .pep
            .serve(EnforceRequest::of(&spec[(i as usize) % spec.len()], i).interactive());
    }

    // Phase A: unloaded interactive baseline.
    let (unloaded_p50, unloaded_p99, unloaded_elapsed) = measure(1_000);
    let unloaded_dps = (LAPS * requests) as f64 / unloaded_elapsed.max(1e-9);
    let m1 = cluster.metrics();
    table.row(vec![
        "unloaded".into(),
        unloaded_p99.to_string(),
        unloaded_p50.to_string(),
        format!("{unloaded_dps:.0}"),
        "0".into(),
        f2(m1.replica_queries as f64 / m1.queries.max(1) as f64),
        m1.fanout_saved.to_string(),
        deadline_misses().to_string(),
        false_permits.load(Ordering::Relaxed).to_string(),
        false_denies.load(Ordering::Relaxed).to_string(),
        m1.caller_evaluations.to_string(),
    ]);

    // Phase B: ten bulk threads, each a closed loop of `requests`
    // bulk-lane enforcements — 10× the interactive volume — while the
    // same interactive stream re-runs concurrently.
    let barrier = Arc::new(std::sync::Barrier::new(BULK_THREADS + 1));
    let started = Instant::now();
    let flood: Vec<_> = (0..BULK_THREADS)
        .map(|b| {
            let domain = Arc::clone(&domain);
            let spec = spec.clone();
            let expected = expected.clone();
            let false_permits = Arc::clone(&false_permits);
            let false_denies = Arc::clone(&false_denies);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..requests {
                    let k = (b * 7 + i) % spec.len();
                    let outcome = domain
                        .pep
                        .serve(EnforceRequest::of(&spec[k], 2_000_000 + i as u64).bulk());
                    e19_tally(outcome.allowed, expected[k], &false_permits, &false_denies);
                }
            })
        })
        .collect();
    barrier.wait();
    let (loaded_p50, loaded_p99, _) = measure(3_000_000);
    for handle in flood {
        handle.join().expect("bulk flood thread");
    }
    let total = (LAPS * requests + BULK_THREADS * requests) as f64;
    let loaded_dps = total / started.elapsed().as_secs_f64().max(1e-9);
    let m2 = cluster.metrics();
    table.row(vec![
        "bulk-saturated".into(),
        loaded_p99.to_string(),
        loaded_p50.to_string(),
        format!("{loaded_dps:.0}"),
        (BULK_THREADS * requests).to_string(),
        f2((m2.replica_queries - m1.replica_queries) as f64
            / (m2.queries - m1.queries).max(1) as f64),
        (m2.fanout_saved - m1.fanout_saved).to_string(),
        deadline_misses().to_string(),
        false_permits.load(Ordering::Relaxed).to_string(),
        false_denies.load(Ordering::Relaxed).to_string(),
        (m2.caller_evaluations - m1.caller_evaluations).to_string(),
    ]);

    // Invariant 1: adaptive fan-out. Every decision dispatches at most
    // the quorum width — agreeing replicas never escalate — and
    // skipped replicas show up in fanout_saved.
    assert!(
        m2.replica_queries <= m2.queries * QUORUM_WIDTH,
        "replica queries {} exceed quorum width × queries {}",
        m2.replica_queries,
        m2.queries * QUORUM_WIDTH,
    );
    assert!(
        m2.fanout_saved > 0,
        "adaptive fan-out never skipped a replica"
    );
    // Invariant 2: correctness under load, flood included.
    assert_eq!(
        false_permits.load(Ordering::Relaxed),
        0,
        "false permits vs root-PAP ground truth"
    );
    assert_eq!(
        false_denies.load(Ordering::Relaxed),
        0,
        "false denies vs root-PAP ground truth"
    );
    table
}

/// E20: read-path scaling — closed-loop enforcement from 1/2/4/8
/// threads hammering *one shared PEP* whose striped decision cache
/// fronts an uncached PDP, under a Zipf(1.07) workload over a million
/// subjects ([`crate::scenario::ReadPathScenario`]).
///
/// What it shows about the concurrent read path:
/// * **throughput scales with threads** — the `scaling` column,
///   near-linear to 4 threads on hardware that has them (the striped
///   cache and atomic stats leave no global lock to convoy on). A
///   wall-clock figure, so reported, not gated — the repo benchmark
///   judges timing;
/// * **zero false permits / false denies** — every verdict is checked
///   against the constructed ground truth, itself validated against an
///   uncached reference engine on sampled ranks;
/// * **cache behaves analytically** — the measured hit rate lands
///   within the closed-form Zipf expectation
///   (`1 − E[unique]/draws`), so striping didn't quietly change
///   caching semantics;
/// * **stats stay exact under contention** — `hits + misses` equals
///   enforcements, source decisions equal misses, grant counters sum
///   to enforcements;
/// * **the audit ring honours its retention contract** —
///   `audit_log().len() + audit_dropped` equals enforcements.
pub fn e20_read_path_scaling(requests_per_thread: usize) -> Table {
    use crate::scenario::ReadPathScenario;
    use std::sync::atomic::{AtomicU64, Ordering};
    const SUBJECTS: usize = 1_000_000;
    const EXPONENT: f64 = 1.07;
    const CACHE_CAPACITY: usize = 131_072;
    const AUDIT_CAPACITY: usize = 8_192;
    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    let mut table = Table::new(
        "E20 — read-path scaling: 1/2/4/8 closed-loop threads on one shared PEP, Zipf(1.07) over 10⁶ subjects, striped cache + atomic stats",
        &[
            "workload",
            "decisions",
            "decisions/sec",
            "hit rate %",
            "analytic hit %",
            "scaling x1",
            "false permits",
            "false denies",
            "audit dropped",
        ],
    );
    assert!(requests_per_thread >= 64, "e20 needs a non-trivial loop");
    let scenario = Arc::new(ReadPathScenario::new(SUBJECTS, EXPONENT));

    // Reference engine on the same policy, no cache: validates the
    // constructed ground truth on a sample of ranks before the run
    // trusts `expect_permit` for millions of verdicts.
    let build_pdp = || {
        let pap = Arc::new(dacs_pap::Pap::new("pap.mega"));
        pap.submit(
            "admin",
            dacs_policy::dsl::parse_policy(ReadPathScenario::policy_src()).expect("static DSL"),
            0,
        )
        .expect("gate accepted");
        Arc::new(Pdp::new(
            "pdp.mega",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("mega-gate")),
            Arc::new(PipRegistry::new()),
        ))
    };
    {
        let reference = build_pdp();
        let mut rng = StdRng::seed_from_u64(0xE20);
        for probe in 0..32 {
            let rank = if probe < 8 {
                probe // the hot head, plus rank 7's write-deny
            } else {
                scenario.sample_rank(&mut rng)
            };
            let request = ReadPathScenario::request_for_rank(rank);
            let permitted = reference.decide(&request, 0).decision == Decision::Permit;
            assert_eq!(
                permitted,
                ReadPathScenario::expect_permit(rank),
                "constructed truth diverges from the reference engine at rank {rank}"
            );
        }
    }

    let mut dps_by_threads: Vec<f64> = Vec::new();
    for &threads in &THREAD_COUNTS {
        // Fresh PEP + uncached source per thread count, so each row
        // measures a cold striped cache filling under contention.
        let pdp = build_pdp();
        let pep = Arc::new(
            dacs_pep::Pep::builder("pep.mega")
                .source(pdp.clone())
                .cache(CacheConfig {
                    capacity: CACHE_CAPACITY,
                    ttl_ms: 86_400_000,
                })
                .audit_capacity(AUDIT_CAPACITY)
                .build(),
        );
        let false_permits = Arc::new(AtomicU64::new(0));
        let false_denies = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let scenario = Arc::clone(&scenario);
                let pep = Arc::clone(&pep);
                let false_permits = Arc::clone(&false_permits);
                let false_denies = Arc::clone(&false_denies);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(threads as u64 * 1_000 + t as u64);
                    barrier.wait();
                    for _ in 0..requests_per_thread {
                        let rank = scenario.sample_rank(&mut rng);
                        let request = ReadPathScenario::request_for_rank(rank);
                        let outcome = pep.serve(EnforceRequest::of(&request, 0));
                        e19_tally(
                            outcome.allowed,
                            ReadPathScenario::expect_permit(rank),
                            &false_permits,
                            &false_denies,
                        );
                    }
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        for worker in workers {
            worker.join().expect("e20 worker");
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);

        let total = (threads * requests_per_thread) as u64;
        let dps = total as f64 / elapsed;
        let stats = pep.stats();
        let cache = pep.cache_stats().expect("e20 PEP is cached");
        let hit_rate = cache.hit_rate();
        let analytic = scenario.expected_hit_rate(total);
        let fp = false_permits.load(Ordering::Relaxed);
        let fd = false_denies.load(Ordering::Relaxed);

        // Correctness: no verdict ever diverged from ground truth.
        assert_eq!(fp, 0, "false permits at {threads} threads");
        assert_eq!(fd, 0, "false denies at {threads} threads");
        // Stats exactness under contention: every enforcement did one
        // cache lookup, every miss reached the source, every verdict
        // landed in exactly one grant counter, nothing torn or lost.
        assert_eq!(
            cache.hits + cache.misses,
            total,
            "cache lookups at {threads} threads"
        );
        assert_eq!(
            pdp.metrics().decisions,
            cache.misses,
            "source decisions == cache misses at {threads} threads"
        );
        assert_eq!(
            stats.allowed + stats.denied + stats.failsafe_denials,
            total,
            "grant counters at {threads} threads"
        );
        assert_eq!(stats.failsafe_denials, 0, "no failsafe under e20's gate");
        // Cache analytics: the striped cache is big enough that the
        // no-eviction closed form applies; measured hit rate must land
        // within sampling tolerance of it.
        assert!(
            (hit_rate - analytic).abs() <= 0.08,
            "hit rate {hit_rate:.3} vs analytic {analytic:.3} at {threads} threads"
        );
        // Audit retention contract: newest AUDIT_CAPACITY records kept,
        // every displacement counted.
        assert_eq!(
            pep.audit_log().len() as u64,
            total.min(AUDIT_CAPACITY as u64),
            "audit window at {threads} threads"
        );
        assert_eq!(
            stats.audit_dropped,
            total.saturating_sub(AUDIT_CAPACITY as u64),
            "audit drops at {threads} threads"
        );

        dps_by_threads.push(dps);
        let scaling = dps / dps_by_threads[0].max(1e-9);
        table.row(vec![
            format!("threads={threads}"),
            total.to_string(),
            format!("{dps:.0}"),
            f2(hit_rate * 100.0),
            f2(analytic * 100.0),
            f2(scaling),
            fp.to_string(),
            fd.to_string(),
            stats.audit_dropped.to_string(),
        ]);
    }

    // The scaling column is a timing figure: reported, not gated —
    // the repo benchmark judges timing.
    table
}

/// A backend that burns a fixed amount of CPU per decision and
/// permits: genuine compute, where a sleep would hide the cost of what
/// runs beside it, and a measured latency no shorter than its spin on
/// any host or build profile.
struct SpinPermit {
    name: String,
    spin_us: u64,
}

impl SpinPermit {
    /// `n` replicas named `{prefix}-{r}`, each spinning `spin_us`.
    fn shard(prefix: &str, n: usize, spin_us: u64) -> Vec<Arc<dyn DecisionBackend>> {
        (0..n)
            .map(|r| {
                let name = format!("{prefix}-{r}");
                Arc::new(SpinPermit { name, spin_us }) as Arc<dyn DecisionBackend>
            })
            .collect()
    }
}

impl DecisionBackend for SpinPermit {
    fn name(&self) -> &str {
        &self.name
    }
    fn decide(&self, _request: &RequestContext, _now_ms: u64) -> dacs_policy::eval::Response {
        let start = Instant::now();
        while (start.elapsed().as_micros() as u64) < self.spin_us {
            std::hint::spin_loop();
        }
        dacs_policy::eval::Response::decision(Decision::Permit)
    }
}

/// A compact scheduler run with full telemetry, for the harness's
/// `--lane-telemetry` artifact and the observability tests: mixed
/// interactive / default / bulk enforcements through a PEP over a
/// single-worker 1×5 adaptive-majority cluster populate the per-lane
/// `dacs_sched_*_jobs_total` counters, the `dacs_sched_*_queue_wait_ns`
/// histograms and the deadline-miss counter. Its replicas spin twice the
/// cluster's 10 µs pool hand-off constant, so the collector hands every
/// one to a lane by its measured latency, whatever the host's speed or
/// the build profile.
pub fn scheduler_telemetry_run(requests: usize) -> Arc<dacs_telemetry::Telemetry> {
    let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
    let cluster = ClusterBuilder::new("sched")
        .quorum(QuorumMode::Majority)
        .scheduler(SchedulerConfig::new(1).with_adaptive_fanout(true))
        .telemetry(Arc::clone(&telemetry))
        .shard(SpinPermit::shard("sched", 5, 20))
        .build();
    let source = ClusteredDecisionSource::new(Arc::new(cluster));
    let pep = Pep::builder("pep.sched").source(Arc::new(source)).build();
    for i in 0..requests as u64 {
        let context = RequestContext::basic(
            format!("user-{}@sched", i % 16),
            format!("records/{}", i % 4),
            "read",
        );
        let options = match i % 3 {
            0 => EnforceOptions::interactive().with_deadline_ms(5),
            1 => EnforceOptions::new(),
            _ => EnforceOptions::bulk(),
        };
        pep.serve(EnforceRequest {
            options,
            ..EnforceRequest::of(&context, i)
        });
    }
    telemetry
}

/// Runs every experiment at default scale (used by the harness's `all`).
pub fn run_all() -> Vec<Table> {
    vec![
        e1_vo_end_to_end(400),
        e2_capability_flow(),
        e3_policy_scaling(),
        e4_xacml_dataflow(),
        e5_syndication(),
        e6_caching(4000),
        e7_message_security(50),
        e8_push_vs_pull(),
        e9_conflict_analysis(),
        e10_trust_negotiation(),
        e11_delegation(),
        e12_rbac_scale(),
        e13_pdp_discovery(2000),
        e14_cluster_dependability(4000),
        e15_fanout_latency(400),
        e16_replica_resync(2000),
        e17_federated_cluster(2400),
        e18_capability_ceiling(2400),
        e19_scheduler_saturation(1600),
        e20_read_path_scaling(24_000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shapes() {
        let t = e1_vo_end_to_end(60);
        assert_eq!(t.rows.len(), 3);
        // Messages per request sit between 4 (intra) and 6 (cross).
        for row in &t.rows {
            let msgs: f64 = row[3].parse().unwrap();
            assert!((4.0..=6.0).contains(&msgs), "msgs/req {msgs}");
        }
    }

    #[test]
    fn e2_amortization_shape() {
        let t = e2_capability_flow();
        let first: f64 = t.rows[0].rows_cell(2);
        let last: f64 = t.rows[t.rows.len() - 1].rows_cell(2);
        assert!(last < first, "per-request messages must fall with K");
    }

    trait Cell {
        fn rows_cell(&self, i: usize) -> f64;
    }
    impl Cell for Vec<String> {
        fn rows_cell(&self, i: usize) -> f64 {
            self[i].parse().unwrap()
        }
    }

    #[test]
    fn e6_staleness_grows_with_ttl() {
        let t = e6_caching(3000);
        let no_cache_fp: f64 = t.rows[0].rows_cell(2);
        let big_ttl_fp: f64 = t.rows[t.rows.len() - 1].rows_cell(2);
        assert_eq!(no_cache_fp, 0.0, "no cache → no stale permits");
        assert!(big_ttl_fp >= no_cache_fp);
        // Hit rate rises with TTL.
        let hr_small: f64 = t.rows[1].rows_cell(1);
        let hr_big: f64 = t.rows[t.rows.len() - 1].rows_cell(1);
        assert!(hr_big >= hr_small);
    }

    #[test]
    fn e8_push_saves_messages_and_savings_grow() {
        let t = e8_push_vs_pull();
        let mut prev_ratio = f64::MAX;
        for row in &t.rows {
            let pull: f64 = row[1].parse().unwrap();
            let push: f64 = row[3].parse().unwrap();
            // Cross-domain pull costs 6 msgs/request; push costs
            // 2/request plus a one-off issuance — push wins and the
            // advantage grows with K.
            assert!(push < pull, "push {push} vs pull {pull}");
            let ratio = push / pull;
            assert!(ratio <= prev_ratio + 1e-9);
            prev_ratio = ratio;
        }
    }

    #[test]
    fn e10_parsimonious_never_worse() {
        let t = e10_trust_negotiation();
        for pair in t.rows.chunks(2) {
            let eager_disclosed: usize = pair[0][4].parse().unwrap();
            let pars_disclosed: usize = pair[1][4].parse().unwrap();
            assert!(pars_disclosed <= eager_disclosed);
        }
    }

    #[test]
    fn e14_quorum_modes_bound_wrong_decisions() {
        let t = e14_cluster_dependability(1500);
        assert_eq!(t.rows.len(), 3);
        let row = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
                .clone()
        };
        let first = row("first-healthy");
        let majority = row("majority");
        let unanimous = row("unanimous-fail-closed");
        // Replication keeps the cluster answering through churn.
        for r in [&first, &majority, &unanimous] {
            let avail: f64 = r[1].parse().unwrap();
            assert!(avail > 50.0, "availability {avail} too low for {}", r[0]);
        }
        // The stale replica poisons first-healthy but is outvoted by
        // majority while a fresh majority is up.
        let fp_first: u64 = first[3].parse().unwrap();
        let fp_majority: u64 = majority[3].parse().unwrap();
        let fp_unanimous: u64 = unanimous[3].parse().unwrap();
        assert!(fp_first > 0, "stale-first replica must leak permits");
        assert!(fp_majority < fp_first);
        assert_eq!(fp_unanimous, 0, "fail-closed must never falsely permit");
        // Fail-closed pays in false denies instead.
        let fd_unanimous: u64 = unanimous[4].parse().unwrap();
        assert!(fd_unanimous > 0);
        // Fan-out cost: quorum modes query more replicas per request.
        let fan_first: f64 = first[5].parse().unwrap();
        let fan_majority: f64 = majority[5].parse().unwrap();
        assert!(fan_first <= 1.0 + 1e-9);
        assert!(fan_majority > fan_first);
    }

    /// E15 by logic (its latency columns are reported, not gated — the
    /// repo benchmark judges timing). The name is older than the
    /// table's two rows, the pool-less cluster and the pooled one.
    #[test]
    fn e15_parallel_and_hedged_beat_sequential_tail_latency() {
        let requests = 250;
        let t = e15_fanout_latency(requests);
        let names: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(names, ["caller", "pooled"]);
        let (caller, pooled) = (&t.rows[0], &t.rows[1]);
        let column = |r: &Vec<String>, i: usize| -> usize { r[i].parse().unwrap() };
        // The pool-less majority meets the sleeper on its first query,
        // every replica unmeasured and asked in configured order, and
        // from then on settles on the two fast votes ahead of it: two
        // evaluations per query, all on the caller, and nothing queued
        // or waited for on a quorum channel.
        let asked = column(caller, 10);
        assert!(
            (1..requests).contains(&asked),
            "caller asked the slow replica {asked} times in {requests} requests"
        );
        assert_eq!(column(caller, 8), 2 * requests);
        assert_eq!(caller[5], "0.00", "caller never queues");
        assert_eq!(caller[7], "0.00", "caller never waits on a quorum channel");
        // The pooled row's first query has nothing measured, so it pools
        // every replica, the sleeper at the head of the queue; the
        // sleeper's estimate keeps it on the pool from then on.
        assert!(column(pooled, 10) >= 1, "the pool never asked the sleeper");
        assert!(column(pooled, 8) < 2 * requests, "nothing was pooled");
        for r in [caller, pooled] {
            let avail: f64 = r[9].parse().unwrap();
            assert!(
                (avail - 100.0).abs() < 1e-9,
                "{}: availability {avail}",
                r[0]
            );
        }
    }

    /// E16's acceptance bar, with nothing in the loop readmitting
    /// a replica: crash churn plus concurrent policy updates produce
    /// zero stale (false) decisions of either kind, because recovering
    /// replicas are held out until their catch-up lands and readmitted
    /// by the next decide after it.
    #[test]
    fn e16_recovering_replicas_readmit_themselves_without_staleness_errors() {
        let t = e16_replica_resync(1600);
        assert_eq!(t.rows.len(), 1);
        let cell = |i: usize| -> u64 { t.rows[0][i].parse().unwrap() };
        // The epoch gate keeps stale votes out — zero wrong decisions
        // of either kind.
        assert_eq!(cell(2), 0, "recovery leaked stale permits");
        assert_eq!(cell(3), 0, "recovery fail-closed on truth");
        // The gate actually did work: replicas readmitted themselves,
        // stale votes were excluded meanwhile, and lag was observed.
        assert!(cell(4) > 0, "no replica was readmitted");
        assert!(cell(5) > 0, "no stale vote was ever excluded");
        assert!(cell(6) >= 1, "epoch lag never observed");
        // Availability holds throughout: the fresh replica never
        // crashes, so exclusion costs protection headroom, not service.
        let avail: f64 = t.rows[0][0].parse().unwrap();
        assert!(avail > 99.0, "availability {avail}");
    }

    /// E17's acceptance bar, with recovery one
    /// `Domain::recover_replica` call: under crash churn plus
    /// concurrent per-domain policy updates across a clustered 3-domain
    /// VO, cross-domain (and total) false permits are exactly zero,
    /// while the stale pair answers again behind it is held out of every
    /// quorum, and once recovered it readmits itself.
    #[test]
    fn e17_self_healing_federated_clusters_zero_cross_domain_false_permits() {
        let t = e17_federated_cluster(1600);
        assert_eq!(t.rows.len(), 3, "one row per domain");
        let cell = |r: &Vec<String>, i: usize| -> u64 { r[i].parse().unwrap() };
        let avail = |r: &Vec<String>| -> f64 { r[1].parse().unwrap() };
        for row in &t.rows {
            assert_eq!(cell(row, 3), 0, "{}: false permits", row[0]);
            assert_eq!(cell(row, 4), 0, "{}: cross-domain false permits", row[0]);
            // The gate actually did work: stale votes were excluded
            // while the pair lagged, and the pair readmitted itself.
            assert!(cell(row, 6) > 0, "{}: no replica was readmitted", row[0]);
            assert!(cell(row, 7) > 0, "{}: no stale vote excluded", row[0]);
            assert!(cell(row, 8) >= 1, "{}: epoch lag never observed", row[0]);
            // The round-3 blackout is the only gap.
            let a = avail(row);
            assert!(a > 95.0, "{}: availability {a}", row[0]);
        }
        assert!(
            t.rows.iter().any(|r| avail(r) < 100.0),
            "the blackout window must cost some availability"
        );
    }

    /// The E18 acceptance bar: the token fast path decides each grant
    /// once and serves the rest from tokens, revocation churn leaks
    /// zero false permits, and a stale token never outlives the epoch
    /// bump that revoked it (zero-tick revocation latency). The
    /// token/quorum throughput ratio is the table's `speedup` column,
    /// reported and not asserted: it is a wall-clock quotient.
    #[test]
    fn e18_token_path_decides_each_grant_once_with_zero_false_permits() {
        let t = e18_capability_ceiling(800);
        assert_eq!(t.rows.len(), 3, "quorum, token, token+churn");
        let row = |name: &str| -> &Vec<String> {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .unwrap_or_else(|| panic!("missing row {name}"))
        };
        let (quorum, token, churn) = (row("quorum"), row("token"), row("token+churn"));
        // The fast path was genuinely exercised: one cluster query per
        // unique grant, everything else served from tokens.
        let queries = |r: &Vec<String>| -> u64 { r[3].parse().unwrap() };
        // 800 requests × (1 correctness lap + 5 timed laps) = 4800.
        assert_eq!(queries(quorum), 4800, "quorum path fans out every request");
        assert_eq!(queries(token), 80, "token path decides each grant once");
        assert_eq!(token[4].parse::<u64>().unwrap(), 80, "tokens minted");
        assert_eq!(token[5].parse::<u64>().unwrap(), 4720, "token hits");
        // Ground truth: zero false permits everywhere, zero false
        // denies on the steady-state rows, and the churn row must have
        // actually revoked tokens (stale rejects observed) with
        // same-tick revocation.
        for r in [quorum, token, churn] {
            assert_eq!(r[7].parse::<u64>().unwrap(), 0, "{}: false permits", r[0]);
        }
        assert_eq!(quorum[8].parse::<u64>().unwrap(), 0, "quorum false denies");
        assert_eq!(token[8].parse::<u64>().unwrap(), 0, "token false denies");
        assert_eq!(churn[8].parse::<u64>().unwrap(), 0, "churn false denies");
        assert!(
            churn[6].parse::<u64>().unwrap() > 0,
            "churn must reject stale tokens"
        );
        assert!(churn[5].parse::<u64>().unwrap() > 0, "churn token hits");
        assert_eq!(
            churn[9].parse::<u64>().unwrap(),
            0,
            "revocation latency must be zero ticks"
        );
    }

    /// The logic half of the E19 acceptance bar rides inside the
    /// experiment itself (it asserts the adaptive fan-out bound and
    /// zero false permits/denies; the lane-isolation latency rows are
    /// reported, not gated — the repo benchmark judges timing); this
    /// test runs it at smoke scale and checks
    /// the table shape plus the visible flood accounting.
    #[test]
    fn e19_interactive_lane_survives_bulk_flood() {
        let t = e19_scheduler_saturation(64);
        assert_eq!(t.rows.len(), 2, "unloaded + bulk-saturated");
        let (unloaded, loaded) = (&t.rows[0], &t.rows[1]);
        assert_eq!(unloaded[0], "unloaded");
        assert_eq!(loaded[0], "bulk-saturated");
        assert_eq!(unloaded[4], "0", "no bulk decisions before the flood");
        assert_eq!(loaded[4].parse::<u64>().unwrap(), 640, "10× bulk volume");
        // Adaptive fan-out keeps the per-decision replica cost at the
        // quorum width (plus rare escalations) in both phases.
        for row in [unloaded, loaded] {
            let per: f64 = row[5].parse().unwrap();
            assert!(per <= 3.5, "{}: {per} replica queries/decision", row[0]);
            assert_eq!(row[8], "0", "{}: false permits", row[0]);
            assert_eq!(row[9], "0", "{}: false denies", row[0]);
        }
    }

    /// The full-scale assertions live inside `e20_read_path_scaling`
    /// itself (ground-truth validation, stats exactness, analytic hit
    /// rate, audit retention); this test runs it
    /// at smoke scale and checks the table shape plus the visible
    /// correctness columns.
    #[test]
    fn e20_scales_reads_with_zero_false_verdicts() {
        let t = e20_read_path_scaling(400);
        assert_eq!(t.rows.len(), 4, "threads=1/2/4/8");
        for (row, threads) in t.rows.iter().zip([1u64, 2, 4, 8]) {
            assert_eq!(row[0], format!("threads={threads}"));
            assert_eq!(row[1].parse::<u64>().unwrap(), threads * 400);
            assert_eq!(row[6], "0", "{}: false permits", row[0]);
            assert_eq!(row[7], "0", "{}: false denies", row[0]);
            // Measured and analytic hit rates landed within the
            // experiment's own ±8-point guard; the table agrees.
            let hit: f64 = row[3].parse().unwrap();
            let analytic: f64 = row[4].parse().unwrap();
            assert!(
                (hit - analytic).abs() <= 8.0,
                "{}: {hit} vs {analytic}",
                row[0]
            );
        }
        // 400/thread keeps every row inside the 8192-record audit ring.
        assert!(
            t.rows.iter().all(|r| r[8] == "0"),
            "no audit drops at smoke scale"
        );
    }

    /// The `--lane-telemetry` artifact run populates all three lanes'
    /// scheduler counters and the filtered exposition carries exactly
    /// the `dacs_sched_*` families.
    #[test]
    fn scheduler_telemetry_run_populates_every_lane() {
        let telemetry = scheduler_telemetry_run(96);
        let registry = telemetry.registry();
        for lane in ["interactive", "default", "bulk"] {
            let jobs = registry
                .counter_value(&format!("dacs_sched_{lane}_jobs_total"))
                .unwrap_or(0);
            assert!(jobs > 0, "{lane} lane never scheduled a job");
        }
        let text = registry.render_text_filtered("dacs_sched_");
        assert!(text.contains("# TYPE dacs_sched_interactive_jobs_total counter"));
        assert!(text.contains("# TYPE dacs_sched_bulk_queue_wait_ns summary"));
        assert!(
            !text.contains("dacs_pep_"),
            "filtered exposition must only carry scheduler families"
        );
    }

    #[test]
    fn e13_discovery_dominates_static() {
        let t = e13_pdp_discovery(500);
        // Rows come in (static, discovery) pairs.
        for pair in t.rows.chunks(2) {
            let stat: f64 = pair[0][3].parse().unwrap();
            let disc: f64 = pair[1][3].parse().unwrap();
            assert!(disc >= stat, "discovery {disc} < static {stat}");
        }
    }

    /// The ISSUE 6 tentpole acceptance bar, part 1: a clustered
    /// E17-style run's trace decomposes — every enforcement stamps one
    /// root span, each sequential level carries only its own child
    /// stages, nested inside the parent, the quorum wait nests inside
    /// the fan-out, and every fan-out carries per-replica compute
    /// spans. How closely the children's time sums to the parent's is
    /// a timing figure: the harness's `--trace` run prints it
    /// ([`unaccounted_shares`]).
    #[test]
    fn traced_run_decomposes_with_children_summing_to_parents() {
        const REQUESTS: usize = 300;
        let (telemetry, lats) = traced_cluster_run(REQUESTS);
        assert_eq!(lats.len(), REQUESTS);
        // One read: the run dropped its domain, whose pool joined its
        // workers, so no straggler span is still open.
        let spans = telemetry.tracer().snapshot();
        assert_eq!(telemetry.tracer().dropped(), 0, "span sink overflowed");

        let mut kids: std::collections::HashMap<u64, Vec<&dacs_telemetry::SpanRecord>> =
            std::collections::HashMap::new();
        for s in &spans {
            kids.entry(s.parent).or_default().push(s);
        }
        let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), REQUESTS, "one root span per enforcement");
        let traces: std::collections::HashSet<u64> = roots.iter().map(|r| r.trace).collect();
        assert_eq!(
            traces.len(),
            REQUESTS,
            "every enforcement gets its own trace id"
        );
        for r in &roots {
            assert_eq!(r.stage, Stage::PepEnforce);
        }

        // Sequential levels: a parent stage carries only its own child
        // stages, in the parent's trace, and — the children running
        // inline between the parent's open and close — never more
        // child time than its own.
        for (parent_stage, allowed) in SEQUENTIAL_LEVELS {
            let parents: Vec<_> = spans.iter().filter(|s| s.stage == parent_stage).collect();
            assert!(!parents.is_empty(), "no {parent_stage:?} spans recorded");
            for p in parents {
                let children = kids.get(&p.id).map(Vec::as_slice).unwrap_or(&[]);
                for c in children {
                    assert!(
                        allowed.contains(&c.stage),
                        "unexpected child {:?} under {parent_stage:?}",
                        c.stage
                    );
                    assert_eq!(c.trace, p.trace, "{:?} left its parent's trace", c.stage);
                }
                let child_ns: u64 = children.iter().map(|c| c.dur_ns).sum();
                assert!(
                    child_ns <= p.dur_ns,
                    "{parent_stage:?}: children ({child_ns}ns) outlast their parent ({}ns)",
                    p.dur_ns
                );
            }
        }

        // Concurrency level: replica spans overlap, so they don't sum
        // — instead the quorum wait must nest inside its fan-out and
        // every fan-out must carry at least one per-replica span.
        for f in spans.iter().filter(|s| s.stage == Stage::Fanout) {
            let children = kids.get(&f.id).map(Vec::as_slice).unwrap_or(&[]);
            let replicas = children
                .iter()
                .filter(|c| c.stage == Stage::ReplicaDecide)
                .count();
            assert!(replicas >= 1, "fan-out without per-replica spans");
            for c in children.iter().filter(|c| c.stage == Stage::QuorumWait) {
                assert!(
                    c.dur_ns <= f.dur_ns + 5_000,
                    "quorum wait {}ns escapes its fan-out {}ns",
                    c.dur_ns,
                    f.dur_ns
                );
            }
        }

        // The run exercises both cache outcomes: roots with a decide
        // hop (misses) and roots without one (hits).
        let misses = roots
            .iter()
            .filter(|r| {
                kids.get(&r.id)
                    .map(Vec::as_slice)
                    .unwrap_or(&[])
                    .iter()
                    .any(|c| c.stage == Stage::Decide)
            })
            .count();
        assert!(misses > 0, "no cache misses traced");
        assert!(misses < REQUESTS, "no cache hits traced");

        // Spans are the only clock of a stage: each stage histogram
        // took exactly one sample per span of its stage.
        let registry = telemetry.registry();
        for stage in Stage::ALL {
            let closed = spans.iter().filter(|s| s.stage == stage).count() as u64;
            let histogram = registry.histogram(stage.metric());
            assert_eq!(histogram.count(), closed, "{stage:?}");
            let spanned: u64 = spans
                .iter()
                .filter(|s| s.stage == stage)
                .map(|s| s.dur_ns)
                .sum();
            assert_eq!(histogram.sum(), spanned, "{stage:?}");
        }
    }

    /// The registry's `dacs_pep_enforce_ns` histogram takes one sample
    /// per enforcement of the run and the text exposition carries its
    /// quantile samples.
    /// (How close its percentiles come to the caller-side wall clock is
    /// a timing figure: the harness's `--telemetry` run prints the two
    /// side by side.)
    #[test]
    fn registry_percentiles_match_harness_summary() {
        const REQUESTS: usize = 400;
        let (telemetry, lats) = traced_cluster_run(REQUESTS);
        assert_eq!(lats.len(), REQUESTS);
        let h = telemetry.registry().histogram("dacs_pep_enforce_ns");
        assert_eq!(h.count(), REQUESTS as u64, "one sample per enforcement");
        let text = telemetry.registry().render_text();
        assert!(text.contains("# TYPE dacs_pep_enforce_ns summary"));
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            let line = format!(
                "dacs_pep_enforce_ns{{quantile=\"{label}\"}} {}",
                h.percentile(q)
            );
            assert!(text.contains(&line), "exposition missing `{line}`");
        }
        assert!(text.contains(&format!("dacs_pep_enforce_ns_count {REQUESTS}")));
        // Recorded in ns, the median enforcement is never 0.
        assert!(h.percentile(0.5) > 0);
    }

    /// Decides `requests` queries on a pooled 1×3 majority cluster of
    /// [`SpinPermit`] replicas; returns every verdict and the
    /// cluster's final metrics.
    fn spin_run(
        telemetry: Option<&Arc<dacs_telemetry::Telemetry>>,
        requests: usize,
    ) -> (Vec<Decision>, dacs_cluster::ClusterMetrics) {
        let mut builder = ClusterBuilder::new("spin")
            .quorum(QuorumMode::Majority)
            .scheduler(SchedulerConfig::new(4))
            .shard(SpinPermit::shard("spin", 3, 300));
        if let Some(t) = telemetry {
            builder = builder.telemetry(Arc::clone(t));
        }
        let cluster = builder.build();
        let verdicts = (0..requests as u64)
            .map(|i| {
                let request = RequestContext::basic(
                    format!("user-{}", i % 8),
                    format!("res/{}", i % 5),
                    "read",
                );
                let outcome = cluster.decide(&request, i);
                outcome.response.expect("three healthy replicas").decision
            })
            .collect();
        (verdicts, cluster.metrics())
    }

    /// The logic half of the ISSUE 6 overhead bar: attaching telemetry
    /// adds readers and spans, not a second code path — the
    /// instrumented cluster returns the same verdicts and books the
    /// same [`dacs_cluster::ClusterMetrics`] as the bare one, and the
    /// registry reports exactly those metrics. The cost half (p99 with
    /// telemetry on against off) is a wall-clock judgement and lives in
    /// the repo benchmark, which reports it on every run as
    /// `telemetry.enabled_cost_ratio` on `quorum_miss`.
    #[test]
    fn telemetry_adds_no_second_code_path_same_verdicts_and_counters() {
        const REQUESTS: usize = 150;
        let (plain_verdicts, plain_metrics) = spin_run(None, REQUESTS);
        let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
        let (verdicts, metrics) = spin_run(Some(&telemetry), REQUESTS);
        assert_eq!(verdicts, plain_verdicts);
        assert_eq!(metrics, plain_metrics);
        assert_eq!(metrics.queries, REQUESTS as u64);
        assert_eq!(metrics.replica_queries, 3 * REQUESTS as u64);
        let r = telemetry.registry();
        for (name, value) in [
            ("dacs_cluster_queries_total", metrics.queries),
            (
                "dacs_cluster_replica_queries_total",
                metrics.replica_queries,
            ),
            ("dacs_cluster_unavailable_total", metrics.unavailable),
            ("dacs_cluster_degraded_total", metrics.degraded),
            ("dacs_cluster_hedges_total", metrics.hedges),
        ] {
            assert_eq!(r.counter_value(name), Some(value), "{name}");
        }
        assert_eq!(
            r.histogram(Stage::ClusterDecide.metric()).count(),
            REQUESTS as u64,
            "the instrumented run timed every decision"
        );
    }
}
