//! Canned multi-domain scenarios used by examples, integration tests
//! and the experiment harness.

use crate::workload::ZipfSampler;
use dacs_cluster::{ClusterBuilder, QuorumMode};
use dacs_crypto::sign::CryptoCtx;
use dacs_federation::{CapabilityService, Domain, DomainBuilder, Vo};
use dacs_pdp::PdpDirectory;
use dacs_pep::Pep;
use dacs_policy::request::RequestContext;
use rand::Rng;
use std::sync::Arc;

/// The per-domain healthcare gate policy (see [`healthcare_vo`]).
fn healthcare_gate_src(name: &str) -> String {
    format!(
        r#"
policy "{name}-gate" first-applicable {{
  rule "doctors-read" permit {{
    target {{
      resource "id" ~= "records/*";
      action "id" == "read";
    }}
    condition is-in("doctor", attr(subject, "role"))
    obligation "log" on permit {{
      "who" = attr(subject, "id");
    }}
  }}
  rule "local-doctors-write" permit {{
    target {{
      resource "id" ~= "records/*";
      action "id" == "write";
      subject "id" ~= "*@{name}";
    }}
    condition is-in("doctor", attr(subject, "role"))
    obligation "log" on permit {{
      "who" = attr(subject, "id");
    }}
  }}
  rule "default-deny" deny {{
    target {{ resource "id" ~= "records/*"; }}
  }}
}}
"#
    )
}

/// Provisions the healthcare user base at a domain builder's IdP:
/// `user-0..users_per_domain-1`, 70% `doctor`, the rest `auditor`.
fn healthcare_users(
    mut builder: DomainBuilder,
    name: &str,
    users_per_domain: usize,
) -> DomainBuilder {
    for u in 0..users_per_domain {
        let subject = format!("user-{u}@{name}");
        let role = if u * 10 < users_per_domain * 7 {
            "doctor"
        } else {
            "auditor"
        };
        builder = builder.subject_attr(&subject, "role", role);
        builder = builder.subject_attr(&subject, "dept", "general");
    }
    builder
}

/// Builds a healthcare-style VO of `n` domains named `domain-0..n-1`.
///
/// Each domain:
/// * permits `read` on `records/*` for subjects holding the `doctor`
///   role (wherever asserted — locally or by a federated IdP);
/// * permits `write` only for the domain's own subjects with the
///   `doctor` role;
/// * explicitly denies everything else on `records/*` (first-applicable
///   with a targeted final deny) while staying silent on other resource
///   trees such as `shared/*`, so that VO capabilities can carry there
///   (push-model semantics); every permit carries a `log` obligation.
///
/// Users `user-0..users_per_domain-1` are provisioned at their home IdP;
/// 70% hold `doctor`, the rest `auditor`.
pub fn healthcare_vo(n: usize, users_per_domain: usize, ctx: &CryptoCtx) -> Vo {
    let mut domains = Vec::with_capacity(n);
    for d in 0..n {
        let name = format!("domain-{d}");
        let builder = Domain::builder(&name)
            .policy_dsl(&healthcare_gate_src(&name))
            .seed(d as u64 + 1);
        let builder = healthcare_users(builder, &name, users_per_domain);
        domains.push(builder.build(ctx));
    }
    Vo::new("vo-health", ctx.clone(), domains)
}

/// The [`healthcare_vo`] scenario with every domain's PDP backed by a
/// full cluster: one majority-quorum shard of three replicas per
/// domain, all replicas registered in the shared `directory` (so
/// VO-wide discovery and failover see every domain's replicas), replica
/// PAPs hanging as leaves off each domain's syndication tree.
pub fn clustered_healthcare_vo(
    n: usize,
    users_per_domain: usize,
    ctx: &CryptoCtx,
    directory: Arc<PdpDirectory>,
) -> Vo {
    let mut domains = Vec::with_capacity(n);
    for d in 0..n {
        let name = format!("domain-{d}");
        let builder = Domain::builder(&name)
            .policy_dsl(&healthcare_gate_src(&name))
            .clustered(
                ClusterBuilder::new(&name)
                    .quorum(QuorumMode::Majority)
                    .directory(directory.clone()),
            )
            .cluster_topology(1, 3)
            .seed(d as u64 + 1);
        let builder = healthcare_users(builder, &name, users_per_domain);
        domains.push(builder.build(ctx));
    }
    Vo::new("vo-health", ctx.clone(), domains)
}

/// The alternating per-domain lockdown gate used by the staleness
/// experiments (E17) and the federation-cluster integration tests:
/// even versions permit the `doctor` role on `records/*`, odd versions
/// are an admin-only lockdown, so every update flips the correct
/// decision for a doctor workload and a replica deciding on any stale
/// version errs observably.
pub fn alternating_lockdown_gate(domain: &str, version: u64) -> dacs_policy::policy::Policy {
    let role = if version.is_multiple_of(2) {
        "doctor"
    } else {
        "admin"
    };
    dacs_policy::dsl::parse_policy(&format!(
        r#"
policy "{domain}-gate" deny-unless-permit {{
  rule "v{version}" permit {{
    target {{ resource "id" ~= "records/*"; }}
    condition is-in("{role}", attr(subject, "role"))
  }}
}}
"#
    ))
    .expect("alternating lockdown gate parses")
}

/// Adds a CAS to a VO whose member domains run permissive overlay
/// policies on `shared/*` (so capabilities can carry), and registers the
/// CAS as a trusted issuer at every member PEP.
pub fn with_shared_cas(mut vo: Vo, ttl_ms: u64) -> Vo {
    let prescreen = dacs_policy::dsl::parse_policy(
        r#"
policy "vo-prescreen" deny-unless-permit {
  rule "members-read-shared" permit {
    target {
      resource "id" ~= "shared/*";
      action "id" == "read";
    }
  }
}
"#,
    )
    .expect("static DSL");
    let cas = CapabilityService::new("cas.vo", &vo.ctx, prescreen, ttl_ms, 4242);
    let key = cas.public_key();
    let ctx = vo.ctx.clone();
    for d in &mut vo.domains {
        // Bind to the domain's decision *source*, not `d.pdp`: a
        // clustered domain keeps routing through its quorum service.
        let mut pep = Pep::builder(format!("pep.{}", d.name))
            .audience(d.name.clone())
            .source(d.decision_source())
            .crypto(ctx.clone())
            .handler(d.log_handler.clone())
            .trusted_issuer("cas.vo", key.clone());
        // A capability-minting domain keeps its token fast path on the
        // rebuilt PEP too.
        if let Some(authority) = &d.capability {
            pep = pep.capability_fastpath(authority.clone(), 4096);
        }
        d.pep = Arc::new(pep.build());
    }
    vo.with_cas(cas)
}

/// The read-path scaling scenario (experiment E20): a Zipf-skewed
/// closed-loop workload over a very large subject base — the "large
/// user bases" regime of §1/§3.1, with the key skew of realistic
/// domain-mined policies — hammering one shared PEP from many threads.
///
/// Subjects are `user-{rank}@mega` for ranks `0..subjects`, drawn
/// Zipf(`exponent`) so a hot head keeps the decision cache busy while
/// a heavy tail of cold subjects keeps missing. The gate policy
/// decides purely on the request's resource/action shape, so the
/// correct outcome of every request is known *by construction*
/// ([`ReadPathScenario::expect_permit`]) without provisioning a
/// million PIP attribute entries: rank `r` reads `records/{r % 4096}`
/// — permitted — except every eighth rank (`r % 8 == 7`), which
/// attempts a `write` and is denied by the final deny rule.
pub(crate) struct ReadPathScenario {
    sampler: ZipfSampler,
}

impl ReadPathScenario {
    /// Builds the scenario over `subjects` ranks with Zipf `exponent`.
    pub fn new(subjects: usize, exponent: f64) -> Self {
        ReadPathScenario {
            sampler: ZipfSampler::new(subjects, exponent),
        }
    }

    /// The gate policy: permit `read` on `records/*`, deny everything
    /// else — attribute-free so ground truth needs no PIP state.
    pub fn policy_src() -> &'static str {
        r#"
policy "mega-gate" first-applicable {
  rule "readers" permit {
    target {
      resource "id" ~= "records/*";
      action "id" == "read";
    }
  }
  rule "default-deny" deny { }
}
"#
    }

    /// The deterministic request of subject rank `rank`.
    pub(crate) fn request_for_rank(rank: usize) -> RequestContext {
        let action = if rank % 8 == 7 { "write" } else { "read" };
        RequestContext::basic(
            format!("user-{rank}@mega"),
            format!("records/{}", rank % 4096),
            action,
        )
    }

    /// The correct outcome of rank `rank`'s request under
    /// [`ReadPathScenario::policy_src`], by construction.
    pub fn expect_permit(rank: usize) -> bool {
        rank % 8 != 7
    }

    /// Draws one subject rank from the Zipf distribution.
    pub(crate) fn sample_rank<R: Rng>(&self, rng: &mut R) -> usize {
        self.sampler.sample(rng)
    }

    /// Expected number of *distinct* ranks among `draws` independent
    /// Zipf draws: `Σ_k (1 − (1 − p_k)^draws)`.
    pub(crate) fn expected_unique(&self, draws: u64) -> f64 {
        let n = draws as f64;
        (0..self.sampler.len())
            .map(|k| {
                let p = self.sampler.prob(k);
                1.0 - (1.0 - p).powf(n)
            })
            .sum()
    }

    /// Analytic cache hit rate for `draws` lookups against a cache
    /// large enough to hold every distinct key (first touch of a rank
    /// misses, every repeat hits): `1 − E[unique] / draws`.
    pub(crate) fn expected_hit_rate(&self, draws: u64) -> f64 {
        if draws == 0 {
            return 0.0;
        }
        1.0 - self.expected_unique(draws) / draws as f64
    }
}

/// Builds a grid-computing style VO: compute sites exposing job-submit
/// services, where submission rights come from VOMS-style role
/// attributes provisioned at the home IdP.
pub fn grid_vo(sites: usize, ctx: &CryptoCtx) -> Vo {
    let mut domains = Vec::with_capacity(sites);
    for s in 0..sites {
        let name = format!("site-{s}");
        let src = format!(
            r#"
policy "{name}-jobs" first-applicable {{
  rule "members-submit" permit {{
    target {{
      resource "id" ~= "queue/*";
      action "id" == "submit";
    }}
    condition is-in("vo-member", attr(subject, "role"))
  }}
  rule "operators-manage" permit {{
    target {{
      resource "id" ~= "queue/*";
    }}
    condition is-in("operator", attr(subject, "role"))
  }}
  rule "default-deny" deny {{ }}
}}
"#
        );
        let builder = Domain::builder(&name)
            .policy_dsl(&src)
            .seed(1000 + s as u64)
            .subject_attr(&format!("researcher@{name}"), "role", "vo-member")
            .subject_attr(&format!("operator@{name}"), "role", "operator");
        domains.push(builder.build(ctx));
    }
    Vo::new("vo-grid", ctx.clone(), domains)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_pep::EnforceRequest;
    use rand::SeedableRng;

    #[test]
    fn healthcare_policies_behave() {
        let ctx = CryptoCtx::new();
        let vo = healthcare_vo(2, 10, &ctx);
        let d0 = &vo.domains[0];
        // user-0 is a doctor (70% rule).
        let read = RequestContext::basic("user-0@domain-0", "records/1", "read");
        assert!(d0.pep.serve(EnforceRequest::of(&read, 0)).allowed);
        // Write allowed at home...
        let write = RequestContext::basic("user-0@domain-0", "records/1", "write");
        assert!(d0.pep.serve(EnforceRequest::of(&write, 0)).allowed);
        // ...but a foreign doctor cannot write here even with the role.
        let foreign_write = RequestContext::basic("user-0@domain-1", "records/1", "write")
            .with_subject_attr("role", "doctor");
        assert!(!d0.pep.serve(EnforceRequest::of(&foreign_write, 0)).allowed);
        // Auditors (rank >= 7 of 10) cannot read records.
        let auditor = RequestContext::basic("user-9@domain-0", "records/1", "read");
        assert!(!d0.pep.serve(EnforceRequest::of(&auditor, 0)).allowed);
        // Obligations were logged for the permits.
        assert_eq!(d0.log_handler.entries().len(), 2);
    }

    #[test]
    fn grid_roles_gate_submission() {
        let ctx = CryptoCtx::new();
        let vo = grid_vo(1, &ctx);
        let site = &vo.domains[0];
        let ok = RequestContext::basic("researcher@site-0", "queue/batch", "submit");
        assert!(site.pep.serve(EnforceRequest::of(&ok, 0)).allowed);
        let cancel = RequestContext::basic("operator@site-0", "queue/batch", "cancel");
        assert!(site.pep.serve(EnforceRequest::of(&cancel, 0)).allowed);
        let anon = RequestContext::basic("stranger@site-0", "queue/batch", "submit");
        assert!(!site.pep.serve(EnforceRequest::of(&anon, 0)).allowed);
    }

    #[test]
    fn read_path_scenario_ground_truth_matches_policy() {
        use dacs_pap::Pap;
        use dacs_pdp::Pdp;
        use dacs_pip::PipRegistry;
        use dacs_policy::policy::{Decision, PolicyElement, PolicyId};

        let pap = Arc::new(Pap::new("pap.mega"));
        pap.submit(
            "admin",
            dacs_policy::dsl::parse_policy(ReadPathScenario::policy_src()).unwrap(),
            0,
        )
        .unwrap();
        let pdp = Pdp::new(
            "pdp.mega",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("mega-gate")),
            Arc::new(PipRegistry::new()),
        );
        // Every eighth rank writes (denied); the rest read (permitted) —
        // and the reference engine agrees with the constructed truth.
        for rank in [0usize, 1, 6, 7, 8, 15, 4095, 4096, 999_999] {
            let request = ReadPathScenario::request_for_rank(rank);
            let got = pdp.decide(&request, 0).decision;
            let want = if ReadPathScenario::expect_permit(rank) {
                Decision::Permit
            } else {
                Decision::Deny
            };
            assert_eq!(got, want, "rank {rank}");
        }
    }

    #[test]
    fn read_path_scenario_skew_and_analytics() {
        let scenario = ReadPathScenario::new(10_000, 1.07);
        assert_eq!(scenario.sampler.len(), 10_000);
        // The analytic hit rate grows with draw count (more repeats)
        // and stays in (0, 1).
        let short = scenario.expected_hit_rate(1_000);
        let long = scenario.expected_hit_rate(50_000);
        assert!(short > 0.0 && long < 1.0);
        assert!(long > short, "hit rate grows with draws: {short} vs {long}");
        // Empirical distinct-count tracks the expectation.
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let draws = 20_000u64;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..draws {
            seen.insert(scenario.sample_rank(&mut rng));
        }
        let expected = scenario.expected_unique(draws);
        let got = seen.len() as f64;
        assert!(
            (got - expected).abs() < 0.05 * expected,
            "unique {got} vs analytic {expected:.0}"
        );
    }

    #[test]
    fn cas_overlay_trusts_capabilities() {
        let ctx = CryptoCtx::new();
        let vo = with_shared_cas(healthcare_vo(2, 4, &ctx), 60_000);
        let cas = vo.cas.as_ref().unwrap();
        let cap = cas
            .issue(
                "user-1@domain-1",
                "shared/*",
                &["read".to_string()],
                "domain-0",
                0,
            )
            .expect("prescreen permits shared reads");
        let req = RequestContext::basic("user-1@domain-1", "shared/set-1", "read");
        let d0 = &vo.domains[0];
        // The local gate policy is silent on shared/*, so the capability
        // carries (push-model pre-screening)...
        let r = d0
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(r.allowed, "{:?}", r.reason);
        // ...but the capability cannot override records/* where the local
        // policy explicitly decides.
        let blocked = RequestContext::basic("user-1@domain-1", "records/7", "read");
        let cap2 = cas
            .issue(
                "user-1@domain-1",
                "shared/*",
                &["read".to_string()],
                "domain-0",
                0,
            )
            .unwrap();
        assert!(
            !d0.pep
                .serve_with_capability(EnforceRequest::of(&blocked, 10), &cap2)
                .allowed
        );
        // And without any capability, plain pull on shared/* is denied
        // fail-safe (NotApplicable).
        assert!(!d0.pep.serve(EnforceRequest::of(&req, 10)).allowed);
    }
}
