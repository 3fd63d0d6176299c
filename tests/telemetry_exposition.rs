//! Completeness of the metric exposition (ISSUE 13): every counter a
//! component keeps in its own stats struct is read through by the
//! registry under one name, so for each exposed name the registry's
//! value *is* the owning accessor's field — there is no second store
//! to drift. The name tables below are written out by hand on purpose:
//! they are the independent statement of what `render_text` carries,
//! and the test fails on a name it does not know as well as on one it
//! misses.

use dacs::cluster::{ClusterBuilder, QuorumMode};
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::Domain;
use dacs::pdp::{CacheConfig, CacheStats, PdpMetrics};
use dacs::pep::{EnforceOptions, EnforceRequest};
use dacs::pip::PipRegistry;
use dacs::policy::request::RequestContext;
use dacs::telemetry::{Registry, Telemetry};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The layers whose counters the registry reads through — every layer
/// that counts: the registry owns histograms only.
const READ_THROUGH_PREFIXES: [&str; 8] = [
    "dacs_pep_",
    "dacs_cluster_",
    "dacs_capability_",
    "dacs_pdp_",
    "dacs_pip_",
    "dacs_fanout_",
    "dacs_sched_",
    "dacs_syndication_",
];

/// Every counter and gauge name of the read-through layers that
/// `render_text` carries.
fn exposed_names(registry: &Registry) -> BTreeSet<String> {
    registry
        .render_text()
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix("# TYPE ")?.split(' ');
            let (name, kind) = (words.next()?, words.next()?);
            let scalar = kind == "counter" || kind == "gauge";
            (scalar && READ_THROUGH_PREFIXES.iter().any(|p| name.starts_with(p)))
                .then(|| name.to_string())
        })
        .collect()
}

/// One exposed name and its owner's value.
type Row = (String, u64);

/// Asserts `registry value == owner's field` for every row of
/// `owners`, and that these names plus `present_only`'s are exactly
/// the set the registry exposes for the read-through layers.
fn assert_exposition(registry: &Registry, owners: &[Row], present_only: &[Row]) {
    for (name, value) in owners {
        let got = if name.ends_with("_total") {
            registry.counter_value(name)
        } else {
            registry.gauge_value(name)
        };
        assert_eq!(got, Some(*value), "{name}");
    }
    let expected: BTreeSet<String> = owners
        .iter()
        .chain(present_only)
        .map(|(name, _)| name.clone())
        .collect();
    assert_eq!(exposed_names(registry), expected);
}

fn rows(pairs: &[(&str, u64)]) -> Vec<Row> {
    pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect()
}

fn cache_rows(prefix: &str, stats: CacheStats) -> Vec<Row> {
    vec![
        (format!("{prefix}_hits_total"), stats.hits),
        (format!("{prefix}_misses_total"), stats.misses),
        (format!("{prefix}_evictions_total"), stats.evictions),
        (format!("{prefix}_expirations_total"), stats.expirations),
    ]
}

fn pdp_rows(m: PdpMetrics) -> Vec<Row> {
    rows(&[
        ("dacs_pdp_decisions_total", m.decisions),
        ("dacs_pdp_rules_evaluated_total", m.eval.rules_evaluated),
        (
            "dacs_pdp_policies_evaluated_total",
            m.eval.policies_evaluated,
        ),
        (
            "dacs_pdp_policy_sets_evaluated_total",
            m.eval.policy_sets_evaluated,
        ),
        ("dacs_pdp_targets_checked_total", m.eval.targets_checked),
        (
            "dacs_pdp_functions_applied_total",
            m.eval.expr.functions_applied,
        ),
        (
            "dacs_pdp_attribute_lookups_total",
            m.eval.expr.attribute_lookups,
        ),
    ])
}

fn pip_rows(pips: &PipRegistry) -> Vec<Row> {
    let stats = pips.stats();
    rows(&[
        ("dacs_pip_lookups_total", stats.lookups),
        ("dacs_pip_resolved_total", stats.resolved),
    ])
}

fn doctor(domain: &str, u: u64) -> RequestContext {
    RequestContext::basic(
        format!("user-{u}@{domain}"),
        format!("records/{}", u % 5),
        "read",
    )
}

/// A clustered capability domain driven through the
/// `traced_cluster_run` shape — replica crash, policy push, a stale
/// return while the replica is still cut off from syndication, then
/// recovery — plus token hits and rejects, cached denies, a batch and
/// a blackout, so most counters are non-zero when compared.
#[test]
fn every_exposed_name_reads_its_owners_storage() {
    const REQUESTS: u64 = 600;
    let name = "expo";
    let telemetry = Arc::new(Telemetry::new());
    let ctx = CryptoCtx::new();
    let mut builder = Domain::builder(name)
        .policy(alternating_lockdown_gate(name, 0))
        // Sequential fan-out: each replica sub-query is exactly one
        // `Pdp::decide`, which pins the replicas' summed decisions.
        .clustered(ClusterBuilder::new(name).quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        .pep_cache(CacheConfig {
            capacity: 256,
            ttl_ms: 1_000_000,
        })
        .capability(10_000_000)
        .telemetry(Arc::clone(&telemetry))
        .seed(0xe490);
    for u in 0..8 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    let d = builder.build(&ctx);
    let replicas = d.replica_names();
    let cluster = d.cluster.as_ref().expect("clustered");

    for i in 0..REQUESTS {
        if i == REQUESTS / 3 {
            d.crash_replica(&replicas[2]);
        }
        if i == REQUESTS / 2 {
            d.propagate_policy(alternating_lockdown_gate(name, 2), i);
            cluster.mark_up(&replicas[2]);
        }
        if i == REQUESTS / 2 + 20 {
            assert!(d.recover_replica(&replicas[2]));
        }
        // Doctors ride tokens; every fourth request is a stranger, whose
        // deny rides the PEP decision cache.
        let request = if i % 4 == 3 {
            RequestContext::basic(format!("stranger-{}@{name}", i % 3), "records/1", "read")
        } else {
            doctor(name, i % 8)
        };
        d.pep.serve(EnforceRequest::of(&request, i));
    }
    // A push revokes the tokens, so the batch reaches the cluster and
    // its duplicate coalesces there.
    let batch: Vec<RequestContext> = [0, 1, 1, 9].map(|u| doctor(name, u)).to_vec();
    d.propagate_policy(alternating_lockdown_gate(name, 4), REQUESTS);
    d.pep
        .serve_batch(&batch, REQUESTS, EnforceOptions::default());
    // Blackout: no replica answers, the PEP denies fail-safe.
    for replica in &replicas {
        cluster.mark_down(replica);
    }
    let blackout = RequestContext::basic(format!("user-0@{name}"), "records/4", "write");
    assert!(
        !d.pep
            .serve(EnforceRequest::of(&blackout, REQUESTS + 1))
            .allowed
    );

    let pep = d.pep.stats();
    let m = cluster.metrics();
    let a = d.capability.as_ref().expect("capability domain").stats();
    // The run reached the counters it was shaped to reach.
    assert!(pep.token_hits > 0 && pep.token_rejects > 0 && pep.cache_hits > 0);
    assert!(pep.failsafe_denials > 0 && pep.denied > 0);
    assert!(m.resyncs == 1 && m.degraded > 0 && m.stale_decisions_avoided > 0);
    assert!(m.unavailable == 1 && m.batches == 1 && m.coalesced > 0);
    assert!(a.rejected_stale_epoch > 0);

    let mut owners = rows(&[
        // The names that predate the read-through registry…
        (
            "dacs_pep_enforcements_total",
            pep.allowed + pep.denied + pep.failsafe_denials,
        ),
        ("dacs_pep_cache_hits_total", pep.cache_hits),
        ("dacs_pep_failsafe_denials_total", pep.failsafe_denials),
        ("dacs_cluster_queries_total", m.queries),
        ("dacs_cluster_unavailable_total", m.unavailable),
        ("dacs_cluster_hedges_total", m.hedges),
        ("dacs_capability_minted_total", a.minted),
        ("dacs_capability_verified_total", a.verified),
        ("dacs_capability_rejected_total", a.rejected),
        // …and every other field of the same structs.
        ("dacs_pep_allowed_total", pep.allowed),
        ("dacs_pep_denied_total", pep.denied),
        (
            "dacs_pep_obligation_failures_total",
            pep.obligation_failures,
        ),
        ("dacs_pep_token_hits_total", pep.token_hits),
        ("dacs_pep_tokens_minted_total", pep.tokens_minted),
        ("dacs_pep_token_rejects_total", pep.token_rejects),
        ("dacs_pep_audit_dropped_total", pep.audit_dropped),
        ("dacs_cluster_replica_queries_total", m.replica_queries),
        ("dacs_cluster_degraded_total", m.degraded),
        ("dacs_cluster_disagreements_total", m.disagreements),
        (
            "dacs_cluster_fail_closed_denies_total",
            m.fail_closed_denies,
        ),
        ("dacs_cluster_resyncs_total", m.resyncs),
        (
            "dacs_cluster_stale_decisions_avoided_total",
            m.stale_decisions_avoided,
        ),
        ("dacs_cluster_epoch_lag_last", m.epoch_lag_last),
        ("dacs_cluster_epoch_lag_max", m.epoch_lag_max),
        ("dacs_cluster_batches_total", m.batches),
        ("dacs_cluster_batched_queries_total", m.batched_queries),
        ("dacs_cluster_coalesced_total", m.coalesced),
        ("dacs_cluster_fanout_saved_total", m.fanout_saved),
        (
            "dacs_cluster_caller_evaluations_total",
            m.caller_evaluations,
        ),
        (
            "dacs_capability_rejected_stale_epoch_total",
            a.rejected_stale_epoch,
        ),
        // The replicas' engines are the cluster's own; with no pool
        // they decided once per evaluation the caller ran (a dispatched
        // vote the verdict overtook decided nothing), and the reference
        // engine on the root PAP is exposed beside them.
        (
            "dacs_pdp_decisions_total",
            m.caller_evaluations + d.pdp.metrics().decisions,
        ),
    ]);
    // The syndication tree — the domain root over the three replica
    // leaves — keeps its counters to itself, so the run states them: the
    // bootstrap push and the one before the batch reach all three
    // leaves, the mid-run push skips the crashed replica, and its
    // recovery is the one catch-up.
    owners.extend(rows(&[
        ("dacs_syndication_pushes_total", 3 + 2 + 3),
        ("dacs_syndication_offline_skips_total", 1),
        ("dacs_syndication_catch_ups_total", 1),
        ("dacs_syndication_epoch", d.policy_epoch().0),
        ("dacs_syndication_offline_lag", 0),
    ]));
    owners.extend(cache_rows(
        "dacs_pep_decision_cache",
        d.pep.cache_stats().expect("PEP cache configured"),
    ));
    owners.extend(cache_rows(
        "dacs_pep_token_cache",
        d.pep.token_cache_stats().expect("token cache configured"),
    ));
    // One PIP chain serves every engine of the domain.
    owners.extend(pip_rows(d.pdp.pips()));
    // The other PDP fields sum over engines the domain keeps to
    // itself; the single-engine test below compares them field by
    // field.
    let mut replica_summed = pdp_rows(PdpMetrics::default());
    replica_summed.retain(|(name, _)| name != "dacs_pdp_decisions_total");
    assert_exposition(telemetry.registry(), &owners, &replica_summed);
}

/// A single-engine domain has one PDP, so every `dacs_pdp_*` and
/// `dacs_pip_*` name has exactly one owner to compare against.
#[test]
fn single_engine_domain_exposes_its_pdp_and_pip_chain() {
    let name = "solo";
    let telemetry = Arc::new(Telemetry::new());
    let d = Domain::builder(name)
        .policy(alternating_lockdown_gate(name, 0))
        .subject_attr(&format!("user-0@{name}"), "role", "doctor")
        .telemetry(Arc::clone(&telemetry))
        .build(&CryptoCtx::new());
    for i in 0..40 {
        d.pep.serve(EnforceRequest::of(&doctor(name, i % 3), i));
    }
    let pdp = d.pdp.metrics();
    assert!(pdp.decisions == 40 && pdp.eval.rules_evaluated > 0);
    assert!(d.pdp.pips().stats().resolved > 0);

    let pep = d.pep.stats();
    let mut owners = rows(&[
        (
            "dacs_pep_enforcements_total",
            pep.allowed + pep.denied + pep.failsafe_denials,
        ),
        ("dacs_pep_allowed_total", pep.allowed),
        ("dacs_pep_denied_total", pep.denied),
        ("dacs_pep_failsafe_denials_total", pep.failsafe_denials),
        (
            "dacs_pep_obligation_failures_total",
            pep.obligation_failures,
        ),
        ("dacs_pep_cache_hits_total", pep.cache_hits),
        ("dacs_pep_token_hits_total", pep.token_hits),
        ("dacs_pep_tokens_minted_total", pep.tokens_minted),
        ("dacs_pep_token_rejects_total", pep.token_rejects),
        ("dacs_pep_audit_dropped_total", pep.audit_dropped),
    ]);
    owners.extend(pdp_rows(pdp));
    owners.extend(pip_rows(d.pdp.pips()));
    assert_exposition(telemetry.registry(), &owners, &[]);
}

/// A cluster with a scheduler exposes its pool's counters and no others
/// of the pool's: the lanes' job counts, their sum and the deadline
/// misses. Every replica of the run spins past the pool hand-off
/// constant and none escalates, so each one dispatched is one pool job.
#[test]
fn a_scheduled_cluster_exposes_its_pool_counters() {
    let telemetry = dacs::core::experiments::scheduler_telemetry_run(96);
    let registry = telemetry.registry();
    let pooled: BTreeSet<String> = exposed_names(registry)
        .into_iter()
        .filter(|name| name.starts_with("dacs_fanout_") || name.starts_with("dacs_sched_"))
        .collect();
    let expected: BTreeSet<String> = [
        "dacs_fanout_jobs_total",
        "dacs_sched_interactive_jobs_total",
        "dacs_sched_default_jobs_total",
        "dacs_sched_bulk_jobs_total",
        "dacs_sched_deadline_miss_total",
    ]
    .map(String::from)
    .into();
    assert_eq!(pooled, expected);
    let counter = |name: &str| registry.counter_value(name).expect(name);
    let lanes: u64 = ["interactive", "default", "bulk"]
        .map(|lane| counter(&format!("dacs_sched_{lane}_jobs_total")))
        .iter()
        .sum();
    assert_eq!(counter("dacs_fanout_jobs_total"), lanes);
    assert_eq!(counter("dacs_cluster_caller_evaluations_total"), 0);
    assert_eq!(
        counter("dacs_fanout_jobs_total"),
        counter("dacs_cluster_replica_queries_total")
    );
}
