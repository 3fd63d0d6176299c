//! Multi-threaded PEP stress tests (ISSUE 9): 8 closed-loop threads
//! hammer one shared [`Pep`] with mixed permit/deny/token traffic and
//! the suite then audits the atomic counters against exact accounting
//! identities. Because every stat is a monotonic `u64` atomic and every
//! request takes exactly one path (token hit, decision-cache hit, or
//! source query), the identities hold with equality even under full
//! contention — a torn counter, a double-counted request, or a request
//! lost between the stripes breaks a sum, not a tolerance.
//!
//! The same counters are the only ones there are (ISSUE 13): a last
//! case checks that attaching telemetry changes no count, and that
//! instances sharing one handle stay separate while the registry
//! reports their sum.
//!
//! [`Pep`]: dacs::pep::Pep

use dacs::capability::{CapabilityAuthority, CapabilityKey};
use dacs::cluster::{ClusterBuilder, DecisionBackend, PdpCluster};
use dacs::crypto::sign::CryptoCtx;
use dacs::pap::Pap;
use dacs::pdp::{CacheConfig, Pdp};
use dacs::pep::{EnforceRequest, MintingSource, Pep};
use dacs::pip::PipRegistry;
use dacs::policy::dsl::parse_policy;
use dacs::policy::policy::{PolicyElement, PolicyId};
use dacs::policy::request::RequestContext;
use dacs::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 1_500;

/// Attribute-free gate: reads on `records/*` permit (and, being
/// unconditional, mint capability tokens), everything else denies via
/// the deny-unless-permit envelope — ground truth is decidable from
/// the request alone, so threads can verify every verdict inline.
const GATE: &str = r#"
policy "gate" deny-unless-permit {
  rule "readers" permit {
    target { resource "id" ~= "records/*"; action "id" == "read"; }
  }
}
"#;

fn build_pdp() -> Arc<Pdp> {
    let pap = Arc::new(Pap::new("pap.conc"));
    pap.submit("admin", parse_policy(GATE).unwrap(), 0).unwrap();
    Arc::new(Pdp::new(
        "pdp.conc",
        pap,
        PolicyElement::PolicyRef(PolicyId::new("gate")),
        Arc::new(PipRegistry::new()),
    ))
}

/// The `t`-th thread's `i`-th request: a working set of 16 subjects ×
/// 8 resources, one write (deny) for every two reads (permit).
fn request_for(t: usize, i: usize) -> (RequestContext, bool) {
    let write = (t + i) % 3 == 2;
    let action = if write { "write" } else { "read" };
    let request = RequestContext::basic(
        format!("user-{}@conc", (t * 31 + i) % 16),
        format!("records/{}", i % 8),
        action,
    );
    (request, !write)
}

/// Drives `THREADS` threads through the shared PEP and returns the
/// exact (allowed, denied) counts the ground truth predicts, after
/// asserting every individual verdict matched it.
fn hammer(pep: &Pep) -> (u64, u64) {
    let barrier = Barrier::new(THREADS);
    let expected_allowed = AtomicU64::new(0);
    let wrong = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (barrier, expected_allowed, wrong) = (&barrier, &expected_allowed, &wrong);
            s.spawn(move || {
                barrier.wait();
                for i in 0..REQUESTS_PER_THREAD {
                    let (request, expect_permit) = request_for(t, i);
                    let response = pep.serve(EnforceRequest::of(&request, i as u64));
                    if expect_permit {
                        expected_allowed.fetch_add(1, Ordering::Relaxed);
                    }
                    if response.allowed != expect_permit {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(wrong.load(Ordering::Relaxed), 0, "verdicts diverged");
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;
    let allowed = expected_allowed.load(Ordering::Relaxed);
    (allowed, total - allowed)
}

/// Cache-only PEP: every enforcement is either a decision-cache hit or
/// a miss that reached the PDP exactly once — `hits + misses ==
/// enforcements` and `pdp decisions == misses`, with zero slack.
#[test]
fn eight_threads_share_one_striped_decision_cache() {
    let pdp = build_pdp();
    let pep = Pep::builder("pep.conc")
        .source(pdp.clone())
        .cache(CacheConfig {
            capacity: 4096,
            ttl_ms: u64::MAX / 2,
        })
        .audit_capacity(1024)
        .build();

    let (allowed, denied) = hammer(&pep);
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;

    let stats = pep.stats();
    assert_eq!(stats.allowed, allowed);
    assert_eq!(stats.denied, denied);
    assert_eq!(stats.failsafe_denials, 0);
    assert_eq!(stats.allowed + stats.denied, total);

    // The accounting identity the striped cache must preserve under
    // contention: no request bypasses the cache, none is counted twice.
    let cache = pep.cache_stats().expect("decision cache configured");
    assert_eq!(cache.hits + cache.misses, total);
    assert_eq!(stats.cache_hits, cache.hits);
    assert_eq!(
        pdp.metrics().decisions,
        cache.misses,
        "one source query per miss"
    );
    // 128 distinct requests against 12 000 serves: the cache must
    // actually carry the load, not merely stay consistent.
    assert!(cache.hits > total / 2, "hit-starved: {cache:?}");

    // Bounded audit ring retention contract: capacity retained, the
    // overflow counted, nothing lost in between.
    assert_eq!(pep.audit_log().len(), 1024);
    assert_eq!(stats.audit_dropped, total - 1024);
}

/// Capability + cache PEP: permits ride the token fast path, denies
/// fall through to the decision cache. Every request probes the token
/// cache exactly once, and the three disjoint outcomes — token hit,
/// decision-cache hit, source query — must sum back to the enforcement
/// count.
#[test]
fn eight_threads_share_token_and_decision_caches() {
    let pdp = build_pdp();
    let authority = Arc::new(CapabilityAuthority::new(
        CapabilityKey::generate(&mut StdRng::seed_from_u64(0xC0)),
        u64::MAX / 2,
    ));
    let pep = Pep::builder("pep.conc-cap")
        .audience("conc")
        .source(Arc::new(MintingSource::new(pdp.clone(), authority.clone())))
        .crypto(CryptoCtx::new())
        .capability_fastpath(authority, 4096)
        .cache(CacheConfig {
            capacity: 4096,
            ttl_ms: u64::MAX / 2,
        })
        .build();

    let (allowed, denied) = hammer(&pep);
    let total = (THREADS * REQUESTS_PER_THREAD) as u64;

    let stats = pep.stats();
    assert_eq!(stats.allowed, allowed);
    assert_eq!(stats.denied, denied);
    assert_eq!(stats.failsafe_denials, 0);
    assert_eq!(stats.token_rejects, 0, "no revocations in this run");

    let tokens = pep.token_cache_stats().expect("token cache configured");
    let cache = pep.cache_stats().expect("decision cache configured");
    // Every serve probes the token cache first …
    assert_eq!(tokens.hits + tokens.misses, total);
    assert_eq!(stats.token_hits, tokens.hits);
    // … token misses fall through to the decision cache …
    assert_eq!(cache.hits + cache.misses, tokens.misses);
    assert_eq!(stats.cache_hits, cache.hits);
    // … and decision-cache misses each cost exactly one source query,
    // so the three paths partition the traffic.
    assert_eq!(pdp.metrics().decisions, cache.misses);
    assert_eq!(tokens.hits + cache.hits + cache.misses, total);
    // The permit working set is 16 subjects × 8 resources: after the
    // first lap, reads ride minted tokens.
    assert!(stats.tokens_minted >= 1);
    assert!(
        stats.token_hits > allowed / 2,
        "token path hit-starved: {stats:?}"
    );
}

/// The first `threads` request streams replayed on one thread, so two
/// PEPs given the same replay see the same interleaving.
fn replay(pep: &Pep, threads: usize) {
    for t in 0..threads {
        for i in 0..REQUESTS_PER_THREAD {
            let (request, expect_permit) = request_for(t, i);
            let response = pep.serve(EnforceRequest::of(&request, i as u64));
            assert_eq!(response.allowed, expect_permit);
        }
    }
}

/// Telemetry is a reader of the counters, not a second set of them: a
/// PEP built with a handle counts exactly what one built without it
/// counts for the same requests; two PEPs (and two clusters) sharing
/// one handle each keep their own `stats()` / `metrics()`, and the
/// registry reports the sum.
#[test]
fn shared_telemetry_sums_instances_and_changes_no_count() {
    let telemetry = Arc::new(Telemetry::new());
    let cached_pep = |telemetry: Option<&Arc<Telemetry>>| {
        let builder = Pep::builder("pep.conc")
            .source(build_pdp())
            .cache(CacheConfig {
                capacity: 4096,
                ttl_ms: u64::MAX / 2,
            });
        match telemetry {
            Some(t) => builder.telemetry(Arc::clone(t)).build(),
            None => builder.build(),
        }
    };
    let (plain, a, b) = (
        cached_pep(None),
        cached_pep(Some(&telemetry)),
        cached_pep(Some(&telemetry)),
    );
    replay(&plain, 2);
    replay(&a, 2);
    replay(&b, 1);
    assert_eq!(a.stats(), plain.stats(), "telemetry changed a count");
    assert_eq!(a.cache_stats(), plain.cache_stats());
    assert_ne!(a.stats(), b.stats(), "instances stay separate");

    let registry = telemetry.registry();
    let (sa, sb) = (a.stats(), b.stats());
    let (ca, cb) = (a.cache_stats().unwrap(), b.cache_stats().unwrap());
    for (name, sum) in [
        (
            "dacs_pep_enforcements_total",
            (2 + 1) * REQUESTS_PER_THREAD as u64,
        ),
        ("dacs_pep_allowed_total", sa.allowed + sb.allowed),
        ("dacs_pep_denied_total", sa.denied + sb.denied),
        ("dacs_pep_cache_hits_total", sa.cache_hits + sb.cache_hits),
        ("dacs_pep_decision_cache_hits_total", ca.hits + cb.hits),
        (
            "dacs_pep_decision_cache_misses_total",
            ca.misses + cb.misses,
        ),
    ] {
        assert_eq!(registry.counter_value(name), Some(sum), "{name}");
    }

    let cluster = || -> PdpCluster {
        ClusterBuilder::new("conc")
            .shard(vec![build_pdp() as Arc<dyn DecisionBackend>])
            .telemetry(Arc::clone(&telemetry))
            .build()
    };
    let (x, y) = (cluster(), cluster());
    for i in 0..10 {
        let (request, _) = request_for(0, i);
        x.decide(&request, 0);
        if i < 4 {
            y.decide(&request, 0);
        }
    }
    assert_eq!((x.metrics().queries, y.metrics().queries), (10, 4));
    assert_eq!(
        registry.counter_value("dacs_cluster_queries_total"),
        Some(14)
    );
    assert_eq!(
        registry.counter_value("dacs_cluster_replica_queries_total"),
        Some(x.metrics().replica_queries + y.metrics().replica_queries)
    );
}
