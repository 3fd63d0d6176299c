//! The signed capability fast path end to end: a clustered domain
//! mints an HMAC token on the first permit, the PEP verifies it once
//! on admission and rechecks window and epoch locally on every later
//! use (skipping the quorum) until a policy push bumps the epoch and
//! revokes every outstanding token in the same tick.
//!
//! Run with: `cargo run --example capability_fastpath`

use dacs::cluster::{ClusterBuilder, QuorumMode};
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::Domain;
use dacs::pep::EnforceRequest;
use dacs::policy::request::RequestContext;

fn main() {
    let ctx = CryptoCtx::new();
    let mut builder = Domain::builder("clinic")
        .policy(alternating_lockdown_gate("clinic", 0))
        .clustered(ClusterBuilder::new("clinic").quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        // Opt in to the fast path: tokens live for an hour of sim time.
        .capability(3_600_000)
        .seed(42);
    for u in 0..4 {
        builder = builder.subject_attr(&format!("user-{u}@clinic"), "role", "doctor");
    }
    let domain = builder.build(&ctx);
    let authority = domain.capability.clone().expect("capability enabled");

    // First enforcement: quorum decides, the authority mints a token
    // and the PEP admits it (the one full MAC verification).
    let req = RequestContext::basic("user-0@clinic", "records/7", "read");
    assert!(domain.pep.serve(EnforceRequest::of(&req, 0)).allowed);
    println!(
        "after first permit: minted={} cluster_queries={}",
        authority.stats().minted,
        domain.cluster.as_ref().unwrap().metrics().queries
    );

    // The next ten enforcements recheck it locally — no quorum fan-out.
    for t in 1..=10 {
        assert!(domain.pep.serve(EnforceRequest::of(&req, t)).allowed);
    }
    let stats = domain.pep.stats();
    println!(
        "after ten more: token_hits={} cluster_queries={}",
        stats.token_hits,
        domain.cluster.as_ref().unwrap().metrics().queries
    );

    // A policy push — here an admin-only lockdown — rides the
    // syndication tree, bumps the policy epoch, and every outstanding
    // token is stale the same tick.
    let epoch = domain.propagate_policy(alternating_lockdown_gate("clinic", 1), 20);
    println!("lockdown pushed: epoch now {}", epoch.0);
    assert!(!domain.pep.serve(EnforceRequest::of(&req, 20)).allowed);
    let stats = domain.pep.stats();
    println!(
        "same tick: token_rejects={} stale_rejects={} (access denied)",
        stats.token_rejects,
        authority.stats().rejected_stale_epoch
    );

    // Lifting the lockdown permits again under a fresh token.
    domain.propagate_policy(alternating_lockdown_gate("clinic", 2), 30);
    assert!(domain.pep.serve(EnforceRequest::of(&req, 30)).allowed);
    println!(
        "lockdown lifted: minted={} (fresh token at the new epoch)",
        authority.stats().minted
    );
}
