//! Replica re-sync from the PAP syndication tree: crash two of three
//! PDP replicas across a lockdown policy update and watch their
//! recovery — an epoch-gated `Syncing` phase while they are stale, and
//! readmission by the first decide after the syndication tree has
//! replayed what they missed. Nothing calls for readmission.
//!
//! Run with: `cargo run --release --example replica_resync`

use dacs::cluster::{ClusterBuilder, DecisionBackend, QuorumMode};
use dacs::pap::SyndicationTree;
use dacs::pdp::{CacheConfig, Pdp};
use dacs::pip::PipRegistry;
use dacs::policy::dsl::parse_policy;
use dacs::policy::policy::{Decision, Policy, PolicyElement, PolicyId};
use dacs::policy::request::RequestContext;
use std::sync::Arc;

fn gate(lockdown: bool) -> Policy {
    let role = if lockdown { "admin" } else { "doctor" };
    parse_policy(&format!(
        r#"policy "gate" deny-unless-permit {{
             rule "r" permit {{ condition is-in("{role}", attr(subject, "role")) }} }}"#
    ))
    .expect("gate parses")
}

fn main() {
    // A global PAP syndicates to three leaves, each the local PAP of
    // one PDP replica in a majority-quorum shard.
    let mut tree = SyndicationTree::new("pap.global");
    let statics = Arc::new(dacs::pip::StaticAttributes::new());
    statics.add_subject_attr("dr-grey", "role", "doctor");
    let mut pips = PipRegistry::new();
    pips.add(statics);
    let pips = Arc::new(pips);
    let root = PolicyElement::PolicyRef(PolicyId::new("gate"));

    let mut leaves = Vec::new();
    let mut replicas: Vec<Arc<dyn DecisionBackend>> = Vec::new();
    for r in 0..3 {
        let name = format!("pdp-{r}");
        let leaf = tree.add_child(0, name.clone(), None);
        replicas.push(Arc::new(
            Pdp::new(
                name,
                tree.node(leaf).pap.clone(),
                root.clone(),
                pips.clone(),
            )
            .with_cache(CacheConfig {
                capacity: 128,
                ttl_ms: 1_000,
            }),
        ));
        leaves.push(leaf);
    }
    tree.propagate(gate(false), 0); // epoch 1: doctors may read

    let cluster = ClusterBuilder::new("ward-pdp")
        .quorum(QuorumMode::Majority)
        .shard(replicas)
        .build();
    let request = RequestContext::basic("dr-grey", "records/icu-7", "read");
    let phases = || {
        let phase = |r: usize| cluster.replica_phase(&format!("pdp-{r}")).unwrap().name();
        format!("pdp-0 {}, pdp-1 {}, pdp-2 {}", phase(0), phase(1), phase(2))
    };

    // pdp-1 and pdp-2 crash; the lockdown lands while they sleep.
    for r in [1usize, 2] {
        cluster.mark_down(&format!("pdp-{r}"));
        tree.set_online(leaves[r], false);
    }
    let report = tree.propagate(gate(true), 10); // epoch 2: lockdown
    println!(
        "lockdown pushed at {} — {} nodes offline missed it",
        report.epoch, report.offline_skipped
    );

    // They recover, stale at epoch 1: gated, not voting.
    for r in [1usize, 2] {
        tree.set_online(leaves[r], true);
        cluster.mark_up(&format!("pdp-{r}"));
    }
    println!("after recovery: {}", phases());
    let decision = cluster.decide(&request, 20).response.unwrap().decision;
    assert_ne!(decision, Decision::Permit, "a stale vote was counted");
    println!("dr-grey under lockdown → {decision} (the stale pair never voted)");

    // Anti-entropy: the tree replays the missed updates. That is all —
    // the next decide finds the pair current and readmits it.
    for r in [1usize, 2] {
        let caught = tree.catch_up(leaves[r], 30);
        println!(
            "pdp-{r} caught up {} → {} ({} replayed)",
            caught.from_epoch, caught.to_epoch, caught.replayed
        );
    }
    let outcome = cluster.decide(&request, 40);
    println!(
        "next decide: {} replicas voted → {}; now {}",
        outcome.replicas_queried,
        outcome.response.unwrap().decision,
        phases()
    );
    let m = cluster.metrics();
    println!(
        "metrics: resyncs {}, stale votes avoided {}, peak epoch lag {}",
        m.resyncs, m.stale_decisions_avoided, m.epoch_lag_max
    );
}
