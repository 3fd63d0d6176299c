//! Federated per-domain PDP clusters under the VO flows: every domain
//! of a healthcare VO backs its PEP with a 3-replica majority shard
//! (replica PAPs are leaves of the domain's own syndication tree), all
//! replicas share one VO-wide directory, and enforcement rides the
//! domain's quorum. Crash a replica, push a lockdown while it
//! sleeps, and watch one recovery call heal it: the replica returns
//! `Syncing`, replays what it missed, and the next decision readmits
//! it.
//!
//! Run with: `cargo run --release --example federated_cluster`

use dacs::cluster::{ClusterBuilder, QuorumMode};
use dacs::core::scenario::{alternating_lockdown_gate, clustered_healthcare_vo};
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{request_flow, Domain, FlowKind, FlowNet, SizeModel};
use dacs::pdp::PdpDirectory;
use dacs::pep::EnforceOptions;
use dacs::policy::dsl::parse_policy;
use dacs::policy::request::RequestContext;
use dacs::simnet::LinkSpec;
use std::sync::Arc;

fn main() {
    let ctx = CryptoCtx::new();
    let directory = Arc::new(PdpDirectory::new());
    let vo = clustered_healthcare_vo(3, 8, &ctx, directory.clone());
    let mut fnet = FlowNet::build(&vo, 42, LinkSpec::lan(), LinkSpec::wan());

    println!("=== VO-wide discovery through the shared directory ===");
    for d in &vo.domains {
        let replicas = directory.endpoints_in(&d.name);
        let replicas: Vec<_> = replicas
            .iter()
            .map(|e| format!("{} ({})", e.name(), e.phase().name()))
            .collect();
        println!("{}: replicas {replicas:?}", d.name);
    }

    // A cross-domain pull flow: user-1@domain-1 reads at domain-0. The
    // PEP routes the decision through domain-0's majority quorum.
    let pull = |fnet: &mut FlowNet, now: u64| {
        request_flow(
            fnet,
            &vo,
            FlowKind::Pull,
            "user-1@domain-1",
            0,
            "records/icu-7",
            "read",
            now,
            SizeModel::Compact,
        )
    };
    println!("\n=== cross-domain pull through the quorum ===");
    let trace = pull(&mut fnet, 0);
    println!(
        "doctor read at domain-0 → allowed={} ({} msgs, incl. federated attribute fetch)",
        trace.allowed, trace.messages
    );

    // One replica crashes: the quorum degrades but keeps answering.
    let d0 = &vo.domains[0];
    let names = d0.replica_names();
    d0.crash_replica(&names[1]);
    let trace = pull(&mut fnet, 1);
    let m = d0.cluster.as_ref().unwrap().metrics();
    println!(
        "with {} down → allowed={} (degraded queries so far: {})",
        names[1], trace.allowed, m.degraded
    );

    // The domain authority pushes a lockdown while the replica sleeps.
    let lockdown =
        parse_policy(r#"policy "domain-0-gate" first-applicable { rule "lockdown" deny { } }"#)
            .expect("lockdown parses");
    let epoch = d0.propagate_policy(lockdown, 10);
    println!("\n=== lockdown propagated at epoch {epoch} (one replica offline) ===");
    let trace = pull(&mut fnet, 11);
    println!("doctor read under lockdown → allowed={}", trace.allowed);

    // The crashed replica returns: `Syncing`, and already replayed to
    // the lockdown by the same call.
    d0.recover_replica(&names[1]);
    println!(
        "{} recovered → phase {:?} (caught up, not yet readmitted)",
        names[1],
        d0.replica_phase(&names[1]).unwrap().name()
    );
    let trace = pull(&mut fnet, 12);
    println!(
        "next decision → allowed={}; {} now {:?}",
        trace.allowed,
        names[1],
        d0.replica_phase(&names[1]).unwrap().name()
    );

    let m = d0.cluster.as_ref().unwrap().metrics();
    println!(
        "\n=== domain-0 cluster metrics ===\n\
         queries {}, degraded {}, resyncs {}, stale votes avoided {}, peak epoch lag {}",
        m.queries, m.degraded, m.resyncs, m.stale_decisions_avoided, m.epoch_lag_max
    );

    // The flows above are sequential single decisions, which go
    // straight to the quorum. A PEP holding several requests at once
    // hands them to the cluster as one batch, which decides each
    // distinct request once.
    println!("\n=== one PEP batch: repeated requests coalesce ===");
    let telemetry = Arc::new(dacs::telemetry::Telemetry::new());
    let demo = Domain::builder("batch-demo")
        .policy(alternating_lockdown_gate("batch-demo", 0))
        .clustered(ClusterBuilder::new("batch-demo").quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        .telemetry(telemetry.clone())
        .subject_attr("user-0@batch-demo", "role", "doctor")
        .seed(7)
        .build(&ctx);
    let batch: Vec<RequestContext> = (0..8)
        .map(|w| RequestContext::basic("user-0@batch-demo", format!("records/{}", w % 4), "read"))
        .collect();
    let results = demo
        .pep
        .serve_batch(&batch, 100, EnforceOptions::interactive());
    assert!(results.iter().all(|r| r.allowed), "doctors read records");
    let bm = demo.cluster.as_ref().unwrap().metrics();
    let largest = telemetry
        .registry()
        .histogram("dacs_batch_size")
        .percentile(1.0);
    println!(
        "8 requests over 4 records → {} decided, {} coalesced (largest batch {largest})",
        bm.queries, bm.coalesced
    );
    assert_eq!(bm.coalesced, 4, "each repeat rides its twin's decision");
    assert_eq!(largest, 8, "the whole batch reached the cluster");
    println!(
        "\nThe VO flows never changed: the cluster sits behind each domain's\n\
         PEP, so pull/push/agent requests transparently ride quorum fan-out,\n\
         failover and batching — and a recovering stale replica can never\n\
         vote until the syndication tree has replayed what it missed, with\n\
         no call but the recovery itself."
    );
}
