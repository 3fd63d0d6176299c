//! Cluster failover: shard a decision service over replicated PDPs,
//! kill replicas mid-run, and watch the cluster route around them —
//! while the quorum keeps a stale replica from leaking permits.
//!
//! Run with: `cargo run --example cluster_failover`

use dacs::cluster::{ClusterBuilder, DecisionBackend, QuorumMode};
use dacs::pap::Pap;
use dacs::pdp::Pdp;
use dacs::pip::{PipRegistry, StaticAttributes};
use dacs::policy::dsl::parse_policy;
use dacs::policy::policy::{Decision, PolicyElement, PolicyId};
use dacs::policy::request::RequestContext;
use std::sync::Arc;

fn main() {
    // 1. The current policy: only doctors read records.
    let pap = Arc::new(Pap::new("pap.clinic"));
    let gate = parse_policy(
        r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
    )
    .expect("policy parses");
    pap.submit("admin", gate, 0).unwrap();

    // A stale PAP that missed the lockdown and still permits everyone.
    let stale_pap = Arc::new(Pap::new("pap.stale"));
    let permissive = parse_policy(
        r#"
policy "gate" deny-unless-permit {
  rule "everyone" permit { }
}
"#,
    )
    .expect("policy parses");
    stale_pap.submit("admin", permissive, 0).unwrap();

    let statics = Arc::new(StaticAttributes::new());
    statics.add_subject_attr("dr-grey", "role", "doctor");
    let mut pips = PipRegistry::new();
    pips.add(statics);
    let pips = Arc::new(pips);
    let root = PolicyElement::PolicyRef(PolicyId::new("gate"));

    // 2. Two shards × three replicas; one replica per shard is stale.
    let mut builder = ClusterBuilder::new("clinic-pdp").quorum(QuorumMode::Majority);
    for s in 0..2 {
        let mut replicas: Vec<Arc<dyn DecisionBackend>> = vec![Arc::new(Pdp::new(
            format!("s{s}-stale"),
            stale_pap.clone(),
            root.clone(),
            pips.clone(),
        ))];
        for r in 0..2 {
            replicas.push(Arc::new(Pdp::new(
                format!("s{s}-r{r}"),
                pap.clone(),
                root.clone(),
                pips.clone(),
            )));
        }
        builder = builder.shard(replicas);
    }
    let cluster = builder.build();

    let doctor = RequestContext::basic("dr-grey", "records/7", "read");
    let intruder = RequestContext::basic("mallory", "records/7", "read");
    let show = |label: &str, req: &RequestContext, t: u64| {
        let outcome = cluster.decide(req, t);
        match &outcome.response {
            Some(r) => println!(
                "  [{label}] shard {} via {} replica(s){} → {}",
                outcome.shard,
                outcome.replicas_queried,
                if outcome.degraded { " (degraded)" } else { "" },
                r.decision
            ),
            None => println!("  [{label}] shard {} → UNAVAILABLE", outcome.shard),
        }
    };

    println!("all replicas healthy (majority outvotes the stale replica):");
    show("doctor ", &doctor, 0);
    show("mallory", &intruder, 1);

    println!("\ncrash a fresh replica in each shard:");
    cluster.mark_down("s0-r0");
    cluster.mark_down("s1-r0");
    show("doctor ", &doctor, 2);
    show("mallory", &intruder, 3);

    println!("\ncrash the rest — whole shards go dark:");
    for name in ["s0-stale", "s0-r1", "s1-stale", "s1-r1"] {
        cluster.mark_down(name);
    }
    show("doctor ", &doctor, 4);

    println!("\nrecovery:");
    for name in ["s0-stale", "s0-r0", "s0-r1", "s1-stale", "s1-r0", "s1-r1"] {
        cluster.mark_up(name);
    }
    show("doctor ", &doctor, 5);

    let m = cluster.metrics();
    println!(
        "\nmetrics: {} queries, availability {:.1}%, degraded {:.1}%, \
         {} disagreements, fan-out {:.2} replicas/query",
        m.queries,
        100.0 * m.availability(),
        100.0 * m.degraded_rate(),
        m.disagreements,
        m.amplification()
    );
    assert_eq!(
        cluster.decide(&intruder, 6).response.unwrap().decision,
        Decision::Deny,
        "the stale replica must never carry a vote alone"
    );
}
