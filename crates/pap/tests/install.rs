//! `Pap::install_set` is the one place a policy tree's shape is judged:
//! a set is stored only if every stored set still resolves with it in
//! place, and a refusal changes nothing.

use dacs_pap::{Pap, PapError, PolicyEpoch};
use dacs_policy::eval::{resolve_references, Evaluator, PolicyStore, TreeError};
use dacs_policy::eval::{MAX_POLICY_DEPTH, MAX_POLICY_ELEMENTS};
use dacs_policy::policy::{CombiningAlg, Decision, Effect, Policy, PolicyElement, PolicyId};
use dacs_policy::policy::{PolicySet, Rule};
use dacs_policy::request::RequestContext;
use std::sync::Barrier;

fn sample(id: &str) -> Policy {
    Policy::new(PolicyId::new(id), CombiningAlg::DenyUnlessPermit)
        .with_rule(Rule::new("ok", Effect::Permit))
}

/// A set holding `edges` references to the set `to`.
fn set_refs(id: &str, to: &str, edges: usize) -> PolicySet {
    let mut set = PolicySet::new(id, CombiningAlg::DenyOverrides);
    for _ in 0..edges {
        set.elements
            .push(PolicyElement::PolicySetRef(PolicyId::new(to)));
    }
    set
}

#[test]
fn policy_reference_resolution() {
    let pap = Pap::new("pap.a");
    pap.submit("admin", sample("p1"), 10).unwrap();
    let root = PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_ref("p1");
    let request = RequestContext::basic("alice", "r", "read");
    let mut ev = Evaluator::new(&request);
    let root = PolicyElement::PolicySet(Box::new(root));
    assert_eq!(ev.evaluate_element(&root, &pap).decision, Decision::Permit);
}

/// One back-edge into a cycle, and two, whose walk branches at every
/// level: neither is stored.
#[test]
fn a_cycle_is_refused_at_install_however_many_back_edges_close_it() {
    for edges in [1, 2] {
        let pap = Pap::new("pap.a");
        assert_eq!(
            pap.install_set(set_refs("a", "a", edges)),
            Err(PapError::Tree(TreeError::Cycle(PolicyId::new("a"))))
        );
        // `b` dangles until it is stored; storing it closes a cycle.
        assert_eq!(pap.install_set(set_refs("a", "b", edges)), Ok(()));
        assert_eq!(
            pap.install_set(set_refs("b", "a", edges)),
            Err(PapError::Tree(TreeError::Cycle(PolicyId::new("b"))))
        );
        assert!(pap.policy_set(&PolicyId::new("b")).is_none());
    }
}

#[test]
fn a_refused_install_is_not_a_mutation() {
    let pap = Pap::new("pap.a");
    pap.submit("admin", sample("p1"), 10).unwrap();
    pap.install_set(set_refs("a", "b", 1)).unwrap();
    let kept = set_refs("b", "c", 1);
    pap.install_set(kept.clone()).unwrap();
    let (epoch, log) = (pap.epoch(), pap.audit_log());
    // A new id, and a replacement of a stored one.
    for refused in [set_refs("c", "a", 1), set_refs("b", "a", 1)] {
        assert!(matches!(
            pap.install_set(refused),
            Err(PapError::Tree(TreeError::Cycle(_)))
        ));
        assert_eq!((pap.epoch(), pap.audit_log()), (epoch, log.clone()));
        assert!(pap.policy_set(&PolicyId::new("c")).is_none());
        assert_eq!(*pap.policy_set(&PolicyId::new("b")).unwrap(), kept);
    }
}

/// Why `submit`, syndicated applies, `rollback` and `remove` make no
/// shape check: a stored set at both limits — its deepest element a
/// dangling `PolicyRef`, one element short of the size limit — still
/// resolves once that policy exists, and again once it is gone.
#[test]
fn filling_a_dangling_policy_ref_keeps_every_stored_set_resolvable() {
    let pap = Pap::new("pap.a");
    let mut chain = PolicySet::new("level-1", CombiningAlg::DenyOverrides).with_policy_ref("p");
    for level in 2..MAX_POLICY_DEPTH {
        let id = format!("level-{level}");
        chain = PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides).with_policy_set(chain);
    }
    let mut root = PolicySet::new("root", CombiningAlg::DenyOverrides).with_policy_set(chain);
    // The root, the chain and its reference are 65 elements.
    while (root.elements.len() as u64) < MAX_POLICY_ELEMENTS - 65 {
        root = root.with_policy_ref("p");
    }
    pap.install_set(root.clone()).unwrap();
    assert_eq!(
        pap.install_set(root.with_policy_ref("p")),
        Err(PapError::Tree(TreeError::TooLarge))
    );

    let resolves = |pap: &Pap| {
        let root = PolicyElement::PolicySetRef(PolicyId::new("root"));
        assert!(resolve_references(&root, pap).is_ok());
    };
    resolves(&pap);
    pap.submit("admin", sample("p"), 1).unwrap();
    resolves(&pap);
    pap.apply_syndicated_stamped("parent", sample("p"), PolicyEpoch(1), 2);
    pap.rollback("admin", &PolicyId::new("p"), 1, 3).unwrap();
    resolves(&pap);
    pap.remove("admin", &PolicyId::new("p"), 4).unwrap();
    resolves(&pap);
}

/// Two installs that close a cycle only together, raced from a
/// barrier: the judge and the insert share one lock, so whichever runs
/// second sees the first and is refused — under any interleaving.
#[test]
fn racing_installs_never_close_a_cycle_together() {
    for _ in 0..300 {
        let pap = Pap::new("pap.race");
        let barrier = Barrier::new(2);
        let accepted = std::thread::scope(|s| {
            let install = |id: &str, to: &str| {
                let (pap, barrier, set) = (&pap, &barrier, set_refs(id, to, 1));
                s.spawn(move || {
                    barrier.wait();
                    pap.install_set(set).is_ok()
                })
            };
            let (ab, ba) = (install("a", "b"), install("b", "a"));
            [ab.join().unwrap(), ba.join().unwrap()]
        });
        assert_eq!(accepted.iter().filter(|ok| **ok).count(), 1);
    }
}
