//! The Policy Decision Point service: evaluates authorization decision
//! queries against the PAP's active policies with PIP-backed attribute
//! resolution (Fig. 3/4 of the paper). It caches no answers: the one
//! cache of decisions sits in front of it, at the PEP.

use dacs_pap::Pap;
use dacs_pip::{PipRegistry, ResolvingSource};
use dacs_policy::eval::{resolve_references, EvalMetrics, Evaluator, ResolvedTree, Response};
use dacs_policy::expr::ExprStats;
use dacs_policy::policy::PolicyElement;
use dacs_policy::request::RequestContext;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Work counters for one PDP.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PdpMetrics {
    /// Decision queries answered, each by one evaluation (or one
    /// refusal of an inline root that does not resolve).
    pub decisions: u64,
    /// Aggregate evaluation work.
    pub eval: EvalMetrics,
}

/// [`PdpMetrics`] as relaxed atomics: the one place the counters live.
#[derive(Default)]
struct AtomicPdpMetrics {
    decisions: AtomicU64,
    rules_evaluated: AtomicU64,
    policies_evaluated: AtomicU64,
    policy_sets_evaluated: AtomicU64,
    targets_checked: AtomicU64,
    functions_applied: AtomicU64,
    attribute_lookups: AtomicU64,
}

impl AtomicPdpMetrics {
    /// Folds one evaluation's work counters in: six relaxed adds.
    fn absorb(&self, eval: &EvalMetrics) {
        let EvalMetrics {
            rules_evaluated,
            policies_evaluated,
            policy_sets_evaluated,
            targets_checked,
            expr:
                ExprStats {
                    functions_applied,
                    attribute_lookups,
                },
        } = *eval;
        let add = |counter: &AtomicU64, n: u64| counter.fetch_add(n, Ordering::Relaxed);
        add(&self.rules_evaluated, rules_evaluated);
        add(&self.policies_evaluated, policies_evaluated);
        add(&self.policy_sets_evaluated, policy_sets_evaluated);
        add(&self.targets_checked, targets_checked);
        add(&self.functions_applied, functions_applied);
        add(&self.attribute_lookups, attribute_lookups);
    }

    fn snapshot(&self) -> PdpMetrics {
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        PdpMetrics {
            decisions: get(&self.decisions),
            eval: EvalMetrics {
                rules_evaluated: get(&self.rules_evaluated),
                policies_evaluated: get(&self.policies_evaluated),
                policy_sets_evaluated: get(&self.policy_sets_evaluated),
                targets_checked: get(&self.targets_checked),
                expr: ExprStats {
                    functions_applied: get(&self.functions_applied),
                    attribute_lookups: get(&self.attribute_lookups),
                },
            },
        }
    }
}

/// Decision cache configuration, for the PEP's cache of answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum cached decisions.
    pub capacity: usize,
    /// Time-to-live of each cached decision in milliseconds.
    pub ttl_ms: u64,
}

/// The PDP's root with every reference resolved against the PAP as it
/// stood at mutation epoch `epoch` or later, and the target index of
/// that tree: built together, replaced together — or why the root was
/// refused (see [`Pdp`]).
struct Snapshot {
    epoch: u64,
    root: Result<ResolvedTree, dacs_policy::eval::TreeError>,
}

impl Snapshot {
    /// Resolves and indexes `root` against `pap` — the only place
    /// either happens. `epoch` must have been read from `pap` before
    /// this call.
    fn take(pap: &Pap, root: &PolicyElement, epoch: u64) -> Self {
        Snapshot {
            epoch,
            root: resolve_references(root, pap),
        }
    }
}

/// A Policy Decision Point bound to one PAP and one PIP registry.
///
/// The read path is concurrent: every counter is a plain relaxed
/// atomic, so `decide` takes no lock but a shared read of the snapshot
/// pointer (and a write when the PAP has moved past it).
///
/// Evaluation walks a per-epoch resolved snapshot of the root
/// ([`resolve_references`]), not the PAP, and in each policy set of it
/// only the children the request can apply to (the snapshot's target
/// index): `decide` reads the PAP's mutation epoch once, uses the held
/// snapshot when its label matches and re-resolves the root otherwise.
/// The epoch is read *before* resolving, so a snapshot is never older
/// than its label; every PAP mutation bumps the epoch before it
/// returns, so a `decide` that starts after a mutation returned sees a
/// label mismatch and can never evaluate the pre-mutation tree.
/// The PAP stores no set that fails to resolve, so only an inline root
/// built in code can be refused; every `decide` then answers
/// `Indeterminate` with the refusal's text, and a PEP denies.
pub struct Pdp {
    name: String,
    pap: Arc<Pap>,
    root: PolicyElement,
    snapshot: RwLock<Arc<Snapshot>>,
    pips: Arc<PipRegistry>,
    metrics: AtomicPdpMetrics,
}

impl Pdp {
    /// Creates a PDP evaluating `root` (usually a `PolicySetRef` into
    /// the PAP).
    pub fn new(
        name: impl Into<String>,
        pap: Arc<Pap>,
        root: PolicyElement,
        pips: Arc<PipRegistry>,
    ) -> Self {
        let snapshot = RwLock::new(Arc::new(Snapshot::take(&pap, &root, pap.epoch())));
        Pdp {
            name: name.into(),
            pap,
            root,
            snapshot,
            pips,
            metrics: AtomicPdpMetrics::default(),
        }
    }

    /// The PDP's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PAP this PDP reads policies from.
    pub fn pap(&self) -> &Arc<Pap> {
        &self.pap
    }

    /// The PIP chain this PDP resolves attributes through.
    pub fn pips(&self) -> &Arc<PipRegistry> {
        &self.pips
    }

    /// The policy epoch this PDP decides on: its PAP's position in the
    /// global syndication timeline, the stamp every answer carries.
    pub fn policy_epoch(&self) -> dacs_pap::PolicyEpoch {
        self.pap.policy_epoch()
    }

    /// Evaluates an authorization decision query, its answer stamped
    /// with the PAP's policy epoch ([`Response::epoch`]).
    pub fn decide(&self, request: &RequestContext, now_ms: u64) -> Response {
        self.metrics.decisions.fetch_add(1, Ordering::Relaxed);

        // The stamp is read first and the mutation epoch that picks the
        // snapshot after it, so an answer is never labelled newer than
        // the policy that decided it.
        let stamp = self.pap.policy_epoch();
        let epoch = self.pap.epoch();
        let snapshot = self.snapshot_at(epoch);
        let decided = match &snapshot.root {
            Ok(tree) => {
                let source = ResolvingSource::new(request, &self.pips, now_ms);
                let mut evaluator = Evaluator::with_source(request, &source);
                let decided = evaluator.evaluate_resolved(tree);
                self.metrics.absorb(&evaluator.metrics);
                decided
            }
            Err(refused) => Response::indeterminate(refused.to_string()),
        };
        Response {
            epoch: stamp,
            ..decided
        }
    }

    /// The snapshot to evaluate for a `decide` that read `epoch`: the
    /// held one when its label matches, a fresh one otherwise. A fresh
    /// snapshot replaces the held one unless that is already newer (a
    /// concurrent `decide` that read a later epoch got there first).
    fn snapshot_at(&self, epoch: u64) -> Arc<Snapshot> {
        {
            let held = self.snapshot.read();
            if held.epoch == epoch {
                return held.clone();
            }
        }
        let fresh = Arc::new(Snapshot::take(&self.pap, &self.root, epoch));
        let mut held = self.snapshot.write();
        if held.epoch < epoch {
            *held = fresh.clone();
        }
        fresh
    }

    /// Snapshot of work counters. Counters are relaxed atomics bumped
    /// independently, so a snapshot taken while other threads decide is
    /// consistent per counter but not a cross-counter instant.
    pub fn metrics(&self) -> PdpMetrics {
        self.metrics.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_pip::StaticAttributes;
    use dacs_policy::dsl::parse_policy;
    use dacs_policy::policy::{Decision, PolicyId};

    fn setup() -> (Arc<Pap>, Pdp, Arc<StaticAttributes>) {
        let pap = Arc::new(Pap::new("pap.test"));
        let policy = parse_policy(
            r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
        )
        .unwrap();
        pap.submit("admin", policy, 0).unwrap();

        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics.clone());

        let pdp = Pdp::new(
            "pdp.test",
            pap.clone(),
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        );
        (pap, pdp, statics)
    }

    #[test]
    fn decides_with_pip_attributes() {
        let (_pap, pdp, _s) = setup();
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(pdp.decide(&alice, 0).decision, Decision::Permit);
        let bob = RequestContext::basic("bob", "ehr/1", "read");
        assert_eq!(pdp.decide(&bob, 0).decision, Decision::Deny);
        assert_eq!(pdp.metrics().decisions, 2);
        assert!(pdp.metrics().eval.policies_evaluated >= 2);
    }

    /// Regression (ISSUE 16): under the benchmark-shaped domain — a
    /// deny-overrides root over the doctors' gate and a quarantine
    /// policy — a resource id that carries a literal `*` right after
    /// the quarantined prefix is still quarantined. The matcher used to
    /// consume that `*` as a literal and let the permit through.
    #[test]
    fn quarantine_glob_covers_resource_ids_containing_a_star() {
        use dacs_policy::policy::{CombiningAlg, PolicySet};
        let (pap, _gate_only, statics) = setup();
        let quarantine = parse_policy(
            r#"
policy "aux" deny-overrides {
  rule "quarantine" deny {
    target { resource "id" ~= "aux/*"; }
  }
}
"#,
        )
        .unwrap();
        pap.submit("admin", quarantine, 0).unwrap();
        let root = PolicySet::new(PolicyId::new("root"), CombiningAlg::DenyOverrides)
            .with_policy_ref(PolicyId::new("gate"))
            .with_policy_ref(PolicyId::new("aux"));
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Pdp::new(
            "pdp.quarantine",
            pap,
            PolicyElement::PolicySet(Box::new(root)),
            Arc::new(pips),
        );
        let decide = |resource: &str| {
            pdp.decide(&RequestContext::basic("alice", resource, "write"), 0)
                .decision
        };
        assert_eq!(decide("ehr/1"), Decision::Permit);
        assert_eq!(decide("aux/7"), Decision::Deny);
        assert_eq!(decide("aux/*x"), Decision::Deny);
        assert_eq!(decide("aux/*"), Decision::Deny);
    }

    /// Every answer carries the PAP's policy epoch: a filtered
    /// syndication update moves the stamp without a mutation, and an
    /// applied one moves both.
    #[test]
    fn policy_epoch_reflects_syndicated_position() {
        let (pap, pdp, _s) = setup();
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(pdp.policy_epoch(), dacs_pap::PolicyEpoch::ZERO);
        assert_eq!(pdp.decide(&alice, 0).epoch, dacs_pap::PolicyEpoch::ZERO);
        assert!(pap.observe_policy_epoch(dacs_pap::PolicyEpoch(1)));
        let filtered = pdp.decide(&alice, 1);
        assert_eq!(
            (filtered.decision, filtered.epoch),
            (Decision::Permit, dacs_pap::PolicyEpoch(1))
        );
        let update =
            parse_policy(r#"policy "gate" deny-unless-permit { rule "none" deny { } }"#).unwrap();
        pap.apply_syndicated_stamped("parent", update, dacs_pap::PolicyEpoch(2), 10);
        assert_eq!(pdp.policy_epoch(), dacs_pap::PolicyEpoch(2));
        let applied = pdp.decide(&alice, 11);
        assert_eq!(
            (applied.decision, applied.epoch),
            (Decision::Deny, dacs_pap::PolicyEpoch(2))
        );
    }

    /// A syndicated catch-up replay bumps the PAP mutation epoch, so the
    /// snapshot is re-resolved and no pre-resync decision survives it.
    #[test]
    fn resync_replay_flushes_decision_cache() {
        let (pap, pdp, _s) = setup();
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(pdp.decide(&alice, 0).decision, Decision::Permit);
        let lockdown = parse_policy(
            r#"policy "gate" deny-unless-permit { rule "nobody" permit {
                 condition is-in("nobody", attr(subject, "role")) } }"#,
        )
        .unwrap();
        pap.apply_syndicated_stamped("parent", lockdown, dacs_pap::PolicyEpoch(1), 50);
        assert_eq!(
            pdp.decide(&alice, 60).decision,
            Decision::Deny,
            "the pre-resync permit must not survive the replay"
        );
    }

    #[test]
    fn policy_update_flushes_cache() {
        let (pap, pdp, _s) = setup();
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(pdp.decide(&alice, 0).decision, Decision::Permit);
        // New policy version denies everyone.
        let lockdown = parse_policy(
            r#"
policy "gate" deny-unless-permit {
  rule "nobody" permit {
    condition is-in("nobody", attr(subject, "role"))
  }
}
"#,
        )
        .unwrap();
        pap.submit("admin", lockdown, 50).unwrap();
        assert_eq!(pdp.decide(&alice, 60).decision, Decision::Deny);
    }

    /// A PIP that, the first time it is asked, pushes a lockdown to the
    /// PAP and decides the same request from inside the evaluation that
    /// asked it; it answers `role = doctor` for everyone.
    struct Straddler {
        pap: Arc<Pap>,
        pdp: std::sync::OnceLock<std::sync::Weak<Pdp>>,
        pushed: std::sync::atomic::AtomicBool,
        /// What the decide from inside the evaluation answered.
        inner: parking_lot::Mutex<Option<Decision>>,
    }

    impl dacs_pip::AttributeProvider for Straddler {
        fn name(&self) -> &str {
            "straddler"
        }

        fn provide(
            &self,
            _id: &dacs_policy::attr::AttributeId,
            request: &RequestContext,
            now_ms: u64,
        ) -> Option<Vec<dacs_policy::attr::AttrValue>> {
            if !self.pushed.swap(true, Ordering::Relaxed) {
                let lockdown = parse_policy(
                    r#"policy "gate" deny-unless-permit { rule "nobody" permit {
                         condition is-in("nobody", attr(subject, "role")) } }"#,
                )
                .unwrap();
                self.pap.submit("admin", lockdown, now_ms).unwrap();
                let pdp = self.pdp.get().and_then(std::sync::Weak::upgrade).unwrap();
                *self.inner.lock() = Some(pdp.decide(request, now_ms).decision);
            }
            Some(vec!["doctor".into()])
        }
    }

    /// A decide that overlaps a policy push answers on the pre-push
    /// tree it started with, while the decide nested inside it already
    /// sees the push; every decide that starts after the push sees it
    /// too.
    #[test]
    fn a_decide_that_straddles_a_push_never_serves_its_answer_after_it() {
        let (pap, _pdp, _s) = setup();
        let straddler = Arc::new(Straddler {
            pap: pap.clone(),
            pdp: std::sync::OnceLock::new(),
            pushed: std::sync::atomic::AtomicBool::new(false),
            inner: parking_lot::Mutex::new(None),
        });
        let mut pips = PipRegistry::new();
        pips.add(straddler.clone());
        let pdp = Arc::new(Pdp::new(
            "pdp.straddle",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));
        straddler.pdp.set(Arc::downgrade(&pdp)).unwrap();
        let alice = RequestContext::basic("alice", "ehr/1", "read");

        // Began before the push: decided on the tree it started with.
        assert_eq!(pdp.decide(&alice, 0).decision, Decision::Permit);
        assert_eq!(*straddler.inner.lock(), Some(Decision::Deny));
        // Every decide that starts after the push sees the lockdown.
        assert_eq!(pdp.decide(&alice, 1).decision, Decision::Deny);
        assert_eq!(pdp.decide(&alice, 2).decision, Decision::Deny);
        assert_eq!(pdp.metrics().decisions, 4, "the nested decide counts");
    }
}
