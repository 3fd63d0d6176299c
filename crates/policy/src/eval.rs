//! The policy evaluation engine: turns a request context plus a policy
//! tree into an authorization decision with obligations — the core of a
//! Policy Decision Point (Fig. 3/4 of the paper).

use crate::combining::Combiner;
use crate::epoch::PolicyEpoch;
use crate::expr::{eval as eval_expr, Evaluated};
use crate::expr::{eval_condition, AttributeSource, EvalError, ExprStats};
use crate::index::{Candidates, SetIndex};
use crate::policy::{
    CombiningAlg, Decision, Effect, Obligation, ObligationExpr, Policy, PolicyElement, PolicyId,
    PolicySet, Rule,
};
use crate::request::RequestContext;
use crate::target::{MatchResult, Target};
use std::collections::HashMap;
use std::sync::Arc;

/// Resolves policy references encountered during evaluation (the PAP's
/// repository implements this).
pub trait PolicyStore: Send + Sync {
    /// Looks up a policy by id.
    fn policy(&self, id: &PolicyId) -> Option<Arc<Policy>>;
    /// Looks up a policy set by id.
    fn policy_set(&self, id: &PolicyId) -> Option<Arc<PolicySet>>;
}

/// A store with no policies (for evaluating self-contained trees).
#[derive(Clone, Copy, Debug, Default)]
pub struct EmptyStore;

impl PolicyStore for EmptyStore {
    fn policy(&self, _id: &PolicyId) -> Option<Arc<Policy>> {
        None
    }
    fn policy_set(&self, _id: &PolicyId) -> Option<Arc<PolicySet>> {
        None
    }
}

/// Simple in-memory policy store keyed by id.
#[derive(Clone, Debug, Default)]
pub struct InMemoryStore {
    policies: HashMap<PolicyId, Arc<Policy>>,
    sets: HashMap<PolicyId, Arc<PolicySet>>,
}

impl InMemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a policy.
    pub fn add_policy(&mut self, policy: Policy) {
        self.policies.insert(policy.id.clone(), Arc::new(policy));
    }

    /// Inserts (or replaces) a policy set.
    pub fn add_policy_set(&mut self, set: PolicySet) {
        self.sets.insert(set.id.clone(), Arc::new(set));
    }
}

impl PolicyStore for InMemoryStore {
    fn policy(&self, id: &PolicyId) -> Option<Arc<Policy>> {
        self.policies.get(id).cloned()
    }
    fn policy_set(&self, id: &PolicyId) -> Option<Arc<PolicySet>> {
        self.sets.get(id).cloned()
    }
}

/// A policy tree with its references resolved inline and its sets
/// indexed by target: what [`resolve_references`] returns and
/// [`Evaluator::evaluate_resolved`] evaluates. Immutable, so the index
/// cannot go stale against the tree it was built from.
#[derive(Debug)]
pub struct ResolvedTree {
    root: PolicyElement,
    /// The root set's index; `None` when the root is not a set, nothing
    /// in the tree is indexable, or the tree is not indexed (see
    /// [`resolve_references`]).
    index: Option<SetIndex>,
}

impl ResolvedTree {
    /// The resolved root element.
    pub fn root(&self) -> &PolicyElement {
        &self.root
    }
}

/// Returns `root` with every reachable `PolicyRef` / `PolicySetRef`
/// replaced inline by the body `store` holds for it now, so that
/// evaluating the result makes no store lookup — and with a target
/// index per inline set, so that evaluating it reaches only the
/// children a request can apply to.
///
/// [`Evaluator`] reaches a referenced body through the same
/// `evaluate_policy` / `evaluate_policy_set` it uses for an inline one,
/// so the resolved tree yields the response the reference walk would
/// against the same store contents. A reference the store cannot
/// resolve, and a `PolicySetRef` back into a set that is still being
/// expanded (a cycle), stay references: the evaluator meets them
/// exactly as the reference walk does, as `Indeterminate`, at its
/// nesting limit or at its element budget. Expansion therefore
/// terminates: every nested expansion is of a stored set not already
/// open.
///
/// The index leaves out of an evaluation only children that would have
/// answered `NotApplicable` with no obligation and no error (the rules
/// are in the `index` module's source, where it is built), so the work
/// counters fall and nothing else moves. The evaluator's two limits are
/// the exception — they count elements *reached*, whatever those would
/// have answered — so a tree on which the reference walk could exhaust
/// one is not indexed at all and "budget exceeded" / "depth exceeded"
/// stay byte-identical to the walk: a tree that kept a cyclic
/// `PolicySetRef`, holds at least `MAX_POLICY_ELEMENTS` elements, or
/// nests deeper than `MAX_POLICY_DEPTH`.
///
/// # Examples
///
/// ```
/// use dacs_policy::eval::{resolve_references, InMemoryStore};
/// use dacs_policy::policy::{CombiningAlg, Policy, PolicyElement, PolicyId, PolicySet};
///
/// let mut store = InMemoryStore::new();
/// store.add_policy(Policy::new("p", CombiningAlg::DenyOverrides));
/// store.add_policy_set(
///     PolicySet::new("root", CombiningAlg::DenyOverrides)
///         .with_policy_ref("p")
///         .with_policy_ref("missing"),
/// );
/// let root = PolicyElement::PolicySetRef(PolicyId::new("root"));
/// let tree = resolve_references(&root, &store);
/// let PolicyElement::PolicySet(resolved) = tree.root() else {
///     panic!("the root set resolves inline");
/// };
/// assert!(matches!(resolved.elements[0], PolicyElement::Policy(_)));
/// assert!(matches!(resolved.elements[1], PolicyElement::PolicyRef(_)));
/// ```
pub fn resolve_references(root: &PolicyElement, store: &dyn PolicyStore) -> ResolvedTree {
    let mut resolver = Resolver {
        store,
        open: Vec::new(),
        kept_cycle: false,
    };
    let root = resolver.element(root);
    let mut elements = 0;
    let within_limits = !resolver.kept_cycle
        && nesting(&root, &mut elements) <= MAX_POLICY_DEPTH
        && elements < MAX_POLICY_ELEMENTS;
    let index = match &root {
        PolicyElement::PolicySet(set) if within_limits => SetIndex::build(set),
        _ => None,
    };
    ResolvedTree { root, index }
}

/// The nesting level of the deepest element under `element` (its own
/// is 0: what [`Evaluator`]'s depth reads when it reaches it), adding
/// every element met — references too, as one each — to `elements`.
fn nesting(element: &PolicyElement, elements: &mut u64) -> u32 {
    *elements += 1;
    match element {
        PolicyElement::PolicySet(set) => set
            .elements
            .iter()
            .map(|child| 1 + nesting(child, elements))
            .max()
            .unwrap_or(0),
        _ => 0,
    }
}

struct Resolver<'a> {
    store: &'a dyn PolicyStore,
    /// The stored sets whose expansion encloses the element in hand.
    open: Vec<PolicyId>,
    /// Whether a `PolicySetRef` stayed a reference because its set was
    /// open: evaluating the result then walks a cycle through the store.
    kept_cycle: bool,
}

impl Resolver<'_> {
    fn element(&mut self, element: &PolicyElement) -> PolicyElement {
        match element {
            PolicyElement::Policy(_) => element.clone(),
            PolicyElement::PolicySet(set) => PolicyElement::PolicySet(Box::new(self.set(set))),
            PolicyElement::PolicyRef(id) => match self.store.policy(id) {
                Some(policy) => PolicyElement::Policy(Policy::clone(&policy)),
                None => element.clone(),
            },
            PolicyElement::PolicySetRef(id) => match self.store.policy_set(id) {
                Some(_) if self.open.contains(id) => {
                    self.kept_cycle = true;
                    element.clone()
                }
                Some(set) => {
                    self.open.push(id.clone());
                    let resolved = self.set(&set);
                    self.open.pop();
                    PolicyElement::PolicySet(Box::new(resolved))
                }
                None => element.clone(),
            },
        }
    }

    fn set(&mut self, set: &PolicySet) -> PolicySet {
        PolicySet {
            id: set.id.clone(),
            version: set.version,
            target: set.target.clone(),
            elements: set
                .elements
                .iter()
                .map(|child| self.element(child))
                .collect(),
            policy_combining: set.policy_combining,
            obligations: set.obligations.clone(),
            issuer: set.issuer.clone(),
        }
    }
}

/// Work counters for one evaluation. They count what was evaluated,
/// not what the tree holds: a child a [`ResolvedTree`]'s index left out
/// of a set's loop appears in none of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Rules whose evaluation was reached.
    pub rules_evaluated: u64,
    /// Policies evaluated (target matched or not).
    pub policies_evaluated: u64,
    /// Policy sets evaluated (target matched or not).
    pub policy_sets_evaluated: u64,
    /// Target evaluations performed.
    pub targets_checked: u64,
    /// Expression work (functions, attribute lookups).
    pub expr: ExprStats,
}

/// Evaluation status accompanying a decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Status {
    /// Evaluation completed normally.
    Ok,
    /// Evaluation hit an error; the message describes the first cause.
    Error(String),
}

impl Status {
    /// Whether the status is [`Status::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, Status::Ok)
    }
}

/// The authorization decision response returned to the PEP.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Response {
    /// The decision.
    pub decision: Decision,
    /// Obligations the PEP must fulfil.
    pub obligations: Vec<Obligation>,
    /// Evaluation status.
    pub status: Status,
    /// The policy epoch it was decided at; the evaluator itself knows
    /// none and answers [`PolicyEpoch::ZERO`].
    pub epoch: PolicyEpoch,
}

impl Response {
    /// A plain decision with no obligations.
    pub fn decision(decision: Decision) -> Self {
        Response {
            decision,
            obligations: Vec::new(),
            status: Status::Ok,
            epoch: PolicyEpoch::ZERO,
        }
    }

    /// An Indeterminate response with an error message.
    pub fn indeterminate(msg: impl Into<String>) -> Self {
        Response {
            decision: Decision::Indeterminate,
            obligations: Vec::new(),
            status: Status::Error(msg.into()),
            epoch: PolicyEpoch::ZERO,
        }
    }
}

const MAX_POLICY_DEPTH: u32 = 64;

/// Policies plus policy sets one [`Evaluator`] evaluates before it
/// answers `Indeterminate`. The depth limit alone bounds a cycle with
/// one back-edge (a chain of 65 sets); with two it is a 2⁶⁴ walk, and
/// this is what ends it. The largest tree in the repo (E3) has 1 025
/// elements.
const MAX_POLICY_ELEMENTS: u64 = 1 << 14;

/// The evaluation engine.
///
/// Holds the request context (used for target matching), an attribute
/// source (used for conditions and obligations — typically the same
/// context, or a PIP-backed resolver) and a policy store for references.
///
/// There is one walk. Given a [`ResolvedTree`] it takes each set's
/// children from the tree's target index — the ones the request can
/// apply to, in document order — and given a bare element, or below a
/// reference it had to look up, it takes all of them; either way the
/// same loop feeds the same combiner, and [`Evaluator::metrics`] counts
/// what that loop evaluated.
pub struct Evaluator<'a> {
    store: &'a dyn PolicyStore,
    request: &'a RequestContext,
    source: &'a dyn AttributeSource,
    /// Work counters, accumulated across evaluations by this instance.
    /// The element budget counts against them: an instance serves one
    /// decision, not a stream of them.
    pub metrics: EvalMetrics,
    depth: u32,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator where conditions read straight from the
    /// request context.
    pub fn new(store: &'a dyn PolicyStore, request: &'a RequestContext) -> Self {
        Evaluator {
            store,
            request,
            source: request,
            metrics: EvalMetrics::default(),
            depth: 0,
        }
    }

    /// Creates an evaluator with a separate attribute source (e.g. a
    /// PIP-backed resolver that falls back to the request).
    pub fn with_source(
        store: &'a dyn PolicyStore,
        request: &'a RequestContext,
        source: &'a dyn AttributeSource,
    ) -> Self {
        Evaluator {
            store,
            request,
            source,
            metrics: EvalMetrics::default(),
            depth: 0,
        }
    }

    /// Evaluates a policy element (the generic entry point): the
    /// reference walk, every child of every set.
    pub fn evaluate_element(&mut self, element: &PolicyElement) -> Response {
        self.evaluate_indexed(element, None)
    }

    /// Evaluates a resolved tree, reaching in each indexed set only the
    /// children `request` can apply to. The response is
    /// [`Evaluator::evaluate_element`]'s on the tree's root.
    pub fn evaluate_resolved(&mut self, tree: &ResolvedTree) -> Response {
        self.evaluate_indexed(&tree.root, tree.index.as_ref())
    }

    /// `index` is `element`'s own when `element` is an inline set.
    fn evaluate_indexed(&mut self, element: &PolicyElement, index: Option<&SetIndex>) -> Response {
        if self.depth > MAX_POLICY_DEPTH {
            return Response::indeterminate("policy nesting depth exceeded");
        }
        if self.metrics.policies_evaluated + self.metrics.policy_sets_evaluated
            >= MAX_POLICY_ELEMENTS
        {
            return Response::indeterminate("policy evaluation budget exceeded");
        }
        match element {
            PolicyElement::Policy(p) => self.evaluate_policy(p),
            PolicyElement::PolicySet(ps) => self.evaluate_set(ps, index),
            PolicyElement::PolicyRef(id) => match self.store.policy(id) {
                Some(p) => self.evaluate_policy(&p),
                None => Response::indeterminate(format!("unresolved policy reference {id}")),
            },
            PolicyElement::PolicySetRef(id) => match self.store.policy_set(id) {
                Some(ps) => self.evaluate_set(&ps, None),
                None => Response::indeterminate(format!("unresolved policy set reference {id}")),
            },
        }
    }

    /// Evaluates a single policy.
    pub fn evaluate_policy(&mut self, policy: &Policy) -> Response {
        self.metrics.policies_evaluated += 1;
        match self.check_target(&policy.target) {
            MatchResult::NoMatch => return Response::decision(Decision::NotApplicable),
            MatchResult::Indeterminate => {
                return Response::indeterminate(format!("indeterminate target in {}", policy.id))
            }
            MatchResult::Match => {}
        }
        if policy.rule_combining == CombiningAlg::OnlyOneApplicable {
            return Response::indeterminate(format!(
                "only-one-applicable is not a rule-combining algorithm (policy {})",
                policy.id
            ));
        }
        let mut combiner = Combiner::new(policy.rule_combining);
        let mut first_error: Option<String> = None;
        for rule in &policy.rules {
            let (d, obs, err) = self.evaluate_rule(rule);
            if first_error.is_none() {
                first_error = err;
            }
            if combiner.feed(d, obs) {
                break;
            }
        }
        let (decision, mut obligations) = combiner.finish();
        if let Err(resp) =
            self.attach_own_obligations(&policy.obligations, decision, &mut obligations, &policy.id)
        {
            return resp;
        }
        Response {
            decision,
            obligations,
            status: indeterminate_status(decision, first_error),
            epoch: PolicyEpoch::ZERO,
        }
    }

    /// Evaluates a policy set, every child of it.
    pub fn evaluate_policy_set(&mut self, set: &PolicySet) -> Response {
        self.evaluate_set(set, None)
    }

    fn evaluate_set(&mut self, set: &PolicySet, index: Option<&SetIndex>) -> Response {
        self.metrics.policy_sets_evaluated += 1;
        match self.check_target(&set.target) {
            MatchResult::NoMatch => return Response::decision(Decision::NotApplicable),
            MatchResult::Indeterminate => {
                return Response::indeterminate(format!("indeterminate target in {}", set.id))
            }
            MatchResult::Match => {}
        }
        self.depth += 1;
        let mut resp = if set.policy_combining == CombiningAlg::OnlyOneApplicable {
            self.evaluate_only_one_applicable(set, index)
        } else {
            // A child the index leaves out would have been fed here as
            // `NotApplicable`, which moves no combiner and no status.
            let children = match index {
                Some(index) => index.candidates(self.request, set.elements.len()),
                None => Candidates::All(0..set.elements.len()),
            };
            let mut combiner = Combiner::new(set.policy_combining);
            let mut first_error: Option<String> = None;
            for i in children {
                let nested = index.and_then(|index| index.nested(i));
                let child = self.evaluate_indexed(&set.elements[i], nested);
                if first_error.is_none() {
                    if let Status::Error(e) = &child.status {
                        first_error = Some(e.clone());
                    }
                }
                if combiner.feed(child.decision, child.obligations) {
                    break;
                }
            }
            let (decision, obligations) = combiner.finish();
            Response {
                decision,
                obligations,
                status: indeterminate_status(decision, first_error),
                epoch: PolicyEpoch::ZERO,
            }
        };
        self.depth -= 1;

        let mut obligations = std::mem::take(&mut resp.obligations);
        if let Err(err_resp) =
            self.attach_own_obligations(&set.obligations, resp.decision, &mut obligations, &set.id)
        {
            return err_resp;
        }
        resp.obligations = obligations;
        resp
    }

    /// `index` holds no postings for such a set, only its nested sets'.
    fn evaluate_only_one_applicable(
        &mut self,
        set: &PolicySet,
        index: Option<&SetIndex>,
    ) -> Response {
        let mut applicable: Option<usize> = None;
        for (i, element) in set.elements.iter().enumerate() {
            let matched = match self.match_element_target(element) {
                Ok(m) => m,
                Err(msg) => return Response::indeterminate(msg),
            };
            match matched {
                MatchResult::Match => {
                    if applicable.is_some() {
                        return Response::indeterminate(format!(
                            "more than one applicable child in {}",
                            set.id
                        ));
                    }
                    applicable = Some(i);
                }
                MatchResult::NoMatch => {}
                MatchResult::Indeterminate => {
                    return Response::indeterminate(format!(
                        "indeterminate child target in {}",
                        set.id
                    ))
                }
            }
        }
        match applicable {
            Some(i) => {
                let nested = index.and_then(|index| index.nested(i));
                self.evaluate_indexed(&set.elements[i], nested)
            }
            None => Response::decision(Decision::NotApplicable),
        }
    }

    /// Matches a child's own target where it lives — inline, or in the
    /// store's `Arc` for the duration of the call.
    fn match_element_target(&mut self, element: &PolicyElement) -> Result<MatchResult, String> {
        match element {
            PolicyElement::Policy(p) => Ok(self.check_target(&p.target)),
            PolicyElement::PolicySet(ps) => Ok(self.check_target(&ps.target)),
            PolicyElement::PolicyRef(id) => match self.store.policy(id) {
                Some(p) => Ok(self.check_target(&p.target)),
                None => Err(format!("unresolved policy reference {id}")),
            },
            PolicyElement::PolicySetRef(id) => match self.store.policy_set(id) {
                Some(ps) => Ok(self.check_target(&ps.target)),
                None => Err(format!("unresolved policy set reference {id}")),
            },
        }
    }

    fn evaluate_rule(&mut self, rule: &Rule) -> (Decision, Vec<Obligation>, Option<String>) {
        self.metrics.rules_evaluated += 1;
        match self.check_target(&rule.target) {
            MatchResult::NoMatch => return (Decision::NotApplicable, Vec::new(), None),
            MatchResult::Indeterminate => {
                return (
                    Decision::Indeterminate,
                    Vec::new(),
                    Some(format!("indeterminate target in rule {}", rule.id)),
                )
            }
            MatchResult::Match => {}
        }
        if let Some(condition) = &rule.condition {
            match eval_condition(condition, self.source, &mut self.metrics.expr) {
                Ok(true) => {}
                Ok(false) => return (Decision::NotApplicable, Vec::new(), None),
                Err(e) => {
                    return (
                        Decision::Indeterminate,
                        Vec::new(),
                        Some(format!("condition error in rule {}: {e}", rule.id)),
                    )
                }
            }
        }
        let decision = Decision::from_effect(rule.effect);
        match self.instantiate_obligations(&rule.obligations, rule.effect) {
            Ok(obs) => (decision, obs, None),
            Err(e) => (
                Decision::Indeterminate,
                Vec::new(),
                Some(format!("obligation error in rule {}: {e}", rule.id)),
            ),
        }
    }

    fn check_target(&mut self, target: &Target) -> MatchResult {
        self.metrics.targets_checked += 1;
        target.evaluate(self.request)
    }

    fn instantiate_obligations(
        &mut self,
        templates: &[ObligationExpr],
        effect: Effect,
    ) -> Result<Vec<Obligation>, EvalError> {
        let mut out = Vec::new();
        for t in templates {
            if t.fulfill_on != effect {
                continue;
            }
            let mut params = Vec::with_capacity(t.params.len());
            for (name, expr) in &t.params {
                let v = match eval_expr(expr, self.source, &mut self.metrics.expr)? {
                    Evaluated::Scalar(v) => v,
                    Evaluated::Bag(mut bag) => {
                        if bag.len() == 1 {
                            bag.pop().expect("len checked")
                        } else {
                            return Err(EvalError::NotSingleton { size: bag.len() });
                        }
                    }
                    Evaluated::Function(_) => return Err(EvalError::NotAFunction),
                };
                params.push((name.clone(), v));
            }
            out.push(Obligation {
                id: t.id.clone(),
                params,
            });
        }
        Ok(out)
    }

    fn attach_own_obligations(
        &mut self,
        templates: &[ObligationExpr],
        decision: Decision,
        obligations: &mut Vec<Obligation>,
        id: &PolicyId,
    ) -> Result<(), Response> {
        let effect = match decision {
            Decision::Permit => Effect::Permit,
            Decision::Deny => Effect::Deny,
            _ => return Ok(()),
        };
        match self.instantiate_obligations(templates, effect) {
            Ok(own) => {
                obligations.extend(own);
                Ok(())
            }
            Err(e) => Err(Response::indeterminate(format!(
                "obligation error in {id}: {e}"
            ))),
        }
    }
}

fn indeterminate_status(decision: Decision, first_error: Option<String>) -> Status {
    if decision == Decision::Indeterminate {
        Status::Error(first_error.unwrap_or_else(|| "indeterminate combination".into()))
    } else {
        Status::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrValue, AttributeId};
    use crate::expr::{Expr, Func};
    use crate::target::AttrMatch;

    fn doctor_request() -> RequestContext {
        RequestContext::basic("alice", "ehr/records/42", "read")
            .with_subject_attr("role", "doctor")
            .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000))
    }

    fn doctors_read_policy() -> Policy {
        Policy::new("doctors-read", CombiningAlg::FirstApplicable)
            .with_target(Target::all(vec![AttrMatch::glob(
                AttributeId::resource("id"),
                "ehr/*",
            )]))
            .with_rule(
                Rule::new("permit-doctors", Effect::Permit)
                    .with_target(Target::all(vec![
                        AttrMatch::equals(AttributeId::subject("role"), "doctor"),
                        AttrMatch::equals(AttributeId::action("id"), "read"),
                    ]))
                    .with_obligation(
                        ObligationExpr::new("log", Effect::Permit)
                            .with_param("subject", Expr::attr(AttributeId::subject("id"))),
                    ),
            )
            .with_rule(Rule::new("default-deny", Effect::Deny))
    }

    #[test]
    fn permit_path_with_obligation() {
        let req = doctor_request();
        let store = EmptyStore;
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy(&doctors_read_policy());
        assert_eq!(resp.decision, Decision::Permit);
        assert_eq!(resp.obligations.len(), 1);
        assert_eq!(resp.obligations[0].id, "log");
        assert_eq!(
            resp.obligations[0].param("subject"),
            Some(&AttrValue::from("alice"))
        );
        assert!(resp.status.is_ok());
        assert_eq!(ev.metrics.policies_evaluated, 1);
        assert!(ev.metrics.rules_evaluated >= 1);
    }

    #[test]
    fn deny_path_when_role_missing() {
        let req = RequestContext::basic("mallory", "ehr/records/42", "read");
        let store = EmptyStore;
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy(&doctors_read_policy());
        assert_eq!(resp.decision, Decision::Deny);
        assert!(resp.obligations.is_empty());
    }

    #[test]
    fn not_applicable_outside_target() {
        let req = RequestContext::basic("alice", "lab/results/7", "read");
        let store = EmptyStore;
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy(&doctors_read_policy());
        assert_eq!(resp.decision, Decision::NotApplicable);
    }

    #[test]
    fn condition_gates_rule() {
        let policy = Policy::new("hours", CombiningAlg::DenyUnlessPermit).with_rule(
            Rule::new("business-hours", Effect::Permit).with_condition(Expr::apply(
                Func::Lt,
                vec![
                    Expr::apply(
                        Func::HourOf,
                        vec![Expr::attr_required(AttributeId::environment(
                            "current-time",
                        ))],
                    ),
                    Expr::val(17i64),
                ],
            )),
        );
        let store = EmptyStore;

        let morning = doctor_request();
        let mut ev = Evaluator::new(&store, &morning);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);

        let night = RequestContext::basic("alice", "ehr/1", "read")
            .with_env_attr("current-time", AttrValue::Time(22 * 3_600_000));
        let mut ev = Evaluator::new(&store, &night);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Deny);
    }

    #[test]
    fn missing_required_attribute_is_indeterminate_then_failsafe() {
        let policy = Policy::new("needs-time", CombiningAlg::DenyOverrides).with_rule(
            Rule::new("r", Effect::Permit).with_condition(Expr::apply(
                Func::Lt,
                vec![
                    Expr::apply(
                        Func::HourOf,
                        vec![Expr::attr_required(AttributeId::environment(
                            "current-time",
                        ))],
                    ),
                    Expr::val(17i64),
                ],
            )),
        );
        let req = RequestContext::basic("alice", "ehr/1", "read"); // no time
        let store = EmptyStore;
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy(&policy);
        assert_eq!(resp.decision, Decision::Indeterminate);
        assert!(matches!(resp.status, Status::Error(_)));
    }

    #[test]
    fn policy_set_combines_children() {
        let ps = PolicySet::new("root", CombiningAlg::DenyOverrides)
            .with_policy(doctors_read_policy())
            .with_policy(
                Policy::new("lockdown", CombiningAlg::DenyOverrides).with_rule(
                    Rule::new("deny-writes", Effect::Deny).with_target(Target::all(vec![
                        AttrMatch::equals(AttributeId::action("id"), "write"),
                    ])),
                ),
            );
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Permit);
        assert_eq!(resp.obligations.len(), 1);
    }

    #[test]
    fn policy_reference_resolution() {
        let mut store = InMemoryStore::new();
        store.add_policy(doctors_read_policy());
        let ps =
            PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_ref("doctors-read");
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        assert_eq!(ev.evaluate_policy_set(&ps).decision, Decision::Permit);
    }

    #[test]
    fn broken_reference_is_indeterminate() {
        let store = EmptyStore;
        let ps =
            PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_ref("no-such-policy");
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Indeterminate);
    }

    #[test]
    fn only_one_applicable_selects_unique_child() {
        let ehr = Policy::new("ehr-policy", CombiningAlg::DenyUnlessPermit)
            .with_target(Target::all(vec![AttrMatch::glob(
                AttributeId::resource("id"),
                "ehr/*",
            )]))
            .with_rule(Rule::new("ok", Effect::Permit));
        let lab = Policy::new("lab-policy", CombiningAlg::DenyUnlessPermit)
            .with_target(Target::all(vec![AttrMatch::glob(
                AttributeId::resource("id"),
                "lab/*",
            )]))
            .with_rule(Rule::new("ok", Effect::Permit));
        let ps = PolicySet::new("root", CombiningAlg::OnlyOneApplicable)
            .with_policy(ehr)
            .with_policy(lab);
        let store = EmptyStore;

        let req = doctor_request(); // ehr/*
        let mut ev = Evaluator::new(&store, &req);
        assert_eq!(ev.evaluate_policy_set(&ps).decision, Decision::Permit);

        let req = RequestContext::basic("alice", "hr/files/1", "read");
        let mut ev = Evaluator::new(&store, &req);
        assert_eq!(
            ev.evaluate_policy_set(&ps).decision,
            Decision::NotApplicable
        );
    }

    #[test]
    fn only_one_applicable_rejects_overlap() {
        let a = Policy::new("a", CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new("ok", Effect::Permit));
        let b = Policy::new("b", CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new("ok", Effect::Permit));
        // Both have match-all targets.
        let ps = PolicySet::new("root", CombiningAlg::OnlyOneApplicable)
            .with_policy(a)
            .with_policy(b);
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Indeterminate);
    }

    #[test]
    fn nested_policy_sets() {
        let inner =
            PolicySet::new("inner", CombiningAlg::DenyOverrides).with_policy(doctors_read_policy());
        let outer = PolicySet::new("outer", CombiningAlg::FirstApplicable).with_policy_set(inner);
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        assert_eq!(ev.evaluate_policy_set(&outer).decision, Decision::Permit);
        assert_eq!(ev.metrics.policy_sets_evaluated, 2);
    }

    #[test]
    fn set_level_obligations_added() {
        let ps = PolicySet::new("root", CombiningAlg::DenyOverrides)
            .with_policy(doctors_read_policy())
            .with_obligation(
                ObligationExpr::new("audit", Effect::Permit)
                    .with_param("scope", Expr::val("vo-wide")),
            );
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Permit);
        let ids: Vec<_> = resp.obligations.iter().map(|o| o.id.as_str()).collect();
        assert!(ids.contains(&"log"));
        assert!(ids.contains(&"audit"));
    }

    #[test]
    fn obligation_evaluation_error_is_indeterminate() {
        let policy = Policy::new("p", CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new("ok", Effect::Permit))
            .with_obligation(ObligationExpr::new("log", Effect::Permit).with_param(
                "who",
                Expr::attr_required(AttributeId::subject("nonexistent")),
            ));
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let resp = ev.evaluate_policy(&policy);
        assert_eq!(resp.decision, Decision::Indeterminate);
    }

    /// A set holding two references to the set `to`.
    fn branching_set(id: &str, to: &str) -> PolicySet {
        let mut set = PolicySet::new(id, CombiningAlg::DenyOverrides);
        for _ in 0..2 {
            set.elements
                .push(PolicyElement::PolicySetRef(PolicyId::new(to)));
        }
        set
    }

    /// Two back-edges into a cycle branch at every level: the depth
    /// limit alone leaves a 2⁶⁴ walk (this test does not return at the
    /// parent commit). The bound is on counted work, not on time.
    #[test]
    fn a_cycle_with_two_back_edges_ends_at_the_element_budget() {
        let mut own = InMemoryStore::new();
        own.add_policy_set(branching_set("a", "a"));
        let mut mutual = InMemoryStore::new();
        mutual.add_policy_set(branching_set("a", "b"));
        mutual.add_policy_set(branching_set("b", "a"));
        let req = doctor_request();
        for store in [own, mutual] {
            let mut ev = Evaluator::new(&store, &req);
            let resp = ev.evaluate_element(&PolicyElement::PolicySetRef(PolicyId::new("a")));
            assert_eq!(resp.decision, Decision::Indeterminate);
            assert_eq!(ev.metrics.policies_evaluated, 0);
            assert_eq!(ev.metrics.policy_sets_evaluated, MAX_POLICY_ELEMENTS);
            // Spent: whatever it is asked next, it refuses.
            let next = ev.evaluate_element(&PolicyElement::Policy(doctors_read_policy()));
            assert_eq!(
                next.status,
                Status::Error("policy evaluation budget exceeded".into())
            );
        }
    }

    /// A set of `quarantines` policies no `ehr/*` request applies to,
    /// behind one that does: indexed, a request reaches one policy.
    fn mostly_inapplicable_set(id: &str, quarantines: usize) -> PolicySet {
        let mut set =
            PolicySet::new(id, CombiningAlg::DenyOverrides).with_policy(doctors_read_policy());
        for k in 0..quarantines {
            set = set.with_policy(
                Policy::new(format!("aux-{k}").as_str(), CombiningAlg::DenyOverrides).with_rule(
                    Rule::new("quarantine", Effect::Deny).with_target(Target::all(vec![
                        AttrMatch::glob(AttributeId::resource("id"), format!("aux-{k}/*")),
                    ])),
                ),
            );
        }
        set
    }

    /// `evaluate_resolved` and `evaluate_element` over the same tree.
    fn indexed_and_walked(
        root: &PolicyElement,
        store: &dyn PolicyStore,
    ) -> [(Response, EvalMetrics); 2] {
        let req = doctor_request();
        let tree = resolve_references(root, store);
        let mut indexed = Evaluator::new(store, &req);
        let got = indexed.evaluate_resolved(&tree);
        let mut walk = Evaluator::new(store, &req);
        let expected = walk.evaluate_element(tree.root());
        [(got, indexed.metrics), (expected, walk.metrics)]
    }

    #[test]
    fn a_resolved_tree_reaches_only_the_children_the_request_can_apply_to() {
        let inner = mostly_inapplicable_set("inner", 8);
        let root = PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_set(inner);
        let root = PolicyElement::PolicySet(Box::new(root));
        let [(got, indexed), (expected, walked)] = indexed_and_walked(&root, &EmptyStore);
        assert_eq!(got, expected);
        assert_eq!(got.decision, Decision::Permit);
        assert_eq!(indexed.expr, walked.expr);
        assert_eq!((walked.policies_evaluated, walked.rules_evaluated), (9, 9));
        assert_eq!(
            (indexed.policies_evaluated, indexed.rules_evaluated),
            (1, 1)
        );
        assert_eq!(indexed.policy_sets_evaluated, 2);
        assert_eq!(walked.targets_checked - indexed.targets_checked, 16);
    }

    /// A tree on which the walk can run into a limit is not indexed at
    /// all: the limits count elements reached, so a skipped child would
    /// move the point at which they trip.
    #[test]
    fn a_tree_that_could_exhaust_a_limit_is_scanned() {
        let indexable = |id: &str| mostly_inapplicable_set(id, 4);
        let scans = |root: PolicyElement, store: &dyn PolicyStore| {
            let [(got, indexed), (expected, walked)] = indexed_and_walked(&root, store);
            assert_eq!(got, expected);
            let scanned = resolve_references(&root, store).index.is_none();
            assert_eq!(indexed == walked, scanned, "{indexed:?} {walked:?}");
            scanned
        };
        assert!(!scans(
            PolicyElement::PolicySet(Box::new(indexable("root"))),
            &EmptyStore
        ));

        // A kept cyclic reference, anywhere in the tree.
        let mut cyclic = InMemoryStore::new();
        let mut root = indexable("root");
        root.elements
            .push(PolicyElement::PolicySetRef(PolicyId::new("root")));
        cyclic.add_policy_set(root);
        assert!(scans(
            PolicyElement::PolicySetRef(PolicyId::new("root")),
            &cyclic
        ));

        // As many elements as the budget: the root and 2^14 - 1 policies.
        let mut wide = indexable("root");
        let filler = Policy::new("filler", CombiningAlg::DenyOverrides);
        while (wide.elements.len() as u64) < MAX_POLICY_ELEMENTS - 2 {
            wide.elements.push(PolicyElement::Policy(filler.clone()));
        }
        assert!(!scans(
            PolicyElement::PolicySet(Box::new(wide.clone())),
            &EmptyStore
        ));
        wide.elements.push(PolicyElement::Policy(filler));
        assert!(scans(PolicyElement::PolicySet(Box::new(wide)), &EmptyStore));

        // The indexable set at the deepest level the evaluator reaches,
        // then one deeper.
        let nest = |levels: u32| {
            let mut set = indexable("leaf");
            for level in 1..levels {
                let id = format!("level-{level}");
                set = PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides).with_policy_set(set);
            }
            PolicyElement::PolicySet(Box::new(set))
        };
        assert!(!scans(nest(MAX_POLICY_DEPTH), &EmptyStore));
        assert!(scans(nest(MAX_POLICY_DEPTH + 1), &EmptyStore));
    }

    #[test]
    fn metrics_accumulate() {
        let store = EmptyStore;
        let req = doctor_request();
        let mut ev = Evaluator::new(&store, &req);
        let p = doctors_read_policy();
        ev.evaluate_policy(&p);
        ev.evaluate_policy(&p);
        assert_eq!(ev.metrics.policies_evaluated, 2);
    }

    #[test]
    fn first_applicable_rule_order_matters() {
        let policy = Policy::new("ordered", CombiningAlg::FirstApplicable)
            .with_rule(
                Rule::new("deny-night", Effect::Deny).with_condition(Expr::apply(
                    Func::Ge,
                    vec![
                        Expr::apply(
                            Func::HourOf,
                            vec![Expr::attr_required(AttributeId::environment(
                                "current-time",
                            ))],
                        ),
                        Expr::val(17i64),
                    ],
                )),
            )
            .with_rule(Rule::new("permit-rest", Effect::Permit));
        let store = EmptyStore;
        let morning = doctor_request();
        let mut ev = Evaluator::new(&store, &morning);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);
        let night = RequestContext::basic("a", "r", "x")
            .with_env_attr("current-time", AttrValue::Time(20 * 3_600_000));
        let mut ev = Evaluator::new(&store, &night);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Deny);
    }
}
