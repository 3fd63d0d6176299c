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
use std::sync::Arc;

/// Resolves policy references encountered during evaluation (the PAP's
/// repository implements this).
pub trait PolicyStore: Send + Sync {
    /// Looks up a policy by id.
    fn policy(&self, id: &PolicyId) -> Option<Arc<Policy>>;
    /// Looks up a policy set by id.
    fn policy_set(&self, id: &PolicyId) -> Option<Arc<PolicySet>>;
}

/// A policy tree with its references resolved inline and its sets
/// indexed by target: what [`resolve_references`] returns and
/// [`Evaluator::evaluate_resolved`] evaluates. Immutable, so the index
/// cannot go stale against the tree it was built from. It holds no
/// cycle, no element deeper than [`MAX_POLICY_DEPTH`] and fewer than
/// [`MAX_POLICY_ELEMENTS`] elements.
#[derive(Debug)]
pub struct ResolvedTree {
    root: PolicyElement,
    /// The root set's index; `None` when the root is not a set or
    /// nothing in the tree is indexable.
    index: Option<SetIndex>,
}

impl ResolvedTree {
    /// The resolved root element.
    pub fn root(&self) -> &PolicyElement {
        &self.root
    }
}

/// Deepest nesting level an element of a policy tree may sit at; the
/// root is at level 0.
pub const MAX_POLICY_DEPTH: u32 = 64;

/// Policies, policy sets and references a policy tree must hold fewer
/// of. The largest tree in the repo (E3) has 1 025 elements.
pub const MAX_POLICY_ELEMENTS: u64 = 1 << 14;

/// Why [`resolve_references`] refused a policy tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TreeError {
    /// A `PolicySetRef` leads back into the stored set it names, which
    /// encloses it.
    Cycle(PolicyId),
    /// An element would sit deeper than [`MAX_POLICY_DEPTH`].
    TooDeep,
    /// The tree would hold [`MAX_POLICY_ELEMENTS`] elements or more.
    TooLarge,
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::Cycle(id) => write!(f, "policy set {id} references itself"),
            TreeError::TooDeep => write!(f, "policy tree deeper than {MAX_POLICY_DEPTH}"),
            TreeError::TooLarge => write!(f, "policy tree of {MAX_POLICY_ELEMENTS}+ elements"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Returns `root` with every reachable `PolicyRef` / `PolicySetRef`
/// replaced inline by the body `store` holds for it now, so that
/// evaluating the result makes no store lookup — and with a target
/// index per inline set, so that evaluating it reaches only the
/// children a request can apply to.
///
/// This is the one judge of a tree's shape: the PAP runs it before it
/// stores a set, a PDP for each snapshot. A reference the store cannot
/// resolve stays a reference (one element), answered `Indeterminate`.
///
/// The index leaves out of an evaluation only children that would have
/// answered `NotApplicable` with no obligation and no error (the rules
/// are in the `index` module's source, where it is built), so the work
/// counters fall and nothing else moves.
///
/// # Errors
///
/// The first breach met, where expansion stops — so a refused tree
/// costs at most [`MAX_POLICY_ELEMENTS`] element copies:
/// [`TreeError::Cycle`], [`TreeError::TooDeep`] or [`TreeError::TooLarge`].
///
/// # Examples
///
/// ```
/// use dacs_policy::eval::{resolve_references, PolicyStore, TreeError, MAX_POLICY_DEPTH};
/// use dacs_policy::policy::{CombiningAlg, Policy, PolicyElement, PolicyId, PolicySet};
/// use std::sync::Arc;
///
/// struct EmptyStore;
/// impl PolicyStore for EmptyStore {
///     fn policy(&self, _: &PolicyId) -> Option<Arc<Policy>> { None }
///     fn policy_set(&self, _: &PolicyId) -> Option<Arc<PolicySet>> { None }
/// }
///
/// let mut set = PolicySet::new("leaf", CombiningAlg::DenyOverrides).with_policy_ref("missing");
/// for level in 0..MAX_POLICY_DEPTH {
///     let id = format!("level-{level}");
///     set = PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides).with_policy_set(set);
/// }
/// // The reference sits at level 65, one past the limit.
/// let root = PolicyElement::PolicySet(Box::new(set));
/// assert_eq!(resolve_references(&root, &EmptyStore).err(), Some(TreeError::TooDeep));
/// // One level up it sits at the limit, and stays a reference.
/// let PolicyElement::PolicySet(outer) = &root else { unreachable!() };
/// assert!(resolve_references(&outer.elements[0], &EmptyStore).is_ok());
/// ```
pub fn resolve_references(
    root: &PolicyElement,
    store: &dyn PolicyStore,
) -> Result<ResolvedTree, TreeError> {
    let mut resolver = Resolver {
        store,
        open: Vec::new(),
        elements: 0,
    };
    let root = resolver.element(root, 0)?;
    let index = match &root {
        PolicyElement::PolicySet(set) => SetIndex::build(set),
        _ => None,
    };
    Ok(ResolvedTree { root, index })
}

struct Resolver<'a> {
    store: &'a dyn PolicyStore,
    /// The stored sets whose expansion encloses the element in hand.
    open: Vec<PolicyId>,
    /// Elements met so far, references left in place included.
    elements: u64,
}

impl Resolver<'_> {
    /// `element` sits at nesting level `depth`.
    fn element(&mut self, element: &PolicyElement, depth: u32) -> Result<PolicyElement, TreeError> {
        if depth > MAX_POLICY_DEPTH {
            return Err(TreeError::TooDeep);
        }
        self.elements += 1;
        if self.elements >= MAX_POLICY_ELEMENTS {
            return Err(TreeError::TooLarge);
        }
        Ok(match element {
            PolicyElement::Policy(_) => element.clone(),
            PolicyElement::PolicySet(set) => {
                PolicyElement::PolicySet(Box::new(self.set(set, depth)?))
            }
            PolicyElement::PolicyRef(id) => match self.store.policy(id) {
                Some(policy) => PolicyElement::Policy(Policy::clone(&policy)),
                None => element.clone(),
            },
            PolicyElement::PolicySetRef(id) => match self.store.policy_set(id) {
                Some(_) if self.open.contains(id) => return Err(TreeError::Cycle(id.clone())),
                Some(set) => {
                    self.open.push(id.clone());
                    let resolved = self.set(&set, depth)?;
                    self.open.pop();
                    PolicyElement::PolicySet(Box::new(resolved))
                }
                None => element.clone(),
            },
        })
    }

    /// `set` sits at nesting level `depth`, its children one deeper.
    fn set(&mut self, set: &PolicySet, depth: u32) -> Result<PolicySet, TreeError> {
        Ok(PolicySet {
            id: set.id.clone(),
            version: set.version,
            target: set.target.clone(),
            elements: set
                .elements
                .iter()
                .map(|child| self.element(child, depth + 1))
                .collect::<Result<_, _>>()?,
            policy_combining: set.policy_combining,
            obligations: set.obligations.clone(),
            issuer: set.issuer.clone(),
        })
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

/// The evaluation engine.
///
/// Holds the request context (used for target matching) and an
/// attribute source (used for conditions and obligations — typically
/// the same context, or a PIP-backed resolver). It reads no policy
/// store and bounds no depth: a tree's references and shape are
/// [`resolve_references`]'s business, judged before evaluation starts,
/// and a reference left in the tree it is given is one the store could
/// not resolve, answered `Indeterminate`.
///
/// There is one walk. Given a [`ResolvedTree`] it takes each set's
/// children from the tree's target index — the ones the request can
/// apply to, in document order — and given a bare element it takes all
/// of them; either way the same loop feeds the same combiner, and
/// [`Evaluator::metrics`] counts what that loop evaluated.
pub struct Evaluator<'a> {
    request: &'a RequestContext,
    source: &'a dyn AttributeSource,
    /// Work counters, accumulated across evaluations by this instance.
    pub metrics: EvalMetrics,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator where conditions read straight from the
    /// request context.
    pub fn new(request: &'a RequestContext) -> Self {
        Self::with_source(request, request)
    }

    /// Creates an evaluator with a separate attribute source (e.g. a
    /// PIP-backed resolver that falls back to the request).
    pub fn with_source(request: &'a RequestContext, source: &'a dyn AttributeSource) -> Self {
        Evaluator {
            request,
            source,
            metrics: EvalMetrics::default(),
        }
    }

    /// The reference walk: resolves `element` against `store`, then
    /// evaluates every child of every set, unindexed. A tree
    /// [`resolve_references`] refuses answers `Indeterminate` with the
    /// [`TreeError`]'s text and evaluates nothing.
    pub fn evaluate_element(
        &mut self,
        element: &PolicyElement,
        store: &dyn PolicyStore,
    ) -> Response {
        match resolve_references(element, store) {
            Ok(tree) => self.evaluate_indexed(tree.root(), None),
            Err(refused) => Response::indeterminate(refused.to_string()),
        }
    }

    /// Evaluates a resolved tree, reaching in each indexed set only the
    /// children `request` can apply to. The response is
    /// [`Evaluator::evaluate_element`]'s on the tree's root.
    pub fn evaluate_resolved(&mut self, tree: &ResolvedTree) -> Response {
        self.evaluate_indexed(&tree.root, tree.index.as_ref())
    }

    /// `index` is `element`'s own when `element` is an inline set.
    fn evaluate_indexed(&mut self, element: &PolicyElement, index: Option<&SetIndex>) -> Response {
        match element {
            PolicyElement::Policy(p) => self.evaluate_policy(p),
            PolicyElement::PolicySet(ps) => self.evaluate_set(ps, index),
            PolicyElement::PolicyRef(id) => {
                Response::indeterminate(format!("unresolved policy reference {id}"))
            }
            PolicyElement::PolicySetRef(id) => {
                Response::indeterminate(format!("unresolved policy set reference {id}"))
            }
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

    /// Evaluates a policy set as given, every child of it: a reference
    /// in it is unresolved. [`Evaluator::evaluate_element`] resolves a
    /// stored tree first.
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

    /// Matches a child's own target; a reference left in the tree is
    /// unresolved.
    fn match_element_target(&mut self, element: &PolicyElement) -> Result<MatchResult, String> {
        match element {
            PolicyElement::Policy(p) => Ok(self.check_target(&p.target)),
            PolicyElement::PolicySet(ps) => Ok(self.check_target(&ps.target)),
            PolicyElement::PolicyRef(id) => Err(format!("unresolved policy reference {id}")),
            PolicyElement::PolicySetRef(id) => Err(format!("unresolved policy set reference {id}")),
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

/// A store with no policies (for evaluating self-contained trees).
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EmptyStore;

#[cfg(test)]
impl PolicyStore for EmptyStore {
    fn policy(&self, _id: &PolicyId) -> Option<Arc<Policy>> {
        None
    }
    fn policy_set(&self, _id: &PolicyId) -> Option<Arc<PolicySet>> {
        None
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
        let mut ev = Evaluator::new(&req);
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
        let mut ev = Evaluator::new(&req);
        let resp = ev.evaluate_policy(&doctors_read_policy());
        assert_eq!(resp.decision, Decision::Deny);
        assert!(resp.obligations.is_empty());
    }

    #[test]
    fn not_applicable_outside_target() {
        let req = RequestContext::basic("alice", "lab/results/7", "read");
        let mut ev = Evaluator::new(&req);
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

        let morning = doctor_request();
        let mut ev = Evaluator::new(&morning);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);

        let night = RequestContext::basic("alice", "ehr/1", "read")
            .with_env_attr("current-time", AttrValue::Time(22 * 3_600_000));
        let mut ev = Evaluator::new(&night);
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
        let mut ev = Evaluator::new(&req);
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
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Permit);
        assert_eq!(resp.obligations.len(), 1);
    }

    #[test]
    fn broken_reference_is_indeterminate() {
        let ps =
            PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_ref("no-such-policy");
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
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

        let req = doctor_request(); // ehr/*
        let mut ev = Evaluator::new(&req);
        assert_eq!(ev.evaluate_policy_set(&ps).decision, Decision::Permit);

        let req = RequestContext::basic("alice", "hr/files/1", "read");
        let mut ev = Evaluator::new(&req);
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
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
        let resp = ev.evaluate_policy_set(&ps);
        assert_eq!(resp.decision, Decision::Indeterminate);
    }

    #[test]
    fn nested_policy_sets() {
        let inner =
            PolicySet::new("inner", CombiningAlg::DenyOverrides).with_policy(doctors_read_policy());
        let outer = PolicySet::new("outer", CombiningAlg::FirstApplicable).with_policy_set(inner);
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
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
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
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
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
        let resp = ev.evaluate_policy(&policy);
        assert_eq!(resp.decision, Decision::Indeterminate);
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

    /// `evaluate_resolved` and `evaluate_element` over the same
    /// self-contained tree, or why it was refused.
    fn indexed_and_walked(root: &PolicyElement) -> Result<[(Response, EvalMetrics); 2], TreeError> {
        let req = doctor_request();
        let tree = resolve_references(root, &EmptyStore)?;
        let mut indexed = Evaluator::new(&req);
        let got = indexed.evaluate_resolved(&tree);
        let mut walk = Evaluator::new(&req);
        let expected = walk.evaluate_element(root, &EmptyStore);
        Ok([(got, indexed.metrics), (expected, walk.metrics)])
    }

    #[test]
    fn a_resolved_tree_reaches_only_the_children_the_request_can_apply_to() {
        let inner = mostly_inapplicable_set("inner", 8);
        let root = PolicySet::new("root", CombiningAlg::FirstApplicable).with_policy_set(inner);
        let root = PolicyElement::PolicySet(Box::new(root));
        let [(got, indexed), (expected, walked)] = indexed_and_walked(&root).unwrap();
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

    /// A tree is accepted iff no element sits deeper than
    /// `MAX_POLICY_DEPTH` and it holds fewer than `MAX_POLICY_ELEMENTS`
    /// elements, and every accepted tree is indexed.
    #[test]
    fn a_tree_at_either_limit_is_indexed_and_one_past_is_refused() {
        let indexable = |id: &str| mostly_inapplicable_set(id, 4);
        let indexed = |root: PolicySet| -> Result<(), TreeError> {
            let root = PolicyElement::PolicySet(Box::new(root));
            let [(got, indexed), (expected, walked)] = indexed_and_walked(&root)?;
            assert_eq!(got, expected);
            assert!(
                indexed.policies_evaluated < walked.policies_evaluated,
                "{indexed:?} {walked:?}"
            );
            Ok(())
        };
        assert_eq!(indexed(indexable("root")), Ok(()));

        // One element short of the limit: the root and 2^14 - 2
        // policies. Then one more.
        let mut wide = indexable("root");
        let filler = Policy::new("filler", CombiningAlg::DenyOverrides);
        while (wide.elements.len() as u64) < MAX_POLICY_ELEMENTS - 2 {
            wide.elements.push(PolicyElement::Policy(filler.clone()));
        }
        assert_eq!(indexed(wide.clone()), Ok(()));
        wide.elements.push(PolicyElement::Policy(filler));
        assert_eq!(indexed(wide), Err(TreeError::TooLarge));

        // The indexable set's policies at the deepest level allowed,
        // then one deeper.
        let nest = |levels: u32| {
            let mut set = indexable("leaf");
            for level in 1..levels {
                let id = format!("level-{level}");
                set = PolicySet::new(id.as_str(), CombiningAlg::DenyOverrides).with_policy_set(set);
            }
            set
        };
        assert_eq!(indexed(nest(MAX_POLICY_DEPTH)), Ok(()));
        assert_eq!(indexed(nest(MAX_POLICY_DEPTH + 1)), Err(TreeError::TooDeep));
    }

    #[test]
    fn metrics_accumulate() {
        let req = doctor_request();
        let mut ev = Evaluator::new(&req);
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
        let morning = doctor_request();
        let mut ev = Evaluator::new(&morning);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);
        let night = RequestContext::basic("a", "r", "x")
            .with_env_attr("current-time", AttrValue::Time(20 * 3_600_000));
        let mut ev = Evaluator::new(&night);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Deny);
    }
}
