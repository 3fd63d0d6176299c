//! Policies, policy sets, rules and obligations — the structural core of
//! the policy language (XACML `<Policy>`, `<PolicySet>`, `<Rule>`,
//! `<Obligation>`).

use crate::attr::AttrValue;
use crate::expr::Expr;
use crate::target::Target;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The effect of a rule: what it contributes when it applies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Effect {
    /// The rule authorizes the access.
    Permit,
    /// The rule forbids the access.
    Deny,
}

impl fmt::Display for Effect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Permit => write!(f, "permit"),
            Effect::Deny => write!(f, "deny"),
        }
    }
}

/// The authorization decision returned to the PEP.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Decision {
    /// Access is authorized.
    Permit,
    /// Access is forbidden.
    Deny,
    /// No policy applied to the request.
    NotApplicable,
    /// Evaluation failed (missing attribute, type error, broken
    /// reference); dependable PEPs treat this as deny (fail-safe).
    Indeterminate,
}

impl Decision {
    /// The decision corresponding to an effect.
    pub(crate) fn from_effect(e: Effect) -> Decision {
        match e {
            Effect::Permit => Decision::Permit,
            Effect::Deny => Decision::Deny,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Permit => write!(f, "Permit"),
            Decision::Deny => write!(f, "Deny"),
            Decision::NotApplicable => write!(f, "NotApplicable"),
            Decision::Indeterminate => write!(f, "Indeterminate"),
        }
    }
}

/// Identifier of a policy or policy set.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct PolicyId(pub String);

impl PolicyId {
    /// Creates a policy identifier.
    pub fn new(id: impl Into<String>) -> Self {
        PolicyId(id.into())
    }

    /// The identifier as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PolicyId {
    fn from(s: &str) -> Self {
        PolicyId(s.to_owned())
    }
}

/// An obligation template attached to a rule, policy or policy set.
///
/// Parameters are expressions evaluated against the request when the
/// obligation fires, enabling the paper's "parameterised actions in the
/// enforcement stage" (§2.3).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ObligationExpr {
    /// Obligation identifier understood by the PEP (e.g. `"log"`,
    /// `"encrypt"`, `"notify"`).
    pub id: String,
    /// The decision on which this obligation must be fulfilled.
    pub fulfill_on: Effect,
    /// Named parameter expressions.
    pub params: Vec<(String, Expr)>,
}

impl ObligationExpr {
    /// Creates an obligation template without parameters.
    pub fn new(id: impl Into<String>, fulfill_on: Effect) -> Self {
        ObligationExpr {
            id: id.into(),
            fulfill_on,
            params: Vec::new(),
        }
    }
}

/// A concrete obligation returned to the PEP with evaluated parameters.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Obligation {
    /// Obligation identifier.
    pub id: String,
    /// Evaluated parameters.
    pub params: Vec<(String, AttrValue)>,
}

impl Obligation {
    /// Looks up a parameter value by name.
    pub fn param(&self, name: &str) -> Option<&AttrValue> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }
}

/// A rule: the smallest unit of policy (XACML `<Rule>`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Rule {
    /// Rule identifier, unique within its policy.
    pub id: String,
    /// The effect when target and condition hold.
    pub effect: Effect,
    /// Applicability test.
    pub target: Target,
    /// Optional boolean condition, evaluated only if the target matches.
    pub condition: Option<Expr>,
    /// Obligations contributed when this rule decides.
    pub obligations: Vec<ObligationExpr>,
}

impl Rule {
    /// Creates a rule with an empty (match-all) target and no condition.
    pub fn new(id: impl Into<String>, effect: Effect) -> Self {
        Rule {
            id: id.into(),
            effect,
            target: Target::match_all(),
            condition: None,
            obligations: Vec::new(),
        }
    }

    /// Sets the target (builder style).
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Sets the condition (builder style).
    pub fn with_condition(mut self, condition: Expr) -> Self {
        self.condition = Some(condition);
        self
    }
}

/// Rule- and policy-combining algorithms (§2.3, §3.1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum CombiningAlg {
    /// Any Deny wins; Indeterminate beats Permit.
    DenyOverrides,
    /// Any Permit wins; Indeterminate beats Deny.
    PermitOverrides,
    /// The first applicable child decides.
    FirstApplicable,
    /// Exactly one child's target may match; that child decides
    /// (policy-combining only).
    OnlyOneApplicable,
    /// Deny unless an explicit Permit is produced (never NotApplicable).
    DenyUnlessPermit,
    /// Permit unless an explicit Deny is produced (never NotApplicable).
    PermitUnlessDeny,
}

impl CombiningAlg {
    /// DSL name of the algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            CombiningAlg::DenyOverrides => "deny-overrides",
            CombiningAlg::PermitOverrides => "permit-overrides",
            CombiningAlg::FirstApplicable => "first-applicable",
            CombiningAlg::OnlyOneApplicable => "only-one-applicable",
            CombiningAlg::DenyUnlessPermit => "deny-unless-permit",
            CombiningAlg::PermitUnlessDeny => "permit-unless-deny",
        }
    }

    /// Parses a DSL algorithm name.
    pub fn parse(s: &str) -> Option<CombiningAlg> {
        Some(match s {
            "deny-overrides" => CombiningAlg::DenyOverrides,
            "permit-overrides" => CombiningAlg::PermitOverrides,
            "first-applicable" => CombiningAlg::FirstApplicable,
            "only-one-applicable" => CombiningAlg::OnlyOneApplicable,
            "deny-unless-permit" => CombiningAlg::DenyUnlessPermit,
            "permit-unless-deny" => CombiningAlg::PermitUnlessDeny,
            _ => return None,
        })
    }

    /// All algorithms (for ablation sweeps).
    pub const ALL: [CombiningAlg; 6] = [
        CombiningAlg::DenyOverrides,
        CombiningAlg::PermitOverrides,
        CombiningAlg::FirstApplicable,
        CombiningAlg::OnlyOneApplicable,
        CombiningAlg::DenyUnlessPermit,
        CombiningAlg::PermitUnlessDeny,
    ];
}

impl fmt::Display for CombiningAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A policy: a target, a set of rules and a rule-combining algorithm.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Policy {
    /// Identifier, unique within a repository.
    pub id: PolicyId,
    /// Monotonic version (managed by the PAP).
    pub version: u64,
    /// Applicability test for the whole policy.
    pub target: Target,
    /// The rules, combined by `rule_combining`.
    pub rules: Vec<Rule>,
    /// How rule decisions are combined.
    pub rule_combining: CombiningAlg,
    /// Obligations contributed by the policy itself.
    pub obligations: Vec<ObligationExpr>,
    /// The authority that issued the policy (delegation / multi-authority
    /// support, §3.2).
    pub issuer: Option<String>,
}

impl Policy {
    /// Creates an empty policy with the given combining algorithm.
    pub fn new(id: impl Into<PolicyId>, rule_combining: CombiningAlg) -> Self {
        Policy {
            id: id.into(),
            version: 1,
            target: Target::match_all(),
            rules: Vec::new(),
            rule_combining,
            obligations: Vec::new(),
            issuer: None,
        }
    }

    /// Sets the target (builder style).
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// A child of a policy set.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PolicyElement {
    /// An inline policy.
    Policy(Policy),
    /// An inline nested policy set.
    PolicySet(Box<PolicySet>),
    /// A reference to a policy stored elsewhere (resolved through the
    /// PAP's policy store at evaluation time).
    PolicyRef(PolicyId),
    /// A reference to a policy set stored elsewhere.
    PolicySetRef(PolicyId),
}

impl PolicyElement {
    /// The identifier of the element (inline or referenced).
    pub fn id(&self) -> &PolicyId {
        match self {
            PolicyElement::Policy(p) => &p.id,
            PolicyElement::PolicySet(ps) => &ps.id,
            PolicyElement::PolicyRef(id) | PolicyElement::PolicySetRef(id) => id,
        }
    }
}

/// A policy set: targets + children + policy-combining algorithm.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct PolicySet {
    /// Identifier, unique within a repository.
    pub id: PolicyId,
    /// Monotonic version (managed by the PAP).
    pub version: u64,
    /// Applicability test for the whole set.
    pub target: Target,
    /// Children, combined by `policy_combining`.
    pub elements: Vec<PolicyElement>,
    /// How child decisions are combined.
    pub policy_combining: CombiningAlg,
    /// Obligations contributed by the set itself.
    pub obligations: Vec<ObligationExpr>,
    /// Issuing authority.
    pub issuer: Option<String>,
}

impl PolicySet {
    /// Creates an empty policy set with the given combining algorithm.
    pub fn new(id: impl Into<PolicyId>, policy_combining: CombiningAlg) -> Self {
        PolicySet {
            id: id.into(),
            version: 1,
            target: Target::match_all(),
            elements: Vec::new(),
            policy_combining,
            obligations: Vec::new(),
            issuer: None,
        }
    }

    /// Sets the target (builder style).
    pub fn with_target(mut self, target: Target) -> Self {
        self.target = target;
        self
    }

    /// Adds an inline policy (builder style).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.elements.push(PolicyElement::Policy(policy));
        self
    }

    /// Adds an inline nested policy set (builder style).
    pub fn with_policy_set(mut self, set: PolicySet) -> Self {
        self.elements.push(PolicyElement::PolicySet(Box::new(set)));
        self
    }

    /// Adds a policy reference (builder style).
    pub fn with_policy_ref(mut self, id: impl Into<PolicyId>) -> Self {
        self.elements.push(PolicyElement::PolicyRef(id.into()));
        self
    }

    /// Number of direct children.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the set has no children.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

#[cfg(test)]
impl ObligationExpr {
    /// Adds a parameter expression (builder style).
    pub(crate) fn with_param(mut self, name: impl Into<String>, expr: Expr) -> Self {
        self.params.push((name.into(), expr));
        self
    }
}

#[cfg(test)]
impl Rule {
    /// Adds an obligation (builder style).
    pub(crate) fn with_obligation(mut self, obligation: ObligationExpr) -> Self {
        self.obligations.push(obligation);
        self
    }
}

#[cfg(test)]
impl Policy {
    /// Adds a policy-level obligation (builder style).
    pub(crate) fn with_obligation(mut self, obligation: ObligationExpr) -> Self {
        self.obligations.push(obligation);
        self
    }
}

#[cfg(test)]
impl PolicySet {
    /// Adds a set-level obligation (builder style).
    pub(crate) fn with_obligation(mut self, obligation: ObligationExpr) -> Self {
        self.obligations.push(obligation);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttributeId;
    use crate::target::AttrMatch;

    #[test]
    fn builders_compose() {
        let p = Policy::new("p1", CombiningAlg::DenyOverrides)
            .with_target(Target::all(vec![AttrMatch::equals(
                AttributeId::resource("type"),
                "ehr",
            )]))
            .with_rule(
                Rule::new("r1", Effect::Permit)
                    .with_condition(Expr::val(true))
                    .with_obligation(
                        ObligationExpr::new("log", Effect::Permit)
                            .with_param("level", Expr::val("info")),
                    ),
            )
            .with_rule(Rule::new("default-deny", Effect::Deny));
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].obligations.len(), 1);
    }

    #[test]
    fn policy_set_children_and_ids() {
        let ps = PolicySet::new("root", CombiningAlg::FirstApplicable)
            .with_policy(Policy::new("p1", CombiningAlg::DenyOverrides))
            .with_policy_ref("shared-policy");
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.elements[0].id().as_str(), "p1");
        assert_eq!(ps.elements[1].id().as_str(), "shared-policy");
    }

    #[test]
    fn combining_alg_name_roundtrip() {
        for alg in CombiningAlg::ALL {
            assert_eq!(CombiningAlg::parse(alg.name()), Some(alg));
        }
        assert_eq!(CombiningAlg::parse("nope"), None);
    }

    #[test]
    fn decision_display_and_effect() {
        assert_eq!(Decision::from_effect(Effect::Permit), Decision::Permit);
        assert_eq!(Decision::from_effect(Effect::Deny), Decision::Deny);
        assert_eq!(Decision::Permit.to_string(), "Permit");
    }

    #[test]
    fn obligation_param_lookup() {
        let ob = Obligation {
            id: "log".into(),
            params: vec![("level".into(), AttrValue::from("info"))],
        };
        assert_eq!(ob.param("level"), Some(&AttrValue::from("info")));
        assert_eq!(ob.param("missing"), None);
    }
}
