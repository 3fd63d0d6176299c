//! Static policy conflict analysis (§3.1 "Policy Conflict Resolution").
//!
//! Implements the paper's *static conflict resolution* step: enumerate
//! {subject, action, target} constraint tuples and flag *modality
//! conflicts* — pairs of rules with opposite effects whose applicability
//! spaces may overlap, so some request could be both permitted and
//! denied.
//!
//! The analysis is **conservative**: it may report overlaps that cannot
//! occur at runtime (false positives), but a pair it clears can never
//! conflict — matching the static-analysis role the paper assigns it
//! (Lupu & Sloman's modality conflicts). Attributes are assumed
//! single-valued per request for overlap purposes.

use crate::glob::{glob_match, globs_may_overlap};
use crate::policy::{CombiningAlg, Effect, Policy, PolicyId};
use crate::target::{AttrMatch, MatchOp, Target};
use std::collections::BTreeMap;

/// Identifies one rule inside one policy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RuleRef {
    /// The enclosing policy.
    pub policy: PolicyId,
    /// The rule identifier.
    pub rule: String,
    /// The rule's effect.
    pub effect: Effect,
}

/// A detected (potential) modality conflict between two rules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Conflict {
    /// The permit side of the pair.
    pub permit_rule: RuleRef,
    /// The deny side of the pair.
    pub deny_rule: RuleRef,
}

/// A rule shadowed by an earlier rule under first-applicable combining.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Shadowing {
    /// The earlier rule that always fires first.
    pub earlier: RuleRef,
    /// The later rule that can never take effect.
    pub shadowed: RuleRef,
}

/// Result of a static analysis run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ConflictAnalysis {
    /// Potential modality conflicts found.
    pub conflicts: Vec<Conflict>,
    /// Rules shadowed within first-applicable policies.
    pub shadowings: Vec<Shadowing>,
    /// Number of cube pairs compared (work metric).
    pub cubes_compared: u64,
    /// Number of rules whose targets were too complex to expand and were
    /// treated as overlapping everything (conservative).
    pub complex_rules: usize,
}

/// A conjunction of attribute matches (one DNF term of a target).
type Cube = Vec<AttrMatch>;

const MAX_CUBES: usize = 128;

/// Expands a target into DNF cubes. Returns `None` if the expansion
/// exceeds [`MAX_CUBES`] (caller treats the rule conservatively).
fn target_cubes(target: &Target) -> Option<Vec<Cube>> {
    let mut cubes: Vec<Cube> = vec![Vec::new()];
    for any in &target.any_ofs {
        if any.all_ofs.is_empty() {
            continue;
        }
        let mut next = Vec::new();
        for cube in &cubes {
            for all in &any.all_ofs {
                let mut c = cube.clone();
                c.extend(all.matches.iter().cloned());
                next.push(c);
                if next.len() > MAX_CUBES {
                    return None;
                }
            }
        }
        cubes = next;
    }
    Some(cubes)
}

/// Conjunction of two cube lists (policy target ∧ rule target).
fn conjoin(a: &[Cube], b: &[Cube]) -> Option<Vec<Cube>> {
    let mut out = Vec::new();
    for x in a {
        for y in b {
            let mut c = x.clone();
            c.extend(y.iter().cloned());
            out.push(c);
            if out.len() > MAX_CUBES {
                return None;
            }
        }
    }
    Some(out)
}

/// Could two single-attribute constraints hold for the same value?
fn matches_may_overlap(a: &AttrMatch, b: &AttrMatch) -> bool {
    use MatchOp::*;
    match (a.op, b.op) {
        (Equals, Equals) => a.value == b.value,
        (Equals, Glob) | (Glob, Equals) => {
            let (pattern, value) = if a.op == Glob {
                (&a.value, &b.value)
            } else {
                (&b.value, &a.value)
            };
            match (pattern.as_str(), value.as_str()) {
                (Some(p), Some(v)) => glob_match(p, v),
                _ => false,
            }
        }
        (Glob, Glob) => match (a.value.as_str(), b.value.as_str()) {
            (Some(p1), Some(p2)) => globs_may_overlap(p1, p2),
            _ => false,
        },
        (Equals, op) if is_range(op) => range_accepts(op, &b.value, &a.value),
        (op, Equals) if is_range(op) => range_accepts(op, &a.value, &b.value),
        (op1, op2) if is_range(op1) && is_range(op2) => {
            ranges_may_overlap((op1, &a.value), (op2, &b.value))
        }
        // Contains and mixed string ops: conservative.
        _ => true,
    }
}

fn is_range(op: MatchOp) -> bool {
    matches!(
        op,
        MatchOp::GreaterThan | MatchOp::GreaterOrEqual | MatchOp::LessThan | MatchOp::LessOrEqual
    )
}

/// Does `value OP bound` hold?
fn range_accepts(
    op: MatchOp,
    bound: &crate::attr::AttrValue,
    value: &crate::attr::AttrValue,
) -> bool {
    use std::cmp::Ordering::*;
    let Some(ord) = value.partial_cmp_same_type(bound) else {
        return false; // incompatible types can never both hold
    };
    match op {
        MatchOp::GreaterThan => ord == Greater,
        MatchOp::GreaterOrEqual => ord != Less,
        MatchOp::LessThan => ord == Less,
        MatchOp::LessOrEqual => ord != Greater,
        _ => unreachable!("range_accepts called with non-range op"),
    }
}

/// Can some value satisfy both range constraints? (Treated as dense
/// intervals — conservative for integers.)
fn ranges_may_overlap(
    a: (MatchOp, &crate::attr::AttrValue),
    b: (MatchOp, &crate::attr::AttrValue),
) -> bool {
    use MatchOp::*;
    let lower = |op: MatchOp| matches!(op, GreaterThan | GreaterOrEqual);
    let (la, lb) = (lower(a.0), lower(b.0));
    if la == lb {
        // Same direction: always jointly satisfiable.
        return true;
    }
    // One lower bound, one upper bound: need lower bound <= upper bound.
    let ((lop, lv), (uop, uv)) = if la { (a, b) } else { (b, a) };
    let Some(ord) = lv.partial_cmp_same_type(uv) else {
        return false;
    };
    match ord {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Equal => {
            // x > v && x < v impossible; x >= v && x <= v possible, etc.
            lop == GreaterOrEqual && uop == LessOrEqual
        }
        std::cmp::Ordering::Greater => false,
    }
}

/// Could two cubes apply to a common request?
fn cubes_may_overlap(a: &Cube, b: &Cube) -> bool {
    // Group matches by attribute; attributes constrained in only one
    // cube never rule out overlap.
    let mut by_attr: BTreeMap<&crate::attr::AttributeId, (Vec<&AttrMatch>, Vec<&AttrMatch>)> =
        BTreeMap::new();
    for m in a {
        by_attr.entry(&m.attr).or_default().0.push(m);
    }
    for m in b {
        by_attr.entry(&m.attr).or_default().1.push(m);
    }
    for (_, (from_a, from_b)) in by_attr {
        for ma in &from_a {
            for mb in &from_b {
                if !matches_may_overlap(ma, mb) {
                    return false;
                }
            }
        }
    }
    true
}

/// Does `general` subsume `specific` (every request matching `specific`
/// also matches `general`)? Limited to Equals/Glob constraints; returns
/// `false` when unsure (sound for shadowing detection).
fn cube_subsumes(general: &Cube, specific: &Cube) -> bool {
    'outer: for g in general {
        for s in specific {
            if s.attr != g.attr {
                continue;
            }
            let implied = match (g.op, s.op) {
                (MatchOp::Equals, MatchOp::Equals) => g.value == s.value,
                (MatchOp::Glob, MatchOp::Equals) => match (g.value.as_str(), s.value.as_str()) {
                    (Some(p), Some(v)) => glob_match(p, v),
                    _ => false,
                },
                (MatchOp::Glob, MatchOp::Glob) => g.value == s.value,
                _ => false,
            };
            if implied {
                continue 'outer;
            }
        }
        return false;
    }
    true
}

/// Per-rule expanded constraint space.
struct RuleCubes {
    rule: RuleRef,
    /// `None` = too complex, treat as overlapping everything.
    cubes: Option<Vec<Cube>>,
}

fn expand_policy(policy: &Policy) -> (Vec<RuleCubes>, usize) {
    let policy_cubes = target_cubes(&policy.target);
    let mut out = Vec::with_capacity(policy.rules.len());
    let mut complex = 0;
    for rule in &policy.rules {
        let cubes = match (&policy_cubes, target_cubes(&rule.target)) {
            (Some(pc), Some(rc)) => conjoin(pc, &rc),
            _ => None,
        };
        if cubes.is_none() {
            complex += 1;
        }
        out.push(RuleCubes {
            rule: RuleRef {
                policy: policy.id.clone(),
                rule: rule.id.clone(),
                effect: rule.effect,
            },
            cubes,
        });
    }
    (out, complex)
}

/// Analyzes a set of policies (typically gathered from several domains'
/// PAPs) for potential modality conflicts and, within first-applicable
/// policies, shadowed rules.
pub fn analyze<'a>(policies: impl IntoIterator<Item = &'a Policy>) -> ConflictAnalysis {
    let mut analysis = ConflictAnalysis::default();
    let mut all_rules: Vec<RuleCubes> = Vec::new();

    for policy in policies {
        let (rules, complex) = expand_policy(policy);
        analysis.complex_rules += complex;

        // Shadowing within first-applicable policies: a later rule whose
        // every cube is subsumed by some cube of an earlier rule.
        if policy.rule_combining == CombiningAlg::FirstApplicable {
            for i in 0..rules.len() {
                for j in (i + 1)..rules.len() {
                    // A conditioned earlier rule does not always fire.
                    if policy.rules[i].condition.is_some() {
                        continue;
                    }
                    let (Some(ci), Some(cj)) = (&rules[i].cubes, &rules[j].cubes) else {
                        continue;
                    };
                    let shadowed = cj.iter().all(|c| ci.iter().any(|g| cube_subsumes(g, c)));
                    if shadowed {
                        analysis.shadowings.push(Shadowing {
                            earlier: rules[i].rule.clone(),
                            shadowed: rules[j].rule.clone(),
                        });
                    }
                }
            }
        }

        all_rules.extend(rules);
    }

    // Pairwise modality conflicts across everything.
    for i in 0..all_rules.len() {
        for j in (i + 1)..all_rules.len() {
            let (a, b) = (&all_rules[i], &all_rules[j]);
            if a.rule.effect == b.rule.effect {
                continue;
            }
            let overlap = match (&a.cubes, &b.cubes) {
                (Some(ca), Some(cb)) => {
                    let mut found = false;
                    'cubes: for x in ca {
                        for y in cb {
                            analysis.cubes_compared += 1;
                            if cubes_may_overlap(x, y) {
                                found = true;
                                break 'cubes;
                            }
                        }
                    }
                    found
                }
                // Complex rule: conservative.
                _ => true,
            };
            if overlap {
                let (permit_rule, deny_rule) = if a.rule.effect == Effect::Permit {
                    (a.rule.clone(), b.rule.clone())
                } else {
                    (b.rule.clone(), a.rule.clone())
                };
                analysis.conflicts.push(Conflict {
                    permit_rule,
                    deny_rule,
                });
            }
        }
    }

    analysis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Decision;

    /// Which decision wins for a conflicting (Permit, Deny) pair under a
    /// combining algorithm — the runtime resolution the paper describes.
    fn runtime_resolution(alg: CombiningAlg) -> Decision {
        match alg {
            CombiningAlg::DenyOverrides | CombiningAlg::PermitUnlessDeny => Decision::Deny,
            CombiningAlg::PermitOverrides | CombiningAlg::DenyUnlessPermit => Decision::Permit,
            // Order- and applicability-dependent: cannot be resolved
            // statically.
            CombiningAlg::FirstApplicable | CombiningAlg::OnlyOneApplicable => {
                Decision::Indeterminate
            }
        }
    }
    use crate::attr::AttributeId;
    use crate::policy::Rule;

    fn permit_rule(id: &str, matches: Vec<AttrMatch>) -> Rule {
        Rule::new(id, Effect::Permit).with_target(Target::all(matches))
    }

    fn deny_rule(id: &str, matches: Vec<AttrMatch>) -> Rule {
        Rule::new(id, Effect::Deny).with_target(Target::all(matches))
    }

    fn role(v: &str) -> AttrMatch {
        AttrMatch::equals(AttributeId::subject("role"), v)
    }

    fn resource_glob(p: &str) -> AttrMatch {
        AttrMatch::glob(AttributeId::resource("id"), p)
    }

    #[test]
    fn disjoint_rules_no_conflict() {
        let p = Policy::new("p", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("permit-doctors", vec![role("doctor")]))
            .with_rule(deny_rule("deny-interns", vec![role("intern")]));
        let analysis = analyze([&p]);
        assert!(analysis.conflicts.is_empty(), "{:?}", analysis.conflicts);
    }

    #[test]
    fn overlapping_opposite_effects_conflict() {
        let p = Policy::new("p", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("permit-doctors", vec![role("doctor")]))
            .with_rule(deny_rule("deny-ehr", vec![resource_glob("ehr/*")]));
        // A doctor reading ehr/1 hits both.
        let analysis = analyze([&p]);
        assert_eq!(analysis.conflicts.len(), 1);
        assert_eq!(analysis.conflicts[0].permit_rule.rule, "permit-doctors");
        assert_eq!(analysis.conflicts[0].deny_rule.rule, "deny-ehr");
    }

    #[test]
    fn cross_policy_conflicts_detected() {
        let a = Policy::new("domain-a", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("p", vec![resource_glob("shared/*")]));
        let b = Policy::new("domain-b", CombiningAlg::DenyOverrides)
            .with_rule(deny_rule("d", vec![resource_glob("shared/data/*")]));
        let analysis = analyze([&a, &b]);
        assert_eq!(analysis.conflicts.len(), 1);
        assert_eq!(
            analysis.conflicts[0].permit_rule.policy.as_str(),
            "domain-a"
        );
    }

    #[test]
    fn glob_disjoint_prefixes_cleared() {
        let a = Policy::new("a", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("p", vec![resource_glob("ehr/*")]));
        let b = Policy::new("b", CombiningAlg::DenyOverrides)
            .with_rule(deny_rule("d", vec![resource_glob("lab/*")]));
        assert!(analyze([&a, &b]).conflicts.is_empty());
    }

    #[test]
    fn range_constraints_respected() {
        let age = |op, v: i64| AttrMatch::new(AttributeId::subject("age"), op, v);
        let a = Policy::new("a", CombiningAlg::DenyOverrides).with_rule(permit_rule(
            "adults",
            vec![age(MatchOp::GreaterOrEqual, 18)],
        ));
        let b = Policy::new("b", CombiningAlg::DenyOverrides)
            .with_rule(deny_rule("minors", vec![age(MatchOp::LessThan, 18)]));
        assert!(analyze([&a, &b]).conflicts.is_empty());

        let c = Policy::new("c", CombiningAlg::DenyOverrides)
            .with_rule(deny_rule("under-21", vec![age(MatchOp::LessThan, 21)]));
        let analysis = analyze([&a, &c]);
        assert_eq!(analysis.conflicts.len(), 1);
    }

    #[test]
    fn policy_target_narrows_rules() {
        // Policy targets disjoint resources, so identical rules can't clash.
        let a = Policy::new("a", CombiningAlg::DenyOverrides)
            .with_target(Target::all(vec![resource_glob("ehr/*")]))
            .with_rule(permit_rule("p", vec![role("doctor")]));
        let b = Policy::new("b", CombiningAlg::DenyOverrides)
            .with_target(Target::all(vec![resource_glob("lab/*")]))
            .with_rule(deny_rule("d", vec![role("doctor")]));
        assert!(analyze([&a, &b]).conflicts.is_empty());
    }

    #[test]
    fn same_effect_never_conflicts() {
        let p = Policy::new("p", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("p1", vec![]))
            .with_rule(permit_rule("p2", vec![]));
        assert!(analyze([&p]).conflicts.is_empty());
    }

    #[test]
    fn shadowing_detected_in_first_applicable() {
        let p = Policy::new("p", CombiningAlg::FirstApplicable)
            .with_rule(permit_rule("broad", vec![resource_glob("ehr/*")]))
            .with_rule(deny_rule("narrow", vec![resource_glob("ehr/*")]));
        let analysis = analyze([&p]);
        assert_eq!(analysis.shadowings.len(), 1);
        assert_eq!(analysis.shadowings[0].shadowed.rule, "narrow");
    }

    #[test]
    fn conditioned_rule_does_not_shadow() {
        let mut broad = permit_rule("broad", vec![resource_glob("ehr/*")]);
        broad.condition = Some(crate::expr::Expr::val(true));
        let p = Policy::new("p", CombiningAlg::FirstApplicable)
            .with_rule(broad)
            .with_rule(deny_rule("narrow", vec![resource_glob("ehr/*")]));
        assert!(analyze([&p]).shadowings.is_empty());
    }

    #[test]
    fn runtime_resolution_table() {
        assert_eq!(
            runtime_resolution(CombiningAlg::DenyOverrides),
            Decision::Deny
        );
        assert_eq!(
            runtime_resolution(CombiningAlg::PermitOverrides),
            Decision::Permit
        );
        assert_eq!(
            runtime_resolution(CombiningAlg::FirstApplicable),
            Decision::Indeterminate
        );
        assert_eq!(
            runtime_resolution(CombiningAlg::DenyUnlessPermit),
            Decision::Permit
        );
        assert_eq!(
            runtime_resolution(CombiningAlg::PermitUnlessDeny),
            Decision::Deny
        );
    }

    #[test]
    fn match_overlap_matrix() {
        let eq = |v: &str| AttrMatch::equals(AttributeId::subject("x"), v);
        let gl = |p: &str| AttrMatch::glob(AttributeId::subject("x"), p);
        assert!(matches_may_overlap(&eq("a"), &eq("a")));
        assert!(!matches_may_overlap(&eq("a"), &eq("b")));
        assert!(matches_may_overlap(&eq("abc"), &gl("a*")));
        assert!(!matches_may_overlap(&eq("xyz"), &gl("a*")));
        assert!(matches_may_overlap(&gl("a*"), &gl("ab*")));
        assert!(!matches_may_overlap(&gl("a*"), &gl("b*")));
    }

    #[test]
    fn work_metric_counts_comparisons() {
        let p = Policy::new("p", CombiningAlg::DenyOverrides)
            .with_rule(permit_rule("p1", vec![role("doctor")]))
            .with_rule(deny_rule("d1", vec![role("doctor")]));
        let analysis = analyze([&p]);
        assert!(analysis.cubes_compared >= 1);
        assert_eq!(analysis.conflicts.len(), 1);
    }
}
