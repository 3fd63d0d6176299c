//! The target index of a resolved policy set: which children a request
//! can possibly apply to, found by look-up instead of by scanning every
//! child's target.
//!
//! Built once per resolved tree by
//! [`resolve_references`](crate::eval::resolve_references) and read by
//! the evaluator's one loop over a set's children. The contract is a
//! single sentence: **a child the index leaves out is one the scan
//! would have answered `NotApplicable`, `Status::Ok`, no obligations** —
//! which every combining algorithm ignores, so the response is the
//! scan's, byte for byte. The rules that keep it:
//!
//! * **What posts.** A child is posted under the keys of the first
//!   attribute its own target demands a value of
//!   (`Target::requirement`): `Equals` literals, and the literal prefix
//!   of `Glob` patterns. A policy whose own target is match-all and
//!   whose rule-combining algorithm is `deny-overrides`,
//!   `permit-overrides` or `first-applicable` — the three that answer
//!   `NotApplicable` when every rule does — is posted under the union of
//!   the keys *every* rule's target demands on one common attribute:
//!   with none of them in the request no rule's target matches, no
//!   condition is reached, and `NotApplicable` attaches no obligation.
//! * **What is always a candidate.** Everything else: match-all
//!   targets, globs that open with `*` or `?`, `Contains`, the four
//!   range operators, a `PolicyRef` / `PolicySetRef` left unresolved
//!   (it is `Indeterminate`), and `deny-unless-permit` /
//!   `permit-unless-deny` policies with a match-all own target (they
//!   never answer `NotApplicable`).
//! * **An empty bag skips.** `AttrMatch::evaluate` answers `NoMatch`
//!   for an attribute the request does not carry, so a request with no
//!   value for an indexed attribute hits no posting on it.
//! * **A multi-valued bag takes the union** of its values' hits: a
//!   match succeeds if any value satisfies it.
//! * **A non-string value under a glob posting makes the set scan.**
//!   `matches_value` answers `None` there and the match is
//!   `Indeterminate`, never skippable. So does a request whose values
//!   hit more lists than the merge has cursors.
//! * **`only-one-applicable` sets are not indexed.** Their
//!   applicability test reads own targets only; a child left out on its
//!   rules' account would change the count of applicable children.
//! * **A set whose children are all always-candidates builds nothing**
//!   and pays nothing: [`SetIndex::candidates`] is then the plain range.
//!
//! Every resolved tree is indexed: a tree's shape is judged once, by the
//! resolver, before an index is built, and the evaluator counts nothing
//! an index could move.

use crate::attr::{AttrValue, AttributeId};
use crate::policy::{CombiningAlg, Policy, PolicyElement, PolicySet};
use crate::request::RequestContext;
use crate::target::MatchKey;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Posting lists one request may hit in one set before the set is
/// scanned instead: the always list plus seven hits.
const MAX_LISTS: usize = 8;

/// The index of one inline policy set and, by position, of the sets
/// nested in it.
#[derive(Debug)]
pub(crate) struct SetIndex {
    /// Children no posting can rule out, ascending.
    always: Vec<usize>,
    /// One entry per attribute some child is posted on; empty when this
    /// set scans.
    attrs: Vec<Postings>,
    /// The index of child `i` where that child is an inline set with
    /// something indexed in it; empty when no child is.
    nested: Vec<Option<SetIndex>>,
}

/// The children that demand a value of `attr` — a category and an
/// interned name, compared as 8 bytes — by the value demanded. Every
/// list is ascending and free of repeats.
#[derive(Debug)]
struct Postings {
    attr: AttributeId,
    equals: HashMap<AttrValue, Vec<usize>>,
    /// Literal prefixes by their bytes, which a request's string is
    /// read as: no value is checked as UTF-8 to look it up.
    prefixes: BTreeMap<Box<[u8]>, Vec<usize>>,
    /// The distinct byte lengths of `prefixes`' keys, ascending: a
    /// string is looked up once per length, not once per key.
    prefix_lens: Vec<usize>,
}

impl SetIndex {
    /// Indexes `set` and the sets nested in it; `None` when there is
    /// nothing in the whole subtree to look up.
    pub(crate) fn build(set: &PolicySet) -> Option<SetIndex> {
        let mut index = SetIndex {
            always: Vec::new(),
            attrs: Vec::new(),
            nested: Vec::new(),
        };
        // An `only-one-applicable` set keeps no postings of its own.
        if set.policy_combining != CombiningAlg::OnlyOneApplicable {
            for (i, child) in set.elements.iter().enumerate() {
                match requirement(child) {
                    Some((attr, keys)) => index.post(i, attr, &keys),
                    None => index.always.push(i),
                }
            }
        }
        if index.attrs.is_empty() {
            index.always = Vec::new();
        }
        let nested: Vec<_> = set.elements.iter().map(nested_index).collect();
        if nested.iter().any(Option::is_some) {
            index.nested = nested;
        }
        (!index.attrs.is_empty() || !index.nested.is_empty()).then_some(index)
    }

    fn post(&mut self, child: usize, attr: &AttributeId, keys: &[MatchKey<'_>]) {
        let at = match self.attrs.iter().position(|p| &p.attr == attr) {
            Some(at) => at,
            None => {
                self.attrs.push(Postings {
                    attr: *attr,
                    equals: HashMap::new(),
                    prefixes: BTreeMap::new(),
                    prefix_lens: Vec::new(),
                });
                self.attrs.len() - 1
            }
        };
        let postings = &mut self.attrs[at];
        for key in keys {
            let list = match *key {
                MatchKey::Equals(literal) => postings.equals.entry(literal.clone()).or_default(),
                MatchKey::Prefix(prefix) => {
                    if let Err(at) = postings.prefix_lens.binary_search(&prefix.len()) {
                        postings.prefix_lens.insert(at, prefix.len());
                    }
                    postings
                        .prefixes
                        .entry(prefix.as_bytes().into())
                        .or_default()
                }
            };
            // Children arrive in ascending order, so a repeat (two
            // `AllOf`s, or two rules, with the same key) is the last entry.
            if list.last() != Some(&child) {
                list.push(child);
            }
        }
    }

    /// The index of the inline set at position `child`, if it has one.
    pub(crate) fn nested(&self, child: usize) -> Option<&SetIndex> {
        self.nested.get(child)?.as_ref()
    }

    /// The positions of the children of this `len`-child set that
    /// `request` can apply to, ascending: document order, which
    /// `first-applicable` depends on.
    pub(crate) fn candidates<'a>(&'a self, request: &RequestContext, len: usize) -> Candidates<'a> {
        if self.attrs.is_empty() {
            return Candidates::All(0..len);
        }
        let mut lists: [&[usize]; MAX_LISTS] = [&[]; MAX_LISTS];
        lists[0] = &self.always;
        let mut free = lists[1..].iter_mut();
        // Takes a cursor for a posting list that was hit; `false` when
        // there is none left.
        let mut hit = |list: Option<&'a Vec<usize>>| match list {
            Some(list) => free
                .next()
                .map(|cursor| *cursor = list.as_slice())
                .is_some(),
            None => true,
        };
        for postings in &self.attrs {
            for value in request.bag(&postings.attr) {
                if !hit(postings.equals.get(value)) {
                    return Candidates::All(0..len);
                }
                if postings.prefixes.is_empty() {
                    continue;
                }
                let Some(text) = value.as_text() else {
                    return Candidates::All(0..len);
                };
                for &prefix_len in &postings.prefix_lens {
                    // `get` is `None` past the end: no key of that length
                    // is a prefix of `text` then. A cut inside a char
                    // equals no key, since every key ends at a char's end.
                    let Some(prefix) = text.as_bytes().get(..prefix_len) else {
                        continue;
                    };
                    if !hit(postings.prefixes.get(prefix)) {
                        return Candidates::All(0..len);
                    }
                }
            }
        }
        Candidates::Merged(lists)
    }
}

fn nested_index(child: &PolicyElement) -> Option<SetIndex> {
    match child {
        PolicyElement::PolicySet(set) => SetIndex::build(set),
        _ => None,
    }
}

/// The attribute a child demands a value of, and the keys it accepts;
/// `None` puts the child on the always list.
fn requirement(child: &PolicyElement) -> Option<(&AttributeId, Vec<MatchKey<'_>>)> {
    match child {
        PolicyElement::Policy(policy) => policy
            .target
            .requirement()
            .or_else(|| rules_requirement(policy)),
        PolicyElement::PolicySet(set) => set.target.requirement(),
        PolicyElement::PolicyRef(_) | PolicyElement::PolicySetRef(_) => None,
    }
}

/// The first attribute every rule of `policy` demands a value of, with
/// the union of the rules' keys — for the policies that are
/// `NotApplicable` when all their rules are.
fn rules_requirement(policy: &Policy) -> Option<(&AttributeId, Vec<MatchKey<'_>>)> {
    let not_applicable_when_no_rule_is = matches!(
        policy.rule_combining,
        CombiningAlg::DenyOverrides | CombiningAlg::PermitOverrides | CombiningAlg::FirstApplicable
    );
    if !policy.target.is_match_all() || !not_applicable_when_no_rule_is {
        return None;
    }
    let (first, rest) = policy.rules.split_first()?;
    first.target.all_matches().find_map(|m| {
        let mut keys = first.target.required_keys(&m.attr)?;
        for rule in rest {
            keys.extend(rule.target.required_keys(&m.attr)?);
        }
        Some((&m.attr, keys))
    })
}

/// The children of one set to evaluate for one request, in document
/// order.
#[derive(Debug)]
pub(crate) enum Candidates<'a> {
    /// Every child: the set has no index, or this request cannot use it.
    All(Range<usize>),
    /// The union of ascending posting lists, merged as it is read; the
    /// unused cursors are empty.
    Merged([&'a [usize]; MAX_LISTS]),
}

impl Iterator for Candidates<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::All(range) => range.next(),
            Candidates::Merged(lists) => {
                let next = *lists.iter().filter_map(|list| list.first()).min()?;
                // A child two lists hold (two of its keys were hit) is
                // taken off both.
                for list in lists.iter_mut() {
                    if list.first() == Some(&next) {
                        *list = &list[1..];
                    }
                }
                Some(next)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Effect, PolicyId, Rule};
    use crate::target::{AllOf, AnyOf, AttrMatch, MatchOp, Target};

    fn resource() -> AttributeId {
        AttributeId::resource("id")
    }

    fn glob_target(pattern: &str) -> Target {
        Target::all(vec![AttrMatch::glob(resource(), pattern)])
    }

    /// A policy that demands nothing of its own; `alg` decides whether
    /// its rules may speak for it.
    fn policy_with_rule_targets(alg: CombiningAlg, targets: Vec<Target>) -> Policy {
        let mut policy = Policy::new("p", alg);
        for (r, target) in targets.into_iter().enumerate() {
            policy = policy.with_rule(Rule::new(format!("r{r}"), Effect::Deny).with_target(target));
        }
        policy
    }

    fn policy_with_target(target: Target) -> Policy {
        Policy::new("p", CombiningAlg::DenyUnlessPermit)
            .with_target(target)
            .with_rule(Rule::new("ok", Effect::Permit))
    }

    fn set_of(policies: Vec<Policy>) -> PolicySet {
        let mut set = PolicySet::new("root", CombiningAlg::DenyOverrides);
        for policy in policies {
            set = set.with_policy(policy);
        }
        set
    }

    fn candidates(set: &PolicySet, request: &RequestContext) -> Vec<usize> {
        let index = SetIndex::build(set).expect("the set has something to index");
        index.candidates(request, set.elements.len()).collect()
    }

    /// The benchmark's shape: a gate that is always a candidate and
    /// quarantine policies posted by their one rule's glob prefix.
    fn gate_and_quarantines() -> PolicySet {
        let mut policies = vec![Policy::new("gate", CombiningAlg::DenyUnlessPermit)];
        for k in 0..12 {
            policies.push(policy_with_rule_targets(
                CombiningAlg::DenyOverrides,
                vec![glob_target(&format!("aux-{k}/*"))],
            ));
        }
        set_of(policies)
    }

    #[test]
    fn a_request_reaches_the_always_list_and_the_postings_it_hits() {
        let set = gate_and_quarantines();
        let read = RequestContext::basic("u", "records/7", "read");
        assert_eq!(candidates(&set, &read), [0]);
        // `aux-1/` is a prefix of this id and `aux-11/` is not: one
        // look-up per distinct key length, not a guess from the first.
        let write = RequestContext::basic("u", "aux-1/x", "write");
        assert_eq!(candidates(&set, &write), [0, 2]);
        let write = RequestContext::basic("u", "aux-11/x", "write");
        assert_eq!(candidates(&set, &write), [0, 12]);
        // A multi-byte scalar across a key length is not a prefix hit.
        let odd = RequestContext::basic("u", "aux-1日", "write");
        assert_eq!(candidates(&set, &odd), [0]);
    }

    #[test]
    fn an_empty_bag_skips_the_children_posted_on_it() {
        let set = gate_and_quarantines();
        let mut no_resource = RequestContext::new();
        no_resource.add(AttributeId::subject("id"), "u");
        assert_eq!(candidates(&set, &no_resource), [0]);
    }

    #[test]
    fn a_non_string_value_under_a_glob_posting_makes_the_set_scan() {
        let set = gate_and_quarantines();
        let mut request = RequestContext::new();
        request.add(resource(), 7i64);
        let all: Vec<usize> = (0..set.elements.len()).collect();
        assert_eq!(candidates(&set, &request), all);
        // Beside a string too: the integer is `Indeterminate` for every
        // glob child the string does not match.
        request.add(resource(), "aux-3/x");
        assert_eq!(candidates(&set, &request), all);
        // Under equals-only postings a type mismatch is plain `NoMatch`.
        let by_literal = set_of(vec![
            policy_with_target(Target::all(vec![AttrMatch::equals(resource(), "a")])),
            policy_with_target(Target::all(vec![AttrMatch::equals(resource(), 7i64)])),
        ]);
        assert_eq!(candidates(&by_literal, &request), [1]);
    }

    #[test]
    fn a_multi_valued_bag_takes_the_union_of_its_hits_in_document_order() {
        let set = gate_and_quarantines();
        let mut request = RequestContext::basic("u", "aux-9/x", "write");
        request.add(resource(), "aux-2/y");
        request.add(resource(), "aux-9/z");
        assert_eq!(candidates(&set, &request), [0, 3, 10]);
        // More hits than cursors: the set scans, which is always sound.
        for k in 0..8 {
            request.add(resource(), format!("aux-{k}/w"));
        }
        let all: Vec<usize> = (0..set.elements.len()).collect();
        assert_eq!(candidates(&set, &request), all);
    }

    #[test]
    fn a_child_two_hit_lists_hold_is_a_candidate_once() {
        let either = Target {
            any_ofs: vec![AnyOf::new(vec![
                AllOf::new(vec![AttrMatch::equals(resource(), "aux/x")]),
                AllOf::new(vec![AttrMatch::glob(resource(), "aux/*")]),
            ])],
        };
        let set = set_of(vec![
            policy_with_target(glob_target("lab/*")),
            policy_with_target(either),
        ]);
        let request = RequestContext::basic("u", "aux/x", "read");
        assert_eq!(candidates(&set, &request), [1]);
    }

    #[test]
    fn what_names_no_value_goes_on_the_always_list() {
        let range = |op| Target::all(vec![AttrMatch::new(AttributeId::subject("age"), op, 18i64)]);
        let mut always = vec![
            policy_with_target(Target::match_all()),
            policy_with_target(glob_target("*/records")),
            policy_with_target(glob_target("?ux/*")),
            policy_with_target(Target::all(vec![AttrMatch::new(
                resource(),
                MatchOp::Contains,
                "records",
            )])),
            policy_with_target(range(MatchOp::GreaterThan)),
            policy_with_target(range(MatchOp::GreaterOrEqual)),
            policy_with_target(range(MatchOp::LessThan)),
            policy_with_target(range(MatchOp::LessOrEqual)),
            // A glob whose pattern is not a string is `Indeterminate`.
            policy_with_target(Target::all(vec![AttrMatch::new(
                resource(),
                MatchOp::Glob,
                7i64,
            )])),
            // One `AllOf` of the two demands nothing of `resource.id`.
            policy_with_target(Target {
                any_ofs: vec![AnyOf::new(vec![
                    AllOf::new(vec![AttrMatch::glob(resource(), "aux/*")]),
                    AllOf::new(vec![AttrMatch::equals(AttributeId::action("id"), "read")]),
                ])],
            }),
            // These never answer `NotApplicable`, whatever their rules
            // demand; nor does a policy one of whose rules demands
            // nothing, or whose rules demand different attributes.
            policy_with_rule_targets(CombiningAlg::DenyUnlessPermit, vec![glob_target("aux/*")]),
            policy_with_rule_targets(CombiningAlg::PermitUnlessDeny, vec![glob_target("aux/*")]),
            policy_with_rule_targets(CombiningAlg::OnlyOneApplicable, vec![glob_target("aux/*")]),
            policy_with_rule_targets(
                CombiningAlg::DenyOverrides,
                vec![glob_target("aux/*"), Target::match_all()],
            ),
            policy_with_rule_targets(
                CombiningAlg::DenyOverrides,
                vec![
                    glob_target("aux/*"),
                    Target::all(vec![AttrMatch::equals(AttributeId::action("id"), "read")]),
                ],
            ),
            policy_with_rule_targets(CombiningAlg::DenyOverrides, vec![]),
        ];
        for policy in &always {
            assert!(
                requirement(&PolicyElement::Policy(policy.clone())).is_none(),
                "{policy:?}"
            );
        }
        assert!(requirement(&PolicyElement::PolicyRef(PolicyId::new("absent"))).is_none());
        assert!(requirement(&PolicyElement::PolicySetRef(PolicyId::new("absent"))).is_none());

        // One posted child beside them: they are all candidates for a
        // request the posted child is not.
        always.push(policy_with_target(glob_target("lab/*")));
        let mut set = set_of(always);
        set.elements
            .push(PolicyElement::PolicyRef(PolicyId::new("absent")));
        let request = RequestContext::basic("u", "records/1", "read");
        let posted = set.elements.len() - 2;
        let expected: Vec<usize> = (0..set.elements.len()).filter(|&i| i != posted).collect();
        assert_eq!(candidates(&set, &request), expected);
    }

    #[test]
    fn rules_speak_for_a_match_all_policy_under_the_three_algorithms_that_can_be_not_applicable() {
        for alg in [
            CombiningAlg::DenyOverrides,
            CombiningAlg::PermitOverrides,
            CombiningAlg::FirstApplicable,
        ] {
            let policy = policy_with_rule_targets(
                alg,
                vec![
                    glob_target("aux/*"),
                    Target::all(vec![
                        AttrMatch::equals(AttributeId::action("id"), "read"),
                        AttrMatch::equals(resource(), "lab/1"),
                    ]),
                ],
            );
            let set = set_of(vec![policy]);
            for (id, expected) in [("aux/7", vec![0]), ("lab/1", vec![0]), ("lab/2", vec![])] {
                let request = RequestContext::basic("u", id, "write");
                assert_eq!(candidates(&set, &request), expected, "{alg} {id}");
            }
        }
    }

    #[test]
    fn an_only_one_applicable_set_is_not_indexed_but_the_sets_in_it_are() {
        let mut set = set_of(vec![
            policy_with_target(glob_target("aux/*")),
            policy_with_target(glob_target("lab/*")),
        ]);
        set.policy_combining = CombiningAlg::OnlyOneApplicable;
        assert!(SetIndex::build(&set).is_none());

        let outer = PolicySet::new("outer", CombiningAlg::OnlyOneApplicable)
            .with_policy(policy_with_target(glob_target("aux/*")))
            .with_policy_set(gate_and_quarantines());
        let index = SetIndex::build(&outer).expect("the nested set is indexed");
        let request = RequestContext::basic("u", "records/1", "read");
        assert_eq!(
            index.candidates(&request, 2).collect::<Vec<_>>(),
            [0, 1],
            "the outer set scans"
        );
        assert!(index.nested(0).is_none());
        let inner = index.nested(1).expect("by position");
        assert_eq!(inner.candidates(&request, 13).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn a_set_whose_children_are_all_always_candidates_builds_nothing() {
        let set = set_of(vec![
            policy_with_target(Target::match_all()),
            policy_with_target(glob_target("*")),
        ])
        .with_policy_ref("absent");
        assert!(SetIndex::build(&set).is_none());
        assert!(SetIndex::build(&PolicySet::new("empty", CombiningAlg::DenyOverrides)).is_none());
    }
}
