//! Targets: the indexable applicability test of rules, policies and
//! policy sets (XACML `<Target>`).
//!
//! A target is a conjunction of [`AnyOf`] clauses; each `AnyOf` is a
//! disjunction of [`AllOf`] clauses; each `AllOf` is a conjunction of
//! attribute [`AttrMatch`]es. An empty target matches every request.
//!
//! Indexable means: some targets name a value the request *must* carry
//! (an `Equals` literal, the literal prefix of a `Glob` pattern), and
//! the per-set index [`resolve_references`](crate::eval::resolve_references)
//! builds posts a child under those values, so that a request without
//! them never reaches the child.

use crate::attr::{AttrValue, AttributeId};
use crate::glob::{glob_match, literal_prefix};
use crate::request::RequestContext;
use serde::{Deserialize, Serialize};

/// Comparison operators usable in target matches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum MatchOp {
    /// Type-strict equality.
    Equals,
    /// Glob match: the match value is the pattern, the request value the
    /// text.
    Glob,
    /// Attribute value strictly greater than the match value.
    GreaterThan,
    /// Attribute value greater than or equal to the match value.
    GreaterOrEqual,
    /// Attribute value strictly less than the match value.
    LessThan,
    /// Attribute value less than or equal to the match value.
    LessOrEqual,
    /// Attribute string contains the match string.
    Contains,
}

impl MatchOp {
    /// DSL symbol for the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            MatchOp::Equals => "==",
            MatchOp::Glob => "~=",
            MatchOp::GreaterThan => ">",
            MatchOp::GreaterOrEqual => ">=",
            MatchOp::LessThan => "<",
            MatchOp::LessOrEqual => "<=",
            MatchOp::Contains => "contains",
        }
    }
}

/// Result of evaluating a target against a request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MatchResult {
    /// The target applies to the request.
    Match,
    /// The target does not apply.
    NoMatch,
    /// The applicability could not be determined (type error).
    Indeterminate,
}

/// What a request's bag must hold for an [`AttrMatch`] to succeed: the
/// key the target index posts the match's owner under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MatchKey<'a> {
    /// A value equal to this literal (an `Equals` match).
    Equals(&'a AttrValue),
    /// A string that starts with this non-empty text (a `Glob` match;
    /// the text is the pattern's [`literal_prefix`]).
    Prefix(&'a str),
}

/// A single attribute match: `attr OP value`.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct AttrMatch {
    /// The request attribute examined.
    pub attr: AttributeId,
    /// The comparison operator.
    pub op: MatchOp,
    /// The literal value compared against.
    pub value: AttrValue,
}

impl AttrMatch {
    /// Creates an attribute match.
    pub fn new(attr: AttributeId, op: MatchOp, value: impl Into<AttrValue>) -> Self {
        AttrMatch {
            attr,
            op,
            value: value.into(),
        }
    }

    /// Equality match shorthand.
    pub fn equals(attr: AttributeId, value: impl Into<AttrValue>) -> Self {
        Self::new(attr, MatchOp::Equals, value)
    }

    /// Glob match shorthand (`value` is the pattern).
    pub fn glob(attr: AttributeId, pattern: impl Into<String>) -> Self {
        Self::new(attr, MatchOp::Glob, AttrValue::from(pattern.into()))
    }

    /// Evaluates this match against a request.
    ///
    /// A match succeeds if *any* value in the request's bag satisfies the
    /// operator (XACML match semantics). A missing attribute yields
    /// `NoMatch`; a type-incompatible comparison yields `Indeterminate`.
    pub(crate) fn evaluate(&self, request: &RequestContext) -> MatchResult {
        let bag = request.bag(&self.attr);
        if bag.is_empty() {
            return MatchResult::NoMatch;
        }
        let mut indeterminate = false;
        for v in bag {
            match self.matches_value(v) {
                Some(true) => return MatchResult::Match,
                Some(false) => {}
                None => indeterminate = true,
            }
        }
        if indeterminate {
            MatchResult::Indeterminate
        } else {
            MatchResult::NoMatch
        }
    }

    /// The key without which this match is `NoMatch`, if it has one.
    ///
    /// `Equals` never answers `None` in [`AttrMatch::matches_value`], so
    /// a bag without the literal is `NoMatch` outright. A `Glob` with a
    /// string pattern is `NoMatch` on a bag of strings none of which
    /// starts with the pattern's literal prefix — but `Indeterminate` on
    /// a bag holding any other type, which the index must check for. A
    /// pattern that opens with `*` or `?` has no prefix to ask for, the
    /// range operators and `Contains` name no value at all, and a `Glob`
    /// whose pattern is not a string is `Indeterminate` on every
    /// non-empty bag: none of them has a key.
    pub(crate) fn key(&self) -> Option<MatchKey<'_>> {
        match (self.op, &self.value) {
            (MatchOp::Equals, literal) => Some(MatchKey::Equals(literal)),
            (MatchOp::Glob, AttrValue::String(pattern)) => Some(literal_prefix(pattern))
                .filter(|prefix| !prefix.is_empty())
                .map(MatchKey::Prefix),
            _ => None,
        }
    }

    /// Applies the operator to a single request value. `None` = type
    /// error.
    pub(crate) fn matches_value(&self, request_value: &AttrValue) -> Option<bool> {
        use std::cmp::Ordering;
        match self.op {
            MatchOp::Equals => Some(request_value == &self.value),
            MatchOp::Glob => match (&self.value, request_value) {
                (AttrValue::String(pattern), AttrValue::String(text)) => {
                    Some(glob_match(pattern, text))
                }
                _ => None,
            },
            MatchOp::Contains => match (&self.value, request_value) {
                (AttrValue::String(needle), AttrValue::String(hay)) => {
                    Some(hay.contains(needle.as_str()))
                }
                _ => None,
            },
            MatchOp::GreaterThan
            | MatchOp::GreaterOrEqual
            | MatchOp::LessThan
            | MatchOp::LessOrEqual => {
                let ord = request_value.partial_cmp_same_type(&self.value)?;
                Some(match self.op {
                    MatchOp::GreaterThan => ord == Ordering::Greater,
                    MatchOp::GreaterOrEqual => ord != Ordering::Less,
                    MatchOp::LessThan => ord == Ordering::Less,
                    MatchOp::LessOrEqual => ord != Ordering::Greater,
                    _ => unreachable!(),
                })
            }
        }
    }
}

/// Conjunction of attribute matches.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct AllOf {
    /// Matches that must all succeed.
    pub matches: Vec<AttrMatch>,
}

impl AllOf {
    /// Creates a conjunction from matches.
    pub fn new(matches: Vec<AttrMatch>) -> Self {
        AllOf { matches }
    }

    fn evaluate(&self, request: &RequestContext) -> MatchResult {
        let mut result = MatchResult::Match;
        for m in &self.matches {
            match m.evaluate(request) {
                MatchResult::Match => {}
                MatchResult::NoMatch => return MatchResult::NoMatch,
                MatchResult::Indeterminate => result = MatchResult::Indeterminate,
            }
        }
        result
    }
}

/// Disjunction of [`AllOf`] conjunctions.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct AnyOf {
    /// Alternatives; one must match.
    pub all_ofs: Vec<AllOf>,
}

impl AnyOf {
    /// Creates a disjunction from alternatives.
    pub fn new(all_ofs: Vec<AllOf>) -> Self {
        AnyOf { all_ofs }
    }

    fn evaluate(&self, request: &RequestContext) -> MatchResult {
        let mut result = MatchResult::NoMatch;
        for a in &self.all_ofs {
            match a.evaluate(request) {
                MatchResult::Match => return MatchResult::Match,
                MatchResult::NoMatch => {}
                MatchResult::Indeterminate => result = MatchResult::Indeterminate,
            }
        }
        result
    }
}

/// A full target: conjunction of [`AnyOf`] clauses. Empty = match all.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Target {
    /// Clauses that must all match.
    pub any_ofs: Vec<AnyOf>,
}

impl Target {
    /// The empty target, which matches every request.
    pub(crate) fn match_all() -> Self {
        Target::default()
    }

    /// A target that is a simple conjunction of matches.
    pub fn all(matches: Vec<AttrMatch>) -> Self {
        Target {
            any_ofs: matches
                .into_iter()
                .map(|m| AnyOf::new(vec![AllOf::new(vec![m])]))
                .collect(),
        }
    }

    /// Whether this target matches everything trivially.
    pub(crate) fn is_match_all(&self) -> bool {
        self.any_ofs.is_empty()
    }

    /// Evaluates the target against a request.
    pub(crate) fn evaluate(&self, request: &RequestContext) -> MatchResult {
        let mut result = MatchResult::Match;
        for any in &self.any_ofs {
            match any.evaluate(request) {
                MatchResult::Match => {}
                MatchResult::NoMatch => return MatchResult::NoMatch,
                MatchResult::Indeterminate => result = MatchResult::Indeterminate,
            }
        }
        result
    }

    /// The keys one of which a request must carry under `attr` for this
    /// target to match, if the target demands any: those of its first
    /// `AnyOf` whose every `AllOf` holds a keyed match on `attr`.
    ///
    /// A request carrying none of them fails one match in each of that
    /// `AnyOf`'s `AllOf`s; a `NoMatch` decides an `AllOf` whatever its
    /// other matches say, all-`NoMatch` decides the `AnyOf`, and one
    /// `NoMatch` `AnyOf` decides the target — an `Indeterminate`
    /// elsewhere in it cannot surface.
    pub(crate) fn required_keys(&self, attr: &AttributeId) -> Option<Vec<MatchKey<'_>>> {
        self.any_ofs.iter().find_map(|any| {
            any.all_ofs
                .iter()
                .map(|all| {
                    let mut on_attr = all.matches.iter().filter(|m| &m.attr == attr);
                    on_attr.find_map(AttrMatch::key)
                })
                .collect()
        })
    }

    /// The first attribute this target demands a value of, with the
    /// keys ([`Target::required_keys`]).
    pub(crate) fn requirement(&self) -> Option<(&AttributeId, Vec<MatchKey<'_>>)> {
        self.all_matches()
            .find_map(|m| Some((&m.attr, self.required_keys(&m.attr)?)))
    }

    /// All attribute matches mentioned anywhere in the target (used by
    /// conflict analysis and target indexing).
    pub(crate) fn all_matches(&self) -> impl Iterator<Item = &AttrMatch> {
        self.any_ofs
            .iter()
            .flat_map(|any| any.all_ofs.iter())
            .flat_map(|all| all.matches.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RequestContext {
        RequestContext::basic("alice", "ehr/records/42", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("age", 42i64)
    }

    #[test]
    fn empty_target_matches_all() {
        assert_eq!(Target::match_all().evaluate(&req()), MatchResult::Match);
        assert!(Target::match_all().is_match_all());
    }

    #[test]
    fn equality_match() {
        let t = Target::all(vec![AttrMatch::equals(
            AttributeId::subject("role"),
            "doctor",
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::Match);
        let t = Target::all(vec![AttrMatch::equals(
            AttributeId::subject("role"),
            "nurse",
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::NoMatch);
    }

    #[test]
    fn glob_match_on_resource() {
        let t = Target::all(vec![AttrMatch::glob(
            AttributeId::resource("id"),
            "ehr/records/*",
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::Match);
        let t = Target::all(vec![AttrMatch::glob(AttributeId::resource("id"), "lab/*")]);
        assert_eq!(t.evaluate(&req()), MatchResult::NoMatch);
    }

    #[test]
    fn missing_attribute_is_no_match() {
        let t = Target::all(vec![AttrMatch::equals(
            AttributeId::subject("clearance"),
            "secret",
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::NoMatch);
    }

    #[test]
    fn type_error_is_indeterminate() {
        // Glob against an integer attribute value.
        let t = Target::all(vec![AttrMatch::glob(AttributeId::subject("age"), "4*")]);
        assert_eq!(t.evaluate(&req()), MatchResult::Indeterminate);
    }

    #[test]
    fn ordering_matches() {
        let t = Target::all(vec![AttrMatch::new(
            AttributeId::subject("age"),
            MatchOp::GreaterOrEqual,
            18i64,
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::Match);
        let t = Target::all(vec![AttrMatch::new(
            AttributeId::subject("age"),
            MatchOp::LessThan,
            18i64,
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::NoMatch);
    }

    #[test]
    fn disjunction_within_any_of() {
        let t = Target {
            any_ofs: vec![AnyOf::new(vec![
                AllOf::new(vec![AttrMatch::equals(
                    AttributeId::subject("role"),
                    "admin",
                )]),
                AllOf::new(vec![AttrMatch::equals(
                    AttributeId::subject("role"),
                    "doctor",
                )]),
            ])],
        };
        assert_eq!(t.evaluate(&req()), MatchResult::Match);
    }

    #[test]
    fn conjunction_across_any_ofs() {
        let t = Target::all(vec![
            AttrMatch::equals(AttributeId::subject("role"), "doctor"),
            AttrMatch::equals(AttributeId::action("id"), "write"),
        ]);
        // role matches but action doesn't.
        assert_eq!(t.evaluate(&req()), MatchResult::NoMatch);
    }

    #[test]
    fn bag_semantics_any_value_matches() {
        let mut r = req();
        r.add(AttributeId::subject("role"), "researcher");
        let t = Target::all(vec![AttrMatch::equals(
            AttributeId::subject("role"),
            "researcher",
        )]);
        assert_eq!(t.evaluate(&r), MatchResult::Match);
    }

    #[test]
    fn contains_operator() {
        let t = Target::all(vec![AttrMatch::new(
            AttributeId::resource("id"),
            MatchOp::Contains,
            "records",
        )]);
        assert_eq!(t.evaluate(&req()), MatchResult::Match);
    }

    #[test]
    fn all_matches_iterates_everything() {
        let t = Target::all(vec![
            AttrMatch::equals(AttributeId::subject("role"), "doctor"),
            AttrMatch::equals(AttributeId::action("id"), "read"),
        ]);
        assert_eq!(t.all_matches().count(), 2);
    }
}
