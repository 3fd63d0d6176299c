//! Glob pattern matching (`*` and `?`) used by targets and string
//! functions — e.g. resource hierarchies such as `ehr/records/*`.

use std::str::Chars;

/// Matches `text` against `pattern`, where `*` matches any (possibly
/// empty) substring and `?` matches exactly one character.
///
/// Matching is case-sensitive and operates on Unicode scalar values.
///
/// # Examples
///
/// ```
/// use dacs_policy::glob::glob_match;
///
/// assert!(glob_match("ehr/records/*", "ehr/records/42"));
/// assert!(glob_match("user-??", "user-ab"));
/// assert!(!glob_match("ehr/*", "lab/1"));
/// ```
pub fn glob_match(pattern: &str, text: &str) -> bool {
    // Classic iterative matcher with single-star backtracking, walking
    // both strings in place: a `Chars` is two pointers, so saving a
    // position is a copy and nothing is collected.
    let mut p = pattern.chars();
    let mut t = text.chars();
    // (pattern just after the last '*', text where that '*' ends so far)
    let mut star: Option<(Chars<'_>, Chars<'_>)> = None;
    loop {
        let mut t_rest = t.clone();
        let Some(tc) = t_rest.next() else { break };
        let mut p_rest = p.clone();
        match p_rest.next() {
            // Before the literal arm: a pattern `*` is a wildcard even
            // when the text character opposite it is itself a `*`.
            Some('*') => {
                star = Some((p_rest.clone(), t.clone()));
                p = p_rest;
            }
            Some(pc) if pc == '?' || pc == tc => {
                p = p_rest;
                t = t_rest;
            }
            _ => match &mut star {
                // Backtrack: let the last '*' swallow one more character.
                Some((after_star, swallowed_to)) => {
                    swallowed_to.next();
                    p = after_star.clone();
                    t = swallowed_to.clone();
                }
                None => return false,
            },
        }
    }
    p.all(|c| c == '*')
}

/// The literal text of `pattern` before its first `*` or `?`. Every
/// text the pattern matches starts with it, so a text that does not is
/// ruled out without running the matcher — what conflict analysis and
/// the evaluator's target index both rely on.
pub(crate) fn literal_prefix(pattern: &str) -> &str {
    let end = pattern.find(['*', '?']).unwrap_or(pattern.len());
    &pattern[..end]
}

/// Conservatively decides whether two glob patterns could match a common
/// string. Used by static conflict analysis: a `false` answer is always
/// sound (no overlap); `true` may be a false positive.
pub fn globs_may_overlap(a: &str, b: &str) -> bool {
    let (pa, pb) = (literal_prefix(a), literal_prefix(b));
    // Exact match when neither has wildcards.
    match (pa.len() < a.len(), pb.len() < b.len()) {
        (false, false) => a == b,
        (false, true) => glob_match(b, a),
        (true, false) => glob_match(a, b),
        (true, true) => {
            // If the literal prefixes disagree where both have text,
            // no common string exists.
            let n = pa.len().min(pb.len());
            pa.as_bytes()[..n] == pb.as_bytes()[..n]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn literal_prefix_is_the_text_before_the_first_wildcard() {
        assert_eq!(literal_prefix("ehr/records/*"), "ehr/records/");
        assert_eq!(literal_prefix("*.pdf"), "");
        assert_eq!(literal_prefix("exact"), "exact");
    }

    /// The matcher as it was before it walked in place: both strings
    /// collected into `Vec<char>` and indexed. Kept as the oracle the
    /// in-place matcher is differentially tested against.
    fn glob_match_reference(pattern: &str, text: &str) -> bool {
        let p: Vec<char> = pattern.chars().collect();
        let t: Vec<char> = text.chars().collect();
        let (mut pi, mut ti) = (0usize, 0usize);
        let mut star: Option<(usize, usize)> = None; // (pattern idx after '*', text idx)
        while ti < t.len() {
            if pi < p.len() && p[pi] == '*' {
                star = Some((pi + 1, ti));
                pi += 1;
            } else if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
                pi += 1;
                ti += 1;
            } else if let Some((sp, st)) = star {
                pi = sp;
                ti = st + 1;
                star = Some((sp, st + 1));
            } else {
                return false;
            }
        }
        while pi < p.len() && p[pi] == '*' {
            pi += 1;
        }
        pi == p.len()
    }

    proptest! {
        /// Small alphabets so that patterns and texts collide often:
        /// one-, two- and three-byte scalars, `?` opposite a multi-byte
        /// char, runs of `*` inside and at the end of the pattern, a
        /// literal `*` in the text, and empty strings on either side.
        #[test]
        fn in_place_matcher_agrees_with_char_vector_reference(
            pattern in "[ab*?é日/]{0,7}[*]{0,3}",
            texts in prop::collection::vec("[ab*é日/]{0,9}", 1..48),
        ) {
            for text in &texts {
                prop_assert_eq!(
                    glob_match(&pattern, text),
                    glob_match_reference(&pattern, text),
                    "pattern {:?} text {:?}", pattern, text
                );
            }
        }
    }

    proptest! {
        /// What the target index and `globs_may_overlap` rest on: a
        /// matched text starts with the pattern's literal prefix. The
        /// alphabets hold a literal `*` on the text side (ISSUE 16's
        /// case) and multi-byte scalars on both.
        #[test]
        fn a_matched_text_starts_with_the_literal_prefix(
            pattern in "[ab/é]{0,4}[ab*?é日/]{0,5}",
            texts in prop::collection::vec("[ab*é日/]{0,9}", 1..48),
        ) {
            let prefix = literal_prefix(&pattern);
            prop_assert!(pattern.starts_with(prefix));
            prop_assert!(!prefix.contains(['*', '?']));
            for text in &texts {
                prop_assert!(
                    !glob_match(&pattern, text) || text.starts_with(prefix),
                    "pattern {:?} matched {:?} without its prefix {:?}", pattern, text, prefix
                );
            }
        }
    }

    #[test]
    fn literal_prefix_stops_at_the_first_metacharacter() {
        assert_eq!(literal_prefix(""), "");
        assert_eq!(literal_prefix("aux-3/*"), "aux-3/");
        assert_eq!(literal_prefix("l?b/*"), "l");
        assert_eq!(literal_prefix("*"), "");
        assert_eq!(literal_prefix("?x"), "");
        assert_eq!(literal_prefix("日é*日"), "日é");
        assert_eq!(literal_prefix("plain"), "plain");
        // A literal `*` in the text is still covered by the prefix rule.
        assert!(glob_match("aux/*", "aux/*x") && "aux/*x".starts_with(literal_prefix("aux/*")));
    }

    #[test]
    fn in_place_matcher_agrees_on_the_named_edge_cases() {
        let patterns = [
            "", "*", "**", "***", "?", "??", "a**", "**a", "a*?*", "é", "?é", "日?", "*日*", "a*",
            "*a", "a?c*", "*?",
        ];
        let texts = [
            "", "*", "**", "*a", "a*", "a", "é", "日", "aé", "é日", "日é日", "a*c", "abc", "aébc日",
        ];
        for pattern in patterns {
            for text in texts {
                assert_eq!(
                    glob_match(pattern, text),
                    glob_match_reference(pattern, text),
                    "pattern {pattern:?} text {text:?}"
                );
            }
        }
    }

    #[test]
    fn literal_match() {
        assert!(glob_match("abc", "abc"));
        assert!(!glob_match("abc", "abd"));
        assert!(!glob_match("abc", "ab"));
        assert!(!glob_match("ab", "abc"));
    }

    #[test]
    fn star_matches_any_run() {
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a*c", "ac"));
        assert!(glob_match("a*c", "abbbc"));
        assert!(!glob_match("a*c", "abbbd"));
    }

    #[test]
    fn question_matches_one() {
        assert!(glob_match("?", "x"));
        assert!(!glob_match("?", ""));
        assert!(!glob_match("?", "xy"));
        assert!(glob_match("a?c", "abc"));
    }

    #[test]
    fn multiple_stars_backtrack() {
        assert!(glob_match("*a*b*", "xaxbx"));
        assert!(glob_match("**", "abc"));
        assert!(!glob_match("*a*b*", "bxa"));
    }

    /// Regression (ISSUE 16): a `*` in the text opposite a pattern `*`
    /// was consumed as a literal, so the wildcard matched nothing after
    /// it — a deny target `aux/*` did not cover resource `aux/*x`.
    #[test]
    fn pattern_star_is_a_wildcard_opposite_a_literal_star() {
        assert!(glob_match("*", "*abc"));
        assert!(glob_match("aux/*", "aux/*x"));
        assert!(glob_match("a*b", "a*xb"));
        assert!(glob_match("*", "**"));
        assert!(!glob_match("a*b", "a*xc"));
    }

    #[test]
    fn resource_hierarchies() {
        assert!(glob_match("ehr/*/labs", "ehr/patient-9/labs"));
        assert!(!glob_match("ehr/*/labs", "ehr/patient-9/notes"));
        assert!(glob_match("ehr/**", "ehr/a/b/c"));
    }

    #[test]
    fn unicode_text() {
        assert!(glob_match("caf?", "café"));
        assert!(glob_match("*é", "café"));
    }

    #[test]
    fn overlap_literal_vs_literal() {
        assert!(globs_may_overlap("a", "a"));
        assert!(!globs_may_overlap("a", "b"));
    }

    #[test]
    fn overlap_literal_vs_glob() {
        assert!(globs_may_overlap("ehr/1", "ehr/*"));
        assert!(!globs_may_overlap("lab/1", "ehr/*"));
        assert!(globs_may_overlap("ehr/*", "ehr/1"));
    }

    #[test]
    fn overlap_glob_vs_glob_prefix_rule() {
        assert!(globs_may_overlap("ehr/*", "ehr/records/*"));
        assert!(!globs_may_overlap("lab/*", "ehr/*"));
        // Conservative: same prefix up to wildcard counts as overlap.
        assert!(globs_may_overlap("e*", "ehr/*"));
    }
}
