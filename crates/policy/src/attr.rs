//! Attribute model: categories, identifiers and typed values.
//!
//! Following the XACML request context model (§2.3 of the paper), every
//! piece of information an access decision can depend on is an
//! *attribute*: a ([`Category`], name) pair bound to a bag of typed
//! values. Categories partition attributes into those describing the
//! subject, the resource, the action and the environment.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// The four XACML attribute categories.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum Category {
    /// The entity requesting access (user or service).
    Subject,
    /// The protected entity access is requested to.
    Resource,
    /// The operation being attempted.
    Action,
    /// Ambient context: time, location, request history, ...
    Environment,
}

impl Category {
    /// All categories, in canonical order.
    pub const ALL: [Category; 4] = [
        Category::Subject,
        Category::Resource,
        Category::Action,
        Category::Environment,
    ];

    /// Short lowercase name used by the policy DSL.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Subject => "subject",
            Category::Resource => "resource",
            Category::Action => "action",
            Category::Environment => "env",
        }
    }

    /// Parses a DSL category name (accepts `env` or `environment`).
    pub fn parse(s: &str) -> Option<Category> {
        match s {
            "subject" => Some(Category::Subject),
            "resource" => Some(Category::Resource),
            "action" => Some(Category::Action),
            "env" | "environment" => Some(Category::Environment),
            _ => None,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An attribute's name. The conventional names — [`ID_ATTR`],
/// [`TIME_ATTR`] and `"role"`, which nearly every request and policy
/// carries — are borrowed from statics; any other name is owned. It
/// compares, orders, hashes, prints and serializes exactly as the `str`
/// it holds (`Cow`'s own comparisons and hash read through to it), so
/// which of the two it is never shows.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrName(Cow<'static, str>);

/// The names an [`AttrName`] shares instead of copying.
const CONVENTIONAL: [&str; 3] = [ID_ATTR, TIME_ATTR, "role"];

impl AttrName {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    fn conventional(name: &str) -> Option<&'static str> {
        CONVENTIONAL.into_iter().find(|known| *known == name)
    }
}

impl From<&str> for AttrName {
    fn from(name: &str) -> Self {
        AttrName(
            Self::conventional(name).map_or_else(|| Cow::Owned(name.to_owned()), Cow::Borrowed),
        )
    }
}

impl From<&String> for AttrName {
    fn from(name: &String) -> Self {
        Self::from(name.as_str())
    }
}

impl From<String> for AttrName {
    fn from(name: String) -> Self {
        AttrName(Self::conventional(&name).map_or(Cow::Owned(name), Cow::Borrowed))
    }
}

impl std::ops::Deref for AttrName {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<&str> for AttrName {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for AttrName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Serialize for AttrName {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for AttrName {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(AttrName::from)
    }
}

/// Identifies an attribute within a request context.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub struct AttributeId {
    /// Which entity the attribute describes.
    pub category: Category,
    /// Attribute name, e.g. `"role"`, `"id"`, `"current-time"`.
    pub name: AttrName,
}

impl AttributeId {
    /// Creates an attribute identifier.
    pub fn new(category: Category, name: impl Into<AttrName>) -> Self {
        AttributeId {
            category,
            name: name.into(),
        }
    }

    /// `subject`-category attribute.
    pub fn subject(name: impl Into<AttrName>) -> Self {
        Self::new(Category::Subject, name)
    }

    /// `resource`-category attribute.
    pub fn resource(name: impl Into<AttrName>) -> Self {
        Self::new(Category::Resource, name)
    }

    /// `action`-category attribute.
    pub fn action(name: impl Into<AttrName>) -> Self {
        Self::new(Category::Action, name)
    }

    /// `environment`-category attribute.
    pub fn environment(name: impl Into<AttrName>) -> Self {
        Self::new(Category::Environment, name)
    }
}

impl fmt::Display for AttributeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.category, self.name)
    }
}

/// Conventional attribute name for the primary identifier of a subject,
/// resource or action (XACML's `…:…-id` URNs).
pub const ID_ATTR: &str = "id";
/// Conventional environment attribute holding current simulation time
/// in milliseconds.
pub const TIME_ATTR: &str = "current-time";

/// A typed attribute value.
///
/// `Double` equality/hashing uses the raw bit pattern, so `NaN == NaN`
/// for the purposes of bag membership (policies should avoid NaN; the
/// DSL cannot produce one).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AttrValue {
    /// UTF-8 string.
    String(String),
    /// 64-bit signed integer.
    Integer(i64),
    /// Boolean.
    Boolean(bool),
    /// 64-bit float.
    Double(f64),
    /// Simulation timestamp in milliseconds.
    Time(u64),
}

impl AttrValue {
    /// Name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            AttrValue::String(_) => "string",
            AttrValue::Integer(_) => "integer",
            AttrValue::Boolean(_) => "boolean",
            AttrValue::Double(_) => "double",
            AttrValue::Time(_) => "time",
        }
    }

    /// Returns the string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content, if this is an integer.
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            AttrValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content, if this is a boolean.
    pub fn as_boolean(&self) -> Option<bool> {
        match self {
            AttrValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the time content, if this is a time.
    pub fn as_time(&self) -> Option<u64> {
        match self {
            AttrValue::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Total ordering within the same type; `None` across types.
    pub fn partial_cmp_same_type(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        use AttrValue::*;
        match (self, other) {
            (String(a), String(b)) => Some(a.cmp(b)),
            (Integer(a), Integer(b)) => Some(a.cmp(b)),
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (Double(a), Double(b)) => a.partial_cmp(b),
            (Time(a), Time(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Approximate serialized size in bytes (for wire accounting).
    pub fn byte_len(&self) -> usize {
        match self {
            AttrValue::String(s) => 1 + s.len(),
            AttrValue::Integer(_) | AttrValue::Double(_) | AttrValue::Time(_) => 9,
            AttrValue::Boolean(_) => 2,
        }
    }

    /// Writes the value's canonical text — what `Display` prints and a
    /// request's canonical bytes and hash are made of: a string in its
    /// `{:?}` form, a time as `time(ms)`, the rest as they print.
    ///
    /// A string `{:?}` would escape nothing in — every byte printable
    /// ASCII other than `"` and `\` (`'` prints verbatim; DEL and
    /// anything multi-byte is left to `core::fmt` to decide) — is written
    /// between two quotes without entering `core::fmt`.
    pub(crate) fn write_canonical(&self, sink: &mut impl fmt::Write) -> fmt::Result {
        match self {
            AttrValue::String(s)
                if s.bytes()
                    .all(|b| matches!(b, 0x20..=0x7e) && b != b'"' && b != b'\\') =>
            {
                sink.write_str("\"")?;
                sink.write_str(s)?;
                sink.write_str("\"")
            }
            AttrValue::String(s) => write!(sink, "{s:?}"),
            AttrValue::Integer(i) => write!(sink, "{i}"),
            AttrValue::Boolean(b) => write!(sink, "{b}"),
            AttrValue::Double(d) => write!(sink, "{d}"),
            AttrValue::Time(t) => write!(sink, "time({t})"),
        }
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        use AttrValue::*;
        match (self, other) {
            (String(a), String(b)) => a == b,
            (Integer(a), Integer(b)) => a == b,
            (Boolean(a), Boolean(b)) => a == b,
            (Double(a), Double(b)) => a.to_bits() == b.to_bits(),
            (Time(a), Time(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for AttrValue {}

impl std::hash::Hash for AttrValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            AttrValue::String(s) => {
                state.write_u8(0);
                s.hash(state);
            }
            AttrValue::Integer(i) => {
                state.write_u8(1);
                i.hash(state);
            }
            AttrValue::Boolean(b) => {
                state.write_u8(2);
                b.hash(state);
            }
            AttrValue::Double(d) => {
                state.write_u8(3);
                d.to_bits().hash(state);
            }
            AttrValue::Time(t) => {
                state.write_u8(4);
                t.hash(state);
            }
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_canonical(f)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::String(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::String(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Integer(i)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Boolean(b)
    }
}

impl From<f64> for AttrValue {
    fn from(d: f64) -> Self {
        AttrValue::Double(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_parse_roundtrip() {
        for c in Category::ALL {
            assert_eq!(Category::parse(c.as_str()), Some(c));
        }
        assert_eq!(Category::parse("environment"), Some(Category::Environment));
        assert_eq!(Category::parse("bogus"), None);
    }

    #[test]
    fn attribute_id_display() {
        let id = AttributeId::subject("role");
        assert_eq!(id.to_string(), "subject.role");
        assert_eq!(
            AttributeId::environment("current-time").to_string(),
            "env.current-time"
        );
    }

    /// The verbatim path against `str`'s own `Debug`, one byte at a time
    /// over all of ASCII and for a few multi-byte and mixed strings.
    #[test]
    fn a_string_prints_as_its_debug_form() {
        let mut texts: Vec<String> = (0u8..=0x7f).map(|b| format!("a{}z", b as char)).collect();
        texts
            .extend(["", "o'brien", "a\"b\\c\nd\u{7f}é日", "é", "日", "\u{301}"].map(String::from));
        for text in texts {
            assert_eq!(AttrValue::from(&*text).to_string(), format!("{text:?}"));
        }
        assert_eq!(AttrValue::Time(7).to_string(), "time(7)");
        assert_eq!(AttrValue::Integer(-3).to_string(), "-3");
        assert_eq!(AttrValue::Boolean(true).to_string(), "true");
        assert_eq!(AttrValue::Double(1.5).to_string(), "1.5");
    }

    #[test]
    fn value_equality_is_type_strict() {
        assert_ne!(AttrValue::Integer(1), AttrValue::Double(1.0));
        assert_ne!(AttrValue::String("1".into()), AttrValue::Integer(1));
        assert_eq!(AttrValue::from("x"), AttrValue::String("x".into()));
    }

    #[test]
    fn double_bitwise_equality() {
        assert_eq!(AttrValue::Double(f64::NAN), AttrValue::Double(f64::NAN));
        assert_ne!(AttrValue::Double(0.0), AttrValue::Double(-0.0));
    }

    #[test]
    fn ordering_within_type_only() {
        use std::cmp::Ordering;
        assert_eq!(
            AttrValue::Integer(1).partial_cmp_same_type(&AttrValue::Integer(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            AttrValue::String("a".into()).partial_cmp_same_type(&AttrValue::Integer(2)),
            None
        );
        assert_eq!(
            AttrValue::Time(5).partial_cmp_same_type(&AttrValue::Time(5)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn hash_consistent_with_eq() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(AttrValue::from("role"));
        set.insert(AttrValue::from(42i64));
        assert!(set.contains(&AttrValue::String("role".into())));
        assert!(set.contains(&AttrValue::Integer(42)));
        assert!(!set.contains(&AttrValue::Double(42.0)));
    }

    #[test]
    fn byte_len_accounts_for_content() {
        assert_eq!(AttrValue::from("abcd").byte_len(), 5);
        assert_eq!(AttrValue::Integer(0).byte_len(), 9);
        assert_eq!(AttrValue::Boolean(true).byte_len(), 2);
    }
}
