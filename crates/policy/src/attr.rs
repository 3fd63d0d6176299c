//! Attribute model: categories, identifiers and typed values.
//!
//! Following the XACML request context model (§2.3 of the paper), every
//! piece of information an access decision can depend on is an
//! *attribute*: a ([`Category`], name) pair bound to a bag of typed
//! values. Categories partition attributes into those describing the
//! subject, the resource, the action and the environment.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// An attribute's name: a symbol of the process-wide name table, one
/// `u32`. Interning makes equal names one symbol, so equality is one
/// integer compare and an [`AttributeId`] is 8 bytes and `Copy`. It
/// orders, hashes, prints and serializes as the `str` it names, so
/// entries sorted by id stay in name order: `canonical_hash`, the
/// canonical bytes and the wire frames are what they were when a name
/// was a string. [`as_str`](Self::as_str) reads the table without a
/// lock; only interning a name the table has not seen takes one.
///
/// The conventional names — [`ID_ATTR`], [`TIME_ATTR`] and
/// `ROLE_ATTR`, which nearly every request and policy carries — are
/// the first three symbols, fixed when the table is seeded; the role's
/// is [`AttrName::ROLE`]. The table is append-only and bounded: at most
/// [`MAX_NAMES`] names of at most [`MAX_NAME_LEN`] bytes each. Only
/// policy authors and the program add names to it. The DSL parser calls
/// the fallible [`AttrName::intern`], so an author's name past the bound
/// is an `Err` there; the `From` conversions are for names the program
/// itself spells, and panic past it. A frame never adds one:
/// `Deserialize` only [looks names up](AttrName::lookup) and refuses a
/// name the table does not hold, and a request's decoder drops the
/// entries of such names (no policy can name them, so they cannot change
/// a verdict). So no peer can fill the table, or leak a byte into it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AttrName(u32);

/// Conventional name of the subject's roles.
pub(crate) const ROLE_ATTR: &str = "role";

/// The names whose symbols are fixed: a name's symbol is its position.
const SEEDED: [&str; 3] = [ID_ATTR, TIME_ATTR, ROLE_ATTR];

/// The most names the table holds, the seeded three included.
pub const MAX_NAMES: usize = 1 << 16;

/// The longest name, in bytes, the table accepts.
pub const MAX_NAME_LEN: usize = 255;

/// The interned names past the seeded ones, by symbol. A slot is
/// written once, before its symbol is handed out, and never again, so
/// reading it needs no lock. Slots past the last one written are never
/// touched.
static NAMES: [OnceLock<&'static str>; MAX_NAMES - SEEDED.len()] =
    [const { OnceLock::new() }; MAX_NAMES - SEEDED.len()];

/// Name → symbol for the names in [`NAMES`]; only interning reads it.
static SYMBOLS: Mutex<BTreeMap<&'static str, u32>> = Mutex::new(BTreeMap::new());

/// Why a name was not interned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NameError {
    /// The name is longer than [`MAX_NAME_LEN`] bytes (its length).
    TooLong(usize),
    /// The table already holds [`MAX_NAMES`] names.
    TableFull,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::TooLong(len) => {
                write!(f, "attribute name of {len} bytes exceeds {MAX_NAME_LEN}")
            }
            NameError::TableFull => write!(f, "attribute name table full ({MAX_NAMES} names)"),
        }
    }
}

impl std::error::Error for NameError {}

impl AttrName {
    /// The symbol of [`ID_ATTR`].
    pub(crate) const ID: AttrName = AttrName(0);
    /// The symbol of `ROLE_ATTR`.
    pub const ROLE: AttrName = AttrName(2);

    /// The symbol of `name`, interning it if the table has not seen it;
    /// `Err` (and no table growth) past the table's bound.
    pub fn intern(name: &str) -> Result<AttrName, NameError> {
        if let Some(seeded) = SEEDED.iter().position(|known| *known == name) {
            return Ok(AttrName(seeded as u32));
        }
        // Nothing panics while the lock is held, but a poisoned table is
        // still whole: every slot is written before its symbol exists.
        let mut symbols = SYMBOLS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(&symbol) = symbols.get(name) {
            return Ok(AttrName(symbol));
        }
        if name.len() > MAX_NAME_LEN {
            return Err(NameError::TooLong(name.len()));
        }
        let slot = symbols.len();
        let cell = NAMES.get(slot).ok_or(NameError::TableFull)?;
        let name: &'static str = Box::leak(name.into());
        cell.set(name)
            .expect("a slot is written once, under the lock");
        let symbol = (SEEDED.len() + slot) as u32;
        symbols.insert(name, symbol);
        Ok(AttrName(symbol))
    }

    /// The symbol of `name` if the table holds it; never interns.
    pub fn lookup(name: &str) -> Option<AttrName> {
        if let Some(seeded) = SEEDED.iter().position(|known| *known == name) {
            return Some(AttrName(seeded as u32));
        }
        let symbols = SYMBOLS.lock().unwrap_or_else(PoisonError::into_inner);
        symbols.get(name).map(|&symbol| AttrName(symbol))
    }

    /// How many names the table holds, the seeded three included.
    pub fn interned() -> usize {
        SEEDED.len() + SYMBOLS.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// The name as a string slice: one read of the table, no lock.
    pub fn as_str(&self) -> &'static str {
        let at = self.0 as usize;
        match at.checked_sub(SEEDED.len()) {
            None => SEEDED[at],
            Some(slot) => NAMES[slot]
                .get()
                .expect("a symbol exists only once its slot is written"),
        }
    }
}

impl From<&str> for AttrName {
    /// Interns `name`; panics past the table's bound (see
    /// [`AttrName::intern`] for the fallible form).
    fn from(name: &str) -> Self {
        AttrName::intern(name).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl From<&String> for AttrName {
    fn from(name: &String) -> Self {
        Self::from(name.as_str())
    }
}

impl From<String> for AttrName {
    fn from(name: String) -> Self {
        Self::from(name.as_str())
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

/// Name order, which is what entries are sorted by.
impl Ord for AttrName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl PartialOrd for AttrName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for AttrName {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
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
        let name = String::deserialize(deserializer)?;
        AttrName::lookup(&name)
            .ok_or_else(|| serde::de::Error::custom("an attribute name the table does not hold"))
    }
}

/// Identifies an attribute within a request context.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
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

/// Bytes a [`Str`] keeps in place before it moves its text to the heap.
pub(crate) const INLINE_LEN: usize = 22;

/// A string value: up to `INLINE_LEN` bytes in place, longer text as
/// a `Box<str>`, 24 bytes either way, so an [`AttrValue`] is 24 bytes
/// too and a short id costs its request no allocation.
///
/// It compares, orders, hashes, prints and serializes exactly as the
/// `str` it holds. The comparisons, the hash and [`Str::len`] read its
/// bytes; only [`Str::as_str`] (and what goes through `Deref`) checks
/// that in-place bytes are UTF-8 again, which safe code cannot skip —
/// so the paths every enforcement takes (the canonical hash, a cached
/// request's comparison, the audit copy) use [`Str::as_bytes`].
#[derive(Clone)]
pub struct Str(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the text.
    Inline {
        len: InlineLen,
        bytes: [u8; INLINE_LEN],
    },
    Heap(Box<str>),
}

/// The length of in-place text, 0 to [`INLINE_LEN`]: a byte with 233
/// values to spare, which is where [`Repr`] and [`AttrValue`] keep
/// their variant tags.
#[rustfmt::skip]
#[derive(Clone, Copy)]
#[repr(u8)]
enum InlineLen {
    L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
    L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
}

impl InlineLen {
    #[rustfmt::skip]
    const ALL: [InlineLen; INLINE_LEN + 1] = {
        use InlineLen::*;
        [
            L0, L1, L2, L3, L4, L5, L6, L7, L8, L9, L10, L11,
            L12, L13, L14, L15, L16, L17, L18, L19, L20, L21, L22,
        ]
    };
}

impl Str {
    /// A copy of `text`, in place when it fits.
    pub fn new(text: &str) -> Str {
        match InlineLen::ALL.get(text.len()) {
            Some(&len) => {
                let mut bytes = [0; INLINE_LEN];
                bytes[..text.len()].copy_from_slice(text.as_bytes());
                Str(Repr::Inline { len, bytes })
            }
            None => Str(Repr::Heap(text.into())),
        }
    }

    /// The text's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// The text. In-place bytes are checked as UTF-8 on every call.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("a Str is made from a str")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The text's length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Whether the text is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Str {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Str {}

/// `str`'s order is its bytes' order.
impl Ord for Str {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Str {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What `str`'s `Hash` feeds every hasher that can be written on
/// stable Rust: the bytes, then `0xff`.
impl Hash for Str {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for Str {
    fn from(text: &str) -> Self {
        Str::new(text)
    }
}

/// Moves a long text's buffer rather than copying it.
impl From<String> for Str {
    fn from(text: String) -> Self {
        if text.len() > INLINE_LEN {
            Str(Repr::Heap(text.into_boxed_str()))
        } else {
            Str::new(&text)
        }
    }
}

impl Serialize for Str {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.as_str())
    }
}

impl<'de> Deserialize<'de> for Str {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(Str::from)
    }
}

/// A typed attribute value.
///
/// 24 bytes: a string is a [`Str`], whose spare length values hold the
/// variant tag. `Double` equality/hashing uses the raw bit pattern, so
/// `NaN == NaN` for the purposes of bag membership (policies should
/// avoid NaN; the DSL cannot produce one).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AttrValue {
    /// UTF-8 string.
    String(Str),
    /// 64-bit signed integer.
    Integer(i64),
    /// Boolean.
    Boolean(bool),
    /// 64-bit float.
    Double(f64),
    /// Simulation timestamp in milliseconds.
    Time(u64),
}

const _: () = assert!(std::mem::size_of::<Str>() == 24);
const _: () = assert!(std::mem::size_of::<AttrValue>() == 24);
const _: () = assert!(std::mem::size_of::<AttributeId>() == 8);

impl AttrValue {
    /// Name of the value's type, for error messages.
    pub(crate) fn type_name(&self) -> &'static str {
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
        self.as_text().map(Str::as_str)
    }

    /// Returns the string as held, if this is a string.
    pub(crate) fn as_text(&self) -> Option<&Str> {
        match self {
            AttrValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content, if this is an integer.
    pub(crate) fn as_integer(&self) -> Option<i64> {
        match self {
            AttrValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content, if this is a boolean.
    pub(crate) fn as_boolean(&self) -> Option<bool> {
        match self {
            AttrValue::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the time content, if this is a time.
    pub(crate) fn as_time(&self) -> Option<u64> {
        match self {
            AttrValue::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Total ordering within the same type; `None` across types.
    pub(crate) fn partial_cmp_same_type(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
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

/// The value's canonical text, of which a request's canonical bytes are
/// made: a string in its `{:?}` form, a time as `time(ms)`, the rest as
/// they print.
impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::String(s) => write!(f, "{s:?}"),
            AttrValue::Integer(i) => write!(f, "{i}"),
            AttrValue::Boolean(b) => write!(f, "{b}"),
            AttrValue::Double(d) => write!(f, "{d}"),
            AttrValue::Time(t) => write!(f, "time({t})"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::String(Str::new(s))
    }
}

impl From<&String> for AttrValue {
    fn from(s: &String) -> Self {
        AttrValue::String(Str::new(s))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::String(s.into())
    }
}

impl From<Str> for AttrValue {
    fn from(s: Str) -> Self {
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

    /// A string prints as `str`'s own `Debug`, one byte at a time over
    /// all of ASCII and for a few multi-byte and mixed strings.
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

    /// Seeded strings of 0 to 40 bytes over one- to four-byte chars, so
    /// lengths fall on both sides of [`INLINE_LEN`] and multi-byte chars
    /// straddle it, plus the straddling cases spelled out.
    fn sample_texts() -> Vec<String> {
        const CHARS: [char; 10] = ['a', 'Z', '0', '"', '\\', '\n', 'é', '日', '€', '𝄞'];
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut texts = Vec::new();
        for target in 0..=40 {
            for _ in 0..6 {
                let mut text = String::new();
                while text.len() < target {
                    let c = CHARS[(next() % CHARS.len() as u64) as usize];
                    if text.len() + c.len_utf8() > target + 3 {
                        break;
                    }
                    text.push(c);
                }
                texts.push(text);
            }
        }
        for tail in ["é", "日", "𝄞"] {
            for lead in INLINE_LEN - 3..=INLINE_LEN {
                texts.push("a".repeat(lead) + tail);
            }
        }
        texts
    }

    /// `Str` against the `String` it copies: the same text, length,
    /// equality, order, hash, `Display`, `Debug` and codec frame, in
    /// place exactly up to [`INLINE_LEN`] bytes.
    #[test]
    fn a_str_behaves_as_the_str_it_holds() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let texts = sample_texts();
        let strs: Vec<Str> = texts.iter().map(|text| Str::new(text)).collect();
        for (text, s) in texts.iter().zip(&strs) {
            assert_eq!(s.as_str(), text);
            assert_eq!(s.as_bytes(), text.as_bytes());
            assert_eq!((s.len(), s.is_empty()), (text.len(), text.is_empty()));
            let inline = matches!(s.0, Repr::Inline { .. });
            assert_eq!(inline, text.len() <= INLINE_LEN, "{text:?}");
            assert!(Str::from(text.clone()) == *s);
            assert_eq!(hasher.hash_one(s), hasher.hash_one(text.as_str()));
            assert_eq!(format!("{s}"), format!("{text}"));
            assert_eq!(format!("{s:?}"), format!("{text:?}"));
            let frame = dacs_wire::codec::to_bytes(s).unwrap();
            assert_eq!(frame, dacs_wire::codec::to_bytes(text).unwrap());
            assert_eq!(dacs_wire::codec::from_bytes::<Str>(&frame).unwrap(), *s);
            let value = AttrValue::from(text.as_str());
            let frame = dacs_wire::codec::to_bytes(&value).unwrap();
            assert_eq!(
                dacs_wire::codec::from_bytes::<AttrValue>(&frame).unwrap(),
                value
            );
        }
        for (a, sa) in texts.iter().zip(&strs) {
            for (b, sb) in texts.iter().zip(&strs) {
                assert_eq!(sa == sb, a == b);
                assert_eq!(sa.cmp(sb), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Interning is idempotent, the conventional names have fixed
    /// symbols, a name past the length bound errs without being
    /// interned, and decoding looks a name up and never interns it. (The
    /// count bound is exercised by the `name_table_bound` integration
    /// test, in a process of its own.)
    #[test]
    fn interning_is_idempotent_and_the_seeded_symbols_are_fixed() {
        assert_eq!(AttrName::intern(ID_ATTR), Ok(AttrName::ID));
        assert_eq!(AttrName::intern(TIME_ATTR), Ok(AttrName(1)));
        assert_eq!(AttrName::intern(ROLE_ATTR), Ok(AttrName::ROLE));
        assert_eq!(
            [AttrName::ID, AttrName(1), AttrName::ROLE].map(|n| n.as_str()),
            SEEDED
        );
        let dept = AttrName::intern("department").unwrap();
        assert_eq!(AttrName::intern("department"), Ok(dept));
        assert_eq!(AttrName::from(String::from("department")), dept);
        assert_eq!(dept.as_str(), "department");
        assert!(AttrName::interned() > SEEDED.len());
        assert_eq!(AttrName::lookup("department"), Some(dept));
        assert_eq!(AttrName::lookup(ROLE_ATTR), Some(AttrName::ROLE));

        let frame = dacs_wire::codec::to_bytes(&"department").unwrap();
        assert_eq!(
            dacs_wire::codec::from_bytes::<AttrName>(&frame).unwrap(),
            dept
        );
        let frame = dacs_wire::codec::to_bytes(&"never-interned-name").unwrap();
        assert!(dacs_wire::codec::from_bytes::<AttrName>(&frame).is_err());
        assert_eq!(AttrName::lookup("never-interned-name"), None);

        let long = "n".repeat(MAX_NAME_LEN + 1);
        assert_eq!(
            AttrName::intern(&long),
            Err(NameError::TooLong(MAX_NAME_LEN + 1))
        );
        assert!(!SYMBOLS.lock().unwrap().contains_key(long.as_str()));
        let frame = dacs_wire::codec::to_bytes(&long).unwrap();
        assert!(dacs_wire::codec::from_bytes::<AttrName>(&frame).is_err());
        let edge = "n".repeat(MAX_NAME_LEN);
        assert_eq!(AttrName::intern(&edge).unwrap().as_str(), edge);
    }

    /// Names order and hash as their text, whatever order they were
    /// interned in.
    #[test]
    fn names_order_and_hash_as_their_text() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let names = ["zeta-name", "alpha-name", "role", "id", "mid-name"].map(AttrName::from);
        for a in names {
            assert_eq!(hasher.hash_one(a), hasher.hash_one(a.as_str()));
            for b in names {
                assert_eq!(a.cmp(&b), a.as_str().cmp(b.as_str()));
                assert_eq!(a == b, a.as_str() == b.as_str());
            }
        }
    }

    #[test]
    fn byte_len_accounts_for_content() {
        assert_eq!(AttrValue::from("abcd").byte_len(), 5);
        assert_eq!(AttrValue::Integer(0).byte_len(), 9);
        assert_eq!(AttrValue::Boolean(true).byte_len(), 2);
    }
}
