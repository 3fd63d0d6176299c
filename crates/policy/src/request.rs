//! The authorization decision query: a request context holding attribute
//! bags for subject, resource, action and environment (Fig. 4 of the
//! paper — the context the PEP constructs and the PDP evaluates).

use crate::attr::{AttrValue, AttributeId, Category, ID_ATTR};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A multi-valued attribute container describing one access request.
///
/// # Examples
///
/// ```
/// use dacs_policy::request::RequestContext;
///
/// let req = RequestContext::basic("alice", "ehr/record/42", "read")
///     .with_subject_attr("role", "doctor")
///     .with_env_attr("current-time", dacs_policy::attr::AttrValue::Time(9 * 3_600_000));
/// assert_eq!(req.subject_id(), Some("alice"));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct RequestContext {
    attrs: BTreeMap<AttributeId, Vec<AttrValue>>,
}

impl RequestContext {
    /// Creates an empty request context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a context with the three conventional identifiers set:
    /// `subject.id`, `resource.id` and `action.id`.
    pub fn basic(
        subject_id: impl Into<String>,
        resource_id: impl Into<String>,
        action_id: impl Into<String>,
    ) -> Self {
        let mut ctx = Self::new();
        ctx.add(AttributeId::subject(ID_ATTR), subject_id.into());
        ctx.add(AttributeId::resource(ID_ATTR), resource_id.into());
        ctx.add(AttributeId::action(ID_ATTR), action_id.into());
        ctx
    }

    /// Appends a value to the bag of `id`.
    pub fn add(&mut self, id: AttributeId, value: impl Into<AttrValue>) {
        self.attrs.entry(id).or_default().push(value.into());
    }

    /// Builder-style: adds a subject attribute.
    pub fn with_subject_attr(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.add(AttributeId::subject(name), value);
        self
    }

    /// Builder-style: adds a resource attribute.
    pub fn with_resource_attr(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.add(AttributeId::resource(name), value);
        self
    }

    /// Builder-style: adds an environment attribute.
    pub fn with_env_attr(mut self, name: &str, value: impl Into<AttrValue>) -> Self {
        self.add(AttributeId::environment(name), value);
        self
    }

    /// The bag of values for `id` (empty slice when absent).
    pub fn bag(&self, id: &AttributeId) -> &[AttrValue] {
        self.attrs.get(id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the context holds any value for `id`.
    pub fn contains(&self, id: &AttributeId) -> bool {
        self.attrs.contains_key(id)
    }

    /// First string value of `subject.id`, if present.
    pub fn subject_id(&self) -> Option<&str> {
        self.first_str(Category::Subject, ID_ATTR)
    }

    /// First string value of `resource.id`, if present.
    pub fn resource_id(&self) -> Option<&str> {
        self.first_str(Category::Resource, ID_ATTR)
    }

    /// First string value of `action.id`, if present.
    pub fn action_id(&self) -> Option<&str> {
        self.first_str(Category::Action, ID_ATTR)
    }

    /// Scans the handful of entries a context holds rather than
    /// building an owned `AttributeId` (a `String`) to index the map:
    /// these accessors sit on every serving path.
    fn first_str(&self, category: Category, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(id, _)| id.category == category && id.name == name)
            .and_then(|(_, bag)| bag.iter().find_map(AttrValue::as_str))
    }

    /// Iterates over all (id, bag) entries in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&AttributeId, &[AttrValue])> {
        self.attrs.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Number of distinct attribute identifiers.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the context is empty.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Attribute identifiers of a given category.
    pub fn ids_in_category(&self, category: Category) -> impl Iterator<Item = &AttributeId> {
        self.attrs.keys().filter(move |id| id.category == category)
    }

    /// Merges another context into this one (bags are concatenated).
    ///
    /// Used when a PIP contributes resolved attributes to a request.
    pub fn merge(&mut self, other: &RequestContext) {
        for (id, bag) in other.iter() {
            let entry = self.attrs.entry(id.clone()).or_default();
            entry.extend(bag.iter().cloned());
        }
    }

    /// Approximate serialized size in bytes (wire accounting).
    pub fn byte_len(&self) -> usize {
        self.attrs
            .iter()
            .map(|(id, bag)| id.name.len() + 2 + bag.iter().map(AttrValue::byte_len).sum::<usize>())
            .sum()
    }

    /// A canonical byte encoding used as a cache key and for signing.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for (id, bag) in &self.attrs {
            out.extend_from_slice(id.category.as_str().as_bytes());
            out.push(b'.');
            out.extend_from_slice(id.name.as_bytes());
            out.push(b'=');
            for v in bag {
                out.extend_from_slice(format!("{v}").as_bytes());
                out.push(b',');
            }
            out.push(b';');
        }
        out
    }

    /// FNV-1a (64-bit) over the same byte stream as
    /// [`RequestContext::to_canonical_bytes`], computed without
    /// materializing it. Two contexts with equal canonical bytes hash
    /// equal; hashed-key caches must still verify the full context on
    /// hit, since 64 bits cannot rule out collisions between distinct
    /// requests.
    pub fn canonical_hash(&self) -> u64 {
        use std::fmt::Write;
        let mut h = Fnv1a::new();
        for (id, bag) in &self.attrs {
            h.write_bytes(id.category.as_str().as_bytes());
            h.write_byte(b'.');
            h.write_bytes(id.name.as_bytes());
            h.write_byte(b'=');
            for v in bag {
                let _ = write!(h, "{v}");
                h.write_byte(b',');
            }
            h.write_byte(b';');
        }
        h.0
    }
}

/// Streaming FNV-1a 64 that accepts `fmt::Write`, so `Display`ed
/// attribute values feed the hash without an intermediate allocation.
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn write_byte(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_sets_three_ids() {
        let req = RequestContext::basic("alice", "doc/1", "read");
        assert_eq!(req.subject_id(), Some("alice"));
        assert_eq!(req.resource_id(), Some("doc/1"));
        assert_eq!(req.action_id(), Some("read"));
        assert_eq!(req.len(), 3);
    }

    #[test]
    fn bags_are_multivalued() {
        let mut req = RequestContext::new();
        req.add(AttributeId::subject("role"), "doctor");
        req.add(AttributeId::subject("role"), "researcher");
        assert_eq!(req.bag(&AttributeId::subject("role")).len(), 2);
    }

    #[test]
    fn missing_bag_is_empty() {
        let req = RequestContext::new();
        assert!(req.bag(&AttributeId::subject("role")).is_empty());
        assert!(!req.contains(&AttributeId::subject("role")));
    }

    #[test]
    fn merge_concatenates_bags() {
        let mut a = RequestContext::new().with_subject_attr("role", "doctor");
        let b = RequestContext::new()
            .with_subject_attr("role", "admin")
            .with_env_attr("current-time", AttrValue::Time(100));
        a.merge(&b);
        assert_eq!(a.bag(&AttributeId::subject("role")).len(), 2);
        assert!(a.contains(&AttributeId::environment("current-time")));
    }

    #[test]
    fn canonical_bytes_deterministic_and_order_independent() {
        let mut a = RequestContext::new();
        a.add(AttributeId::subject("role"), "doctor");
        a.add(AttributeId::resource("type"), "ehr");
        let mut b = RequestContext::new();
        b.add(AttributeId::resource("type"), "ehr");
        b.add(AttributeId::subject("role"), "doctor");
        assert_eq!(a.to_canonical_bytes(), b.to_canonical_bytes());
    }

    #[test]
    fn canonical_hash_matches_fnv_of_canonical_bytes() {
        fn fnv(bytes: &[u8]) -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let contexts = [
            RequestContext::new(),
            RequestContext::basic("alice", "ehr/record/42", "read"),
            RequestContext::basic("bob", "ehr/record/42", "write")
                .with_subject_attr("role", "doctor")
                .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000))
                .with_resource_attr("sensitivity", 3i64),
        ];
        for ctx in &contexts {
            assert_eq!(ctx.canonical_hash(), fnv(&ctx.to_canonical_bytes()));
        }
        // Distinct requests should (overwhelmingly) hash differently.
        assert_ne!(contexts[1].canonical_hash(), contexts[2].canonical_hash());
    }

    #[test]
    fn category_filter() {
        let req = RequestContext::basic("u", "r", "a").with_env_attr("x", 1i64);
        assert_eq!(req.ids_in_category(Category::Environment).count(), 1);
        assert_eq!(req.ids_in_category(Category::Subject).count(), 1);
    }

    #[test]
    fn byte_len_grows_with_content() {
        let small = RequestContext::basic("u", "r", "a");
        let large = small.clone().with_subject_attr("role", "a-long-role-name");
        assert!(large.byte_len() > small.byte_len());
    }
}
