//! The authorization decision query: a request context holding attribute
//! bags for subject, resource, action and environment (Fig. 4 of the
//! paper — the context the PEP constructs and the PDP evaluates).

use crate::attr::{AttrValue, AttributeId, Category, ID_ATTR};
use crate::hash::WordHasher;
use serde::de::{self, Deserializer, MapAccess, SeqAccess, Visitor};
use serde::ser::{SerializeMap, SerializeStruct, Serializer};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// A multi-valued attribute container describing one access request.
///
/// Every layer reads this one record by reference — the PEP hashes it,
/// the request caches compare it, the router keys on it, targets and
/// conditions look bags up in it — so it is stored flat: one vector of
/// `(id, bag)` entries in ascending id order. A bag of one value, which
/// is what nearly every attribute is, sits inline in its entry, and a
/// conventional name is a shared static, so a request of single-valued
/// conventional attributes is one allocation besides its values. A
/// look-up is a binary search, iteration is a slice walk, and a clone
/// copies no empty slots.
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
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RequestContext {
    /// **Invariant:** strictly ascending by [`AttributeId`]'s `Ord`
    /// (category, then name) — so ids are unique — and no bag is empty.
    /// Iteration order, `==`, the canonical bytes and the wire encoding
    /// all rest on it. The only writers are [`RequestContext::add`],
    /// [`RequestContext::merge`] and `Deserialize`, which sorts what it
    /// received and so never trusts a sender's order.
    attrs: Vec<(AttributeId, Bag)>,
}

/// A non-empty bag as an entry holds it: one value inline, two or more
/// on the heap. A bag has exactly one of the two forms for its length,
/// so the derived equality is slice equality.
#[derive(Clone, PartialEq, Eq)]
enum Bag {
    One(AttrValue),
    Many(Vec<AttrValue>),
}

impl Bag {
    fn as_slice(&self) -> &[AttrValue] {
        match self {
            Bag::One(value) => std::slice::from_ref(value),
            Bag::Many(values) => values,
        }
    }

    /// Appends a value; a bag moves to the heap at its second.
    fn push(&mut self, value: AttrValue) {
        match self {
            Bag::Many(values) => values.push(value),
            Bag::One(first) => {
                let first = std::mem::replace(first, AttrValue::Boolean(false));
                *self = Bag::Many(vec![first, value]);
            }
        }
    }

    fn extend(&mut self, values: &[AttrValue]) {
        values.iter().for_each(|value| self.push(value.clone()));
    }
}

/// Prints as the slice it lends, whichever form it has.
impl fmt::Debug for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
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
        ctx.attrs.reserve_exact(3);
        ctx.add(AttributeId::subject(ID_ATTR), subject_id.into());
        ctx.add(AttributeId::resource(ID_ATTR), resource_id.into());
        ctx.add(AttributeId::action(ID_ATTR), action_id.into());
        ctx
    }

    /// Where the entry of (`category`, `name`) is (`Ok`), or where it
    /// would be inserted to keep the order (`Err`). Compares the way
    /// `AttributeId`'s derived `Ord` does, without needing an owned id.
    fn position(&self, category: Category, name: &str) -> Result<usize, usize> {
        self.attrs.binary_search_by(|(id, _)| {
            (id.category.cmp(&category)).then_with(|| id.name.as_str().cmp(name))
        })
    }

    /// Appends a value to the bag of `id`.
    pub fn add(&mut self, id: AttributeId, value: impl Into<AttrValue>) {
        let value = value.into();
        match self.position(id.category, &id.name) {
            Ok(at) => self.attrs[at].1.push(value),
            Err(at) => self.attrs.insert(at, (id, Bag::One(value))),
        }
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
        self.present_bag(id).unwrap_or(&[])
    }

    /// The bag of `id` if the context holds one (never an empty slice).
    pub(crate) fn present_bag(&self, id: &AttributeId) -> Option<&[AttrValue]> {
        let at = self.position(id.category, &id.name).ok()?;
        Some(self.attrs[at].1.as_slice())
    }

    /// Whether the context holds any value for `id`.
    pub fn contains(&self, id: &AttributeId) -> bool {
        self.position(id.category, &id.name).is_ok()
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

    /// These accessors sit on every serving path: no owned
    /// `AttributeId` is built to find the entry.
    fn first_str(&self, category: Category, name: &str) -> Option<&str> {
        let at = self.position(category, name).ok()?;
        let (_, bag) = &self.attrs[at];
        bag.as_slice().iter().find_map(AttrValue::as_str)
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
        self.attrs
            .iter()
            .map(|(id, _)| id)
            .filter(move |id| id.category == category)
    }

    /// Merges another context into this one (bags are concatenated).
    ///
    /// Used when a PIP contributes resolved attributes to a request.
    pub fn merge(&mut self, other: &RequestContext) {
        for (id, bag) in &other.attrs {
            match self.position(id.category, &id.name) {
                Ok(at) => self.attrs[at].1.extend(bag.as_slice()),
                Err(at) => self.attrs.insert(at, (id.clone(), bag.clone())),
            }
        }
    }

    /// Approximate serialized size in bytes (wire accounting).
    pub fn byte_len(&self) -> usize {
        self.iter()
            .map(|(id, bag)| id.name.len() + 2 + bag.iter().map(AttrValue::byte_len).sum::<usize>())
            .sum()
    }

    /// A canonical text encoding: `category.name=value,value,;` per
    /// entry, in entry order, each value as it prints (`Display`).
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::with_capacity(64);
        for (id, bag) in self.iter() {
            write!(out, "{id}=").expect("writing to a String cannot fail");
            for value in bag {
                write!(out, "{value},").expect("writing to a String cannot fail");
            }
            out.push(';');
        }
        out.into_bytes()
    }

    /// The request's 64-bit key: the [`WordHasher`] of its entries in
    /// order. Per entry it reads one word packing the category, the bag
    /// length and the name length, then the name's bytes; per value one
    /// word with the type tag (and a string's length), then the string's
    /// bytes or the number's bits. Equal contexts hash equal, however
    /// they were built or decoded, and values of different types never
    /// feed the same words (`Integer(1)` and `Double(1.0)` hash apart).
    /// Hashed-key caches must still verify the full context on a hit,
    /// since 64 bits cannot rule out collisions between distinct requests.
    pub fn canonical_hash(&self) -> u64 {
        let mut h = WordHasher::new();
        for (id, bag) in &self.attrs {
            let values = bag.as_slice();
            // A bag of 2^24 values or more, or a name of 2^32 bytes or
            // more, spills into its neighbours' bits: a collision at
            // worst, which the caches' full comparison reads as a miss.
            h.write_u64(
                id.category as u64 | (values.len() as u64) << 8 | (id.name.len() as u64) << 32,
            );
            h.write_bytes(id.name.as_bytes());
            for value in values {
                match value {
                    AttrValue::String(s) => {
                        h.write_u64((s.len() as u64) << 8);
                        h.write_bytes(s.as_bytes());
                    }
                    AttrValue::Integer(i) => {
                        h.write_u64(1);
                        h.write_u64(*i as u64);
                    }
                    AttrValue::Boolean(b) => h.write_u64(2 | u64::from(*b) << 8),
                    AttrValue::Double(d) => {
                        h.write_u64(3);
                        h.write_u64(d.to_bits());
                    }
                    AttrValue::Time(t) => {
                        h.write_u64(4);
                        h.write_u64(*t);
                    }
                }
            }
        }
        h.finish()
    }
}

/// The map shape the context has always had on the wire: a struct of
/// one field, `attrs`, holding id → bag entries in ascending id order.
impl Serialize for RequestContext {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        struct Entries<'a>(&'a RequestContext);
        impl Serialize for Entries<'_> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut map = serializer.serialize_map(Some(self.0.len()))?;
                for (id, bag) in self.0.iter() {
                    map.serialize_entry(id, bag)?;
                }
                map.end()
            }
        }
        let mut state = serializer.serialize_struct("RequestContext", 1)?;
        state.serialize_field("attrs", &Entries(self))?;
        state.end()
    }
}

/// A bag as a frame carries it, read value by value into an entry's
/// form; `None` when the frame's bag is empty.
struct ReceivedBag(Option<Bag>);

impl<'de> Deserialize<'de> for ReceivedBag {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BagVisitor;
        impl<'de> Visitor<'de> for BagVisitor {
            type Value = ReceivedBag;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a bag of attribute values")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<ReceivedBag, A::Error> {
                let mut bag: Option<Bag> = None;
                while let Some(value) = seq.next_element()? {
                    match &mut bag {
                        Some(held) => held.push(value),
                        None => bag = Some(Bag::One(value)),
                    }
                }
                Ok(ReceivedBag(bag))
            }
        }
        deserializer.deserialize_seq(BagVisitor)
    }
}

/// Sorts the received entries and folds equal ids into one bag:
/// whatever order, duplicate ids or empty bags a frame carries, what
/// comes out holds the invariant.
impl<'de> Deserialize<'de> for RequestContext {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct Entries(RequestContext);
        impl<'de> Deserialize<'de> for Entries {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                deserializer.deserialize_map(EntriesVisitor)
            }
        }
        struct EntriesVisitor;
        impl<'de> Visitor<'de> for EntriesVisitor {
            type Value = Entries;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("a map of attribute bags")
            }
            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Entries, A::Error> {
                let mut entries: Vec<(AttributeId, ReceivedBag)> = Vec::new();
                while let Some(entry) = map.next_entry()? {
                    entries.push(entry);
                }
                // Stable, so a repeated id's bags keep the frame's order.
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let mut attrs: Vec<(AttributeId, Bag)> = Vec::with_capacity(entries.len());
                for (id, ReceivedBag(bag)) in entries {
                    let Some(bag) = bag else { continue };
                    match attrs.last_mut() {
                        Some((last, held)) if *last == id => held.extend(bag.as_slice()),
                        _ => attrs.push((id, bag)),
                    }
                }
                Ok(Entries(RequestContext { attrs }))
            }
        }
        struct ContextVisitor;
        impl<'de> Visitor<'de> for ContextVisitor {
            type Value = RequestContext;
            fn expecting(&self, f: &mut fmt::Formatter) -> fmt::Result {
                f.write_str("struct RequestContext")
            }
            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<RequestContext, A::Error> {
                match seq.next_element::<Entries>()? {
                    Some(Entries(ctx)) => Ok(ctx),
                    None => Err(de::Error::invalid_length(0, "struct RequestContext")),
                }
            }
        }
        deserializer.deserialize_struct("RequestContext", &["attrs"], ContextVisitor)
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

    /// The entries of a context, as the invariant promises them.
    fn assert_invariant(ctx: &RequestContext) {
        assert!(ctx.attrs.windows(2).all(|pair| pair[0].0 < pair[1].0));
        // One form per length: no bag is empty, and only a bag of two
        // or more values is on the heap.
        assert!(ctx.attrs.iter().all(|(_, bag)| match bag {
            Bag::One(_) => true,
            Bag::Many(values) => values.len() >= 2,
        }));
    }

    #[test]
    fn add_in_any_order_yields_the_same_value() {
        let entries = [
            (AttributeId::subject("id"), AttrValue::from("alice")),
            (AttributeId::subject("role"), AttrValue::from("doctor")),
            (AttributeId::resource("id"), AttrValue::from("ehr/1")),
            (AttributeId::action("id"), AttrValue::from("read")),
            (AttributeId::environment("current-time"), AttrValue::Time(7)),
        ];
        let built = |order: &[usize]| {
            let mut ctx = RequestContext::new();
            for &i in order {
                let (id, value) = entries[i].clone();
                ctx.add(id, value);
            }
            assert_invariant(&ctx);
            ctx
        };
        let ascending = built(&[0, 1, 2, 3, 4]);
        assert_eq!(built(&[4, 3, 2, 1, 0]), ascending);
        assert_eq!(built(&[2, 0, 4, 1, 3]), ascending);
        let ids: Vec<_> = ascending.iter().map(|(id, _)| id.clone()).collect();
        assert_eq!(ids, entries.clone().map(|(id, _)| id));
        // A second value joins the bag its id already has, wherever that is.
        let mut two = built(&[3, 1, 0]);
        two.add(AttributeId::subject("role"), "researcher");
        assert_invariant(&two);
        assert_eq!(
            two.bag(&AttributeId::subject("role")),
            [AttrValue::from("doctor"), AttrValue::from("researcher")]
        );
        assert_eq!(two.len(), 3);
    }

    #[test]
    fn merge_of_overlapping_contexts_appends_bags_in_order() {
        let mut a = RequestContext::basic("alice", "ehr/1", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("role", "researcher");
        let b = RequestContext::new()
            .with_env_attr("current-time", AttrValue::Time(100))
            .with_subject_attr("role", "admin")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("dept", "radiology");
        a.merge(&b);
        assert_invariant(&a);
        assert_eq!(a.len(), 6);
        assert_eq!(
            a.bag(&AttributeId::subject("role")),
            ["doctor", "researcher", "admin", "doctor"].map(AttrValue::from)
        );
        assert_eq!(
            a.bag(&AttributeId::subject("dept")),
            [AttrValue::from("radiology")]
        );
        assert_eq!(a.subject_id(), Some("alice"));
        // Merging the empty context, or into it, changes nothing.
        let before = a.clone();
        a.merge(&RequestContext::new());
        assert_eq!(a, before);
        let mut empty = RequestContext::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    /// In the compact codec a one-field struct is its field and a map
    /// is a counted run of key/value pairs — so a vector of `(id, bag)`
    /// pairs encodes to a context's frame with the entries in whatever
    /// order, and with whatever repeats, the vector has.
    fn decode_frame(entries: &[(AttributeId, Vec<AttrValue>)]) -> RequestContext {
        let frame = dacs_wire::codec::to_bytes(&entries.to_vec()).unwrap();
        dacs_wire::codec::from_bytes(&frame).unwrap()
    }

    #[test]
    fn deserialize_never_trusts_the_senders_order() {
        let role = AttributeId::subject("role");
        let sorted = RequestContext::basic("alice", "ehr/1", "read")
            .with_subject_attr("role", "doctor")
            .with_subject_attr("role", "researcher")
            .with_resource_attr("sensitivity", 3i64);
        let entries: Vec<_> = sorted
            .iter()
            .map(|(id, bag)| (id.clone(), bag.to_vec()))
            .collect();
        assert_eq!(decode_frame(&entries), sorted);
        assert_eq!(
            dacs_wire::codec::to_bytes(&entries).unwrap(),
            dacs_wire::codec::to_bytes(&sorted).unwrap(),
            "the honest frame is the context's own encoding"
        );

        let mut reversed = entries.clone();
        reversed.reverse();
        // The role bag split over two entries, far apart, plus an id
        // with no values at all.
        let mut split = reversed.clone();
        let at = split.iter().position(|(id, _)| *id == role).unwrap();
        let second = split[at].1.pop().unwrap();
        split.insert(0, (AttributeId::environment("nothing"), Vec::new()));
        split.push((role.clone(), vec![second]));
        for hostile in [reversed, split] {
            let decoded = decode_frame(&hostile);
            assert_invariant(&decoded);
            assert_eq!(decoded, sorted);
            assert_eq!(decoded.bag(&role), sorted.bag(&role));
            assert!(decoded.contains(&AttributeId::resource("sensitivity")));
            assert!(!decoded.contains(&AttributeId::environment("nothing")));
            assert_eq!(decoded.to_canonical_bytes(), sorted.to_canonical_bytes());
            assert_eq!(decoded.canonical_hash(), sorted.canonical_hash());
        }
    }

    /// A look-up is a binary search: it finds every id of a wide
    /// context, and none that is absent, whatever the insertion order.
    #[test]
    fn lookups_find_every_id_of_a_wide_context() {
        let mut ctx = RequestContext::new();
        // 200 ids over the four categories, added in a scattered order.
        for k in (0..200u32).map(|k| (k * 77) % 200) {
            let category = Category::ALL[(k % 4) as usize];
            ctx.add(
                AttributeId::new(category, format!("attr-{k}")),
                i64::from(k),
            );
        }
        assert_invariant(&ctx);
        assert_eq!(ctx.len(), 200);
        for k in 0..200u32 {
            let category = Category::ALL[(k % 4) as usize];
            let id = AttributeId::new(category, format!("attr-{k}"));
            assert_eq!(ctx.bag(&id), [AttrValue::Integer(i64::from(k))]);
            let elsewhere = AttributeId::new(Category::ALL[((k + 1) % 4) as usize], &*id.name);
            assert!(!ctx.contains(&elsewhere));
            assert!(ctx.bag(&elsewhere).is_empty());
        }
    }

    /// What the caches rely on: equal contexts hash equal however they
    /// were built — in any order, or decoded from their frame — and
    /// distinct ones hash apart, even when their values print alike.
    #[test]
    fn canonical_hash_is_structural_and_pinned() {
        let contexts = [
            RequestContext::new(),
            RequestContext::basic("alice", "ehr/record/42", "read"),
            RequestContext::basic("bob", "ehr/record/42", "write")
                .with_subject_attr("role", "doctor")
                .with_subject_attr("role", "nurse")
                .with_env_attr("current-time", AttrValue::Time(9 * 3_600_000))
                .with_resource_attr("sensitivity", 3i64),
            RequestContext::basic("o'brien", "a\"b\\c\nd\u{7f}é日", "read"),
            RequestContext::basic("user-1234@q", "records/7", "read")
                .with_subject_attr("x", 1.5f64)
                .with_subject_attr("y", true),
        ];
        for ctx in &contexts {
            let mut reversed = RequestContext::new();
            let entries: Vec<_> = ctx.iter().collect();
            for (id, bag) in entries.into_iter().rev() {
                bag.iter().for_each(|v| reversed.add(id.clone(), v.clone()));
            }
            assert_eq!(reversed.canonical_hash(), ctx.canonical_hash());
            let frame = dacs_wire::codec::to_bytes(ctx).unwrap();
            let decoded: RequestContext = dacs_wire::codec::from_bytes(&frame).unwrap();
            assert_eq!(decoded.canonical_hash(), ctx.canonical_hash());
        }
        assert_eq!(
            contexts[3].to_canonical_bytes(),
            "subject.id=\"o'brien\",;resource.id=\"a\\\"b\\\\c\\nd\\u{7f}é日\",;action.id=\"read\",;"
                .as_bytes()
        );
        let hashes = contexts.each_ref().map(RequestContext::canonical_hash);
        for (i, a) in hashes.iter().enumerate() {
            assert!(hashes[i + 1..].iter().all(|b| a != b), "context {i}");
        }
        // Values that print alike are different requests, and hash apart.
        let int = contexts[1]
            .clone()
            .with_env_attr("level", AttrValue::Integer(1));
        let double = contexts[1]
            .clone()
            .with_env_attr("level", AttrValue::Double(1.0));
        assert_eq!(int.to_canonical_bytes(), double.to_canonical_bytes());
        assert_ne!(int.canonical_hash(), double.canonical_hash());
        // Decision- and token-cache keys and the benchmark's input digest
        // are these values (shard routes hash `subject ␟ resource` on
        // their own and are pinned in `tests/properties.rs`): a hash
        // that computes anything else is a decision to change them,
        // which this test makes visible.
        assert_eq!(
            hashes,
            [
                0xe9e0_033e_3bad_af36,
                0x5cad_e3e4_eeef_90de,
                0xa1df_4506_80b7_61e0,
                0xd75b_98b2_1226_20f4,
                0xc7dc_da36_2633_1d41,
            ]
        );
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
