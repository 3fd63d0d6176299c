//! # dacs-pip
//!
//! Policy Information Point: the attribute-resolution component of the
//! authorization architecture (Fig. 4 of the DSN 2008 paper). PDPs pull
//! subject, resource and environment attributes from here when the
//! request context alone cannot satisfy a policy's attribute
//! references.
//!
//! Providers included:
//! * [`StaticAttributes`] — administrator-provisioned subject
//!   attributes: the identity provider's store, one exact-size record
//!   per key (its attributes in insertion order, names interned) in a
//!   map hashed by the workspace's seeded `KeyState`. A domain's
//!   builder provisions it in place.
//! * [`EnvironmentProvider`] — `env.current-time` from the simulation
//!   clock.
//!
//! [`PipRegistry`] chains providers; [`ResolvingSource`] adapts a
//! request + registry into the `AttributeSource` the evaluation engine
//! consumes, resolving lazily and memoizing per request — the first
//! attribute resolved in place, later ones in a boxed chain. Nothing
//! here holds an answer across requests: every request asks the
//! providers afresh, and the one cache of decisions is the PEP's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dacs_policy::attr::{AttrName, AttrValue, AttributeId, Category, Str, TIME_ATTR};
use dacs_policy::expr::AttributeSource;
use dacs_policy::hash::KeyState;
use dacs_policy::request::RequestContext;
use parking_lot::RwLock;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A source of attribute values the PDP can consult.
pub trait AttributeProvider: Send + Sync {
    /// Provider name for diagnostics.
    fn name(&self) -> &str;

    /// Returns the bag for `id`, given the request being evaluated and
    /// the current simulation time, or `None` if this provider does not
    /// know the attribute.
    fn provide(
        &self,
        id: &AttributeId,
        request: &RequestContext,
        now_ms: u64,
    ) -> Option<Vec<AttrValue>>;
}

/// Administrator-provisioned subject attributes.
///
/// One record per key, at its size: one boxed slice of 32-byte
/// `(name, value)` entries in insertion order, in a map that hashes
/// with the workspace's seeded [`KeyState`]. The key is a [`Str`] and a
/// name an interned [`AttrName`], so a subject whose id and values are
/// short — a one-`role` subject — costs one bucket and one allocation,
/// its record. A look-up hashes and compares the request's id as bytes.
/// A record is rebuilt at its new size when a key gains an attribute,
/// which only provisioning does.
#[derive(Debug, Default)]
pub struct StaticAttributes {
    subjects: RwLock<Records>,
}

/// Key → its attributes, a repeated name once per value, in the order
/// they were added.
type Records = HashMap<Str, Box<[(AttrName, AttrValue)]>, KeyState>;

/// Appends one entry to `key`'s record, creating the record if needed.
fn add_record(records: &RwLock<Records>, key: &str, name: &str, value: AttrValue) {
    let entry = (AttrName::from(name), value);
    let key = Str::new(key);
    let mut records = records.write();
    match records.get_mut(&key) {
        Some(record) => {
            let mut grown = std::mem::take(record).into_vec();
            grown.push(entry);
            *record = grown.into_boxed_slice();
        }
        None => {
            records.insert(key, Box::new([entry]));
        }
    }
}

impl StaticAttributes {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subject attribute.
    pub fn add_subject_attr(&self, subject: &str, name: &str, value: impl Into<AttrValue>) {
        add_record(&self.subjects, subject, name, value.into());
    }

    /// Removes all attributes of a subject (deprovisioning).
    pub fn remove_subject(&self, subject: &str) {
        self.subjects.write().remove(&Str::new(subject));
    }

    /// All attributes provisioned for a subject (used when serving
    /// federated attribute queries from other domains).
    pub fn attributes_of(&self, subject: &str) -> Vec<(String, AttrValue)> {
        self.subjects
            .read()
            .get(&Str::new(subject))
            .map_or_else(Vec::new, |record| {
                record
                    .iter()
                    .map(|(name, value)| (name.to_string(), value.clone()))
                    .collect()
            })
    }
}

impl AttributeProvider for StaticAttributes {
    fn name(&self) -> &str {
        "static"
    }

    fn provide(
        &self,
        id: &AttributeId,
        request: &RequestContext,
        _now_ms: u64,
    ) -> Option<Vec<AttrValue>> {
        if id.category != Category::Subject {
            return None;
        }
        let key = request.id_of(Category::Subject)?;
        let guard = self.subjects.read();
        let record = guard.get(key)?;
        // Counted first, so a one-value bag asks for one value's bytes.
        let named = |entry: &&(AttrName, AttrValue)| entry.0 == id.name;
        let count = record.iter().filter(named).count();
        if count == 0 {
            return None;
        }
        let mut bag = Vec::with_capacity(count);
        bag.extend(record.iter().filter(named).map(|(_, value)| value.clone()));
        Some(bag)
    }
}

/// Supplies `env.current-time` from the simulation clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnvironmentProvider;

impl AttributeProvider for EnvironmentProvider {
    fn name(&self) -> &str {
        "environment"
    }

    fn provide(
        &self,
        id: &AttributeId,
        _request: &RequestContext,
        now_ms: u64,
    ) -> Option<Vec<AttrValue>> {
        if id.category == Category::Environment && id.name == TIME_ATTR {
            Some(vec![AttrValue::Time(now_ms)])
        } else {
            None
        }
    }
}

/// Per-registry resolution statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipStats {
    /// Resolution attempts.
    pub lookups: u64,
    /// Attempts resolved by some provider.
    pub resolved: u64,
}

/// An ordered chain of providers consulted in turn.
#[derive(Default)]
pub struct PipRegistry {
    providers: Vec<Arc<dyn AttributeProvider>>,
    lookups: AtomicU64,
    resolved: AtomicU64,
}

impl PipRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a provider (consulted after earlier ones).
    pub fn add(&mut self, provider: Arc<dyn AttributeProvider>) {
        self.providers.push(provider);
    }

    /// Resolves an attribute through the chain.
    pub fn resolve(
        &self,
        id: &AttributeId,
        request: &RequestContext,
        now_ms: u64,
    ) -> Option<Vec<AttrValue>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        for p in &self.providers {
            if let Some(bag) = p.provide(id, request, now_ms) {
                self.resolved.fetch_add(1, Ordering::Relaxed);
                return Some(bag);
            }
        }
        None
    }

    /// Current statistics.
    pub fn stats(&self) -> PipStats {
        PipStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            resolved: self.resolved.load(Ordering::Relaxed),
        }
    }

    /// Number of providers.
    pub fn len(&self) -> usize {
        self.providers.len()
    }

    /// Whether no providers are registered.
    pub fn is_empty(&self) -> bool {
        self.providers.is_empty()
    }
}

/// Adapts (request, registry, clock) into an [`AttributeSource`] for the
/// evaluation engine: request attributes win; otherwise the registry is
/// consulted lazily and the result memoized for the request's duration.
///
/// Either way the bag is lent from where it lives — the request's own
/// entry, or the memo, which stores the registry's answer once and
/// never moves or changes it — so the engine copies neither.
///
/// One evaluation runs on one thread (`AttributeSource` is not `Sync`)
/// and asks for a handful of attributes, so the memo is an append-only
/// chain of `OnceCell`s walked linearly — no lock, no hashing. Its head
/// lives inline, so the first attribute resolved boxes nothing; only
/// the second and later ones are boxed.
pub struct ResolvingSource<'a> {
    request: &'a RequestContext,
    registry: &'a PipRegistry,
    now_ms: u64,
    memo: OnceCell<Memo>,
}

/// One registry answer (`None`: no provider knows the attribute) and
/// the rest of the chain.
struct Memo {
    id: AttributeId,
    bag: Option<Vec<AttrValue>>,
    next: OnceCell<Box<Memo>>,
}

impl<'a> ResolvingSource<'a> {
    /// Creates a resolving source for one evaluation.
    pub fn new(request: &'a RequestContext, registry: &'a PipRegistry, now_ms: u64) -> Self {
        ResolvingSource {
            request,
            registry,
            now_ms,
            memo: OnceCell::new(),
        }
    }
}

impl AttributeSource for ResolvingSource<'_> {
    fn attribute_bag(&self, id: &AttributeId) -> Option<&[AttrValue]> {
        if let Some(bag) = self.request.attribute_bag(id) {
            return Some(bag);
        }
        // The first empty cell of the chain is filled with `id`'s
        // answer, so the walk always ends on `id`.
        let resolve = || Memo {
            id: *id,
            bag: self.registry.resolve(id, self.request, self.now_ms),
            next: OnceCell::new(),
        };
        let mut known = self.memo.get_or_init(resolve);
        while known.id != *id {
            known = known.next.get_or_init(|| Box::new(resolve()));
        }
        known.bag.as_deref()
    }
}

/// Unlinks the chain front to back: the derived drop would recurse once
/// per memoized attribute, and a policy names as many as it likes.
impl Drop for ResolvingSource<'_> {
    fn drop(&mut self) {
        let mut next = self.memo.get_mut().and_then(|head| head.next.take());
        while let Some(mut memo) = next {
            next = memo.next.take();
        }
    }
}

/// Conventional id attribute name re-export for callers building
/// requests.
pub use dacs_policy::attr::ID_ATTR as SUBJECT_ID_ATTR;

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> RequestContext {
        RequestContext::basic("alice", "ehr/1", "read")
    }

    #[test]
    fn static_attributes_by_category() {
        let s = StaticAttributes::new();
        s.add_subject_attr("alice", "dept", "radiology");
        let dept = s.provide(&AttributeId::subject("dept"), &req(), 0);
        assert_eq!(dept, Some(vec![AttrValue::from("radiology")]));
        assert_eq!(s.provide(&AttributeId::resource("owner"), &req(), 0), None);
        assert_eq!(s.provide(&AttributeId::subject("nope"), &req(), 0), None);
        s.remove_subject("alice");
        assert_eq!(s.provide(&AttributeId::subject("dept"), &req(), 0), None);
    }

    /// A record keeps insertion order as it grows: a repeated name's
    /// values come back in the order they were added, and
    /// `attributes_of` lists every entry.
    #[test]
    fn static_records_keep_insertion_order() {
        let s = StaticAttributes::new();
        s.add_subject_attr("alice", "role", "doctor");
        s.add_subject_attr("alice", "dept", "radiology");
        s.add_subject_attr("alice", "role", "staff");
        s.add_subject_attr("alice", "clearance", 3);
        let roles = s.provide(&AttributeId::subject("role"), &req(), 0);
        assert_eq!(roles, Some(vec!["doctor".into(), "staff".into()]));
        assert_eq!(
            s.attributes_of("alice"),
            vec![
                ("role".to_owned(), "doctor".into()),
                ("dept".to_owned(), "radiology".into()),
                ("role".to_owned(), "staff".into()),
                ("clearance".to_owned(), AttrValue::Integer(3)),
            ]
        );
        assert!(s.attributes_of("bob").is_empty());
    }

    #[test]
    fn environment_time() {
        let e = EnvironmentProvider;
        let t = e.provide(&AttributeId::environment(TIME_ATTR), &req(), 12345);
        assert_eq!(t, Some(vec![AttrValue::Time(12345)]));
        assert_eq!(
            e.provide(&AttributeId::environment("weather"), &req(), 0),
            None
        );
    }

    #[test]
    fn registry_chains_providers() {
        let mut reg = PipRegistry::new();
        let s = Arc::new(StaticAttributes::new());
        s.add_subject_attr("alice", "dept", "radiology");
        reg.add(s);
        reg.add(Arc::new(EnvironmentProvider));
        assert!(reg
            .resolve(&AttributeId::subject("dept"), &req(), 0)
            .is_some());
        assert!(reg
            .resolve(&AttributeId::environment(TIME_ATTR), &req(), 7)
            .is_some());
        assert!(reg
            .resolve(&AttributeId::subject("unknown"), &req(), 0)
            .is_none());
        let st = reg.stats();
        assert_eq!(st.lookups, 3);
        assert_eq!(st.resolved, 2);
    }

    /// Eight threads resolve through one registry at once; quiesced,
    /// `lookups` is the calls made and `resolved` the calls that
    /// returned `Some` — nothing lost, nothing double-booked.
    #[test]
    fn concurrent_resolves_count_every_lookup_once() {
        const THREADS: usize = 8;
        const CALLS: usize = 500;
        let s = Arc::new(StaticAttributes::new());
        s.add_subject_attr("alice", "dept", "radiology");
        let mut reg = PipRegistry::new();
        reg.add(s);
        let start = std::sync::Barrier::new(THREADS);
        let some: usize = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (reg, start) = (&reg, &start);
                    scope.spawn(move || {
                        let request = req();
                        start.wait();
                        (0..CALLS)
                            .filter(|i| {
                                // Threads disagree on which calls hit a
                                // known attribute, so the mix interleaves.
                                let name = if (i + t) % 3 == 0 { "unknown" } else { "dept" };
                                reg.resolve(&AttributeId::subject(name), &request, 0)
                                    .is_some()
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let st = reg.stats();
        assert_eq!(st.lookups, (THREADS * CALLS) as u64);
        assert_eq!(st.resolved, some as u64);
        assert!(
            some > 0 && some < THREADS * CALLS,
            "both outcomes exercised"
        );
    }

    #[test]
    fn resolving_source_prefers_request_then_memoizes() {
        let mut reg = PipRegistry::new();
        let s = Arc::new(StaticAttributes::new());
        s.add_subject_attr("alice", "dept", "radiology");
        reg.add(s);
        let request = req().with_subject_attr("dept", "oncology");
        let src = ResolvingSource::new(&request, &reg, 0);
        // Request value wins over PIP.
        assert_eq!(
            src.attribute_bag(&AttributeId::subject("dept")),
            Some(&[AttrValue::from("oncology")][..])
        );
        // Unknown in request → PIP; memoized (single registry lookup).
        let request2 = req();
        let src2 = ResolvingSource::new(&request2, &reg, 0);
        let id = AttributeId::subject("dept");
        assert!(src2.attribute_bag(&id).is_some());
        assert!(src2.attribute_bag(&id).is_some());
        assert_eq!(reg.stats().lookups, 1);
    }

    #[test]
    fn engine_integration_via_resolving_source() {
        use dacs_policy::dsl::parse_policy;
        use dacs_policy::eval::Evaluator;
        use dacs_policy::policy::Decision;

        let policy = parse_policy(
            r#"
policy "dept-gate" deny-unless-permit {
  rule "radiology-only" permit {
    condition is-in("radiology", attr(subject, "dept"))
  }
}
"#,
        )
        .unwrap();

        let mut reg = PipRegistry::new();
        let s = Arc::new(StaticAttributes::new());
        s.add_subject_attr("alice", "dept", "radiology");
        reg.add(s);

        let request = req();
        let src = ResolvingSource::new(&request, &reg, 0);
        let mut ev = Evaluator::with_source(&request, &src);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Permit);

        // Same policy for bob, who has no dept attribute → deny.
        let bob = RequestContext::basic("bob", "ehr/1", "read");
        let src = ResolvingSource::new(&bob, &reg, 0);
        let mut ev = Evaluator::with_source(&bob, &src);
        assert_eq!(ev.evaluate_policy(&policy).decision, Decision::Deny);
    }

    #[test]
    fn unused_import_guard() {
        // ID_ATTR re-export is part of the public API.
        assert_eq!(SUBJECT_ID_ATTR, dacs_policy::attr::ID_ATTR);
    }
}
