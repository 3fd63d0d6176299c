//! # dacs-pep
//!
//! Policy Enforcement Point for the DACS reproduction of the DSN 2008
//! paper: the barrier around each protected service (Fig. 1–3).
//!
//! Supports the paper's three authorization decision query sequences
//! (§2.2):
//!
//! * **pull** (policy-issuing, Fig. 3) — [`Pep::serve`]: the PEP
//!   queries its PDP per request.
//! * **push** (capability-issuing, Fig. 2) —
//!   [`Pep::serve_with_capability`]: the client presents a signed
//!   capability assertion; the PEP validates it and additionally applies
//!   local policy (resource autonomy: local deny always wins).
//! * **agent** — a PEP deployed as a proxy in front of the service; the
//!   data path is identical to pull, the deployment difference is
//!   captured by the federation layer's topology.
//!
//! Every enforcement rides an [`EnforceRequest`] — access context plus
//! scheduling metadata (priority lane, deadline) — so a clustered
//! decision source can steer its fan-out through the decision
//! scheduler's priority runqueues. PEPs are constructed through
//! [`PepBuilder`] ([`Pep::builder`]).
//!
//! Dependability posture (ARCHITECTURE.md, the decision paths):
//! Indeterminate decisions, unverifiable assertions, and obligations
//! without a registered handler all result in **deny** (fail-safe
//! defaults), and every enforcement is recorded for audit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dacs_assert::SignedAssertion;
use dacs_capability::{Admitted, CapabilityAuthority, CapabilityToken, TokenError};
use dacs_crypto::sign::{CryptoCtx, PublicKey};
use dacs_pdp::{CacheConfig, CacheStats, DecisionClass, HashedRequestCache, Pdp, Priority};
use dacs_policy::attr::{Category, Str};
use dacs_policy::epoch::PolicyEpoch;
use dacs_policy::eval::Response;
use dacs_policy::policy::{Decision, Obligation};
use dacs_policy::request::RequestContext;
use dacs_telemetry::{Note, Registry, Span, Stage, Telemetry};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scheduling metadata for an enforcement, separated from the access
/// context so callers can build one options value and reuse it across
/// requests (e.g. a whole batch).
///
/// Marked `#[non_exhaustive]`: construct via [`EnforceOptions::new`] /
/// [`EnforceOptions::interactive`] / [`EnforceOptions::bulk`] and the
/// `with_*` setters, so future scheduling knobs can be added without
/// breaking callers.
#[non_exhaustive]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EnforceOptions {
    /// Scheduling lane for the decision fan-out (see
    /// [`dacs_pdp::Priority`]). Defaults to [`Priority::Default`].
    pub priority: Priority,
    /// Optional decision deadline, milliseconds from submission,
    /// carried into the scheduler's deadline-aware pop: an overdue job
    /// is promoted ahead of higher lanes.
    pub deadline_ms: Option<u64>,
}

impl EnforceOptions {
    /// Default-lane options with no deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Options for latency-sensitive, user-facing enforcements.
    pub fn interactive() -> Self {
        Self::new().with_priority(Priority::Interactive)
    }

    /// Options for background work that must never delay interactive
    /// enforcements.
    pub fn bulk() -> Self {
        Self::new().with_priority(Priority::Bulk)
    }

    /// Sets the scheduling lane.
    pub(crate) fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the decision deadline in milliseconds from submission.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// The scheduler-facing [`DecisionClass`] these options describe.
    pub fn class(&self) -> DecisionClass {
        let class = DecisionClass {
            priority: self.priority,
            ..DecisionClass::default()
        };
        match self.deadline_ms {
            Some(ms) => class.with_deadline_us(ms.saturating_mul(1_000)),
            None => class,
        }
    }
}

/// One enforcement request under the redesigned API: the access
/// context plus enforcement time and scheduling metadata, in one
/// value. [`Pep::serve`], [`Pep::serve_with_capability`] and the
/// batching layers all route through it, so priority and deadline
/// reach the decision scheduler no matter which enforcement model
/// (pull, push, batch) carried the request.
///
/// ```
/// # use dacs_pep::EnforceRequest;
/// # use dacs_policy::request::RequestContext;
/// let ctx = RequestContext::basic("alice", "ehr/1", "read");
/// let request = EnforceRequest::of(&ctx, 42).interactive().with_deadline_ms(5);
/// assert_eq!(request.now_ms, 42);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct EnforceRequest<'a> {
    /// The access request being enforced.
    pub context: &'a RequestContext,
    /// Enforcement time (simulation milliseconds).
    pub now_ms: u64,
    /// Scheduling lane and deadline of the decision fan-out.
    pub options: EnforceOptions,
}

impl<'a> EnforceRequest<'a> {
    /// A default-lane enforcement of `context` at `now_ms`.
    pub fn of(context: &'a RequestContext, now_ms: u64) -> Self {
        EnforceRequest {
            context,
            now_ms,
            options: EnforceOptions::new(),
        }
    }

    /// Moves this enforcement to the interactive lane.
    pub fn interactive(mut self) -> Self {
        self.options.priority = Priority::Interactive;
        self
    }

    /// Moves this enforcement to the bulk lane.
    pub fn bulk(mut self) -> Self {
        self.options.priority = Priority::Bulk;
        self
    }

    /// Sets the decision deadline in milliseconds from submission.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.options.deadline_ms = Some(deadline_ms);
        self
    }

    /// The scheduler-facing [`DecisionClass`] this request rides in.
    pub fn class(&self) -> DecisionClass {
        self.options.class()
    }
}

/// What a PEP asks its decision point: one call, a batch of queries.
///
/// The paper's PEP asks its PDP one question whatever carries the
/// answer (§2.2), so a source implements exactly one method,
/// [`DecisionSource::decide_batch_with_grants_classed`]: answers align
/// with `requests`, all of them ride one scheduling [`DecisionClass`],
/// and each may carry a capability token the caller admits and
/// rechecks on later requests. A single decision is a batch of one.
///
/// The classic deployment binds the PEP to a single local [`Pdp`]
/// engine (it ignores the class and mints nothing); a dependable one
/// binds it to a clustered decision service that routes each query
/// through sharded quorum fan-out (see `ClusteredDecisionSource` in
/// `dacs-federation`), and [`MintingSource`] wraps either to mint. The
/// PEP's enforcement semantics — obligations, fail-safe defaults,
/// audit — are identical either way.
pub trait DecisionSource: Send + Sync {
    /// Serves a batch of decision queries on `class`'s scheduling lane;
    /// answers align with `requests`, each a response and, when the
    /// source mints capabilities, a signed token for its request.
    fn decide_batch_with_grants_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<(Response, Option<CapabilityToken>)>;

    // The seven adapters below are kept, hidden, only because the repo
    // benchmark's `TimedSource` still implements all eight methods by
    // name; nothing in the workspace implements or calls them.

    #[doc(hidden)]
    fn decide(&self, request: &RequestContext, now_ms: u64) -> Response {
        one(self, request, now_ms, DecisionClass::default()).0
    }

    #[doc(hidden)]
    fn decide_batch(&self, requests: &[RequestContext], now_ms: u64) -> Vec<Response> {
        responses(self.decide_batch_with_grants_classed(requests, now_ms, DecisionClass::default()))
    }

    #[doc(hidden)]
    fn decide_with_grant(
        &self,
        request: &RequestContext,
        now_ms: u64,
    ) -> (Response, Option<CapabilityToken>) {
        one(self, request, now_ms, DecisionClass::default())
    }

    #[doc(hidden)]
    fn decide_batch_with_grants(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        self.decide_batch_with_grants_classed(requests, now_ms, DecisionClass::default())
    }

    #[doc(hidden)]
    fn decide_classed(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> Response {
        one(self, request, now_ms, class).0
    }

    #[doc(hidden)]
    fn decide_batch_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<Response> {
        responses(self.decide_batch_with_grants_classed(requests, now_ms, class))
    }

    #[doc(hidden)]
    fn decide_with_grant_classed(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> (Response, Option<CapabilityToken>) {
        one(self, request, now_ms, class)
    }
}

/// A batch of one through `source`'s one call.
fn one<S: DecisionSource + ?Sized>(
    source: &S,
    request: &RequestContext,
    now_ms: u64,
    class: DecisionClass,
) -> (Response, Option<CapabilityToken>) {
    let mut answers =
        source.decide_batch_with_grants_classed(std::slice::from_ref(request), now_ms, class);
    answers.pop().expect("one answer per query")
}

/// The responses of a batch's answers, tokens dropped.
fn responses(answers: Vec<(Response, Option<CapabilityToken>)>) -> Vec<Response> {
    answers.into_iter().map(|(response, _)| response).collect()
}

impl DecisionSource for Pdp {
    fn decide_batch_with_grants_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        _class: DecisionClass,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        requests
            .iter()
            .map(|request| (Pdp::decide(self, request, now_ms), None))
            .collect()
    }
}

/// Wraps any decision source — a single engine or a clustered service
/// — with a [`CapabilityAuthority`] so unconditional permits come back
/// with a signed capability token: the one place tokens are minted.
pub struct MintingSource {
    inner: Arc<dyn DecisionSource>,
    authority: Arc<CapabilityAuthority>,
}

impl MintingSource {
    /// Wraps `inner` so its permits mint tokens from `authority`.
    pub fn new(inner: Arc<dyn DecisionSource>, authority: Arc<CapabilityAuthority>) -> Self {
        MintingSource { inner, authority }
    }
}

impl DecisionSource for MintingSource {
    fn decide_batch_with_grants_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        // Each token is minted at its answer's epoch: a stale answer
        // yields a token admission refuses.
        let mut answers = self
            .inner
            .decide_batch_with_grants_classed(requests, now_ms, class);
        for ((response, token), request) in answers.iter_mut().zip(requests) {
            *token = self.authority.grant_for(request, response, now_ms);
        }
        answers
    }
}

/// Something that can discharge one kind of obligation.
pub trait ObligationHandler: Send + Sync {
    /// The obligation id this handler serves (e.g. `"log"`).
    fn obligation_id(&self) -> &str;

    /// Performs the obligation.
    ///
    /// # Errors
    ///
    /// A human-readable reason; the PEP converts failures into denials
    /// (an obligation the PEP cannot discharge must not be skipped).
    fn fulfill(&self, obligation: &Obligation, request: &RequestContext) -> Result<(), String>;
}

/// Records `log` obligations into an in-memory audit buffer.
#[derive(Debug, Default)]
pub struct LogObligationHandler {
    entries: Mutex<Vec<String>>,
}

impl LogObligationHandler {
    /// Creates an empty log handler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of recorded entries.
    pub fn entries(&self) -> Vec<String> {
        self.entries.lock().clone()
    }
}

impl ObligationHandler for LogObligationHandler {
    fn obligation_id(&self) -> &str {
        "log"
    }

    fn fulfill(&self, obligation: &Obligation, request: &RequestContext) -> Result<(), String> {
        let mut line = format!(
            "subject={} resource={} action={}",
            request.subject_id().unwrap_or("?"),
            request.resource_id().unwrap_or("?"),
            request.action_id().unwrap_or("?"),
        );
        for (k, v) in &obligation.params {
            line.push_str(&format!(" {k}={v}"));
        }
        self.entries.lock().push(line);
        Ok(())
    }
}

/// Counts `notify` obligations (stands in for alerting integrations).
#[derive(Debug, Default)]
pub struct NotifyObligationHandler {
    count: Mutex<u64>,
}

impl NotifyObligationHandler {
    /// Creates the handler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of notifications fired.
    pub fn count(&self) -> u64 {
        *self.count.lock()
    }
}

impl ObligationHandler for NotifyObligationHandler {
    fn obligation_id(&self) -> &str {
        "notify"
    }

    fn fulfill(&self, _obligation: &Obligation, _request: &RequestContext) -> Result<(), String> {
        *self.count.lock() += 1;
        Ok(())
    }
}

/// The outcome of one enforcement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnforcementResult {
    /// Whether access was granted.
    pub allowed: bool,
    /// The decision that produced the outcome.
    pub decision: Decision,
    /// Obligation ids fulfilled before granting/denying.
    pub fulfilled: Vec<String>,
    /// Why access was denied (when it was): a fixed text for a
    /// decision that denies, borrowed so that a denied hit allocates
    /// nothing, or the owned text of an error.
    pub reason: Option<Cow<'static, str>>,
}

/// The reason a PEP gives for not granting `decision` when it came with
/// an `Ok` status: `"decision "` and the decision's name.
fn denial_text(decision: Decision) -> &'static str {
    match decision {
        Decision::Permit => "decision Permit",
        Decision::Deny => "decision Deny",
        Decision::NotApplicable => "decision NotApplicable",
        Decision::Indeterminate => "decision Indeterminate",
    }
}

/// Which path answered an enforcement: the audit record's "who served
/// it".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServingPath {
    /// The PEP-side decision cache.
    Cache,
    /// An admitted capability token, rechecked locally.
    Token,
    /// The decision source (a PDP engine or a clustered decision
    /// service).
    Source,
    /// No decision was consulted: the PEP refused fail-safe on its own
    /// (an untrusted or unverifiable capability, a request without
    /// identifiers).
    FailSafe,
}

/// One audit record per enforcement, as [`Pep::audit_log`] returns it.
///
/// The three ids are kept whole up to 1 KiB together (the whole
/// byte budget of a ring of fewer than 16 records, when that is
/// smaller). Beyond it the shorter ids stay whole and the longer ones
/// are cut to an even share of what is left, each at a UTF-8 char
/// boundary, so an outsized id can neither grow the audit ring nor
/// evict more than its share of it. A request without an id records
/// it as `"?"`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EnforcementRecord {
    /// Enforcement time (simulation milliseconds).
    pub at_ms: u64,
    /// Subject id.
    pub subject: String,
    /// Resource id.
    pub resource: String,
    /// Action id.
    pub action: String,
    /// Whether access was granted.
    pub allowed: bool,
    /// Which path answered. A denial for an obligation that could not
    /// be discharged keeps the path of the answer that carried it.
    pub path: ServingPath,
}

/// Aggregate enforcement counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EnforcementStats {
    /// Requests granted.
    pub allowed: u64,
    /// Requests denied by explicit Deny.
    pub denied: u64,
    /// Requests denied fail-safe (Indeterminate, NotApplicable, broken
    /// assertions, obligation failures).
    pub failsafe_denials: u64,
    /// Obligation fulfilment failures.
    pub obligation_failures: u64,
    /// Decisions served from the PEP-side cache.
    pub cache_hits: u64,
    /// Decisions served from a locally verified capability token
    /// (the decision source was skipped entirely).
    pub token_hits: u64,
    /// Capability tokens the decision source minted for this PEP.
    pub tokens_minted: u64,
    /// Minted tokens refused at admission (never stored) plus admitted
    /// ones that failed a per-use recheck (expired, revoked by an epoch
    /// bump) and were evicted; the decision source's answer was served.
    pub token_rejects: u64,
    /// Audit records displaced from the bounded audit ring (see
    /// [`Pep::audit_log`] for the retention contract).
    pub audit_dropped: u64,
}

/// Exposition names of a PEP-side cache's [`CacheStats`], in field
/// order.
type CacheNames = [&'static str; 4];

const DECISION_CACHE_NAMES: CacheNames = [
    "dacs_pep_decision_cache_hits_total",
    "dacs_pep_decision_cache_misses_total",
    "dacs_pep_decision_cache_evictions_total",
    "dacs_pep_decision_cache_expirations_total",
];

const TOKEN_CACHE_NAMES: CacheNames = [
    "dacs_pep_token_cache_hits_total",
    "dacs_pep_token_cache_misses_total",
    "dacs_pep_token_cache_evictions_total",
    "dacs_pep_token_cache_expirations_total",
];

/// Exposes a striped cache's [`CacheStats`] — which live per stripe,
/// under the lock the data needs anyway — by reading `stats()` through.
/// The destructuring is exhaustive on purpose: a new field that is not
/// exposed fails to compile.
fn expose_cache<V: Clone + Send + 'static>(
    registry: &Registry,
    names: CacheNames,
    cache: &Arc<HashedRequestCache<V>>,
) {
    let cache = Arc::clone(cache);
    registry.expose(move || {
        let CacheStats {
            hits,
            misses,
            evictions,
            expirations,
        } = cache.stats();
        names
            .into_iter()
            .zip([hits, misses, evictions, expirations])
            .collect()
    });
}

dacs_telemetry::counter_block! {
    /// [`EnforcementStats`] as independent relaxed atomics — the one
    /// place these counters live — so concurrent enforcement threads
    /// bump them without sharing a lock. [`Pep::stats`] and, with
    /// telemetry attached, the registry both read this block.
    struct AtomicEnforcementStats: EnforcementStats {
        allowed => "dacs_pep_allowed_total",
        denied => "dacs_pep_denied_total",
        failsafe_denials => "dacs_pep_failsafe_denials_total",
        obligation_failures => "dacs_pep_obligation_failures_total",
        cache_hits => "dacs_pep_cache_hits_total",
        token_hits => "dacs_pep_token_hits_total",
        tokens_minted => "dacs_pep_tokens_minted_total",
        token_rejects => "dacs_pep_token_rejects_total",
        audit_dropped => "dacs_pep_audit_dropped_total",
    }
}

/// Bytes of id text the audit ring budgets per record: a ring of
/// `capacity` records shares `capacity × AUDIT_BYTES_PER_RECORD` bytes.
const AUDIT_BYTES_PER_RECORD: usize = 64;

/// The most id bytes one audit record keeps (see [`cut_ids`]), unless
/// the ring's whole byte budget is smaller.
const AUDIT_ID_BOUND: usize = 1024;

/// One audit record's fixed-size part; its ids live in the byte ring,
/// right after the ids of the record before it.
#[derive(Clone, Copy)]
struct AuditHeader {
    at_ms: u64,
    /// Byte lengths of the subject, the resource and the action.
    lens: [u16; 3],
    allowed: bool,
    path: ServingPath,
}

// Pinned: 65 536 headers take 1 MiB.
const _: () = assert!(std::mem::size_of::<AuditHeader>() == 16);

impl AuditHeader {
    fn id_bytes(&self) -> usize {
        self.lens.iter().map(|&n| usize::from(n)).sum()
    }
}

/// The two rings behind one lock: the headers, oldest first, and the
/// circular bytes holding their ids back to back from `head`.
struct AuditRings {
    headers: VecDeque<AuditHeader>,
    /// Reserved at the whole byte budget and never reallocated; its
    /// length is the live extent, where the ids wrap.
    bytes: Vec<u8>,
    /// Where the oldest record's ids start.
    head: usize,
    /// Bytes the held records' ids take.
    used: usize,
}

impl AuditRings {
    /// `at`, at most twice the extent, brought back inside it.
    fn wrap(&self, at: usize) -> usize {
        if at < self.bytes.len() {
            at
        } else {
            at - self.bytes.len()
        }
    }

    /// Widens the extent, in place, so that `need` more bytes fit beside
    /// the held ids: by at least an eighth, so growth is amortised, but
    /// never past `budget`. Held ids that wrap keep their order: the run
    /// after the head moves up to the new end.
    fn grow(&mut self, need: usize, budget: usize) {
        let old = self.bytes.len();
        let new = (self.used + need).max(old + old / 8).min(budget);
        self.bytes.resize(new, 0);
        if self.head + self.used > old {
            self.bytes
                .copy_within(self.head..old, self.head + new - old);
            self.head += new - old;
        }
    }

    /// Copies `id` in at `at`, splitting it across the wrap point;
    /// returns where the next id starts.
    fn write(&mut self, at: usize, id: &[u8]) -> usize {
        let room = self.bytes.len() - at;
        if id.len() < room {
            self.bytes[at..][..id.len()].copy_from_slice(id);
            at + id.len()
        } else {
            let (before, wrapped) = id.split_at(room);
            self.bytes[at..].copy_from_slice(before);
            self.bytes[..wrapped.len()].copy_from_slice(wrapped);
            wrapped.len()
        }
    }

    /// The `len` bytes at `at` (inside the extent), as the id they hold.
    fn read(&self, at: usize, len: usize) -> String {
        let before = len.min(self.bytes.len() - at);
        let mut id = Vec::with_capacity(len);
        id.extend_from_slice(&self.bytes[at..][..before]);
        id.extend_from_slice(&self.bytes[..len - before]);
        String::from_utf8(id).expect("ids are cut at char boundaries")
    }
}

/// Bounded audit storage: the newest records, oldest first, that fit
/// both `capacity` and `capacity × AUDIT_BYTES_PER_RECORD` bytes of ids.
///
/// Both rings are reserved once, here, and never reallocated, and the
/// byte budget is never zeroed: the ids wrap at a live extent that grows
/// in place only when the held ids and the incoming record would not
/// fit it, so the pages written are those the ids have needed. A push
/// copies a fixed-size header and the three ids (cut by [`cut_ids`]),
/// after displacing the oldest records while either the record count or
/// the byte budget would overflow. No push allocates or frees. The
/// caller counts each displacement in `EnforcementStats::audit_dropped`.
struct AuditRing {
    capacity: usize,
    /// `capacity × AUDIT_BYTES_PER_RECORD`: the most id bytes held.
    budget: usize,
    /// The most id bytes one record keeps: [`AUDIT_ID_BOUND`], or the
    /// whole byte budget when that is smaller.
    id_bound: usize,
    rings: Mutex<AuditRings>,
}

impl AuditRing {
    fn new(capacity: usize) -> Self {
        let budget = capacity
            .checked_mul(AUDIT_BYTES_PER_RECORD)
            .expect("audit byte budget overflows usize");
        AuditRing {
            capacity,
            budget,
            id_bound: AUDIT_ID_BOUND.min(budget),
            rings: Mutex::new(AuditRings {
                headers: VecDeque::with_capacity(capacity),
                bytes: Vec::with_capacity(budget),
                head: 0,
                used: 0,
            }),
        }
    }

    /// Records one enforcement; returns how many of the oldest records
    /// were displaced to make room.
    fn push(&self, at_ms: u64, ids: [&[u8]; 3], allowed: bool, path: ServingPath) -> u64 {
        let lens = cut_ids(ids, self.id_bound);
        let need: usize = lens.iter().sum();
        let mut guard = self.rings.lock();
        let rings = &mut *guard;
        let mut displaced = 0;
        while rings.headers.len() == self.capacity || rings.used + need > self.budget {
            let oldest = rings
                .headers
                .pop_front()
                .expect("an empty ring fits any cut record");
            rings.head = rings.wrap(rings.head + oldest.id_bytes());
            rings.used -= oldest.id_bytes();
            displaced += 1;
        }
        if rings.used + need > rings.bytes.len() {
            rings.grow(need, self.budget);
        }
        let mut at = rings.wrap(rings.head + rings.used);
        for (id, len) in ids.into_iter().zip(lens) {
            at = rings.write(at, &id[..len]);
        }
        rings.used += need;
        rings.headers.push_back(AuditHeader {
            at_ms,
            // Each is at most `AUDIT_ID_BOUND`.
            lens: lens.map(|n| n as u16),
            allowed,
            path,
        });
        displaced
    }

    fn snapshot(&self) -> Vec<EnforcementRecord> {
        let rings = self.rings.lock();
        let mut at = rings.head;
        rings
            .headers
            .iter()
            .map(|header| {
                let [subject, resource, action] = header.lens.map(|len| {
                    let id = rings.read(at, usize::from(len));
                    at = rings.wrap(at + usize::from(len));
                    id
                });
                EnforcementRecord {
                    at_ms: header.at_ms,
                    subject,
                    resource,
                    action,
                    allowed: header.allowed,
                    path: header.path,
                }
            })
            .collect()
    }
}

/// How many bytes of each id an audit record keeps: every byte when
/// the three fit in `bound` together; otherwise the shortest stay whole
/// while they fit an even share of what is left, and the rest are cut
/// to that share, each at a char boundary. The ids are UTF-8 read as
/// bytes: a char boundary is any position but one before a
/// continuation byte.
fn cut_ids(ids: [&[u8]; 3], bound: usize) -> [usize; 3] {
    let mut lens = ids.map(<[u8]>::len);
    if lens.iter().sum::<usize>() <= bound {
        return lens;
    }
    // Shortest first; equal lengths keep the ids' order.
    let mut order = [0, 1, 2];
    order.sort_by_key(|&i| lens[i]);
    let mut left = bound;
    for (k, &i) in order.iter().enumerate() {
        let mut keep = lens[i].min(left / (3 - k));
        while ids[i].get(keep).is_some_and(|&b| b & 0xc0 == 0x80) {
            keep -= 1;
        }
        lens[i] = keep;
        left -= keep;
    }
    lens
}

/// Default bound of the audit ring: generous enough that tests and
/// short-lived PEPs never observe a drop, small enough that a
/// long-lived PEP's memory stays bounded. It reserves 5 MiB: a 16-byte
/// header and 64 bytes of ids per record. Resident are the headers
/// written (1 MiB once full) and the ids' live extent, at most an
/// eighth more than the most ids held at once (at most 1.8 MiB when
/// the records' ids come to 25 bytes).
pub const DEFAULT_AUDIT_CAPACITY: usize = 65_536;

/// The capability fast path: the shared authority (key + current
/// epoch) and the PEP's striped store of *admitted* tokens — minted
/// tokens whose MAC and binding the authority verified against the very
/// request they are stored under ([`Pep::admit`] is the only insert).
/// Keyed by the 64-bit canonical request hash with the full request
/// compared on every hit — the per-use binding, stricter than the
/// token's three ids — so no two requests cross-hit, even on collision.
struct PepCapability {
    authority: Arc<CapabilityAuthority>,
    tokens: Arc<HashedRequestCache<Admitted>>,
}

/// A token recheck's refusal as its `token` span names it.
fn reject_kind(e: &TokenError) -> &'static str {
    match e {
        TokenError::NotYetValid => "not_yet_valid",
        TokenError::Expired => "expired",
        TokenError::StaleEpoch { .. } => "stale_epoch",
        // A recheck looks only at the window and the epoch.
        _ => "unadmitted",
    }
}

/// A lookup phase's span note: `hit`, `miss` or the refused token's
/// `reject:<kind>` for one request; `hits:n` for a batch.
fn phase_note(requests: usize, hits: u64, reject: Option<&'static str>) -> Note {
    match (requests, hits, reject) {
        (1, 1, _) => Note::Hit,
        (1, _, Some(kind)) => Note::Reject(kind),
        (1, _, None) => Note::Miss,
        _ => Note::Hits(hits),
    }
}

/// One request's way through [`Pep::answer`].
struct Slot {
    /// The request's canonical hash; 0, never read, when the PEP has
    /// neither a token store nor a decision cache.
    hash: u64,
    /// The answer and who gave it, once something has.
    answer: Option<(Response, ServingPath)>,
}

impl Slot {
    const OPEN: Slot = Slot {
        hash: 0,
        answer: None,
    };

    fn answered(self) -> (Response, ServingPath) {
        self.answer.expect("every request answered")
    }
}

/// Builds a [`Pep`] in one fluent pass — the single construction
/// entry point.
///
/// ```
/// # use dacs_pep::{Pep, LogObligationHandler};
/// # use dacs_crypto::sign::CryptoCtx;
/// # use dacs_pdp::{CacheConfig, Pdp};
/// # use std::sync::Arc;
/// # fn demo(pdp: Arc<Pdp>) -> Pep {
/// Pep::builder("pep.clinic")
///     .audience("clinic")
///     .source(pdp)
///     .crypto(CryptoCtx::new())
///     .handler(Arc::new(LogObligationHandler::new()))
///     .cache(CacheConfig { capacity: 64, ttl_ms: 1_000 })
///     .build()
/// # }
/// ```
pub struct PepBuilder {
    name: String,
    audience: String,
    source: Option<Arc<dyn DecisionSource>>,
    crypto: Option<CryptoCtx>,
    handlers: HashMap<String, Arc<dyn ObligationHandler>>,
    cache: Option<CacheConfig>,
    trusted_issuers: HashMap<String, PublicKey>,
    telemetry: Option<Arc<Telemetry>>,
    capability: Option<(Arc<CapabilityAuthority>, usize)>,
    audit_capacity: usize,
}

impl PepBuilder {
    /// Starts a builder for a PEP named `name`. The audience defaults
    /// to the name until [`PepBuilder::audience`] overrides it.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        PepBuilder {
            audience: name.clone(),
            name,
            source: None,
            crypto: None,
            handlers: HashMap::new(),
            cache: None,
            trusted_issuers: HashMap::new(),
            telemetry: None,
            capability: None,
            audit_capacity: DEFAULT_AUDIT_CAPACITY,
        }
    }

    /// The audience string capabilities must be issued for (usually
    /// the domain name).
    pub fn audience(mut self, audience: impl Into<String>) -> Self {
        self.audience = audience.into();
        self
    }

    /// Binds the decision source (pull model): a single [`Pdp`] engine
    /// (an `Arc<Pdp>` coerces) or a clustered decision service.
    pub fn source(mut self, source: Arc<dyn DecisionSource>) -> Self {
        self.source = Some(source);
        self
    }

    /// The crypto context used to verify capability assertions.
    /// Defaults to a fresh [`CryptoCtx`] (sufficient when the PEP
    /// never sees push-model capabilities).
    pub fn crypto(mut self, crypto: CryptoCtx) -> Self {
        self.crypto = Some(crypto);
        self
    }

    /// Registers an obligation handler.
    pub fn handler(mut self, handler: Arc<dyn ObligationHandler>) -> Self {
        self.handlers
            .insert(handler.obligation_id().to_owned(), handler);
        self
    }

    /// Enables the PEP-side decision cache.
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Trusts a capability issuer.
    pub fn trusted_issuer(mut self, name: impl Into<String>, key: PublicKey) -> Self {
        self.trusted_issuers.insert(name.into(), key);
        self
    }

    /// Attaches observability: every [`Pep::serve`]/[`Pep::serve_batch`]
    /// call (and every push-model enforcement past its pre-check) opens
    /// a root trace span decomposed into
    /// `token`/`cache`/`decide`/`obligations` children (deeper layers — cluster
    /// routing, quorum fan-out, per-replica evaluation — attach their
    /// own spans underneath `decide` through the shared handle; each
    /// span feeds its stage's `dacs_<stage>_ns` histogram), and the
    /// registry reads every field of [`EnforcementStats`] and of both
    /// caches' [`CacheStats`] through as `dacs_pep_*` counters.
    pub fn telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Enables the signed-capability fast path: the decision source's
    /// unconditional permits come back with an HMAC-signed token (a
    /// [`MintingSource`]'s answers to
    /// [`DecisionSource::decide_batch_with_grants_classed`]), fully
    /// verified on arrival
    /// — MAC, binding, window, epoch — then kept and rechecked locally —
    /// same request, window, epoch — on later enforcements, skipping the
    /// decision source entirely on hits. A token that fails *any* check
    /// is never stored, or is evicted, and the source answers, so the
    /// fast path can deny-and-retry but never permit what the source
    /// would deny. `capacity` bounds the store; the TTL is the authority's.
    pub fn capability_fastpath(
        mut self,
        authority: Arc<CapabilityAuthority>,
        capacity: usize,
    ) -> Self {
        self.capability = Some((authority, capacity));
        self
    }

    /// Bounds the audit ring to the newest `capacity` records (default
    /// [`DEFAULT_AUDIT_CAPACITY`]) and their ids to `capacity × 64`
    /// bytes. Both rings are reserved once, when the PEP is built, and
    /// never reallocated; the ids are written only as far as they need,
    /// since they wrap at a live extent that grows in place within the
    /// reservation. See [`Pep::audit_log`] for the retention contract and
    /// [`EnforcementRecord`] for how an outsized id is cut.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn audit_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "audit capacity must be positive");
        self.audit_capacity = capacity;
        self
    }

    /// Finishes the PEP.
    ///
    /// # Panics
    ///
    /// Panics if no decision source was bound.
    pub fn build(self) -> Pep {
        let source = self.source.expect("PepBuilder needs a decision source");
        let stats = Arc::new(AtomicEnforcementStats::default());
        let cache = self
            .cache
            .map(|cfg| Arc::new(HashedRequestCache::new(cfg.capacity, cfg.ttl_ms)));
        let capability = self.capability.map(|(authority, capacity)| {
            let ttl = authority.ttl_ms();
            PepCapability {
                authority,
                tokens: Arc::new(HashedRequestCache::new(capacity, ttl)),
            }
        });
        if let Some(telemetry) = &self.telemetry {
            let r = telemetry.registry();
            let exposed = Arc::clone(&stats);
            r.expose(move || {
                let stats = exposed.snapshot();
                let mut samples = stats.samples();
                // Derived, not counted a second time: every `serve*`
                // entry point ends in exactly one of the three.
                let enforcements = stats.allowed + stats.denied + stats.failsafe_denials;
                samples.push(("dacs_pep_enforcements_total", enforcements));
                samples
            });
            if let Some(cache) = &cache {
                expose_cache(r, DECISION_CACHE_NAMES, cache);
            }
            if let Some(cap) = &capability {
                expose_cache(r, TOKEN_CACHE_NAMES, &cap.tokens);
            }
        }
        Pep {
            name: self.name,
            audience: self.audience,
            source,
            handlers: self.handlers,
            cache,
            epoch: AtomicU64::new(0),
            crypto: self.crypto.unwrap_or_default(),
            trusted_issuers: self.trusted_issuers,
            audit: AuditRing::new(self.audit_capacity),
            stats,
            telemetry: self.telemetry,
            capability,
        }
    }
}

/// A Policy Enforcement Point guarding one service.
///
/// The read path is concurrent: decision and token caches are striped
/// [`HashedRequestCache`]s keyed by the request's 64-bit canonical
/// hash (computed once per enforcement, full-context verify on hit),
/// enforcement counters are relaxed atomics, and the audit trail is a
/// bounded ring — so parallel callers of [`Pep::serve`] contend only
/// on the one cache stripe their request maps to, plus the audit ring
/// lock for the final record append.
pub struct Pep {
    name: String,
    /// The audience string capabilities must be issued for (usually the
    /// domain name).
    audience: String,
    source: Arc<dyn DecisionSource>,
    handlers: HashMap<String, Arc<dyn ObligationHandler>>,
    cache: Option<Arc<HashedRequestCache<dacs_policy::eval::Response>>>,
    /// The epoch last announced ([`Pep::advance_epoch`]), stored with
    /// `Release` after the push and loaded with `Acquire`.
    epoch: AtomicU64,
    crypto: CryptoCtx,
    /// Trusted capability issuers: name → verification key.
    trusted_issuers: HashMap<String, PublicKey>,
    audit: AuditRing,
    stats: Arc<AtomicEnforcementStats>,
    telemetry: Option<Arc<Telemetry>>,
    capability: Option<PepCapability>,
}

impl Pep {
    /// Starts a [`PepBuilder`] — the single construction entry point.
    pub fn builder(name: impl Into<String>) -> PepBuilder {
        PepBuilder::new(name)
    }

    /// The PEP's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pull-model enforcement (Fig. 3) under the redesigned API: query
    /// the decision source on the request's scheduling lane, fulfil
    /// obligations, grant or deny.
    pub fn serve(&self, request: EnforceRequest<'_>) -> EnforcementResult {
        self.serve_one(request, |response| response)
    }

    /// Pull-model enforcement of a whole batch: the requests the token
    /// store and the decision cache do not answer go to the decision
    /// source in one call (a single coalesced round on a clustered
    /// source, with every fan-out job in `options`' scheduling lane),
    /// then each request is concluded exactly as [`Pep::serve`] would
    /// — obligations, fail-safe defaults, audit and stats per request.
    /// Results align with `requests`.
    pub fn serve_batch(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        options: EnforceOptions,
    ) -> Vec<EnforcementResult> {
        let root = self.root(Stage::PepEnforceBatch);
        let mut slots: Vec<Slot> = requests.iter().map(|_| Slot::OPEN).collect();
        self.answer(requests, &mut slots, now_ms, options, root.as_ref());
        let _span = root.as_ref().map(|p| p.child(Stage::Obligations));
        requests
            .iter()
            .zip(slots)
            .map(|(request, slot)| {
                let (response, path) = slot.answered();
                self.conclude(request, response, path, now_ms)
            })
            .collect()
    }

    /// [`Pep::serve`]'s body, with `local` applied to the answer before
    /// it is concluded: a batch of one through [`Pep::answer`] whose
    /// slot lives on the stack, so a hit allocates nothing.
    #[inline(always)]
    fn serve_one(
        &self,
        request: EnforceRequest<'_>,
        local: impl FnOnce(Response) -> Response,
    ) -> EnforcementResult {
        let EnforceRequest {
            context,
            now_ms,
            options,
        } = request;
        let root = self.root(Stage::PepEnforce);
        let mut slots = [Slot::OPEN];
        let requests = std::slice::from_ref(context);
        self.answer(requests, &mut slots, now_ms, options, root.as_ref());
        let [slot] = slots;
        let (response, path) = slot.answered();
        let _span = root.as_ref().map(|p| p.child(Stage::Obligations));
        self.conclude(context, local(response), path, now_ms)
    }

    /// A root span of `stage`, when telemetry is attached.
    fn root(&self, stage: Stage) -> Option<Span<'_>> {
        self.telemetry.as_ref().map(|t| t.tracer().root(stage))
    }

    /// The one enforcement body: answers every slot of `requests`.
    ///
    /// Each request is hashed once and looked up once — in the token
    /// store, then in the decision cache — and every lookup completes
    /// before any insert, so equal requests in one batch miss together
    /// and coalesce in the decision source. The misses go to the source
    /// in one call (the whole slice when nothing hit, so a lone miss
    /// copies nothing); its tokens are then admitted and its responses
    /// cached. Phase spans hang under `root`: `token` and `cache` note
    /// `hit`/`miss` (or the refused token's `reject:<kind>`) for one
    /// request and `hits:n` for a batch, and `decide` is entered, so a
    /// clustered source's spans nest beneath it.
    // Inlined into both callers, so a lone request's loops fold away:
    // out of line, a cache hit measured ≈ 6 ns slower.
    #[inline(always)]
    fn answer(
        &self,
        requests: &[RequestContext],
        slots: &mut [Slot],
        now_ms: u64,
        options: EnforceOptions,
        root: Option<&Span>,
    ) {
        let mut misses = requests.len();
        if self.cache.is_some() || self.capability.is_some() {
            for (slot, request) in slots.iter_mut().zip(requests) {
                slot.hash = request.canonical_hash();
            }
        }
        if let Some(cap) = &self.capability {
            let mut span = root.map(|p| p.child(Stage::Token));
            let (mut hits, mut reject) = (0, None);
            for (slot, request) in slots.iter_mut().zip(requests) {
                match self.token_hit(cap, request, slot.hash, now_ms) {
                    Ok(true) => {
                        hits += 1;
                        misses -= 1;
                        slot.answer =
                            Some((Response::decision(Decision::Permit), ServingPath::Token));
                    }
                    Ok(false) => {}
                    Err(kind) => reject = Some(kind),
                }
            }
            if let Some(s) = span.as_mut() {
                s.set_note(phase_note(requests.len(), hits, reject));
            }
        }
        if let Some(cache) = &self.cache {
            let mut span = root.map(|p| p.child(Stage::Cache));
            let mut hits = 0;
            let current = PolicyEpoch(self.epoch.load(Ordering::Acquire));
            for (slot, request) in slots.iter_mut().zip(requests) {
                if slot.answer.is_none() {
                    let fresh = |response: &Response| response.epoch >= current;
                    if let Some(response) = cache.get_if(slot.hash, request, now_ms, fresh) {
                        hits += 1;
                        misses -= 1;
                        slot.answer = Some((response, ServingPath::Cache));
                    }
                }
            }
            if hits > 0 {
                self.stats.cache_hits.fetch_add(hits, Ordering::Relaxed);
            }
            if let Some(s) = span.as_mut() {
                s.set_note(phase_note(requests.len(), hits, None));
            }
        }
        if misses == 0 {
            return;
        }
        let span = root.map(|p| p.child(Stage::Decide));
        let _guard = span.as_ref().map(|s| s.enter());
        let copies: Vec<RequestContext>;
        let asked = if misses == requests.len() {
            requests
        } else {
            copies = requests
                .iter()
                .zip(&*slots)
                .filter(|(_, slot)| slot.answer.is_none())
                .map(|(request, _)| request.clone())
                .collect();
            &copies
        };
        let answers = self
            .source
            .decide_batch_with_grants_classed(asked, now_ms, options.class());
        debug_assert_eq!(answers.len(), misses, "one answer per query");
        let open = requests
            .iter()
            .zip(slots.iter_mut())
            .filter(|(_, slot)| slot.answer.is_none());
        for ((request, slot), (response, token)) in open.zip(answers) {
            if let (Some(cap), Some(token)) = (&self.capability, token) {
                self.admit(cap, slot.hash, request, &token, now_ms);
            }
            if let Some(cache) = &self.cache {
                cache.insert(slot.hash, request, response.clone(), now_ms);
            }
            slot.answer = Some((response, ServingPath::Source));
        }
    }

    /// Moves the PEP to the epoch its domain just announced: from the
    /// next enforcement on, a cached answer behind it is a miss —
    /// including one a decide that straddled the push caches later.
    pub fn advance_epoch(&self, epoch: PolicyEpoch) {
        self.epoch.fetch_max(epoch.0, Ordering::AcqRel);
    }

    /// Push-model enforcement (Fig. 2) under the redesigned API. The
    /// presented capability must pass a pre-check: a trusted issuer, a
    /// valid signature, window and audience, and a scope covering this
    /// very request. The request is then enforced through the one body
    /// like [`Pep::serve`], its local answer an autonomy overlay, since
    /// the resource provider still makes the final decision (§2.2): a
    /// local Deny stands, a local Indeterminate denies fail-safe, and
    /// anything else is the capability's permit, carrying a local
    /// Permit's obligations.
    pub fn serve_with_capability(
        &self,
        request: EnforceRequest<'_>,
        capability: &SignedAssertion,
    ) -> EnforcementResult {
        let EnforceRequest {
            context, now_ms, ..
        } = request;
        match self.presented(context, capability, now_ms) {
            Ok(()) => self.serve_one(request, |local| match local.decision {
                Decision::Deny => local,
                Decision::Indeterminate => Response::indeterminate("local policy indeterminate"),
                Decision::Permit => Response {
                    status: dacs_policy::eval::Status::Ok,
                    ..local
                },
                Decision::NotApplicable => Response::decision(Decision::Permit),
            }),
            // The PEP's own refusal, before any decision is consulted.
            Err(reason) => self.deny_failsafe(context, ServingPath::FailSafe, now_ms, reason),
        }
    }

    /// The push model's pre-check: the capability's issuer is trusted,
    /// its signature, validity window and audience verify, and it
    /// covers this very request. The refusal's reason otherwise.
    fn presented(
        &self,
        request: &RequestContext,
        capability: &SignedAssertion,
        now_ms: u64,
    ) -> Result<(), String> {
        let issuer = &capability.assertion.issuer;
        let key = self
            .trusted_issuers
            .get(issuer)
            .ok_or_else(|| format!("untrusted issuer {issuer}"))?;
        capability
            .verify(&self.crypto, key, now_ms, Some(&self.audience))
            .map_err(|e| e.to_string())?;
        let (Some(subject), Some(resource), Some(action)) = (
            request.subject_id(),
            request.resource_id(),
            request.action_id(),
        ) else {
            return Err("request lacks identifiers".into());
        };
        capability
            .check_capability(subject, resource, action)
            .map_err(|e| e.to_string())
    }

    /// The capability fast path for one request: an admitted token
    /// stored for exactly this canonical request (hashed key, full
    /// request compared on hit — the binding), rechecked against the
    /// clock and the authority's current epoch. `Ok(true)` when one
    /// passes: it *is* the permit, and the decision source is skipped.
    /// A refused one is dropped under the lookup's lock — a store miss
    /// — counted and its kind returned, and the request goes on to the
    /// cache and the source: the fast path can deny-and-retry, never
    /// permit what the source would deny.
    fn token_hit(
        &self,
        cap: &PepCapability,
        request: &RequestContext,
        hash: u64,
        now_ms: u64,
    ) -> Result<bool, &'static str> {
        let mut refused = None;
        let hit = cap.tokens.get_if(hash, request, now_ms, |admitted| {
            let passed = cap.authority.recheck(admitted, now_ms);
            refused = passed.as_ref().err().map(reject_kind);
            passed.is_ok()
        });
        if hit.is_some() {
            self.stats.token_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(true);
        }
        match refused {
            Some(kind) => {
                self.stats.token_rejects.fetch_add(1, Ordering::Relaxed);
                Err(kind)
            }
            None => Ok(false),
        }
    }

    /// The only door into the token store: a token the source minted
    /// for `request` is counted, then kept — as its [`Admitted`]
    /// remainder — only if the authority's full verification accepts it
    /// for this very request now. Anything else (forged, bound elsewhere,
    /// out of window, born stale) is dropped as a `token_rejects`.
    fn admit(
        &self,
        cap: &PepCapability,
        hash: u64,
        request: &RequestContext,
        token: &CapabilityToken,
        now_ms: u64,
    ) {
        self.stats.tokens_minted.fetch_add(1, Ordering::Relaxed);
        let ids = (
            request.subject_id(),
            request.resource_id(),
            request.action_id(),
        );
        let admitted = match ids {
            (Some(s), Some(r), Some(a)) => cap.authority.admit(token, s, r, a, now_ms).ok(),
            _ => None,
        };
        match admitted {
            Some(admitted) => cap.tokens.insert(hash, request, admitted, now_ms),
            None => {
                self.stats.token_rejects.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn conclude(
        &self,
        request: &RequestContext,
        response: dacs_policy::eval::Response,
        path: ServingPath,
        now_ms: u64,
    ) -> EnforcementResult {
        let mut fulfilled = Vec::new();
        let grant = response.decision == Decision::Permit;

        // Obligations must be discharged regardless of effect direction;
        // inability to discharge any of them forces deny (fail-safe).
        for ob in &response.obligations {
            match self.handlers.get(&ob.id) {
                Some(h) => match h.fulfill(ob, request) {
                    Ok(()) => fulfilled.push(ob.id.clone()),
                    Err(e) => {
                        self.stats
                            .obligation_failures
                            .fetch_add(1, Ordering::Relaxed);
                        return self.deny_failsafe(
                            request,
                            path,
                            now_ms,
                            format!("obligation {} failed: {e}", ob.id),
                        );
                    }
                },
                None => {
                    self.stats
                        .obligation_failures
                        .fetch_add(1, Ordering::Relaxed);
                    return self.deny_failsafe(
                        request,
                        path,
                        now_ms,
                        format!("no handler for obligation {}", ob.id),
                    );
                }
            }
        }

        let reason = if grant {
            None
        } else {
            Some(match &response.status {
                dacs_policy::eval::Status::Error(e) => Cow::Owned(e.clone()),
                dacs_policy::eval::Status::Ok => Cow::Borrowed(denial_text(response.decision)),
            })
        };
        if grant {
            self.stats.allowed.fetch_add(1, Ordering::Relaxed);
        } else if response.decision == Decision::Deny {
            self.stats.denied.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.failsafe_denials.fetch_add(1, Ordering::Relaxed);
        }
        self.record(request, grant, path, now_ms);
        EnforcementResult {
            allowed: grant,
            decision: response.decision,
            fulfilled,
            reason,
        }
    }

    fn deny_failsafe(
        &self,
        request: &RequestContext,
        path: ServingPath,
        now_ms: u64,
        reason: String,
    ) -> EnforcementResult {
        self.stats.failsafe_denials.fetch_add(1, Ordering::Relaxed);
        self.record(request, false, path, now_ms);
        EnforcementResult {
            allowed: false,
            decision: Decision::Indeterminate,
            fulfilled: Vec::new(),
            reason: Some(Cow::Owned(reason)),
        }
    }

    fn record(&self, request: &RequestContext, allowed: bool, path: ServingPath, at_ms: u64) {
        let ids = [Category::Subject, Category::Resource, Category::Action]
            .map(|category| request.id_of(category).map_or(&b"?"[..], Str::as_bytes));
        let dropped = self.audit.push(at_ms, ids, allowed, path);
        if dropped > 0 {
            self.stats
                .audit_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Snapshot of the enforcement audit trail, oldest-first.
    ///
    /// **Retention contract.** The audit trail is a recent window, not
    /// a history: a bounded ring of the newest records that fit both
    /// [`PepBuilder::audit_capacity`] records (default
    /// [`DEFAULT_AUDIT_CAPACITY`]) and a byte budget of 64 bytes of ids
    /// per record. A record is displaced when either is exhausted — the
    /// record count in ordinary use, the byte budget only when the ids
    /// average more than 64 bytes — and each displaced record increments
    /// [`EnforcementStats::audit_dropped`], so
    /// `audit_log().len() + audit_dropped` always equals the total
    /// enforcements recorded. The repo benchmark's `cached_zipf`
    /// workload overruns the default window eightfold. A deployment
    /// needing complete retention must drain the log (or ship records
    /// to durable storage) before `audit_dropped` moves; the counter is
    /// the signal that the in-memory window no longer covers the full
    /// history. Ids are kept as [`EnforcementRecord`] describes.
    pub fn audit_log(&self) -> Vec<EnforcementRecord> {
        self.audit.snapshot()
    }

    /// How many records the audit trail holds: `audit_log().len()`
    /// without building the records, so it allocates nothing.
    pub fn audit_len(&self) -> usize {
        self.audit.rings.lock().headers.len()
    }

    /// Aggregate counters. Counters are relaxed atomics bumped
    /// independently, so a snapshot taken during concurrent
    /// enforcement is exact per counter but not a cross-counter
    /// instant; quiesced, totals are exact.
    pub fn stats(&self) -> EnforcementStats {
        self.stats.snapshot()
    }

    /// Decision-cache statistics, if the PEP-side cache is enabled.
    /// `hits + misses` equals the number of cache lookups (token-hit
    /// requests never reach the cache).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|cache| cache.stats())
    }

    /// Capability token cache statistics, if the fast path is enabled.
    /// A token refused on recheck is a miss, so `hits` equals
    /// [`EnforcementStats::token_hits`].
    pub fn token_cache_stats(&self) -> Option<CacheStats> {
        self.capability.as_ref().map(|cap| cap.tokens.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_assert::{Assertion, Conditions, Statement};
    use dacs_crypto::sign::SigningKey;
    use dacs_pap::Pap;
    use dacs_pip::{PipRegistry, StaticAttributes};
    use dacs_policy::dsl::parse_policy;
    use dacs_policy::policy::{PolicyElement, PolicyId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct World {
        pep: Pep,
        log: Arc<LogObligationHandler>,
        cas_key: SigningKey,
        // Holds the simulated-PKI registry the issuer key lives in.
        ctx: CryptoCtx,
    }

    fn world(policy_src: &str, with_log_handler: bool) -> World {
        world_with(policy_src, with_log_handler, None)
    }

    fn world_with(
        policy_src: &str,
        with_log_handler: bool,
        telemetry: Option<Arc<Telemetry>>,
    ) -> World {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(7);
        let cas_key = SigningKey::generate_sim(ctx.registry(), &mut rng);

        let pap = Arc::new(Pap::new("pap.b"));
        pap.submit("admin", parse_policy(policy_src).unwrap(), 0)
            .unwrap();
        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Arc::new(Pdp::new(
            "pdp.b",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));

        let log = Arc::new(LogObligationHandler::new());
        let mut pep = Pep::builder("pep.b")
            .audience("hospital-b")
            .source(pdp)
            .crypto(ctx.clone())
            .trusted_issuer("cas.vo", cas_key.public_key());
        if with_log_handler {
            pep = pep.handler(log.clone());
        }
        if let Some(t) = telemetry {
            pep = pep.telemetry(t);
        }
        World {
            pep: pep.build(),
            log,
            cas_key,
            ctx,
        }
    }

    const GATE: &str = r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
    obligation "log" on permit {
      "who" = attr(subject, "id");
    }
  }
}
"#;

    #[test]
    fn pull_model_permits_and_logs() {
        let w = world(GATE, true);
        let req = RequestContext::basic("alice", "ehr/1", "read");
        let r = w.pep.serve(EnforceRequest::of(&req, 10));
        assert!(r.allowed);
        assert_eq!(r.fulfilled, vec!["log".to_string()]);
        assert_eq!(w.log.entries().len(), 1);
        assert!(w.log.entries()[0].contains("subject=alice"));
        assert_eq!(w.pep.stats().allowed, 1);
        assert_eq!(w.pep.audit_log().len(), 1);
    }

    /// The borrowed denial texts are the `"decision {}"` a caller has
    /// always read, for every decision.
    #[test]
    fn denial_texts_spell_the_decision() {
        for decision in [
            Decision::Permit,
            Decision::Deny,
            Decision::NotApplicable,
            Decision::Indeterminate,
        ] {
            assert_eq!(denial_text(decision), format!("decision {decision}"));
        }
        let w = world(GATE, true);
        let stranger = RequestContext::basic("mallory", "ehr/1", "read");
        let r = w.pep.serve(EnforceRequest::of(&stranger, 10));
        assert!(!r.allowed);
        assert_eq!(r.reason.as_deref(), Some("decision Deny"));
    }

    /// A seeded id: mostly short, sometimes up to `longest` chars, each
    /// one to four bytes.
    fn random_id(rng: &mut StdRng, longest: usize) -> String {
        const CHARS: [char; 6] = ['a', 'z', '/', 'é', '€', '𝄞'];
        let chars = if rng.gen_bool(0.1) {
            rng.gen_range(0..=longest)
        } else {
            rng.gen_range(0..12)
        };
        (0..chars)
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    /// The two flat rings against a plain queue of owned records that
    /// forgets its oldest while it holds more than `capacity` records or
    /// more than the byte budget of ids. Seeded ids run from empty to
    /// longer than the budget, in multibyte UTF-8, and wrap the byte
    /// ring mid-record; a second run per capacity lengthens its ids
    /// slowly, so the ids' extent grows while the held ids wrap. At every
    /// step retained plus displaced is every push, the snapshot is the
    /// queue, an id is a char-boundary prefix of what was pushed (whole
    /// when the three fit the bound), and neither ring's capacity moves.
    #[test]
    fn audit_ring_matches_a_plain_queue() {
        let mut rng = StdRng::seed_from_u64(25);
        let paths = [
            ServingPath::Cache,
            ServingPath::Token,
            ServingPath::Source,
            ServingPath::FailSafe,
        ];
        let runs = [1, 3, 8, 40]
            .into_iter()
            .flat_map(|c| [(c, false), (c, true)]);
        for (capacity, lengthening) in runs {
            let ring = AuditRing::new(capacity);
            let budget = capacity * AUDIT_BYTES_PER_RECORD;
            let rings_capacity = || {
                let rings = ring.rings.lock();
                (rings.headers.capacity(), rings.bytes.capacity())
            };
            let layout = || {
                let rings = ring.rings.lock();
                (rings.head, rings.used, rings.bytes.len())
            };
            let built = rings_capacity();
            assert_eq!(built.1, budget);
            let id_bytes =
                |r: &EnforcementRecord| r.subject.len() + r.resource.len() + r.action.len();
            let mut queue: VecDeque<EnforcementRecord> = VecDeque::new();
            let (mut displaced, mut forgotten, mut straddled) = (0u64, 0u64, 0);
            let mut regrown_wrapped = 0;
            for step in 0..800u64 {
                let ids = if lengthening {
                    [0, 1, 2].map(|k| cycled_id(step as usize / 64 + k))
                } else {
                    [(); 3].map(|()| random_id(&mut rng, 2 * budget))
                };
                let (head, used, extent) = layout();
                let (allowed, path) = (step % 3 == 0, paths[step as usize % 4]);
                let pushed = ring.push(step, ids.each_ref().map(String::as_bytes), allowed, path);
                displaced += pushed;
                // The held ids still wrapped when the push grew the
                // extent: they did before it, and what it displaced
                // ended short of the wrap point.
                let freed: usize = queue.iter().take(pushed as usize).map(id_bytes).sum();
                let (head_after, used_after, extent_after) = layout();
                regrown_wrapped += usize::from(
                    extent_after > extent && head + used > extent && head + freed < extent,
                );
                let log = ring.snapshot();
                let newest = log.last().expect("just pushed");
                let kept = [&newest.subject, &newest.resource, &newest.action];
                for (kept, pushed) in kept.into_iter().zip(&ids) {
                    assert!(pushed.starts_with(kept.as_str()), "{kept:?} of {pushed:?}");
                }
                let whole: usize = ids.iter().map(String::len).sum();
                if whole <= ring.id_bound {
                    assert_eq!(kept.map(String::as_str), ids.each_ref().map(String::as_str));
                } else {
                    // Only the longest id's last char boundary is lost.
                    assert!(id_bytes(newest) + 3 >= ring.id_bound);
                }
                assert!(id_bytes(newest) <= ring.id_bound);
                // The newest ids end where the held ones do, unwrapped.
                let end = head_after + used_after;
                straddled +=
                    usize::from(end - id_bytes(newest) < extent_after && end > extent_after);

                queue.push_back(EnforcementRecord {
                    at_ms: step,
                    subject: newest.subject.clone(),
                    resource: newest.resource.clone(),
                    action: newest.action.clone(),
                    allowed,
                    path,
                });
                while queue.len() > capacity || queue.iter().map(id_bytes).sum::<usize>() > budget {
                    queue.pop_front();
                    forgotten += 1;
                }
                assert_eq!(
                    log,
                    Vec::from(queue.clone()),
                    "capacity {capacity}, step {step}"
                );
                assert_eq!(
                    (displaced, log.len() as u64 + displaced),
                    (forgotten, step + 1)
                );
                assert_eq!(rings_capacity(), built);
            }
            assert!(straddled > 0, "capacity {capacity}: no record wrapped");
            // A ring of one record holds nothing when it grows.
            assert!(
                !lengthening || capacity == 1 || regrown_wrapped > 0,
                "capacity {capacity}: no extent grew while the ids wrapped"
            );
        }
    }

    /// An id of `chars` chars, cycling through one- to four-byte ones.
    fn cycled_id(chars: usize) -> String {
        ['a', 'é', '€', '𝄞']
            .into_iter()
            .cycle()
            .take(chars)
            .collect()
    }

    /// The ids wrap at the extent they need, not at the budget: a
    /// default ring fed the benchmark's ids past its record count has
    /// written at most a quarter more bytes than it holds, inside a
    /// reservation that stays the whole budget. Longer ids then grow
    /// the extent, up to the budget, and the records kept are still the
    /// newest that fit it.
    #[test]
    fn the_audit_ring_writes_only_what_it_holds() {
        let ring = AuditRing::new(DEFAULT_AUDIT_CAPACITY);
        let budget = DEFAULT_AUDIT_CAPACITY * AUDIT_BYTES_PER_RECORD;
        let layout = || {
            let rings = ring.rings.lock();
            (rings.used, rings.bytes.len(), rings.bytes.capacity())
        };
        for k in 0..3 * DEFAULT_AUDIT_CAPACITY {
            let ids = [
                format!("user-{k}@pq"),
                format!("records/{}", k % 16),
                "read".to_owned(),
            ];
            ring.push(
                0,
                ids.each_ref().map(String::as_bytes),
                true,
                ServingPath::Cache,
            );
        }
        let (held, extent, reserved) = layout();
        assert!(extent * 4 <= held * 5, "{extent} bytes written for {held}");
        assert_eq!(reserved, budget);

        let long = |k: usize| [0, 1, 2].map(|j| format!("{:060}", k + j));
        let mut displaced = 0;
        for k in 0..DEFAULT_AUDIT_CAPACITY {
            let ids = long(k);
            displaced += ring.push(
                1,
                ids.each_ref().map(String::as_bytes),
                true,
                ServingPath::Cache,
            );
        }
        let (held, grown, reserved) = layout();
        assert!(grown > extent && grown <= budget);
        assert_eq!(reserved, budget);
        // Every record is 180 bytes now: the newest that fit the budget.
        let log = ring.snapshot();
        assert_eq!((log.len(), held), (budget / 180, budget / 180 * 180));
        assert_eq!(
            displaced,
            2 * DEFAULT_AUDIT_CAPACITY as u64 - log.len() as u64
        );
        let oldest = DEFAULT_AUDIT_CAPACITY - log.len();
        for (record, k) in log.iter().zip(oldest..) {
            let [subject, resource, action] = long(k);
            assert_eq!(
                (&record.subject, &record.resource, &record.action),
                (&subject, &resource, &action)
            );
        }
    }

    /// The bound on what one record keeps, pinned: outsized ids are cut
    /// to an even share at a char boundary, shorter ones stay whole, and
    /// an outsized record displaces what its kept bytes need.
    #[test]
    fn an_outsized_id_is_cut_at_a_char_boundary() {
        let ring = AuditRing::new(64);
        assert_eq!(ring.id_bound, AUDIT_ID_BOUND);
        let euros = "€".repeat(1_000);
        let acutes = "é".repeat(1_000);
        let many = "a".repeat(5_000);
        ring.push(
            0,
            [euros.as_bytes(), b"ehr/1", b"read"],
            false,
            ServingPath::FailSafe,
        );
        // Sorted by length: the resource (2 000 B) gets a third of the
        // bound, the subject half what is left, the action the rest.
        ring.push(
            1,
            [&euros, &acutes, &many].map(|id| id.as_bytes()),
            false,
            ServingPath::FailSafe,
        );
        let log = ring.snapshot();
        assert_eq!(
            (
                log[0].subject.as_str(),
                log[0].resource.as_str(),
                log[0].action.as_str()
            ),
            (&*"€".repeat(338), "ehr/1", "read")
        );
        assert_eq!(
            (
                log[1].subject.as_str(),
                log[1].resource.as_str(),
                log[1].action.as_str()
            ),
            (&*"€".repeat(114), &*"é".repeat(170), &*"a".repeat(342))
        );

        // A ring of four budgets 256 bytes: a record that needs all of
        // them displaces every record before it.
        let small = AuditRing::new(4);
        for at_ms in 0..3 {
            assert_eq!(
                small.push(
                    at_ms,
                    [b"alice", b"ehr/1", b"read"],
                    true,
                    ServingPath::Cache
                ),
                0
            );
        }
        assert_eq!(
            small.push(3, [many.as_bytes(), b"", b""], false, ServingPath::Source),
            3
        );
        assert_eq!(small.snapshot()[0].subject, "a".repeat(256));
        assert_eq!(
            small.push(4, [b"bob", b"ehr/2", b"read"], true, ServingPath::Token),
            1
        );
    }

    /// Each way a request is answered leaves its own path in the audit
    /// record, through `serve`, `serve_batch` and `serve_with_capability`
    /// alike.
    #[test]
    fn each_serving_path_is_recorded() {
        use dacs_capability::CapabilityKey;
        let w = world(
            r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
            false,
        );
        let authority = Arc::new(CapabilityAuthority::new(
            CapabilityKey::generate(&mut StdRng::seed_from_u64(11)),
            1_000,
        ));
        let pep = Pep::builder("pep.paths")
            .audience("hospital-b")
            .source(Arc::new(MintingSource::new(
                w.pep.source.clone(),
                authority.clone(),
            )))
            .crypto(w.ctx.clone())
            .trusted_issuer("cas.vo", w.cas_key.public_key())
            .cache(CacheConfig {
                capacity: 64,
                ttl_ms: 1_000,
            })
            .capability_fastpath(authority, 64)
            .build();
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        let mallory = RequestContext::basic("mallory", "ehr/1", "read");
        // Alice's permit mints a token, Mallory's deny is cached.
        for request in [&alice, &mallory, &alice, &mallory] {
            pep.serve(EnforceRequest::of(request, 1));
        }
        let mut rogue = capability(&w, "bob", 1_000, "hospital-b");
        rogue.assertion.issuer = "cas.rogue".into();
        let bob = RequestContext::basic("bob", "ehr/1", "read");
        pep.serve_with_capability(EnforceRequest::of(&bob, 2), &rogue);
        let carol = RequestContext::basic("carol", "ehr/1", "read");
        pep.serve_batch(&[alice, mallory, carol], 3, EnforceOptions::default());

        let recorded: Vec<_> = pep
            .audit_log()
            .into_iter()
            .map(|r| (r.subject, r.allowed, r.path))
            .collect();
        let expected = [
            ("alice", true, ServingPath::Source),
            ("mallory", false, ServingPath::Source),
            ("alice", true, ServingPath::Token),
            ("mallory", false, ServingPath::Cache),
            ("bob", false, ServingPath::FailSafe),
            ("alice", true, ServingPath::Token),
            ("mallory", false, ServingPath::Cache),
            ("carol", false, ServingPath::Source),
        ];
        assert_eq!(
            recorded,
            expected.map(|(s, allowed, path)| (s.to_owned(), allowed, path))
        );
    }

    /// The same contract one layer up: a permit and a deny alike are
    /// recorded, and `audit_log().len() + audit_dropped` is the
    /// enforcements so far. `audit_len` counts what `audit_log` builds,
    /// before the ring fills and after it wraps.
    #[test]
    fn audit_log_plus_dropped_is_every_enforcement() {
        let w = world(GATE, true);
        let pdp_only = Pep::builder("pep.ring")
            .source(w.pep.source.clone())
            .handler(w.log.clone())
            .audit_capacity(4)
            .build();
        assert_eq!((pdp_only.audit_len(), pdp_only.audit_log().len()), (0, 0));
        let subjects = ["alice", "mallory", "a-much-longer-subject-id@b", "m"];
        for step in 0..19u64 {
            let subject = subjects[step as usize % subjects.len()];
            let req = RequestContext::basic(subject, format!("ehr/{step}"), "read");
            let result = pdp_only.serve(EnforceRequest::of(&req, step));
            assert_eq!(result.allowed, subject == "alice");
            let log = pdp_only.audit_log();
            assert_eq!(pdp_only.audit_len(), log.len());
            assert_eq!(log.len() as u64 + pdp_only.stats().audit_dropped, step + 1);
            let newest = log.last().expect("just recorded");
            assert_eq!(
                (newest.at_ms, &*newest.subject, &*newest.resource),
                (step, subject, &*format!("ehr/{step}"))
            );
            assert_eq!(newest.allowed, result.allowed);
            assert!(log.windows(2).all(|w| w[0].at_ms + 1 == w[1].at_ms));
        }
        assert_eq!(pdp_only.stats().audit_dropped, 15);
    }

    #[test]
    fn pull_model_denies_unknown_subject() {
        let w = world(GATE, true);
        let req = RequestContext::basic("mallory", "ehr/1", "read");
        let r = w.pep.serve(EnforceRequest::of(&req, 10));
        assert!(!r.allowed);
        assert_eq!(r.decision, Decision::Deny);
        assert_eq!(w.pep.stats().denied, 1);
    }

    #[test]
    fn missing_obligation_handler_is_failsafe_deny() {
        let w = world(GATE, false); // no log handler registered
        let req = RequestContext::basic("alice", "ehr/1", "read");
        let r = w.pep.serve(EnforceRequest::of(&req, 10));
        assert!(!r.allowed);
        assert!(r.reason.unwrap().contains("no handler"));
        let stats = w.pep.stats();
        assert_eq!(stats.failsafe_denials, 1);
        assert_eq!(stats.obligation_failures, 1);
    }

    fn capability(w: &World, subject: &str, ttl: u64, audience: &str) -> SignedAssertion {
        SignedAssertion::sign(
            Assertion {
                id: 1,
                issuer: "cas.vo".into(),
                subject: subject.into(),
                issued_at: 0,
                conditions: Conditions::window(0, ttl).for_audience(audience),
                statements: vec![Statement::Capability {
                    resource_pattern: "ehr/*".into(),
                    actions: vec!["read".into()],
                }],
            },
            &w.cas_key,
        )
        .unwrap()
    }

    #[test]
    fn push_model_accepts_valid_capability() {
        // Local policy is NotApplicable for bob (no role) — capability
        // pre-screening carries the permit.
        let w = world(GATE, true);
        let cap = capability(&w, "bob", 1000, "hospital-b");
        let req = RequestContext::basic("bob", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        // GATE is deny-unless-permit: local decision for bob is Deny, so
        // local autonomy wins and bob is denied despite the capability.
        assert!(!r.allowed);

        // With an overlay policy that is silent about bob, the
        // capability should carry.
        let overlay = r#"
policy "gate" first-applicable {
  rule "block-writes" deny {
    target { action "id" == "write"; }
  }
}
"#;
        let w = world(overlay, true);
        let cap = capability(&w, "bob", 1000, "hospital-b");
        let req = RequestContext::basic("bob", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(r.allowed, "reason: {:?}", r.reason);
    }

    #[test]
    fn push_model_local_deny_overrides_capability() {
        let overlay = r#"
policy "gate" first-applicable {
  rule "lockdown" deny {
    target { resource "id" ~= "ehr/*"; }
  }
}
"#;
        let w = world(overlay, true);
        let cap = capability(&w, "bob", 1000, "hospital-b");
        let req = RequestContext::basic("bob", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed, "local autonomy must win");
    }

    #[test]
    fn push_model_rejects_expired_and_wrong_audience() {
        let overlay = r#"
policy "gate" first-applicable {
  rule "nothing" deny {
    target { action "id" == "never-matches"; }
  }
}
"#;
        let w = world(overlay, true);
        let req = RequestContext::basic("bob", "ehr/1", "read");

        let expired = capability(&w, "bob", 5, "hospital-b");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &expired);
        assert!(!r.allowed);
        assert!(r.reason.unwrap().contains("expired"));

        let wrong_aud = capability(&w, "bob", 1000, "hospital-z");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &wrong_aud);
        assert!(!r.allowed);
    }

    #[test]
    fn push_model_rejects_untrusted_issuer_and_tamper() {
        let w = world(GATE, true);
        let mut cap = capability(&w, "bob", 1000, "hospital-b");
        cap.assertion.issuer = "cas.rogue".into();
        let req = RequestContext::basic("bob", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed);
        assert!(r.reason.unwrap().contains("untrusted issuer"));

        // Tampered subject breaks the signature.
        let mut cap = capability(&w, "bob", 1000, "hospital-b");
        cap.assertion.subject = "mallory".into();
        let req = RequestContext::basic("mallory", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed);
    }

    #[test]
    fn push_model_capability_scope_enforced() {
        let overlay = r#"
policy "gate" first-applicable {
  rule "nothing" deny {
    target { action "id" == "never-matches"; }
  }
}
"#;
        let w = world(overlay, true);
        let cap = capability(&w, "bob", 1000, "hospital-b");
        // Write is not in the capability's action list.
        let req = RequestContext::basic("bob", "ehr/1", "write");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed);
        // Resource outside the pattern.
        let req = RequestContext::basic("bob", "lab/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed);
        // Different subject presenting bob's capability.
        let req = RequestContext::basic("eve", "ehr/1", "read");
        let r = w
            .pep
            .serve_with_capability(EnforceRequest::of(&req, 10), &cap);
        assert!(!r.allowed);
    }

    /// ISSUE 13 bugfix: the push model used to bypass
    /// `dacs_pep_enforcements_total` (it was bumped in `serve` and
    /// `serve_batch` only). Derived from the three verdict counters,
    /// it now moves on every entry point — granted, locally denied and
    /// each fail-safe refusal alike.
    #[test]
    fn push_model_enforcements_reach_the_registry() {
        let overlay = r#"
policy "gate" first-applicable {
  rule "sealed" deny {
    target { resource "id" == "ehr/sealed"; }
  }
  rule "vault" permit {
    target { resource "id" == "ehr/vault"; }
    condition is-in("top", attr!(subject, "clearance"))
  }
}
"#;
        let telemetry = Arc::new(Telemetry::new());
        let w = world_with(overlay, true, Some(telemetry.clone()));
        let enforcements = || {
            telemetry
                .registry()
                .counter_value("dacs_pep_enforcements_total")
                .expect("exposed at build time")
        };
        let bob = RequestContext::basic("bob", "ehr/1", "read");
        w.pep.serve(EnforceRequest::of(&bob, 1));
        w.pep
            .serve_batch(&[bob.clone(), bob.clone()], 2, EnforceOptions::default());
        assert_eq!(enforcements(), 3);

        let good = capability(&w, "bob", 1000, "hospital-b");
        let mut rogue = capability(&w, "bob", 1000, "hospital-b");
        rogue.assertion.issuer = "cas.rogue".into();
        let expired = capability(&w, "bob", 5, "hospital-b");
        let basic = |resource: &str, action: &str| RequestContext::basic("bob", resource, action);
        // (request, capability, granted?) — one row per way out of
        // `serve_with_capability`.
        let rows = [
            (basic("ehr/1", "read"), &good, true),
            (basic("ehr/sealed", "read"), &good, false), // local Deny
            (basic("ehr/vault", "read"), &good, false),  // local Indeterminate
            (basic("ehr/1", "read"), &rogue, false),     // untrusted issuer
            (basic("ehr/1", "read"), &expired, false),   // validity window
            (RequestContext::new(), &good, false),       // no identifiers
            (basic("ehr/1", "write"), &good, false),     // insufficient scope
        ];
        for (i, (request, cap, granted)) in rows.iter().enumerate() {
            let r = w
                .pep
                .serve_with_capability(EnforceRequest::of(request, 10), cap);
            assert_eq!(r.allowed, *granted, "row {i}: {:?}", r.reason);
            assert_eq!(enforcements(), 4 + i as u64, "row {i} moved the counter");
        }
        let stats = w.pep.stats();
        assert_eq!(
            enforcements(),
            stats.allowed + stats.denied + stats.failsafe_denials
        );
        assert_eq!((stats.allowed, stats.denied), (1, 1));
    }

    /// A PEP caching for `ttl_ms` in front of a PDP over the
    /// doctors' gate, and the store that makes alice a doctor.
    fn cached_gate(ttl_ms: u64) -> (Pep, Arc<Pdp>, Arc<StaticAttributes>) {
        let pap = Arc::new(Pap::new("pap.c"));
        pap.submit("admin", parse_policy(GATE).unwrap(), 0).unwrap();
        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics.clone());
        let pdp = Arc::new(Pdp::new(
            "pdp.c",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));
        let pep = Pep::builder("pep.c")
            .audience("hospital-c")
            .source(pdp.clone())
            .crypto(CryptoCtx::new())
            .handler(Arc::new(LogObligationHandler::new()))
            .cache(CacheConfig {
                capacity: 64,
                ttl_ms,
            })
            .build();
        (pep, pdp, statics)
    }

    /// Serves `request` at `now_ms`: whether it was allowed, and which
    /// path answered it.
    fn served(pep: &Pep, request: &RequestContext, now_ms: u64) -> (bool, ServingPath) {
        let allowed = pep.serve(EnforceRequest::of(request, now_ms)).allowed;
        let last = pep.audit_log().pop().expect("every enforcement is audited");
        (allowed, last.path)
    }

    #[test]
    fn pep_cache_reduces_pdp_load() {
        let (pep, pdp, _statics) = cached_gate(1000);
        let req = RequestContext::basic("alice", "ehr/1", "read");
        for t in 0..5 {
            assert!(pep.serve(EnforceRequest::of(&req, t)).allowed);
        }
        assert_eq!(pdp.metrics().decisions, 1, "four hits served locally");
        assert_eq!(pep.stats().cache_hits, 4);
    }

    /// The staleness E6 measures: a role removed at the PIP is invisible
    /// to a cached permit until the PEP's epoch moves past it.
    #[test]
    fn cache_staleness_and_explicit_invalidation() {
        let (pep, pdp, statics) = cached_gate(10_000);
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(served(&pep, &alice, 0), (true, ServingPath::Source));
        // Role revoked upstream, but the cached permit is served — the
        // false-permit window the paper warns about — and the PDP is
        // not asked.
        statics.remove_subject("alice");
        assert_eq!(served(&pep, &alice, 100), (true, ServingPath::Cache));
        assert_eq!(pdp.metrics().decisions, 1);
        // A newer announced epoch is the explicit invalidation: the
        // entry, decided at epoch 0, is a miss inside its TTL.
        pep.advance_epoch(PolicyEpoch(1));
        assert_eq!(served(&pep, &alice, 101), (false, ServingPath::Source));
        assert_eq!(pdp.metrics().decisions, 2);
    }

    #[test]
    fn ttl_expiry_forces_reevaluation() {
        let (pep, pdp, statics) = cached_gate(100);
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        assert_eq!(served(&pep, &alice, 0), (true, ServingPath::Source));
        statics.remove_subject("alice");
        // Within TTL: stale permit. Past TTL: fresh deny.
        assert_eq!(served(&pep, &alice, 50), (true, ServingPath::Cache));
        assert_eq!(served(&pep, &alice, 150), (false, ServingPath::Source));
        assert_eq!(pdp.metrics().decisions, 2);
    }

    #[test]
    fn capability_fastpath_skips_the_source_until_revoked() {
        use dacs_capability::CapabilityKey;
        let ctx = CryptoCtx::new();
        let pap = Arc::new(Pap::new("pap.k"));
        // No obligations: unconditional permits mint tokens.
        let gate = r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#;
        pap.submit("admin", parse_policy(gate).unwrap(), 0).unwrap();
        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Arc::new(Pdp::new(
            "pdp.k",
            pap.clone(),
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));
        let authority = Arc::new(CapabilityAuthority::new(
            CapabilityKey::generate(&mut StdRng::seed_from_u64(11)),
            1_000,
        ));
        let pep = Pep::builder("pep.k")
            .audience("hospital-k")
            .source(Arc::new(MintingSource::new(pdp.clone(), authority.clone())))
            .crypto(ctx)
            .capability_fastpath(authority.clone(), 64)
            .build();

        let req = RequestContext::basic("alice", "ehr/1", "read");
        for t in 0..5 {
            assert!(pep.serve(EnforceRequest::of(&req, t)).allowed);
        }
        assert_eq!(pdp.metrics().decisions, 1, "four permits verified locally");
        let stats = pep.stats();
        assert_eq!(stats.tokens_minted, 1);
        assert_eq!(stats.token_hits, 4);

        // An epoch bump revokes the outstanding token: the next
        // enforcement rejects it and re-consults the source, whose
        // answer — stamped at the PAP's new epoch — mints afresh.
        assert!(pap.observe_policy_epoch(dacs_pap::PolicyEpoch(1)));
        authority.advance_epoch(dacs_pap::PolicyEpoch(1));
        assert!(pep.serve(EnforceRequest::of(&req, 5)).allowed);
        let stats = pep.stats();
        assert_eq!(stats.token_rejects, 1);
        assert_eq!(pdp.metrics().decisions, 2, "revocation forces a re-decide");
        // The refused token was a store miss, not a hit.
        assert_eq!(pep.token_cache_stats().unwrap().hits, stats.token_hits);
        // Denies never mint: a stranger keeps hitting the source.
        let denied = RequestContext::basic("mallory", "ehr/1", "read");
        assert!(!pep.serve(EnforceRequest::of(&denied, 6)).allowed);
        assert!(!pep.serve(EnforceRequest::of(&denied, 7)).allowed);
        assert_eq!(pep.stats().tokens_minted, 2, "only alice's permits minted");
        assert_eq!(pdp.metrics().decisions, 4);
        // Expiry kills the fast path too (the cache TTL matches the
        // token TTL, so the expired token ages out and a fresh source
        // decision mints a replacement).
        assert!(pep.serve(EnforceRequest::of(&req, 2_000)).allowed);
        assert_eq!(pep.stats().tokens_minted, 3);
    }

    #[test]
    fn telemetry_traces_decompose_enforcements() {
        let ctx = CryptoCtx::new();
        let pap = Arc::new(Pap::new("pap.t"));
        pap.submit("admin", parse_policy(GATE).unwrap(), 0).unwrap();
        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Arc::new(Pdp::new(
            "pdp.t",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));
        let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
        let pep = Pep::builder("pep.t")
            .audience("hospital-t")
            .source(pdp)
            .crypto(ctx)
            .handler(Arc::new(LogObligationHandler::new()))
            .cache(CacheConfig {
                capacity: 8,
                ttl_ms: 1000,
            })
            .telemetry(telemetry.clone())
            .build();

        let req = RequestContext::basic("alice", "ehr/1", "read");
        assert!(pep.serve(EnforceRequest::of(&req, 1)).allowed); // miss
        assert!(pep.serve(EnforceRequest::of(&req, 2)).allowed); // hit

        let r = telemetry.registry();
        assert_eq!(r.counter_value("dacs_pep_enforcements_total"), Some(2));
        assert_eq!(r.counter_value("dacs_pep_cache_hits_total"), Some(1));
        assert_eq!(r.histogram("dacs_pep_enforce_ns").count(), 2);

        let spans = telemetry.tracer().snapshot();
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == Stage::PepEnforce)
            .collect();
        assert_eq!(roots.len(), 2);
        // First trace (cache miss): cache + decide + obligations children.
        let miss_root = roots.iter().min_by_key(|s| s.trace).unwrap();
        let children: Vec<_> = spans.iter().filter(|s| s.parent == miss_root.id).collect();
        let stages: Vec<Stage> = children.iter().map(|s| s.stage).collect();
        assert!(stages.contains(&Stage::Cache), "{stages:?}");
        assert!(stages.contains(&Stage::Decide), "{stages:?}");
        assert!(stages.contains(&Stage::Obligations), "{stages:?}");
        // Second trace (cache hit): no decide span, and the hit is noted.
        let hit_root = roots.iter().max_by_key(|s| s.trace).unwrap();
        let children: Vec<_> = spans.iter().filter(|s| s.parent == hit_root.id).collect();
        assert!(children.iter().all(|s| s.stage != Stage::Decide));
        assert!(children
            .iter()
            .any(|s| s.stage == Stage::Cache && s.note == Some(Note::Hit)));
    }

    #[test]
    fn telemetry_batch_trace_counts_hits() {
        let ctx = CryptoCtx::new();
        let pap = Arc::new(Pap::new("pap.u"));
        pap.submit("admin", parse_policy(GATE).unwrap(), 0).unwrap();
        let statics = Arc::new(StaticAttributes::new());
        statics.add_subject_attr("alice", "role", "doctor");
        let mut pips = PipRegistry::new();
        pips.add(statics);
        let pdp = Arc::new(Pdp::new(
            "pdp.u",
            pap,
            PolicyElement::PolicyRef(PolicyId::new("gate")),
            Arc::new(pips),
        ));
        let telemetry = Arc::new(dacs_telemetry::Telemetry::new());
        let pep = Pep::builder("pep.u")
            .audience("hospital-u")
            .source(pdp)
            .crypto(ctx)
            .handler(Arc::new(LogObligationHandler::new()))
            .cache(CacheConfig {
                capacity: 8,
                ttl_ms: 1000,
            })
            .telemetry(telemetry.clone())
            .build();

        let reqs = vec![
            RequestContext::basic("alice", "ehr/1", "read"),
            RequestContext::basic("alice", "ehr/1", "read"),
            RequestContext::basic("alice", "ehr/2", "read"),
        ];
        let results = pep.serve_batch(&reqs, 1, EnforceOptions::default());
        assert!(results.iter().all(|r| r.allowed));
        let r = telemetry.registry();
        assert_eq!(r.counter_value("dacs_pep_enforcements_total"), Some(3));
        // Identical requests in one batch are both misses (the batch is
        // looked up before any decide round); a second batch hits.
        pep.serve_batch(&reqs, 2, EnforceOptions::default());
        assert_eq!(r.counter_value("dacs_pep_cache_hits_total"), Some(3));
        let spans = telemetry.tracer().snapshot();
        let batch_roots: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == Stage::PepEnforceBatch)
            .collect();
        assert_eq!(batch_roots.len(), 2);
        assert!(spans
            .iter()
            .any(|s| s.stage == Stage::Cache && s.note == Some(Note::Hits(3))));
    }
}
