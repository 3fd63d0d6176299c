//! Decision caching for PEPs — the §3.2 message-reduction mechanism
//! whose staleness risk experiment E6 quantifies. The PEP's decision
//! cache and its capability-token store are the two users.
//!
//! Three layers, innermost first:
//!
//! * [`TtlCache`] — a single-threaded TTL cache that evicts by SIEVE
//!   (Zhang et al., NSDI 2024), with O(1) hit, amortised O(1)
//!   eviction: each bit a hit sets is cleared at most once
//!   (slab-allocated nodes on an intrusive doubly-linked insertion-order
//!   list, a visited bit per node and a hand that sweeps it).
//! * [`ConcurrentTtlCache`] — an N-way striped wrapper: a power-of-two
//!   array of independently locked [`TtlCache`] segments selected
//!   by a fixed function of the key, so concurrent readers on different
//!   keys proceed in parallel instead of convoying on one global lock.
//!   Eviction order is per-stripe; capacity and [`CacheStats`] aggregate
//!   across stripes.
//! * [`HashedRequestCache`] — the enforcement-path specialization:
//!   entries are keyed by a precomputed 64-bit canonical request hash
//!   (`RequestContext::canonical_hash`) instead of a serialized
//!   `Vec<u8>`, with the full [`RequestContext`] stored alongside each
//!   value and compared on every hit, so a hash collision reads as a
//!   miss — never as another request's decision.
//!
//! Keys are `u64`s — finished hashes — so neither layer hashes them
//! again in full: a stripe is the top bits of one [`fold`] of the key
//! under a fixed constant, the same in every cache, and a bucket one
//! fold under a seed each cache draws when it is built ([`KeyState`]).

use dacs_policy::hash::{fold, KeyState};
use dacs_policy::request::RequestContext;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Cache effectiveness counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that missed (absent, expired, or failing full-key
    /// verification).
    pub misses: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries dropped because their TTL had passed.
    pub expirations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
    }
}

/// Sentinel for "no node" in the intrusive list, and for a hand that
/// starts at the oldest node.
const NIL: usize = usize::MAX;

struct Node<V> {
    key: u64,
    value: V,
    expires_at: u64,
    /// Set by a hit or a re-insert; cleared as the hand passes.
    visited: bool,
    /// Neighbour towards the head (inserted later).
    prev: usize,
    /// Neighbour towards the tail (inserted earlier).
    next: usize,
}

/// A bounded cache with per-entry TTL and SIEVE eviction.
///
/// Entries live in a slab (`nodes`) threaded onto an intrusive doubly
/// linked list in insertion order — head is newest, tail oldest. A hit
/// sets its node's `visited` bit and moves nothing. An insert into a
/// full cache moves the `hand` from where the last victim was towards
/// the head (from the tail when it rests on `NIL`), clearing each set
/// bit it passes and evicting the first node whose bit is clear,
/// wrapping from the head to the tail. So `get`, `insert` and `remove`
/// are O(1) beyond the key-map lookup, and the sweep is amortised O(1):
/// each bit a hit sets is cleared at most once.
pub struct TtlCache<V> {
    capacity: usize,
    ttl_ms: u64,
    map: HashMap<u64, usize, KeyState>,
    nodes: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// The next node the eviction sweep examines; `NIL` for the tail.
    hand: usize,
    stats: CacheStats,
}

impl<V: Clone> TtlCache<V> {
    /// Creates a cache holding at most `capacity` entries, each valid
    /// for `ttl_ms` after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        Self::with_buckets(capacity, ttl_ms, KeyState::new())
    }

    /// [`TtlCache::new`] over a given bucket seed (a striped cache
    /// gives all its stripes one).
    fn with_buckets(capacity: usize, ttl_ms: u64, buckets: KeyState) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        TtlCache {
            capacity,
            ttl_ms,
            map: HashMap::with_hasher(buckets),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            stats: CacheStats::default(),
        }
    }

    fn node(&self, idx: usize) -> &Node<V> {
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<V> {
        self.nodes[idx].as_mut().expect("live node")
    }

    /// Unlinks and frees the node at `idx`, returning its value. A hand
    /// resting on it moves to its newer neighbour first.
    fn release(&mut self, idx: usize) -> V {
        let node = self.nodes[idx].take().expect("live node");
        if self.hand == idx {
            self.hand = node.prev;
        }
        match node.prev {
            NIL => self.head = node.next,
            p => self.node_mut(p).next = node.next,
        }
        match node.next {
            NIL => self.tail = node.prev,
            n => self.node_mut(n).prev = node.prev,
        }
        self.free.push(idx);
        node.value
    }

    /// The SIEVE sweep: from the hand towards the head, wrapping to the
    /// tail, clearing set bits until a node whose bit is clear — the
    /// victim, which it evicts. The hand rests where the victim was.
    fn evict(&mut self) {
        let mut idx = match self.hand {
            NIL => self.tail,
            hand => hand,
        };
        debug_assert_ne!(idx, NIL, "full cache has a tail");
        loop {
            let node = self.node_mut(idx);
            if !node.visited {
                break;
            }
            node.visited = false;
            idx = match node.prev {
                NIL => self.tail,
                p => p,
            };
        }
        self.hand = idx;
        let victim_key = self.node(idx).key;
        self.map.remove(&victim_key);
        self.release(idx);
        self.stats.evictions += 1;
    }

    /// Looks up `key` at time `now_ms`, marking it visited.
    pub fn get(&mut self, key: u64, now_ms: u64) -> Option<V> {
        self.get_verified(key, now_ms, |value| Some(value.clone()))
    }

    /// [`TtlCache::get`] with a full-key verification hook that is
    /// also the projection: an in-TTL entry is served as what `project`
    /// makes of the stored value *in place*, so a hashed-key wrapper
    /// compares its stored key under the borrow and clones only what it
    /// returns. `None` rejects the entry — a hash collision — which is
    /// removed and counted as a miss, so `hits + misses` always equals
    /// the lookups and a collision never serves another key's value.
    pub fn get_verified<R>(
        &mut self,
        key: u64,
        now_ms: u64,
        project: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        let Some(&idx) = self.map.get(&key) else {
            self.stats.misses += 1;
            return None;
        };
        let node = self.nodes[idx].as_mut().expect("live node");
        let served = if now_ms >= node.expires_at {
            self.stats.expirations += 1;
            None
        } else {
            project(&node.value)
        };
        if served.is_some() {
            node.visited = true;
            self.stats.hits += 1;
        } else {
            // Expired or rejected: drop it.
            self.map.remove(&key);
            self.release(idx);
            self.stats.misses += 1;
        }
        served
    }

    /// Inserts a value at time `now_ms` at the head, first evicting by
    /// the SIEVE sweep if full. Re-inserting a present key updates it in
    /// place and marks it visited.
    pub fn insert(&mut self, key: u64, value: V, now_ms: u64) {
        let expires_at = now_ms.saturating_add(self.ttl_ms);
        if let Some(&idx) = self.map.get(&key) {
            let node = self.node_mut(idx);
            node.value = value;
            node.expires_at = expires_at;
            node.visited = true;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict();
        }
        let node = Node {
            key,
            value,
            expires_at,
            visited: false,
            prev: NIL,
            next: self.head,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Some(node);
                idx
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        };
        match self.head {
            NIL => self.tail = idx,
            h => self.node_mut(h).prev = idx,
        }
        self.head = idx;
        self.map.insert(key, idx);
    }

    /// Removes every entry (explicit invalidation on policy change).
    pub fn invalidate_all(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hand = NIL;
    }

    /// Removes one entry.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        self.remove_if(key, |_| true)
    }

    /// Removes one entry only when `pred` accepts its value — the
    /// full-key-verified removal used by hashed-key wrappers, so a
    /// colliding entry belonging to another request is left alone.
    pub fn remove_if(&mut self, key: u64, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let &idx = self.map.get(&key)?;
        if !pred(&self.node(idx).value) {
            return None;
        }
        self.map.remove(&key);
        Some(self.release(idx))
    }

    /// Number of live entries (including possibly-expired ones not yet
    /// touched).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// An N-way striped [`TtlCache`]: a power-of-two array of
/// independently locked segments selected by the key, so concurrent
/// enforcement threads touching different keys never contend on one
/// global cache lock.
///
/// Semantics per stripe are exactly [`TtlCache`]'s (the equivalence
/// the workspace proptests pin): a one-stripe instance is
/// observationally identical to the single-lock cache, and with N
/// stripes each key behaves as if it lived in its own smaller
/// single-lock cache — TTL and hit/miss accounting are unchanged;
/// only the *eviction neighbourhood* (which keys compete for capacity)
/// is partitioned. The requested capacity is split evenly across
/// stripes (rounded up, minimum one entry each).
///
/// Which stripe holds a key depends on the key alone
/// ([`ConcurrentTtlCache::stripe_index`]), never on the cache's bucket
/// seed: two caches of one shape fed the same keys evict the same
/// entries, so two PEPs serving one request sequence report the same
/// cache counters.
///
/// All methods take `&self`; each acquires exactly one stripe lock
/// except the whole-cache walks ([`ConcurrentTtlCache::len`],
/// [`ConcurrentTtlCache::stats`], [`ConcurrentTtlCache::invalidate_all`]),
/// which visit stripes one at a time and are therefore *not* an atomic
/// snapshot across stripes — fine for telemetry and flushes, the only
/// places they are used.
pub struct ConcurrentTtlCache<V> {
    stripes: Box<[Mutex<TtlCache<V>>]>,
    /// log2 of the stripe count.
    bits: u32,
}

/// The fixed multiplier of a key's stripe fold (the third word of π's
/// fractional digits, made odd).
const STRIPE_KEY: u64 = 0xa409_3822_299f_31d1;

/// Stripe count used by [`ConcurrentTtlCache::new`]: enough to keep
/// an 8-thread closed loop from convoying, small enough that per-stripe
/// eviction neighbourhoods stay meaningful at modest capacities.
pub const DEFAULT_STRIPES: usize = 16;

impl<V: Clone> ConcurrentTtlCache<V> {
    /// Creates a cache of [`DEFAULT_STRIPES`] stripes holding at most
    /// roughly `capacity` entries in total, each valid for `ttl_ms`
    /// after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        Self::with_stripes(DEFAULT_STRIPES, capacity, ttl_ms)
    }

    /// Creates a cache with an explicit stripe count (rounded up to a
    /// power of two, minimum one). `capacity` is the aggregate bound;
    /// each stripe holds `capacity / stripes` entries rounded up.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_stripes(stripes: usize, capacity: usize, ttl_ms: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let stripes = stripes.max(1).next_power_of_two();
        let per_stripe = capacity.div_ceil(stripes).max(1);
        let buckets = KeyState::new();
        let stripes: Vec<Mutex<TtlCache<V>>> = (0..stripes)
            .map(|_| Mutex::new(TtlCache::with_buckets(per_stripe, ttl_ms, buckets)))
            .collect();
        ConcurrentTtlCache {
            bits: stripes.len().trailing_zeros(),
            stripes: stripes.into_boxed_slice(),
        }
    }

    /// The stripe a key maps to: the top bits of the key's fold under a
    /// fixed constant — the same for a given stripe count in every
    /// cache and every process, exposed so equivalence tests can
    /// replicate the routing.
    pub fn stripe_index(&self, key: u64) -> usize {
        let top = fold(key, STRIPE_KEY).rotate_left(self.bits);
        (top & ((1 << self.bits) - 1)) as usize
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Looks up `key` at time `now_ms`, marking it visited within its
    /// stripe.
    pub fn get(&self, key: u64, now_ms: u64) -> Option<V> {
        self.stripes[self.stripe_index(key)].lock().get(key, now_ms)
    }

    /// [`ConcurrentTtlCache::get`] with a full-key verification hook
    /// (see [`TtlCache::get_verified`]).
    pub fn get_verified<R>(
        &self,
        key: u64,
        now_ms: u64,
        project: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        self.stripes[self.stripe_index(key)]
            .lock()
            .get_verified(key, now_ms, project)
    }

    /// Inserts a value at time `now_ms`, evicting by its stripe's SIEVE
    /// sweep if the stripe is full.
    pub fn insert(&self, key: u64, value: V, now_ms: u64) {
        self.stripes[self.stripe_index(key)]
            .lock()
            .insert(key, value, now_ms)
    }

    /// Removes one entry.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.stripes[self.stripe_index(key)].lock().remove(key)
    }

    /// Removes one entry only when `pred` accepts its value.
    pub fn remove_if(&self, key: u64, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        self.stripes[self.stripe_index(key)]
            .lock()
            .remove_if(key, pred)
    }

    /// Removes every entry (explicit invalidation on policy change).
    /// Stripes flush one at a time; a concurrent insert into an
    /// already-flushed stripe survives, matching the "flush then
    /// repopulate" semantics the single-lock cache had under the same
    /// race.
    pub fn invalidate_all(&self) {
        for stripe in self.stripes.iter() {
            stripe.lock().invalidate_all();
        }
    }

    /// Total live entries across stripes (not an atomic snapshot).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().is_empty())
    }

    /// Aggregate statistics: the sum of per-stripe counters (not an
    /// atomic snapshot, but each counter is internally consistent).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in self.stripes.iter() {
            total.absorb(&stripe.lock().stats());
        }
        total
    }
}

/// The enforcement-path decision/token cache: a [`ConcurrentTtlCache`]
/// keyed by the precomputed 64-bit canonical request hash
/// ([`RequestContext::canonical_hash`]), storing the full
/// [`RequestContext`] beside each value and comparing it on every hit
/// and every targeted removal.
///
/// The collision argument: two distinct requests may share a 64-bit
/// hash, so the hash alone is not a safe cache key for an access
/// control decision. Every hit therefore re-checks `stored == request`
/// on the structured context (a comparison of its flat sorted entries —
/// far cheaper than the serialization it replaces); a mismatch evicts the
/// colliding entry and reads as a miss, so the worst case of a
/// collision is one redundant decision query, never a cross-request
/// permit.
pub struct HashedRequestCache<V> {
    inner: ConcurrentTtlCache<(RequestContext, V)>,
}

impl<V: Clone> HashedRequestCache<V> {
    /// Creates a cache holding roughly `capacity` entries across
    /// [`DEFAULT_STRIPES`] stripes, each valid for `ttl_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        HashedRequestCache {
            inner: ConcurrentTtlCache::new(capacity, ttl_ms),
        }
    }

    /// Looks up the decision cached for `request`, whose canonical
    /// hash the caller precomputed (so one hash serves the token
    /// cache, the decision cache and the insert on miss).
    pub fn get(&self, hash: u64, request: &RequestContext, now_ms: u64) -> Option<V> {
        self.get_if(hash, request, now_ms, |_| true)
    }

    /// [`HashedRequestCache::get`] that serves an entry only when
    /// `current` accepts its value: one it refuses is dropped and
    /// counted a miss, as a collision is, so `hits + misses` stays the
    /// number of lookups.
    pub fn get_if(
        &self,
        hash: u64,
        request: &RequestContext,
        now_ms: u64,
        current: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        self.inner.get_verified(hash, now_ms, |(stored, value)| {
            (stored == request && current(value)).then(|| value.clone())
        })
    }

    /// Caches `value` for `request` under its precomputed hash.
    pub fn insert(&self, hash: u64, request: &RequestContext, value: V, now_ms: u64) {
        self.inner.insert(hash, (request.clone(), value), now_ms);
    }

    /// Removes the entry for exactly `request` (a colliding entry for
    /// a different request is left in place).
    pub fn remove(&self, hash: u64, request: &RequestContext) -> Option<V> {
        self.inner
            .remove_if(hash, |(stored, _)| stored == request)
            .map(|(_, value)| value)
    }

    /// Removes every entry (explicit invalidation on policy change).
    pub fn invalidate_all(&self) {
        self.inner.invalidate_all();
    }

    /// Total live entries (not an atomic snapshot).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Aggregate statistics across stripes.
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut c: TtlCache<&'static str> = TtlCache::new(4, 100);
        c.insert(1, "permit", 0);
        assert_eq!(c.get(1, 50), Some("permit"));
        assert_eq!(c.get(1, 100), None); // TTL boundary: expired
        assert_eq!(c.stats().expirations, 1);
    }

    /// A hit marks an entry visited, so the next insert into a full
    /// cache passes over it and evicts the unvisited one.
    #[test]
    fn lru_eviction_order() {
        let mut c: TtlCache<u32> = TtlCache::new(2, 1000);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        // Touch 1 so 2 becomes the victim.
        assert_eq!(c.get(1, 2), Some(10));
        c.insert(3, 30, 3);
        assert_eq!(c.get(2, 4), None);
        assert_eq!(c.get(1, 4), Some(10));
        assert_eq!(c.get(3, 4), Some(30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: TtlCache<u32> = TtlCache::new(2, 1000);
        c.insert(1, 10, 0);
        c.insert(1, 11, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 2), Some(11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c: TtlCache<u32> = TtlCache::new(4, 1000);
        c.insert(1, 10, 0);
        c.insert(2, 20, 0);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.get(1, 1), None);
    }

    #[test]
    fn hit_rate_math() {
        let mut c: TtlCache<u32> = TtlCache::new(4, 1000);
        c.insert(1, 10, 0);
        c.get(1, 1);
        c.get(2, 1);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TtlCache::<u32>::new(0, 10);
    }

    #[test]
    fn remove_single_entry() {
        let mut c: TtlCache<u32> = TtlCache::new(4, 1000);
        c.insert(1, 10, 0);
        assert_eq!(c.remove(1), Some(10));
        assert_eq!(c.remove(1), None);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c: TtlCache<u64> = TtlCache::new(3, 1000);
        for round in 0..50u64 {
            c.insert(round, round, round);
        }
        // 50 inserts into a 3-slot cache must not grow the slab past
        // capacity: every eviction recycles its node.
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 47);
    }

    #[test]
    fn get_verified_rejection_counts_as_miss_and_evicts() {
        let mut c: TtlCache<(u32, String)> = TtlCache::new(4, 1000);
        c.insert(1, (10, "ten".into()), 0);
        // An accepted entry is served as its projection, taken under the
        // borrow: the string half is never cloned.
        assert_eq!(
            c.get_verified(1, 1, |v| (v.0 == 10).then_some(v.0)),
            Some(10)
        );
        assert_eq!(c.get_verified(1, 1, |v| (v.0 == 99).then_some(v.0)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The rejected entry is gone: a fresh lookup misses on absence.
        assert_eq!(c.get(1, 1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn remove_if_respects_predicate() {
        let mut c: TtlCache<u32> = TtlCache::new(4, 1000);
        c.insert(1, 10, 0);
        assert_eq!(c.remove_if(1, |v| *v == 99), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.remove_if(1, |v| *v == 10), Some(10));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn concurrent_cache_basic_roundtrip() {
        let c: ConcurrentTtlCache<u32> = ConcurrentTtlCache::new(64, 100);
        c.insert(1, 10, 0);
        c.insert(2, 20, 0);
        assert_eq!(c.get(1, 50), Some(10));
        assert_eq!(c.get(2, 50), Some(20));
        assert_eq!(c.get(1, 100), None); // TTL boundary holds per stripe
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (2, 1, 1));
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_cache_rounds_stripes_to_power_of_two() {
        let c: ConcurrentTtlCache<u32> = ConcurrentTtlCache::with_stripes(5, 100, 10);
        assert_eq!(c.stripe_count(), 8);
        // Aggregate capacity is split per stripe, minimum one entry.
        let tiny: ConcurrentTtlCache<u64> = ConcurrentTtlCache::with_stripes(8, 2, 10);
        for k in 0..64 {
            tiny.insert(k, k, 0);
        }
        assert!(tiny.len() <= 8, "one entry per stripe at most");
    }

    #[test]
    fn concurrent_cache_parallel_readers_observe_their_keys() {
        use std::sync::Arc;
        let c: Arc<ConcurrentTtlCache<u64>> = Arc::new(ConcurrentTtlCache::new(1024, 10_000));
        for k in 0..256u64 {
            c.insert(k, k * 3, 0);
        }
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let k = (t * 31 + round) % 256;
                        assert_eq!(c.get(k, 1), Some(k * 3));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits, 8 * 200);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn hashed_request_cache_verifies_full_key_on_hit() {
        let cache: HashedRequestCache<u32> = HashedRequestCache::new(64, 1000);
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        let mallory = RequestContext::basic("mallory", "ehr/1", "read");
        let hash = alice.canonical_hash();
        cache.insert(hash, &alice, 7, 0);
        assert_eq!(cache.get(hash, &alice, 1), Some(7));
        // A forced collision (same hash, different request) must read
        // as a miss and evict the colliding entry — never serve
        // alice's decision to mallory.
        assert_eq!(cache.get(hash, &mallory, 1), None);
        assert_eq!(cache.len(), 0);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn hashed_request_cache_targeted_remove_spares_colliders() {
        let cache: HashedRequestCache<u32> = HashedRequestCache::new(64, 1000);
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        let mallory = RequestContext::basic("mallory", "ehr/1", "read");
        let hash = alice.canonical_hash();
        cache.insert(hash, &alice, 7, 0);
        // Removing under the same hash but a different request is a
        // no-op; removing with the right request takes the entry.
        assert_eq!(cache.remove(hash, &mallory), None);
        assert_eq!(cache.remove(hash, &alice), Some(7));
        assert!(cache.is_empty());
    }

    /// The request tables of the repo benchmark's three shapes, as its
    /// `world.rs` builds them: `cached_zipf`'s 65 536 subjects over 4 096
    /// records, `quorum_miss`'s 4 096 × 16 grid with every fifth request
    /// an `aux-*` write, and `token_churn`'s 512 × 2 grid.
    fn benchmark_tables() -> [Vec<RequestContext>; 3] {
        let grid = |domain: &str, subjects: usize, resources: usize, writes: bool| {
            (0..subjects * resources)
                .map(|i| {
                    let (u, r) = (i % subjects, i / subjects);
                    let user = format!("user-{u}@{domain}");
                    if writes && i % 5 == 4 {
                        RequestContext::basic(user, format!("aux-{}/{}", r % 16, u % 64), "write")
                    } else {
                        RequestContext::basic(user, format!("records/{r}"), "read")
                    }
                })
                .collect()
        };
        let zipf = (0..1 << 16)
            .map(|k| {
                RequestContext::basic(
                    format!("user-{k}@mega"),
                    format!("records/{}", k % 4096),
                    "read",
                )
            })
            .collect();
        [zipf, grid("q", 4096, 16, true), grid("cap", 512, 2, false)]
    }

    /// The request hash over the benchmark's requests: no two distinct
    /// requests share a key, and the stripes of a default cache split
    /// each large table, and all three together, evenly within ±10 %.
    /// (`token_churn`'s 1 024 requests alone are too few to hold that:
    /// a stripe's share of them is 64 ± 8 for any uniform hash.)
    #[test]
    fn request_hashes_spread_over_stripes_without_collisions() {
        let stripes: ConcurrentTtlCache<()> = ConcurrentTtlCache::new(1, 1);
        assert_eq!(stripes.stripe_count(), 16);
        let balanced = |hashes: &[u64]| {
            let mut counts = [0usize; 16];
            hashes
                .iter()
                .for_each(|&h| counts[stripes.stripe_index(h)] += 1);
            let share = hashes.len() / 16;
            counts.iter().all(|&n| n.abs_diff(share) * 10 <= share)
        };
        let tables = benchmark_tables();
        let mut all = Vec::new();
        for (table, name) in tables
            .iter()
            .zip(["cached_zipf", "quorum_miss", "token_churn"])
        {
            let hashes: Vec<u64> = table.iter().map(RequestContext::canonical_hash).collect();
            if hashes.len() >= 1 << 16 {
                assert!(balanced(&hashes), "{name}");
            }
            all.extend(hashes);
        }
        assert!(balanced(&all), "all three tables");
        let requests = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), requests, "two distinct requests share a hash");
    }

    /// Which stripe holds a key is a function of the key alone: two
    /// caches whose buckets are seeded apart, fed one sequence, answer,
    /// count and evict identically.
    #[test]
    fn stripe_choice_is_a_pure_function_of_the_key() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(32);
        let keys: Vec<u64> = (0..256).map(|_| rng.gen()).collect();
        let a: ConcurrentTtlCache<u64> = ConcurrentTtlCache::new(64, 40);
        let b: ConcurrentTtlCache<u64> = ConcurrentTtlCache::new(64, 40);
        assert_ne!(
            a.stripes[0].lock().map.hasher(),
            b.stripes[0].lock().map.hasher(),
            "bucket seeds differ"
        );
        let mut now = 0;
        for op in 0..4000 {
            now += rng.gen_range(0..3u64);
            let key = keys[rng.gen_range(0..keys.len())];
            assert_eq!(a.stripe_index(key), b.stripe_index(key));
            if rng.gen_bool(0.5) {
                assert_eq!(a.get(key, now), b.get(key, now), "op {op}");
            } else {
                a.insert(key, now, now);
                b.insert(key, now, now);
            }
        }
        let stats = a.stats();
        assert!(stats.evictions > 0 && stats.expirations > 0 && stats.hits > 0);
        assert_eq!(stats, b.stats());
        for (x, y) in a.stripes.iter().zip(b.stripes.iter()) {
            assert_eq!(x.lock().len(), y.lock().len());
        }
    }
}

/// Property-style tests: random operation sequences checked against a
/// straightforward reference model of TTL + SIEVE semantics.
#[cfg(test)]
mod property_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference model: a naive SIEVE over a vector ordered oldest
    /// first, its hand an index into it.
    struct Model {
        capacity: usize,
        ttl_ms: u64,
        /// `(key, value, expires_at, visited)`, oldest first.
        entries: Vec<(u64, u64, u64, bool)>,
        /// The next entry the sweep examines; `None` for the oldest.
        hand: Option<usize>,
    }

    impl Model {
        fn new(capacity: usize, ttl_ms: u64) -> Self {
            Model {
                capacity,
                ttl_ms,
                entries: Vec::new(),
                hand: None,
            }
        }

        fn position(&self, key: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.0 == key)
        }

        /// Drops the entry at `pos`; a hand past it shifts down with
        /// its entry, and a hand on it now names the next newer one, or
        /// the oldest when there is none.
        fn drop_at(&mut self, pos: usize) -> u64 {
            let (_, value, _, _) = self.entries.remove(pos);
            self.hand = match self.hand {
                Some(h) if h > pos => Some(h - 1),
                Some(h) if h == pos && h == self.entries.len() => None,
                hand => hand,
            };
            value
        }

        fn get(&mut self, key: u64, now: u64) -> Option<u64> {
            let pos = self.position(key)?;
            if now >= self.entries[pos].2 {
                self.drop_at(pos);
                return None;
            }
            self.entries[pos].3 = true;
            Some(self.entries[pos].1)
        }

        fn insert(&mut self, key: u64, value: u64, now: u64) {
            let expires_at = now + self.ttl_ms;
            if let Some(pos) = self.position(key) {
                self.entries[pos] = (key, value, expires_at, true);
                return;
            }
            if self.entries.len() >= self.capacity {
                let mut pos = self.hand.unwrap_or(0);
                while self.entries[pos].3 {
                    self.entries[pos].3 = false;
                    pos = (pos + 1) % self.entries.len();
                }
                self.hand = Some(pos);
                self.drop_at(pos);
            }
            self.entries.push((key, value, expires_at, false));
        }

        fn remove(&mut self, key: u64) -> Option<u64> {
            let pos = self.position(key)?;
            Some(self.drop_at(pos))
        }
    }

    #[test]
    fn random_ops_match_reference_model() {
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..6usize);
            let ttl = rng.gen_range(1..80u64);
            let mut cache: TtlCache<u64> = TtlCache::new(capacity, ttl);
            let mut model = Model::new(capacity, ttl);
            let mut now = 0u64;
            for op in 0..400 {
                now += rng.gen_range(0..20u64);
                let key = rng.gen_range(0..8u64);
                match rng.gen_range(0..10u32) {
                    0..=4 => assert_eq!(
                        cache.get(key, now),
                        model.get(key, now),
                        "seed {seed} op {op}: get({key}) at {now} diverged"
                    ),
                    5..=8 => {
                        let value = rng.gen_range(0..1000u64);
                        cache.insert(key, value, now);
                        model.insert(key, value, now);
                    }
                    _ => assert_eq!(
                        cache.remove(key),
                        model.remove(key),
                        "seed {seed} op {op}: remove({key}) diverged"
                    ),
                }
                assert!(cache.len() <= capacity, "capacity exceeded");
                assert_eq!(cache.len(), model.entries.len(), "seed {seed} op {op}");
            }
        }
    }

    /// SIEVE's point: an entry read since it was inserted survives a
    /// run of inserts that are never read again, where LRU would evict
    /// it at the third.
    #[test]
    fn a_visited_entry_outlives_one_off_inserts() {
        let mut cache: TtlCache<u64> = TtlCache::new(4, 1_000_000);
        for k in 0..4u64 {
            cache.insert(k, k, 0);
        }
        for k in [0u64, 1] {
            assert_eq!(cache.get(k, 1), Some(k));
        }
        for k in 100..103u64 {
            cache.insert(k, k, 2);
        }
        for k in [0u64, 1] {
            assert_eq!(cache.get(k, 3), Some(k), "{k} evicted by one-off inserts");
        }
        assert_eq!(cache.stats().evictions, 3);
    }

    /// The striped cache must behave exactly like a bank of independent
    /// single-lock caches routed by `stripe_index` — the equivalence
    /// that makes "striped" a pure concurrency change, not a semantic
    /// one. (The workspace-level proptests additionally pin the
    /// one-stripe instance against the plain cache.)
    #[test]
    fn striped_matches_bank_of_single_lock_caches() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let stripes = 1usize << rng.gen_range(0..4u32); // 1, 2, 4, 8
            let capacity = rng.gen_range(1..40usize);
            let ttl = rng.gen_range(1..80u64);
            let striped: ConcurrentTtlCache<u64> =
                ConcurrentTtlCache::with_stripes(stripes, capacity, ttl);
            let per_stripe = capacity.div_ceil(striped.stripe_count()).max(1);
            let mut bank: Vec<TtlCache<u64>> = (0..striped.stripe_count())
                .map(|_| TtlCache::new(per_stripe, ttl))
                .collect();
            let mut now = 0u64;
            for op in 0..500 {
                now += rng.gen_range(0..15u64);
                let key = rng.gen_range(0..24u64);
                let stripe = striped.stripe_index(key);
                match rng.gen_range(0..4u32) {
                    0 | 1 => assert_eq!(
                        striped.get(key, now),
                        bank[stripe].get(key, now),
                        "seed {seed} op {op}: get({key}) diverged"
                    ),
                    2 => {
                        let value = rng.gen_range(0..1000u64);
                        striped.insert(key, value, now);
                        bank[stripe].insert(key, value, now);
                    }
                    _ => assert_eq!(
                        striped.remove(key),
                        bank[stripe].remove(key),
                        "seed {seed} op {op}: remove({key}) diverged"
                    ),
                }
            }
            let expected: usize = bank.iter().map(TtlCache::len).sum();
            assert_eq!(striped.len(), expected, "seed {seed}: lengths diverged");
            let mut expected_stats = CacheStats::default();
            for s in &bank {
                expected_stats.absorb(&s.stats());
            }
            assert_eq!(striped.stats(), expected_stats, "seed {seed}: stats");
        }
    }

    #[test]
    fn never_serves_past_ttl_and_expiry_is_ordered() {
        let mut rng = StdRng::seed_from_u64(99);
        let ttl = 50u64;
        let mut cache: TtlCache<u64> = TtlCache::new(8, ttl);
        let mut inserted_at: std::collections::HashMap<u64, u64> = Default::default();
        let mut now = 0u64;
        for _ in 0..600 {
            now += rng.gen_range(0..15u64);
            let key = rng.gen_range(0..12u64);
            match cache.get(key, now) {
                Some(insert_time) => {
                    // Values store their insertion time: a hit within the
                    // TTL window proves expiry ordering was honoured.
                    assert_eq!(insert_time, inserted_at[&key]);
                    assert!(
                        now < insert_time + ttl,
                        "served at {now}, dead at {}",
                        insert_time + ttl
                    );
                }
                None => {
                    cache.insert(key, now, now);
                    inserted_at.insert(key, now);
                }
            }
        }
    }

    /// The sweep passes over every visited entry and evicts the one
    /// entry not read since it was inserted.
    #[test]
    fn lru_eviction_prefers_least_recent_under_load() {
        let mut cache: TtlCache<u64> = TtlCache::new(4, 1_000_000);
        for k in 0..4u64 {
            cache.insert(k, k, 0);
        }
        // Touch everything except key 2; the next insert must evict 2.
        for k in [0u64, 1, 3] {
            assert!(cache.get(k, 1).is_some());
        }
        cache.insert(9, 9, 2);
        assert_eq!(cache.get(2, 3), None);
        for k in [0u64, 1, 3, 9] {
            assert!(cache.get(k, 3).is_some(), "{k} wrongly evicted");
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stats_stay_consistent_with_observed_outcomes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cache: TtlCache<u64> = TtlCache::new(4, 30);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut now = 0u64;
        for _ in 0..500 {
            now += rng.gen_range(0..10u64);
            let key = rng.gen_range(0..10u64);
            if rng.gen_bool(0.6) {
                match cache.get(key, now) {
                    Some(_) => hits += 1,
                    None => misses += 1,
                }
            } else {
                cache.insert(key, 1, now);
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, hits);
        assert_eq!(stats.misses, misses);
        assert_eq!(stats.hits + stats.misses, hits + misses);
        assert!(
            stats.expirations <= stats.misses,
            "expired lookups are misses"
        );
        let expected_rate = if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        };
        assert!((stats.hit_rate() - expected_rate).abs() < 1e-12);
    }
}
