//! Decision caching for PDPs and PEPs — the §3.2 message-reduction
//! mechanism whose staleness risk experiment E6 quantifies.
//!
//! Three layers, innermost first:
//!
//! * [`TtlLruCache`] — a single-threaded TTL + LRU cache with O(1)
//!   touch and evict (slab-allocated nodes on an intrusive
//!   doubly-linked recency list; the pre-E20 implementation kept a
//!   `BTreeMap` recency index, making every touch O(log n)).
//! * [`ConcurrentTtlCache`] — an N-way striped wrapper: a power-of-two
//!   array of independently locked [`TtlLruCache`] segments selected
//!   by key hash, so concurrent readers on different keys proceed in
//!   parallel instead of convoying on one global lock. LRU order is
//!   per-stripe; capacity and [`CacheStats`] aggregate across stripes.
//! * [`HashedRequestCache`] — the enforcement-path specialization:
//!   entries are keyed by a precomputed 64-bit canonical request hash
//!   (`RequestContext::canonical_hash`) instead of a serialized
//!   `Vec<u8>`, with the full [`RequestContext`] stored alongside each
//!   value and compared on every hit, so a hash collision reads as a
//!   miss — never as another request's decision.

use dacs_policy::request::RequestContext;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// Sentinel for "no node" in the intrusive recency list.
const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    expires_at: u64,
    /// Neighbour towards the head (more recently used).
    prev: usize,
    /// Neighbour towards the tail (less recently used).
    next: usize,
}

/// A bounded cache with per-entry TTL and least-recently-used eviction.
///
/// Entries live in a slab (`nodes`) threaded onto an intrusive doubly
/// linked list ordered by recency — head is most recent, tail is the
/// eviction victim — so `get`, `insert`, `remove` and the LRU touch
/// are all O(1) beyond the key-map lookup.
pub struct TtlLruCache<K, V> {
    capacity: usize,
    ttl_ms: u64,
    map: HashMap<K, usize>,
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: CacheStats,
}

impl<K: Hash + Eq + Clone, V: Clone> TtlLruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries, each valid
    /// for `ttl_ms` after insertion.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        TtlLruCache {
            capacity,
            ttl_ms,
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    fn node(&self, idx: usize) -> &Node<K, V> {
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<K, V> {
        self.nodes[idx].as_mut().expect("live node")
    }

    /// Unlinks `idx` from the recency list.
    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.node_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.node_mut(n).prev = prev,
        }
    }

    /// Links `idx` at the head (most recently used).
    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.node_mut(h).prev = idx,
        }
        self.head = idx;
    }

    /// Frees the node at `idx`, returning its value.
    fn release(&mut self, idx: usize) -> V {
        self.detach(idx);
        let node = self.nodes[idx].take().expect("live node");
        self.free.push(idx);
        node.value
    }

    /// Looks up `key` at time `now_ms`, refreshing its LRU position.
    pub fn get(&mut self, key: &K, now_ms: u64) -> Option<V> {
        self.get_verified(key, now_ms, |value| Some(value.clone()))
    }

    /// [`TtlLruCache::get`] with a full-key verification hook that is
    /// also the projection: an in-TTL entry is served as what `project`
    /// makes of the stored value *in place*, so a hashed-key wrapper
    /// compares its stored key under the borrow and clones only what it
    /// returns. `None` rejects the entry — a hash collision — which is
    /// removed and counted as a miss, so `hits + misses` always equals
    /// the lookups and a collision never serves another key's value.
    pub fn get_verified<R>(
        &mut self,
        key: &K,
        now_ms: u64,
        project: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        let Some(&idx) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        let node = self.node(idx);
        let served = if now_ms >= node.expires_at {
            self.stats.expirations += 1;
            None
        } else {
            project(&node.value)
        };
        if served.is_some() {
            self.detach(idx);
            self.push_front(idx);
            self.stats.hits += 1;
        } else {
            // Expired or rejected: drop it.
            self.map.remove(key);
            self.release(idx);
            self.stats.misses += 1;
        }
        served
    }

    /// Inserts a value at time `now_ms`, evicting the LRU entry if full.
    pub fn insert(&mut self, key: K, value: V, now_ms: u64) {
        let expires_at = now_ms.saturating_add(self.ttl_ms);
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            self.push_front(idx);
            let node = self.node_mut(idx);
            node.value = value;
            node.expires_at = expires_at;
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache has a tail");
            let victim_key = self.node(victim).key.clone();
            self.map.remove(&victim_key);
            self.release(victim);
            self.stats.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Some(Node {
                    key: key.clone(),
                    value,
                    expires_at,
                    prev: NIL,
                    next: NIL,
                });
                idx
            }
            None => {
                self.nodes.push(Some(Node {
                    key: key.clone(),
                    value,
                    expires_at,
                    prev: NIL,
                    next: NIL,
                }));
                self.nodes.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
    }

    /// Removes every entry (explicit invalidation on policy change).
    pub fn invalidate_all(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Removes one entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.remove_if(key, |_| true)
    }

    /// Removes one entry only when `pred` accepts its value — the
    /// full-key-verified removal used by hashed-key wrappers, so a
    /// colliding entry belonging to another request is left alone.
    pub fn remove_if(&mut self, key: &K, pred: impl FnOnce(&V) -> bool) -> Option<V> {
        let &idx = self.map.get(key)?;
        if !pred(&self.node(idx).value) {
            return None;
        }
        self.map.remove(key);
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

/// An N-way striped [`TtlLruCache`]: a power-of-two array of
/// independently locked segments selected by key hash, so concurrent
/// enforcement threads touching different keys never contend on one
/// global cache lock.
///
/// Semantics per stripe are exactly [`TtlLruCache`]'s (the equivalence
/// the workspace proptests pin): a one-stripe instance is
/// observationally identical to the single-lock cache, and with N
/// stripes each key behaves as if it lived in its own smaller
/// single-lock cache — TTL and hit/miss accounting are unchanged;
/// only the *eviction neighbourhood* (which keys compete for capacity)
/// is partitioned. The requested capacity is split evenly across
/// stripes (rounded up, minimum one entry each).
///
/// All methods take `&self`; each acquires exactly one stripe lock
/// except the whole-cache walks ([`ConcurrentTtlCache::len`],
/// [`ConcurrentTtlCache::stats`], [`ConcurrentTtlCache::invalidate_all`]),
/// which visit stripes one at a time and are therefore *not* an atomic
/// snapshot across stripes — fine for telemetry and flushes, the only
/// places they are used.
pub struct ConcurrentTtlCache<K, V> {
    stripes: Box<[Mutex<TtlLruCache<K, V>>]>,
    mask: usize,
}

/// Stripe count used by [`ConcurrentTtlCache::new`]: enough to keep
/// an 8-thread closed loop from convoying, small enough that per-stripe
/// LRU neighbourhoods stay meaningful at modest capacities.
pub const DEFAULT_STRIPES: usize = 16;

impl<K: Hash + Eq + Clone, V: Clone> ConcurrentTtlCache<K, V> {
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
        let stripes: Vec<Mutex<TtlLruCache<K, V>>> = (0..stripes)
            .map(|_| Mutex::new(TtlLruCache::new(per_stripe, ttl_ms)))
            .collect();
        let mask = stripes.len() - 1;
        ConcurrentTtlCache {
            stripes: stripes.into_boxed_slice(),
            mask,
        }
    }

    /// The stripe a key maps to — deterministic for a given stripe
    /// count, exposed so equivalence tests can replicate the routing.
    pub fn stripe_index(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() as usize) & self.mask
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Looks up `key` at time `now_ms`, refreshing its LRU position
    /// within its stripe.
    pub fn get(&self, key: &K, now_ms: u64) -> Option<V> {
        self.stripes[self.stripe_index(key)].lock().get(key, now_ms)
    }

    /// [`ConcurrentTtlCache::get`] with a full-key verification hook
    /// (see [`TtlLruCache::get_verified`]).
    pub fn get_verified<R>(
        &self,
        key: &K,
        now_ms: u64,
        project: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        self.stripes[self.stripe_index(key)]
            .lock()
            .get_verified(key, now_ms, project)
    }

    /// Inserts a value at time `now_ms`, evicting its stripe's LRU
    /// entry if the stripe is full.
    pub fn insert(&self, key: K, value: V, now_ms: u64) {
        self.stripes[self.stripe_index(&key)]
            .lock()
            .insert(key, value, now_ms)
    }

    /// Removes one entry.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.stripes[self.stripe_index(key)].lock().remove(key)
    }

    /// Removes one entry only when `pred` accepts its value.
    pub fn remove_if(&self, key: &K, pred: impl FnOnce(&V) -> bool) -> Option<V> {
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
/// on the structured context (a `BTreeMap` equality walk — far cheaper
/// than the serialization it replaces); a mismatch evicts the
/// colliding entry and reads as a miss, so the worst case of a
/// collision is one redundant decision query, never a cross-request
/// permit.
pub struct HashedRequestCache<V> {
    inner: ConcurrentTtlCache<u64, (RequestContext, V)>,
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
        self.inner.get_verified(&hash, now_ms, |(stored, value)| {
            (stored == request).then(|| value.clone())
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
            .remove_if(&hash, |(stored, _)| stored == request)
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
        let mut c: TtlLruCache<u32, &'static str> = TtlLruCache::new(4, 100);
        c.insert(1, "permit", 0);
        assert_eq!(c.get(&1, 50), Some("permit"));
        assert_eq!(c.get(&1, 100), None); // TTL boundary: expired
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(2, 1000);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1, 2), Some(10));
        c.insert(3, 30, 3);
        assert_eq!(c.get(&2, 4), None);
        assert_eq!(c.get(&1, 4), Some(10));
        assert_eq!(c.get(&3, 4), Some(30));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(2, 1000);
        c.insert(1, 10, 0);
        c.insert(1, 11, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1, 2), Some(11));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(4, 1000);
        c.insert(1, 10, 0);
        c.insert(2, 20, 0);
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.get(&1, 1), None);
    }

    #[test]
    fn hit_rate_math() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(4, 1000);
        c.insert(1, 10, 0);
        c.get(&1, 1);
        c.get(&2, 1);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TtlLruCache::<u32, u32>::new(0, 10);
    }

    #[test]
    fn remove_single_entry() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(4, 1000);
        c.insert(1, 10, 0);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(3, 1000);
        for round in 0..50u32 {
            c.insert(round, round, u64::from(round));
        }
        // 50 inserts into a 3-slot cache must not grow the slab past
        // capacity: every eviction recycles its node.
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().evictions, 47);
    }

    #[test]
    fn get_verified_rejection_counts_as_miss_and_evicts() {
        let mut c: TtlLruCache<u32, (u32, String)> = TtlLruCache::new(4, 1000);
        c.insert(1, (10, "ten".into()), 0);
        // An accepted entry is served as its projection, taken under the
        // borrow: the string half is never cloned.
        assert_eq!(
            c.get_verified(&1, 1, |v| (v.0 == 10).then_some(v.0)),
            Some(10)
        );
        assert_eq!(c.get_verified(&1, 1, |v| (v.0 == 99).then_some(v.0)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // The rejected entry is gone: a fresh lookup misses on absence.
        assert_eq!(c.get(&1, 1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn remove_if_respects_predicate() {
        let mut c: TtlLruCache<u32, u32> = TtlLruCache::new(4, 1000);
        c.insert(1, 10, 0);
        assert_eq!(c.remove_if(&1, |v| *v == 99), None);
        assert_eq!(c.len(), 1);
        assert_eq!(c.remove_if(&1, |v| *v == 10), Some(10));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn concurrent_cache_basic_roundtrip() {
        let c: ConcurrentTtlCache<u32, u32> = ConcurrentTtlCache::new(64, 100);
        c.insert(1, 10, 0);
        c.insert(2, 20, 0);
        assert_eq!(c.get(&1, 50), Some(10));
        assert_eq!(c.get(&2, 50), Some(20));
        assert_eq!(c.get(&1, 100), None); // TTL boundary holds per stripe
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (2, 1, 1));
        c.invalidate_all();
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_cache_rounds_stripes_to_power_of_two() {
        let c: ConcurrentTtlCache<u32, u32> = ConcurrentTtlCache::with_stripes(5, 100, 10);
        assert_eq!(c.stripe_count(), 8);
        // Aggregate capacity is split per stripe, minimum one entry.
        let tiny: ConcurrentTtlCache<u32, u32> = ConcurrentTtlCache::with_stripes(8, 2, 10);
        for k in 0..64 {
            tiny.insert(k, k, 0);
        }
        assert!(tiny.len() <= 8, "one entry per stripe at most");
    }

    #[test]
    fn concurrent_cache_parallel_readers_observe_their_keys() {
        use std::sync::Arc;
        let c: Arc<ConcurrentTtlCache<u64, u64>> = Arc::new(ConcurrentTtlCache::new(1024, 10_000));
        for k in 0..256u64 {
            c.insert(k, k * 3, 0);
        }
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        let k = (t * 31 + round) % 256;
                        assert_eq!(c.get(&k, 1), Some(k * 3));
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
}

/// Property-style tests: random operation sequences checked against a
/// straightforward reference model of TTL + LRU semantics.
#[cfg(test)]
mod property_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference model: a vector ordered least- to most-recently used.
    struct Model {
        capacity: usize,
        ttl_ms: u64,
        /// `(key, value, expires_at)`, LRU first.
        entries: Vec<(u32, u64, u64)>,
    }

    impl Model {
        fn get(&mut self, key: u32, now: u64) -> Option<u64> {
            let pos = self.entries.iter().position(|(k, _, _)| *k == key)?;
            if now >= self.entries[pos].2 {
                self.entries.remove(pos);
                return None;
            }
            let entry = self.entries.remove(pos);
            let value = entry.1;
            self.entries.push(entry);
            Some(value)
        }

        fn insert(&mut self, key: u32, value: u64, now: u64) {
            if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == key) {
                self.entries.remove(pos);
            } else if self.entries.len() >= self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, value, now + self.ttl_ms));
        }
    }

    #[test]
    fn random_ops_match_reference_model() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1..6usize);
            let ttl = rng.gen_range(1..80u64);
            let mut cache: TtlLruCache<u32, u64> = TtlLruCache::new(capacity, ttl);
            let mut model = Model {
                capacity,
                ttl_ms: ttl,
                entries: Vec::new(),
            };
            let mut now = 0u64;
            for op in 0..400 {
                now += rng.gen_range(0..20u64);
                let key = rng.gen_range(0..8u32);
                if rng.gen_bool(0.5) {
                    assert_eq!(
                        cache.get(&key, now),
                        model.get(key, now),
                        "seed {seed} op {op}: get({key}) at {now} diverged"
                    );
                } else {
                    let value = rng.gen_range(0..1000u64);
                    cache.insert(key, value, now);
                    model.insert(key, value, now);
                }
                assert!(cache.len() <= capacity, "capacity exceeded");
                assert_eq!(cache.len(), model.entries.len(), "seed {seed} op {op}");
            }
        }
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
            let striped: ConcurrentTtlCache<u32, u64> =
                ConcurrentTtlCache::with_stripes(stripes, capacity, ttl);
            let per_stripe = capacity.div_ceil(striped.stripe_count()).max(1);
            let mut bank: Vec<TtlLruCache<u32, u64>> = (0..striped.stripe_count())
                .map(|_| TtlLruCache::new(per_stripe, ttl))
                .collect();
            let mut now = 0u64;
            for op in 0..500 {
                now += rng.gen_range(0..15u64);
                let key = rng.gen_range(0..24u32);
                let stripe = striped.stripe_index(&key);
                match rng.gen_range(0..4u32) {
                    0 | 1 => assert_eq!(
                        striped.get(&key, now),
                        bank[stripe].get(&key, now),
                        "seed {seed} op {op}: get({key}) diverged"
                    ),
                    2 => {
                        let value = rng.gen_range(0..1000u64);
                        striped.insert(key, value, now);
                        bank[stripe].insert(key, value, now);
                    }
                    _ => assert_eq!(
                        striped.remove(&key),
                        bank[stripe].remove(&key),
                        "seed {seed} op {op}: remove({key}) diverged"
                    ),
                }
            }
            let expected: usize = bank.iter().map(TtlLruCache::len).sum();
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
        let mut cache: TtlLruCache<u32, u64> = TtlLruCache::new(8, ttl);
        let mut inserted_at: std::collections::HashMap<u32, u64> = Default::default();
        let mut now = 0u64;
        for _ in 0..600 {
            now += rng.gen_range(0..15u64);
            let key = rng.gen_range(0..12u32);
            match cache.get(&key, now) {
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

    #[test]
    fn lru_eviction_prefers_least_recent_under_load() {
        let mut cache: TtlLruCache<u32, u64> = TtlLruCache::new(4, 1_000_000);
        for k in 0..4u32 {
            cache.insert(k, k as u64, 0);
        }
        // Touch everything except key 2; the next insert must evict 2.
        for k in [0u32, 1, 3] {
            assert!(cache.get(&k, 1).is_some());
        }
        cache.insert(9, 9, 2);
        assert_eq!(cache.get(&2, 3), None);
        for k in [0u32, 1, 3, 9] {
            assert!(cache.get(&k, 3).is_some(), "{k} wrongly evicted");
        }
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn stats_stay_consistent_with_observed_outcomes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cache: TtlLruCache<u32, u64> = TtlLruCache::new(4, 30);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut now = 0u64;
        for _ in 0..500 {
            now += rng.gen_range(0..10u64);
            let key = rng.gen_range(0..10u32);
            if rng.gen_bool(0.6) {
                match cache.get(&key, now) {
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
