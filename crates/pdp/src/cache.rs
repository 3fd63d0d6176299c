//! Decision caching for PEPs — the §3.2 message-reduction mechanism
//! whose staleness risk experiment E6 quantifies. The PEP's decision
//! cache and its capability-token store are its two users, and both are
//! one type, [`HashedRequestCache`].
//!
//! Entries are keyed by a precomputed 64-bit canonical request hash
//! (`RequestContext::canonical_hash`), with the full [`RequestContext`]
//! stored beside each value and compared on every hit, so a hash
//! collision reads as a miss — never as another request's decision.
//! The cache is 16 independently locked stripes, so concurrent readers
//! on different keys proceed in parallel instead of convoying on one
//! lock. Each stripe is a TTL cache that evicts by SIEVE (Zhang et al.,
//! NSDI 2024), with O(1) hit and amortised O(1) eviction: each bit a
//! hit sets is cleared at most once (slab-allocated nodes on an
//! intrusive doubly-linked insertion-order list, a visited bit per node
//! and a hand that sweeps it).
//!
//! Keys are `u64`s — finished hashes — so they are not hashed again in
//! full: a stripe is the top bits of one [`fold`] of the key under a
//! fixed constant, the same in every cache, and a bucket one fold under
//! a seed each cache draws when it is built ([`KeyState`]).

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

/// One stripe of a [`HashedRequestCache`]: a bounded cache with
/// per-entry TTL and SIEVE eviction.
///
/// Entries live in a slab (`nodes`) threaded onto an intrusive doubly
/// linked list in insertion order — head is newest, tail oldest. A hit
/// sets its node's `visited` bit and moves nothing. An insert into a
/// full stripe moves the `hand` from where the last victim was towards
/// the head (from the tail when it rests on `NIL`), clearing each set
/// bit it passes and evicting the first node whose bit is clear,
/// wrapping from the head to the tail. So a lookup, an insert and a
/// drop are O(1) beyond the key-map lookup, and the sweep is amortised
/// O(1): each bit a hit sets is cleared at most once.
struct Sieve<V> {
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

impl<V> Sieve<V> {
    /// A stripe holding at most `capacity` entries, each valid for
    /// `ttl_ms` after insertion, over a given bucket seed (a cache
    /// gives all its stripes one).
    fn new(capacity: usize, ttl_ms: u64, buckets: KeyState) -> Self {
        Sieve {
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

    /// Looks up `key` at time `now_ms` through a full-key verification
    /// hook that is also the projection: an in-TTL entry is served as
    /// what `project` makes of the stored value *in place*, so the
    /// caller compares its stored key under the borrow and clones only
    /// what it returns. `None` refuses the entry — a hash collision, or
    /// a value its holder no longer accepts — which is dropped and
    /// counted as a miss, so `hits + misses` always equals the lookups
    /// and a refused entry is never served. A served entry is marked
    /// visited.
    fn get_if<R>(
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
    fn insert(&mut self, key: u64, value: V, now_ms: u64) {
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

    /// Drops every entry; the counters stay.
    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hand = NIL;
    }
}

/// The fixed multiplier of a key's stripe fold (the third word of π's
/// fractional digits, made odd).
const STRIPE_KEY: u64 = 0xa409_3822_299f_31d1;

/// Stripes per cache: enough to keep an 8-thread closed loop from
/// convoying, few enough that per-stripe eviction neighbourhoods stay
/// meaningful at modest capacities. A power of two, so a stripe is the
/// top bits of a fold.
const STRIPES: usize = 16;

/// The stripe a key lives in: the top bits of the key's fold under a
/// fixed constant — the same in every cache and every process, never
/// the cache's bucket seed, so two caches fed the same keys evict the
/// same entries and two PEPs serving one request sequence report the
/// same counters.
fn stripe_of(key: u64) -> usize {
    let bits = STRIPES.trailing_zeros();
    (fold(key, STRIPE_KEY).rotate_left(bits) & (STRIPES as u64 - 1)) as usize
}

/// A stripe of a cache of `V`: the request is stored beside its value.
type Stripe<V> = Mutex<Sieve<(RequestContext, V)>>;

/// The enforcement-path decision/token cache: 16 independently locked
/// SIEVE stripes keyed by the precomputed 64-bit canonical request hash
/// ([`RequestContext::canonical_hash`]), storing the full
/// [`RequestContext`] beside each value and comparing it on every hit.
///
/// The collision argument: two distinct requests may share a 64-bit
/// hash, so the hash alone is not a safe cache key for an access
/// control decision. Every hit therefore re-checks `stored == request`
/// on the structured context (a comparison of its flat sorted entries —
/// far cheaper than the serialization it replaces); a mismatch evicts the
/// colliding entry and reads as a miss, so the worst case of a
/// collision is one redundant decision query, never a cross-request
/// permit.
///
/// Each key lives in one stripe, chosen by the key alone, and each
/// stripe keeps its own eviction order and hand: TTL and hit/miss
/// accounting are those of one SIEVE cache, and only the eviction
/// neighbourhood (which keys compete for capacity) is partitioned. The
/// requested capacity is split evenly across stripes, rounded up. A
/// lookup or an insert takes exactly one stripe lock; the whole-cache
/// walks ([`HashedRequestCache::len`], [`HashedRequestCache::stats`],
/// [`HashedRequestCache::invalidate_all`]) visit stripes one at a time
/// and are therefore *not* an atomic snapshot across stripes — fine for
/// telemetry and flushes, the only places they are used.
pub struct HashedRequestCache<V> {
    stripes: Box<[Stripe<V>]>,
}

impl<V: Clone> HashedRequestCache<V> {
    /// Creates a cache holding roughly `capacity` entries across 16
    /// stripes, each valid for `ttl_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, ttl_ms: u64) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let per_stripe = capacity.div_ceil(STRIPES);
        let buckets = KeyState::new();
        HashedRequestCache {
            stripes: (0..STRIPES)
                .map(|_| Mutex::new(Sieve::new(per_stripe, ttl_ms, buckets)))
                .collect(),
        }
    }

    /// Looks up the decision cached for `request`, whose canonical
    /// hash the caller precomputed (so one hash serves the token
    /// cache, the decision cache and the insert on miss).
    pub fn get(&self, hash: u64, request: &RequestContext, now_ms: u64) -> Option<V> {
        self.get_if(hash, request, now_ms, |_| true)
    }

    /// [`HashedRequestCache::get`] that serves an entry only when
    /// `current` accepts its value: one it refuses is dropped under the
    /// lookup's lock and counted a miss, as a collision is, so
    /// `hits + misses` stays the number of lookups.
    pub fn get_if(
        &self,
        hash: u64,
        request: &RequestContext,
        now_ms: u64,
        current: impl FnOnce(&V) -> bool,
    ) -> Option<V> {
        self.stripes[stripe_of(hash)]
            .lock()
            .get_if(hash, now_ms, |(stored, value)| {
                (stored == request && current(value)).then(|| value.clone())
            })
    }

    /// Caches `value` for `request` under its precomputed hash,
    /// evicting by its stripe's SIEVE sweep if the stripe is full.
    pub fn insert(&self, hash: u64, request: &RequestContext, value: V, now_ms: u64) {
        self.stripes[stripe_of(hash)]
            .lock()
            .insert(hash, (request.clone(), value), now_ms);
    }

    /// Removes every entry (explicit invalidation on policy change).
    /// Stripes flush one at a time; a concurrent insert into an
    /// already-flushed stripe survives.
    pub fn invalidate_all(&self) {
        for stripe in self.stripes.iter() {
            stripe.lock().clear();
        }
    }

    /// Total live entries, possibly-expired ones not yet touched
    /// included (not an atomic snapshot).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether every stripe is empty.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().map.is_empty())
    }

    /// Aggregate statistics: the sum of per-stripe counters (not an
    /// atomic snapshot, but each counter is internally consistent).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in self.stripes.iter() {
            total.absorb(&stripe.lock().stats);
        }
        total
    }
}

#[cfg(test)]
/// What the tests read of a stripe beyond what the cache calls.
impl<V: Clone> Sieve<V> {
    fn lone(capacity: usize, ttl_ms: u64) -> Self {
        Sieve::new(capacity, ttl_ms, KeyState::new())
    }

    fn get(&mut self, key: u64, now_ms: u64) -> Option<V> {
        self.get_if(key, now_ms, |value| Some(value.clone()))
    }

    fn remove(&mut self, key: u64) -> Option<V> {
        let idx = self.map.remove(&key)?;
        Some(self.release(idx))
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` distinct requests, one subject each.
    fn requests(n: usize) -> Vec<RequestContext> {
        (0..n)
            .map(|i| RequestContext::basic(format!("user-{i}"), "ehr/1", "read"))
            .collect()
    }

    #[test]
    fn hit_within_ttl_miss_after() {
        let mut c: Sieve<&'static str> = Sieve::lone(4, 100);
        c.insert(1, "permit", 0);
        assert_eq!(c.get(1, 50), Some("permit"));
        assert_eq!(c.get(1, 100), None); // TTL boundary: expired
        assert_eq!(c.stats.expirations, 1);
    }

    /// A hit marks an entry visited, so the next insert into a full
    /// cache passes over it and evicts the unvisited one.
    #[test]
    fn lru_eviction_order() {
        let mut c: Sieve<u32> = Sieve::lone(2, 1000);
        c.insert(1, 10, 0);
        c.insert(2, 20, 1);
        // Touch 1 so 2 becomes the victim.
        assert_eq!(c.get(1, 2), Some(10));
        c.insert(3, 30, 3);
        assert_eq!(c.get(2, 4), None);
        assert_eq!(c.get(1, 4), Some(10));
        assert_eq!(c.get(3, 4), Some(30));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c: Sieve<u32> = Sieve::lone(2, 1000);
        c.insert(1, 10, 0);
        c.insert(1, 11, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 2), Some(11));
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn invalidate_all_clears() {
        let c: HashedRequestCache<u32> = HashedRequestCache::new(64, 1000);
        let reqs = requests(2);
        for (value, req) in reqs.iter().enumerate() {
            c.insert(req.canonical_hash(), req, value as u32, 0);
        }
        c.invalidate_all();
        assert!(c.is_empty());
        assert_eq!(c.get(reqs[0].canonical_hash(), &reqs[0], 1), None);
    }

    #[test]
    fn hit_rate_math() {
        let mut c: Sieve<u32> = Sieve::lone(4, 1000);
        c.insert(1, 10, 0);
        c.get(1, 1);
        c.get(2, 1);
        let s = c.stats;
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = HashedRequestCache::<u32>::new(0, 10);
    }

    /// The one removal path: a lookup whose `current` refuses the value
    /// drops the entry and counts a miss.
    #[test]
    fn remove_single_entry() {
        let c: HashedRequestCache<u32> = HashedRequestCache::new(64, 1000);
        let alice = RequestContext::basic("alice", "ehr/1", "read");
        let hash = alice.canonical_hash();
        c.insert(hash, &alice, 10, 0);
        assert_eq!(c.get_if(hash, &alice, 1, |v| *v != 10), None);
        assert!(c.is_empty());
        assert_eq!(c.get(hash, &alice, 1), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (0, 2, 0));
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut c: Sieve<u64> = Sieve::lone(3, 1000);
        for round in 0..50u64 {
            c.insert(round, round, round);
        }
        // 50 inserts into a 3-slot cache must not grow the slab past
        // capacity: every eviction recycles its node.
        assert!(c.nodes.len() <= 3, "slab grew to {}", c.nodes.len());
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats.evictions, 47);
    }

    #[test]
    fn get_if_rejection_counts_as_miss_and_evicts() {
        let mut c: Sieve<(u32, String)> = Sieve::lone(4, 1000);
        c.insert(1, (10, "ten".into()), 0);
        // An accepted entry is served as its projection, taken under the
        // borrow: the string half is never cloned.
        assert_eq!(c.get_if(1, 1, |v| (v.0 == 10).then_some(v.0)), Some(10));
        assert_eq!(c.get_if(1, 1, |v| (v.0 == 99).then_some(v.0)), None);
        let s = c.stats;
        assert_eq!((s.hits, s.misses), (1, 1));
        // The rejected entry is gone: a fresh lookup misses on absence.
        assert_eq!(c.get(1, 1), None);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn concurrent_cache_basic_roundtrip() {
        let c: HashedRequestCache<u32> = HashedRequestCache::new(64, 100);
        let reqs = requests(2);
        let h: Vec<u64> = reqs.iter().map(RequestContext::canonical_hash).collect();
        c.insert(h[0], &reqs[0], 10, 0);
        c.insert(h[1], &reqs[1], 20, 0);
        assert_eq!(c.get(h[0], &reqs[0], 50), Some(10));
        assert_eq!(c.get(h[1], &reqs[1], 50), Some(20));
        assert_eq!(c.get(h[0], &reqs[0], 100), None); // TTL boundary holds per stripe
        assert_eq!(c.len(), 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.expirations), (2, 1, 1));
        c.invalidate_all();
        assert!(c.is_empty());
    }

    /// The stripe count is a power of two, so the top bits of a fold
    /// reach every stripe and no other; the capacity is split across
    /// them, rounded up.
    #[test]
    fn concurrent_cache_rounds_stripes_to_power_of_two() {
        assert!(STRIPES.is_power_of_two());
        let mut seen = [false; STRIPES];
        for key in 0..4096u64 {
            seen[stripe_of(key)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every stripe is reached");
        let tiny: HashedRequestCache<u64> = HashedRequestCache::new(2, 10);
        for (k, req) in requests(256).iter().enumerate() {
            tiny.insert(req.canonical_hash(), req, k as u64, 0);
        }
        assert_eq!(tiny.len(), STRIPES, "one entry per stripe");
    }

    #[test]
    fn concurrent_cache_parallel_readers_observe_their_keys() {
        use std::sync::Arc;
        let c: Arc<HashedRequestCache<u64>> = Arc::new(HashedRequestCache::new(1024, 10_000));
        let reqs = Arc::new(requests(256));
        for (k, req) in reqs.iter().enumerate() {
            c.insert(req.canonical_hash(), req, k as u64 * 3, 0);
        }
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let (c, reqs) = (Arc::clone(&c), Arc::clone(&reqs));
                std::thread::spawn(move || {
                    for round in 0..200usize {
                        let k = (t * 31 + round) % 256;
                        let req = &reqs[k];
                        assert_eq!(c.get(req.canonical_hash(), req, 1), Some(k as u64 * 3));
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
    /// requests share a key, and the stripes of a cache split each
    /// large table, and all three together, evenly within ±10 %.
    /// (`token_churn`'s 1 024 requests alone are too few to hold that:
    /// a stripe's share of them is 64 ± 8 for any uniform hash.)
    #[test]
    fn request_hashes_spread_over_stripes_without_collisions() {
        let balanced = |hashes: &[u64]| {
            let mut counts = [0usize; STRIPES];
            hashes.iter().for_each(|&h| counts[stripe_of(h)] += 1);
            let share = hashes.len() / STRIPES;
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
        let reqs = requests(256);
        let a: HashedRequestCache<u64> = HashedRequestCache::new(64, 40);
        let b: HashedRequestCache<u64> = HashedRequestCache::new(64, 40);
        assert_ne!(
            a.stripes[0].lock().map.hasher(),
            b.stripes[0].lock().map.hasher(),
            "bucket seeds differ"
        );
        let mut now = 0;
        for op in 0..4000 {
            now += rng.gen_range(0..3u64);
            let req = &reqs[rng.gen_range(0..reqs.len())];
            let hash = req.canonical_hash();
            if rng.gen_bool(0.5) {
                assert_eq!(a.get(hash, req, now), b.get(hash, req, now), "op {op}");
            } else {
                a.insert(hash, req, now, now);
                b.insert(hash, req, now, now);
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
            let mut cache: Sieve<u64> = Sieve::lone(capacity, ttl);
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
        let mut cache: Sieve<u64> = Sieve::lone(4, 1_000_000);
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
        assert_eq!(cache.stats.evictions, 3);
    }

    /// The cache behaves exactly like 16 lone stripes routed by
    /// `stripe_of` — striping is a concurrency change, not a semantic
    /// one. Lookups, inserts and refusing lookups (the one removal
    /// path) answer alike, and the lengths and counters match.
    #[test]
    fn striped_matches_bank_of_single_lock_caches() {
        let reqs: Vec<RequestContext> = (0..64)
            .map(|i| RequestContext::basic(format!("user-{i}"), "ehr/1", "read"))
            .collect();
        let mut evictions = 0;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let capacity = rng.gen_range(1..48usize);
            let ttl = rng.gen_range(1..80u64);
            let cache: HashedRequestCache<u64> = HashedRequestCache::new(capacity, ttl);
            let mut bank: Vec<Sieve<u64>> = (0..STRIPES)
                .map(|_| Sieve::lone(capacity.div_ceil(STRIPES), ttl))
                .collect();
            let mut now = 0u64;
            for op in 0..500 {
                now += rng.gen_range(0..15u64);
                let req = &reqs[rng.gen_range(0..reqs.len())];
                let key = req.canonical_hash();
                let stripe = &mut bank[stripe_of(key)];
                match rng.gen_range(0..4u32) {
                    0 | 1 => assert_eq!(
                        cache.get(key, req, now),
                        stripe.get(key, now),
                        "seed {seed} op {op}: get diverged"
                    ),
                    2 => {
                        let value = rng.gen_range(0..1000u64);
                        cache.insert(key, req, value, now);
                        stripe.insert(key, value, now);
                    }
                    _ => assert_eq!(
                        cache.get_if(key, req, now, |_| false),
                        stripe.get_if(key, now, |_| None::<u64>),
                        "seed {seed} op {op}: refusing get diverged"
                    ),
                }
            }
            let expected: usize = bank.iter().map(Sieve::len).sum();
            assert_eq!(cache.len(), expected, "seed {seed}: lengths diverged");
            let mut expected_stats = CacheStats::default();
            for s in &bank {
                expected_stats.absorb(&s.stats);
            }
            assert_eq!(cache.stats(), expected_stats, "seed {seed}: stats");
            evictions += expected_stats.evictions;
        }
        assert!(evictions > 0, "no stripe ever filled");
    }

    #[test]
    fn never_serves_past_ttl_and_expiry_is_ordered() {
        let mut rng = StdRng::seed_from_u64(99);
        let ttl = 50u64;
        let mut cache: Sieve<u64> = Sieve::lone(8, ttl);
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
        let mut cache: Sieve<u64> = Sieve::lone(4, 1_000_000);
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
        assert_eq!(cache.stats.evictions, 1);
    }

    #[test]
    fn stats_stay_consistent_with_observed_outcomes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut cache: Sieve<u64> = Sieve::lone(4, 30);
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
        let stats = cache.stats;
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
