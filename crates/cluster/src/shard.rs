//! Consistent-hash routing of request contexts onto replica groups.
//!
//! Each shard owns a set of virtual points on a 64-bit hash ring; a
//! request routes to the shard owning the first point at or after the
//! hash of its *routing key* (subject id + resource id). Two properties
//! matter here:
//!
//! 1. **Stability** — the same key always lands on the same shard, so
//!    one subject's requests on one resource always meet the same
//!    replicas.
//! 2. **Minimal movement** — growing the cluster by one shard remaps
//!    only the keys that the new shard's points capture (roughly
//!    `1/(n+1)` of them), instead of reshuffling everything the way
//!    `hash % n` would.

use dacs_policy::attr::{Category, Str};
use dacs_policy::hash::WordHasher;
use dacs_policy::request::RequestContext;

/// Maps routing keys onto `shards` replica groups via a consistent ring.
///
/// # Examples
///
/// ```
/// use dacs_cluster::ShardRouter;
/// use dacs_policy::request::RequestContext;
///
/// let router = ShardRouter::new(4);
/// let read = RequestContext::basic("alice", "ehr/1", "read");
/// let write = RequestContext::basic("alice", "ehr/1", "write");
/// // Stable: the same (subject, resource) key always lands on the same
/// // shard, whatever the action — that shard's decision cache stays hot.
/// assert_eq!(router.shard_for(&read), router.shard_for(&write));
/// assert!(router.shard_for(&read) < router.shards());
///
/// // Minimal movement: adding a shard remaps only the keys the new
/// // shard's ring points capture, not the whole keyspace.
/// let grown = ShardRouter::new(5);
/// let moved = (0..1000)
///     .filter(|i| {
///         let key = format!("user-{i}\u{1f}records/{i}");
///         router.shard_for_key(&key) != grown.shard_for_key(&key)
///     })
///     .count();
/// assert!(moved < 500, "{moved} of 1000 keys moved");
/// ```
#[derive(Clone, Debug)]
pub struct ShardRouter {
    /// `(ring_point, shard_index)` sorted by point.
    ring: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRouter {
    /// Builds a ring for `shards` groups with 128 virtual points each.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        const VNODES: usize = 128;
        assert!(shards > 0, "router needs at least one shard");
        let mut ring = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for v in 0..VNODES {
                let mut point = WordHasher::new();
                point.write_u64(shard as u64);
                point.write_u64(v as u64);
                ring.push((point.finish(), shard));
            }
        }
        ring.sort_unstable();
        ring.dedup_by_key(|entry| entry.0);
        ShardRouter { ring, shards }
    }

    /// Number of shards the router spreads keys over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns an explicit routing key.
    pub fn shard_for_key(&self, key: &str) -> usize {
        self.owner(&[key.as_bytes()])
    }

    /// The shard that owns a request: the one owning the routing key
    /// `subject ␟ resource` (the two ids around a `0x1f` separator, an
    /// absent id read as empty), hashed where the ids live.
    ///
    /// Keying on (subject, resource) keeps a principal's repeated
    /// accesses to the same resource on one shard — exactly the
    /// repetition a decision cache exploits — while still spreading
    /// distinct resources.
    pub fn shard_for(&self, request: &RequestContext) -> usize {
        let id = |category| request.id_of(category).map_or(&b""[..], Str::as_bytes);
        self.owner(&[id(Category::Subject), b"\x1f", id(Category::Resource)])
    }

    /// The shard owning the first ring point at or after the hash of
    /// the key `parts` spell — its length, then its bytes — one shard
    /// owns every key unhashed.
    fn owner(&self, parts: &[&[u8]]) -> usize {
        if self.shards == 1 {
            return 0;
        }
        let mut key = WordHasher::new();
        key.write_u64(parts.iter().map(|part| part.len() as u64).sum());
        key.write_joined(parts);
        let point = key.finish();
        let idx = self.ring.partition_point(|(p, _)| *p < point);
        // Wrap past the last point back to the ring start.
        let (_, shard) = self.ring[idx % self.ring.len()];
        shard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_shard_across_calls_and_rebuilds() {
        let router = ShardRouter::new(4);
        let rebuilt = ShardRouter::new(4);
        for i in 0..200 {
            let key = format!("user-{i}\u{1f}records/{}", i % 17);
            let first = router.shard_for_key(&key);
            assert_eq!(first, router.shard_for_key(&key), "unstable within router");
            assert_eq!(first, rebuilt.shard_for_key(&key), "unstable across builds");
            assert!(first < 4);
        }
    }

    #[test]
    fn request_routing_uses_subject_and_resource() {
        let router = ShardRouter::new(8);
        let a = RequestContext::basic("alice", "ehr/1", "read");
        let a_write = RequestContext::basic("alice", "ehr/1", "write");
        // The action does not move a (subject, resource) pair off its shard.
        assert_eq!(router.shard_for(&a), router.shard_for(&a_write));
    }

    #[test]
    fn keys_spread_over_all_shards() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for i in 0..2000 {
            counts[router.shard_for_key(&format!("key-{i}"))] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(
                (200..=800).contains(count),
                "shard {shard} got {count} of 2000 keys"
            );
        }
    }

    #[test]
    fn growing_by_one_shard_moves_a_minority_of_keys() {
        let before = ShardRouter::new(4);
        let after = ShardRouter::new(5);
        let total = 2000;
        let moved = (0..total)
            .filter(|i| {
                let key = format!("key-{i}");
                before.shard_for_key(&key) != after.shard_for_key(&key)
            })
            .count();
        // Consistent hashing: expect ~1/5 moved; hash % n would move ~4/5.
        assert!(
            moved < total / 2,
            "{moved} of {total} keys moved on scale-out"
        );
        assert!(moved > 0, "a new shard must take over some keys");
    }
}
