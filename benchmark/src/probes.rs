//! Layer probes: each layer's public entry point called directly on a
//! sample of the workload's own request stream, timed in blocks of
//! 1000 calls (a clock read per call would cost as much as the
//! cheaper layers do), reporting the median block. The sample is small
//! enough to stay in the core's own cache and every probe walks it
//! once untimed first, so the figures are the layers' compute cost and
//! can be subtracted from one another.

use crate::clock::Clock;
use crate::stats::median;
use crate::world::World;
use dacs::pdp::{DecisionClass, HashedRequestCache};
use dacs::pep::EnforceRequest;
use dacs::pip::AttributeProvider;
use dacs::policy::attr::AttributeId;
use dacs::policy::request::RequestContext;
use std::hint::black_box;
use std::time::Instant;

const BLOCK: usize = 1000;
/// Requests probed, drawn evenly from the measured stream (about 2 MB).
const SAMPLE: usize = 2000;
/// Timed walks over the sample per probe.
const WALKS: usize = 4;

/// ns per call of each probed entry point; 0 where the workload's
/// topology has no such layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTimes {
    /// `RequestContext::canonical_hash`.
    pub hash_ns: f64,
    /// `Pdp::decide` on the root-PAP engine.
    pub pdp_decide_ns: f64,
    /// `StaticAttributes::provide` for the subject's `role`.
    pub pip_provide_ns: f64,
    /// `HashedRequestCache::get` on a stand-alone cache of the PEP
    /// cache's capacity fed the same key stream.
    pub cache_get_ns: f64,
    /// `HashedRequestCache::insert` of that cache's misses.
    pub cache_insert_ns: f64,
    /// `PdpCluster::decide_classed`.
    pub cluster_decide_ns: f64,
    /// Replica decisions per probed cluster call.
    pub cluster_width: f64,
    /// `ShardRouter::shard_for`.
    pub cluster_route_ns: f64,
    /// `CapabilityAuthority::verify`.
    pub capability_verify_ns: f64,
    /// `CapabilityAuthority::mint`.
    pub capability_mint_ns: f64,
}

/// Median over blocks of the mean ns per call of `call`, at the
/// reference clock, after one untimed walk over `sample`.
fn block_ns<T>(sample: &[T], mut call: impl FnMut(&T)) -> f64 {
    sample.iter().for_each(&mut call);
    let mut clock = Clock::start();
    let blocks: Vec<f64> = (0..WALKS)
        .flat_map(|_| sample.chunks(BLOCK))
        .map(|block| {
            let started = Instant::now();
            for item in block {
                call(item);
            }
            started.elapsed().as_nanos() as f64 / block.len() as f64
        })
        .collect();
    if blocks.is_empty() {
        0.0
    } else {
        median(&blocks) / clock.factor()
    }
}

/// Probes every layer `world` has, on [`SAMPLE`] requests drawn evenly
/// from a stream of `ops` operations. Run after the pass's counters
/// were read: the probes move them.
pub fn layers(world: &World, ops: u64) -> LayerTimes {
    let d = &world.domain;
    let now_ms = world.op / 100;
    let sample: Vec<&RequestContext> = world
        .seq
        .iter()
        .cycle()
        .take(ops as usize)
        .step_by((ops as usize / SAMPLE).max(1))
        .map(|&k| &world.requests[k as usize])
        .collect();
    let mut t = LayerTimes {
        hash_ns: block_ns(&sample, |r| {
            black_box(r.canonical_hash());
        }),
        pdp_decide_ns: block_ns(&sample, |r| {
            black_box(d.pdp.decide(r, now_ms));
        }),
        ..LayerTimes::default()
    };
    let role = AttributeId::subject("role");
    t.pip_provide_ns = block_ns(&sample, |r| {
        black_box(d.idp_attributes.provide(&role, r, now_ms));
    });
    if let Some(cluster) = &d.cluster {
        t.cluster_route_ns = block_ns(&sample, |r| {
            black_box(cluster.router().shard_for(r));
        });
        let before = cluster.metrics();
        t.cluster_decide_ns = block_ns(&sample, |r| {
            black_box(cluster.decide_classed(r, now_ms, DecisionClass::default()));
        });
        let after = cluster.metrics();
        t.cluster_width = (after.replica_queries - before.replica_queries) as f64
            / (after.queries - before.queries).max(1) as f64;
    }
    if let Some(authority) = &d.capability {
        let ids: Vec<(&str, &str, &str)> = sample
            .iter()
            .filter_map(|r| Some((r.subject_id()?, r.resource_id()?, r.action_id()?)))
            .collect();
        t.capability_mint_ns = block_ns(&ids, |&(s, r, a)| {
            black_box(authority.mint(s, r, a, now_ms));
        });
        let minted: Vec<_> = ids
            .iter()
            .map(|&(s, r, a)| ((s, r, a), authority.mint(s, r, a, now_ms)))
            .collect();
        t.capability_verify_ns = block_ns(&minted, |((s, r, a), token)| {
            black_box(authority.verify(token, s, r, a, now_ms)).expect("a fresh token verifies");
        });
    }
    if world.sizes.pep_cache > 0 {
        (t.cache_get_ns, t.cache_insert_ns) = cache_times(world.sizes.pep_cache, &sample, now_ms);
    }
    t
}

/// ns per `get` and per miss-path `insert` of a stand-alone
/// [`HashedRequestCache`] of `capacity` fed `sample` in order, from
/// empty, [`WALKS`] times.
fn cache_times(capacity: usize, sample: &[&RequestContext], now_ms: u64) -> (f64, f64) {
    let cache: HashedRequestCache<bool> = HashedRequestCache::new(capacity, u64::MAX / 2);
    let hashes: Vec<u64> = sample.iter().map(|r| r.canonical_hash()).collect();
    let (mut gets, mut inserts) = (Vec::new(), Vec::new());
    let mut clock = Clock::start();
    for _ in 0..WALKS {
        cache.invalidate_all();
        for (block, hashes) in sample.chunks(BLOCK).zip(hashes.chunks(BLOCK)) {
            let t0 = Instant::now();
            let misses: Vec<usize> = (0..block.len())
                .filter(|&i| cache.get(hashes[i], block[i], now_ms).is_none())
                .collect();
            let t1 = Instant::now();
            for &i in &misses {
                cache.insert(hashes[i], block[i], true, now_ms);
            }
            let t2 = Instant::now();
            gets.push((t1 - t0).as_nanos() as f64 / block.len() as f64);
            if !misses.is_empty() {
                inserts.push((t2 - t1).as_nanos() as f64 / misses.len() as f64);
            }
        }
    }
    let factor = clock.factor();
    let mid = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            median(v) / factor
        }
    };
    (mid(&gets), mid(&inserts))
}

/// Enforcements per second (at the calling thread's reference clock)
/// of `clients` closed-loop clients sharing `world`'s PEP, `ops` each,
/// verdicts checked. Informational: the contention a multi-core change
/// would claim on.
pub fn client_rate(world: &World, clients: usize, ops: u64) -> Result<f64, String> {
    let (pep, requests, permits, seq) = (
        world.domain.pep.as_ref(),
        world.requests.as_slice(),
        world.permits.as_slice(),
        world.seq.as_slice(),
    );
    let now_ms = world.op / 100;
    let mut clock = Clock::start();
    let started = Instant::now();
    let wrong: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    // Each client walks the sequence from its own offset.
                    let offset = c * seq.len() / clients;
                    (0..ops as usize)
                        .filter(|i| {
                            let k = seq[(offset + i) % seq.len()] as usize;
                            let allowed =
                                pep.serve(EnforceRequest::of(&requests[k], now_ms)).allowed;
                            allowed != permits[k]
                        })
                        .count() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .sum()
    });
    let elapsed = started.elapsed().as_secs_f64() / clock.factor();
    if wrong != 0 {
        return Err(format!(
            "{}: {wrong} wrong verdicts with {clients} clients",
            world.kind.name()
        ));
    }
    Ok(clients as f64 * ops as f64 / elapsed)
}
