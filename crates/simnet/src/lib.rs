//! # dacs-simnet
//!
//! A deterministic, event-driven network simulator: the testbed
//! substrate for every communication-performance experiment in the DACS
//! reproduction (§3.2 "Communication Performance" of the DSN 2008
//! paper).
//!
//! The paper's claims are about *message counts*, *message sizes* and
//! *round trips* between distributed authorization components. A
//! discrete-event simulation measures exactly those quantities
//! reproducibly: virtual clock in microseconds, per-link latency /
//! bandwidth / jitter / loss, seeded randomness, and network-wide
//! message and byte counts.
//!
//! # Examples
//!
//! ```
//! use dacs_simnet::{LinkSpec, Network};
//!
//! let mut net: Network<&'static str> = Network::new(7);
//! let pep = net.add_node("pep.hospital-a");
//! let pdp = net.add_node("pdp.hospital-a");
//! net.set_link(pep, pdp, LinkSpec::lan());
//! net.send(pep, pdp, 512, "decision query");
//! let delivery = net.next_event().expect("one message in flight");
//! assert_eq!(delivery.payload, "decision query");
//! assert!(net.now() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Identifies a node in the simulated network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Link characteristics between two nodes (directed).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkSpec {
    /// Propagation delay in microseconds.
    pub latency_us: u64,
    /// Uniform jitter added on top, `[0, jitter_us]` microseconds.
    pub jitter_us: u64,
    /// Serialization bandwidth in bytes/second (`None` = infinite).
    pub bandwidth_bps: Option<u64>,
    /// Probability a message is silently dropped, `[0, 1)`.
    pub loss: f64,
}

impl LinkSpec {
    /// A same-rack LAN link: 100 µs, no jitter, 1 GB/s.
    pub fn lan() -> Self {
        LinkSpec {
            latency_us: 100,
            jitter_us: 20,
            bandwidth_bps: Some(1_000_000_000),
            loss: 0.0,
        }
    }

    /// An inter-domain WAN link: 20 ms, 2 ms jitter, 100 MB/s.
    pub fn wan() -> Self {
        LinkSpec {
            latency_us: 20_000,
            jitter_us: 2_000,
            bandwidth_bps: Some(100_000_000),
            loss: 0.0,
        }
    }

    /// A lossy WAN link.
    pub fn wan_lossy(loss: f64) -> Self {
        LinkSpec {
            loss,
            ..Self::wan()
        }
    }

    /// An instantaneous link (for logic-only tests).
    pub fn instant() -> Self {
        LinkSpec {
            latency_us: 0,
            jitter_us: 0,
            bandwidth_bps: None,
            loss: 0.0,
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::lan()
    }
}

/// A message delivered to a node.
#[derive(Clone, PartialEq, Debug)]
pub struct Delivery<M> {
    /// Simulation time of delivery, in microseconds.
    pub at: u64,
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Unique message id.
    pub msg_id: u64,
    /// Modelled message size in bytes.
    pub size: usize,
    /// The payload.
    pub payload: M,
}

#[derive(Debug)]
struct Event<M> {
    at: u64,
    seq: u64, // tie-break for determinism
    delivery: Delivery<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulated network.
///
/// `M` is the application payload type (the protocol enum of the layer
/// above). All behaviour is deterministic given the seed.
#[derive(Debug)]
pub struct Network<M> {
    clock: u64,
    nodes: u32,
    links: HashMap<(NodeId, NodeId), LinkSpec>,
    default_link: LinkSpec,
    queue: BinaryHeap<Reverse<Event<M>>>,
    rng: StdRng,
    next_msg: u64,
    next_seq: u64,
}

impl<M> Network<M> {
    /// Creates an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Network {
            clock: 0,
            nodes: 0,
            links: HashMap::new(),
            default_link: LinkSpec::default(),
            queue: BinaryHeap::new(),
            rng: StdRng::seed_from_u64(seed),
            next_msg: 0,
            next_seq: 0,
        }
    }

    /// Registers a node and returns its id. The name documents the
    /// call site; the network keeps only the id.
    pub fn add_node(&mut self, _name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes);
        self.nodes += 1;
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes as usize
    }

    /// Sets the directed link spec from `a` to `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.links.insert((a, b), spec);
    }

    /// Sets the link spec in both directions.
    pub fn set_link_bidir(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.set_link(a, b, spec);
        self.set_link(b, a, spec);
    }

    /// Sets the spec used for node pairs without an explicit link.
    pub fn set_default_link(&mut self, spec: LinkSpec) {
        self.default_link = spec;
    }

    /// Current simulation time in microseconds.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Sends a message of `size` bytes; returns its id, or `None` if the
    /// link dropped it.
    pub fn send(&mut self, from: NodeId, to: NodeId, size: usize, payload: M) -> Option<u64> {
        self.send_after(0, from, to, size, payload)
    }

    /// Sends after an explicit local processing delay (microseconds).
    pub fn send_after(
        &mut self,
        delay_us: u64,
        from: NodeId,
        to: NodeId,
        size: usize,
        payload: M,
    ) -> Option<u64> {
        let spec = self
            .links
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link);
        if spec.loss > 0.0 && self.rng.gen::<f64>() < spec.loss {
            return None;
        }

        let serialize_us = spec
            .bandwidth_bps
            .map(|bps| (size as u64).saturating_mul(1_000_000) / bps.max(1))
            .unwrap_or(0);
        let jitter = if spec.jitter_us > 0 {
            self.rng.gen_range(0..=spec.jitter_us)
        } else {
            0
        };
        let at = self.clock + delay_us + spec.latency_us + serialize_us + jitter;

        let msg_id = self.next_msg;
        self.next_msg += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Event {
            at,
            seq,
            delivery: Delivery {
                at,
                from,
                to,
                msg_id,
                size,
                payload,
            },
        }));
        Some(msg_id)
    }

    /// Pops the next delivery, advancing the clock to its time.
    pub fn next_event(&mut self) -> Option<Delivery<M>> {
        let Reverse(ev) = self.queue.pop()?;
        self.clock = ev.at;
        Some(ev.delivery)
    }

    /// Runs the event loop to completion: each delivery is handed to
    /// `handler`, which may send further messages.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Self, Delivery<M>)) {
        while let Some(ev) = self.next_event() {
            handler(self, ev);
        }
    }

    /// Runs until the given simulation time (exclusive); events at or
    /// after `until_us` stay queued and the clock stops at `until_us`.
    pub fn run_until(&mut self, until_us: u64, mut handler: impl FnMut(&mut Self, Delivery<M>)) {
        loop {
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.at < until_us => {
                    let ev = self.next_event().expect("peeked");
                    handler(self, ev);
                }
                _ => break,
            }
        }
        self.clock = self.clock.max(until_us);
    }

    /// Advances the clock without processing events (idle time).
    pub fn advance_to(&mut self, t_us: u64) {
        self.clock = self.clock.max(t_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes(seed: u64, spec: LinkSpec) -> (Network<u32>, NodeId, NodeId) {
        let mut net = Network::new(seed);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_link_bidir(a, b, spec);
        (net, a, b)
    }

    #[test]
    fn delivery_order_is_time_order() {
        let (mut net, a, b) = two_nodes(1, LinkSpec::instant());
        // Slow explicit delay first, then a fast one.
        net.send_after(1000, a, b, 10, 1);
        net.send_after(10, a, b, 10, 2);
        assert_eq!(net.next_event().unwrap().payload, 2);
        assert_eq!(net.next_event().unwrap().payload, 1);
        assert_eq!(net.next_event(), None);
    }

    #[test]
    fn clock_advances_with_latency() {
        let (mut net, a, b) = two_nodes(
            2,
            LinkSpec {
                latency_us: 500,
                jitter_us: 0,
                bandwidth_bps: None,
                loss: 0.0,
            },
        );
        net.send(a, b, 100, 1);
        let d = net.next_event().unwrap();
        assert_eq!(d.at, 500);
        assert_eq!(net.now(), 500);
    }

    #[test]
    fn bandwidth_adds_serialization_delay() {
        let spec = LinkSpec {
            latency_us: 0,
            jitter_us: 0,
            bandwidth_bps: Some(1_000_000), // 1 MB/s → 1 µs per byte
            loss: 0.0,
        };
        let (mut net, a, b) = two_nodes(3, spec);
        net.send(a, b, 1000, 1);
        let d = net.next_event().unwrap();
        assert_eq!(d.at, 1000);
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let (mut net, a, b) = two_nodes(4, LinkSpec::wan_lossy(0.5));
        let n = 1000;
        let sent = (0..n).filter(|&i| net.send(a, b, 10, i).is_some()).count();
        let mut delivered = 0;
        while net.next_event().is_some() {
            delivered += 1;
        }
        // Every message the link did not drop is delivered, once.
        assert_eq!(delivered, sent);
        // ~50% loss with generous tolerance.
        assert!(
            (350..=650).contains(&delivered),
            "delivered {delivered} out of {n}"
        );

        // Determinism: same seed, same outcome.
        let (mut net2, a2, b2) = two_nodes(4, LinkSpec::wan_lossy(0.5));
        for i in 0..n {
            net2.send(a2, b2, 10, i);
        }
        let mut delivered2 = 0;
        while net2.next_event().is_some() {
            delivered2 += 1;
        }
        assert_eq!(delivered, delivered2);
    }

    #[test]
    fn stats_track_bytes_and_links() {
        let (mut net, a, b) = two_nodes(5, LinkSpec::lan());
        net.send(a, b, 100, 1);
        net.send(a, b, 200, 2);
        net.send(b, a, 50, 3);
        let mut to_b = (0, 0);
        let mut to_a = (0, 0);
        while let Some(d) = net.next_event() {
            let link = if d.to == b { &mut to_b } else { &mut to_a };
            *link = (link.0 + 1, link.1 + d.size);
        }
        assert_eq!((to_b, to_a), ((2, 300), (1, 50)));
    }

    #[test]
    fn run_processes_cascading_sends() {
        let (mut net, a, b) = two_nodes(6, LinkSpec::instant());
        net.send(a, b, 10, 0);
        let mut seen = Vec::new();
        net.run(|net, d| {
            seen.push(d.payload);
            if d.payload < 3 {
                net.send(d.to, d.from, 10, d.payload + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let (mut net, a, b) = two_nodes(
            7,
            LinkSpec {
                latency_us: 1000,
                jitter_us: 0,
                bandwidth_bps: None,
                loss: 0.0,
            },
        );
        net.send(a, b, 10, 1);
        net.send_after(5_000, a, b, 10, 2);
        let mut seen = Vec::new();
        net.run_until(2_000, |_net, d| seen.push(d.payload));
        assert_eq!(seen, vec![1]);
        assert_eq!(net.now(), 2_000);
        assert_eq!(net.queue.len(), 1);
    }

    #[test]
    fn default_link_used_when_unspecified() {
        let mut net: Network<u8> = Network::new(8);
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_default_link(LinkSpec::instant());
        net.send(a, b, 1, 9);
        assert_eq!(net.next_event().unwrap().payload, 9);
    }

    #[test]
    fn node_names_retrievable() {
        let mut net: Network<u8> = Network::new(9);
        net.add_node("pep.hospital-a");
        assert_eq!(net.node_count(), 1);
    }

    #[test]
    fn tie_break_is_fifo_for_same_timestamp() {
        let (mut net, a, b) = two_nodes(10, LinkSpec::instant());
        for i in 0..10 {
            net.send(a, b, 0, i);
        }
        let mut seen = Vec::new();
        while let Some(d) = net.next_event() {
            seen.push(d.payload);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }
}
