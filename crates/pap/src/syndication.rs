//! Hierarchical policy syndication (Fig. 5 of the paper): a global PAP
//! pushes policy updates down a tree of syndication servers / local
//! PAPs; each hop may filter updates against local constraints; reports
//! flow back up. Turns per-decision remote policy fetches into
//! O(tree edges) pushes per update — the message-count trade-off
//! experiment E5 measures.
//!
//! Every push is stamped with a monotonically increasing
//! [`PolicyEpoch`] assigned by the root, and the root keeps an update
//! log. A node that was offline (crashed) misses pushes and falls
//! behind; on recovery it *catches up* by replaying the missed stamps
//! from its nearest syndication node ([`SyndicationTree::catch_up`],
//! built on [`SyndicationTree::updates_since`]) before it may be
//! treated as current — the anti-entropy phase the cluster's replica
//! re-sync lifecycle (experiment E16) depends on.

use crate::epoch::PolicyEpoch;
use crate::repository::Pap;
use dacs_policy::glob::glob_match;
use dacs_policy::policy::{Policy, PolicyId};
use dacs_telemetry::{Histogram, Telemetry};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A node in the syndication tree.
pub struct SyndicationNode {
    /// Node name (e.g. `"pap.hospital-a"`).
    pub name: String,
    /// Children indices in the tree's node table.
    pub children: Vec<usize>,
    /// Accept only policies whose id matches this glob (`None` = all).
    /// This is how a local authority constrains which global updates it
    /// incorporates (§3.2).
    pub accept_filter: Option<String>,
    /// The node's local repository.
    pub pap: Arc<Pap>,
    /// Whether the node is reachable for pushes. An offline node (and
    /// everything below it) misses updates and must catch up on return.
    pub online: bool,
}

/// One hop of a propagation (for message accounting).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hop {
    /// Sender node index.
    pub from: usize,
    /// Receiver node index.
    pub to: usize,
    /// Whether the receiver applied (vs filtered) the update.
    pub applied: bool,
}

/// Result of propagating one update through the tree.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PropagationReport {
    /// The epoch stamp the root assigned to this update.
    pub epoch: PolicyEpoch,
    /// Every parent→child push performed.
    pub hops: Vec<Hop>,
    /// Nodes that applied the update.
    pub applied: usize,
    /// Nodes that filtered the update out.
    pub filtered: usize,
    /// Offline nodes the push could not reach (their subtrees were not
    /// contacted either; they accumulate epoch lag until catch-up).
    pub offline_skipped: usize,
    /// Report messages sent back up (one per push, child→parent).
    pub reports: usize,
}

impl PropagationReport {
    /// Total messages exchanged (pushes + reports).
    pub fn total_messages(&self) -> usize {
        self.hops.len() + self.reports
    }
}

/// One entry of the root's update log: the replay source for catch-up.
#[derive(Clone, Debug)]
pub struct LoggedUpdate {
    /// The stamp the root assigned.
    pub epoch: PolicyEpoch,
    /// The policy as the root stored it — the one body every node in
    /// step with the root shares.
    pub policy: Arc<Policy>,
    /// Simulation time of the push.
    pub at_ms: u64,
}

/// Result of one node's catch-up replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CatchUpReport {
    /// The node that caught up.
    pub node: usize,
    /// Its epoch before the replay.
    pub from_epoch: PolicyEpoch,
    /// Its epoch after the replay (the root's current epoch).
    pub to_epoch: PolicyEpoch,
    /// Missed updates re-applied.
    pub replayed: usize,
    /// Missed updates its accept filter declined (observed, not applied).
    pub filtered: usize,
}

/// A tree of syndication nodes. Node 0 is the root (the global PAP).
pub struct SyndicationTree {
    nodes: Vec<SyndicationNode>,
    /// Append-only log of every propagated update, in epoch order:
    /// `log[i].epoch == PolicyEpoch(i as u64 + 1)`.
    log: Vec<LoggedUpdate>,
    counters: Arc<TreeCounters>,
    /// Updates each catch-up replayed, recorded only with a handle.
    replayed: Option<Arc<Histogram>>,
}

/// The syndication plane's counts: pushes and catch-ups, plus the two
/// gauges the dependability story watches — the root epoch and the
/// worst offline node's lag behind it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct TreeStats {
    pushes: u64,
    offline_skips: u64,
    catch_ups: u64,
    epoch: u64,
    offline_lag: u64,
}

dacs_telemetry::counter_block! {
    /// [`TreeStats`]: the one place the tree's counters live, handle
    /// or no handle.
    struct TreeCounters: TreeStats {
        pushes => "dacs_syndication_pushes_total",
        offline_skips => "dacs_syndication_offline_skips_total",
        catch_ups => "dacs_syndication_catch_ups_total",
    }
    gauges {
        epoch => "dacs_syndication_epoch",
        offline_lag => "dacs_syndication_offline_lag",
    }
}

impl SyndicationTree {
    /// Creates a tree with a root node.
    pub fn new(root_name: impl Into<String>) -> Self {
        let name = root_name.into();
        SyndicationTree {
            nodes: vec![SyndicationNode {
                pap: Arc::new(Pap::new(name.clone())),
                name,
                children: Vec::new(),
                accept_filter: None,
                online: true,
            }],
            log: Vec::new(),
            counters: Arc::default(),
            replayed: None,
        }
    }

    /// Attaches a telemetry registry: it reads the tree's counters
    /// through — pushes, offline skips, catch-ups, the root epoch and the
    /// `dacs_syndication_offline_lag` gauge, the worst offline node's
    /// epoch lag after every push and catch-up — and catch-ups record
    /// how many updates each replay carried.
    pub fn with_telemetry(mut self, telemetry: &Arc<Telemetry>) -> Self {
        let r = telemetry.registry();
        let counters = Arc::clone(&self.counters);
        r.expose(move || counters.snapshot().samples());
        self.replayed = Some(r.histogram("dacs_syndication_replayed_updates"));
        self
    }

    /// Adds a child under `parent`, returning the new node's index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn add_child(
        &mut self,
        parent: usize,
        name: impl Into<String>,
        accept_filter: Option<String>,
    ) -> usize {
        assert!(parent < self.nodes.len(), "parent index out of range");
        let name = name.into();
        let idx = self.nodes.len();
        self.nodes.push(SyndicationNode {
            pap: Arc::new(Pap::new(name.clone())),
            name,
            children: Vec::new(),
            accept_filter,
            online: true,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Builds a uniform tree of the given depth and fan-out under the
    /// root (depth 0 = root only). Returns the tree.
    pub fn uniform(root_name: &str, depth: u32, fanout: u32) -> Self {
        let mut tree = Self::new(root_name);
        let mut frontier = vec![0usize];
        for d in 1..=depth {
            let mut next = Vec::new();
            for &p in &frontier {
                for k in 0..fanout {
                    let name = format!("{root_name}/d{d}-p{p}-c{k}");
                    next.push(tree.add_child(p, name, None));
                }
            }
            frontier = next;
        }
        tree
    }

    /// Node accessor.
    pub fn node(&self, idx: usize) -> &SyndicationNode {
        &self.nodes[idx]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (never: the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root's current epoch: the stamp of the latest propagated
    /// update (`PolicyEpoch::ZERO` before the first).
    pub fn epoch(&self) -> PolicyEpoch {
        PolicyEpoch(self.log.len() as u64)
    }

    /// Marks a node reachable/unreachable for pushes. The root cannot
    /// be taken offline (it *assigns* the epochs).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is the root or out of range.
    pub fn set_online(&mut self, idx: usize, online: bool) {
        assert!(idx != 0, "the root cannot go offline");
        self.nodes[idx].online = online;
    }

    /// The parent of `idx` (`None` for the root) — the "nearest
    /// syndication node" a catch-up replays from.
    pub(crate) fn parent_of(&self, idx: usize) -> Option<usize> {
        self.nodes.iter().position(|n| n.children.contains(&idx))
    }

    /// Every logged update with a stamp strictly after `epoch`, in
    /// epoch order — the replay stream for a node that reports `epoch`
    /// as its position.
    pub fn updates_since(&self, epoch: PolicyEpoch) -> &[LoggedUpdate] {
        let start = (epoch.0 as usize).min(self.log.len());
        &self.log[start..]
    }

    /// Installs the update at the root and pushes it down the tree,
    /// honouring per-node accept filters and skipping offline nodes
    /// (whose subtrees are unreachable and accumulate epoch lag).
    /// `at_ms` stamps audit records.
    pub fn propagate(&mut self, policy: Policy, at_ms: u64) -> PropagationReport {
        let stamp = self.epoch().next();
        let mut report = PropagationReport {
            epoch: stamp,
            ..PropagationReport::default()
        };
        // One body per push: the root numbers and stores it, and the log
        // and every child are handed the root's `Arc`.
        let id = policy.id.clone();
        let root = &self.nodes[0].pap;
        root.apply_syndicated_stamped("origin", policy, stamp, at_ms);
        let policy = root.active(&id).expect("the root just installed it");
        self.log.push(LoggedUpdate {
            epoch: stamp,
            policy: Arc::clone(&policy),
            at_ms,
        });
        report.applied += 1;
        let mut frontier = vec![0usize];
        while let Some(parent) = frontier.pop() {
            let children = self.nodes[parent].children.clone();
            for child in children {
                if !self.nodes[child].online {
                    report.offline_skipped += 1;
                    continue;
                }
                let accept = match &self.nodes[child].accept_filter {
                    Some(filter) => glob_match(filter, policy.id.as_str()),
                    None => true,
                };
                report.hops.push(Hop {
                    from: parent,
                    to: child,
                    applied: accept,
                });
                // Child acknowledges with a report either way.
                report.reports += 1;
                if accept {
                    let from = self.nodes[parent].name.clone();
                    self.nodes[child].pap.apply_syndicated_stamped(
                        &from,
                        Arc::clone(&policy),
                        stamp,
                        at_ms,
                    );
                    report.applied += 1;
                    frontier.push(child);
                } else {
                    // A filtered update still counts as *seen*: the
                    // node's epoch position advances (if contiguous)
                    // even though nothing was installed.
                    self.nodes[child].pap.observe_policy_epoch(stamp);
                    report.filtered += 1;
                }
            }
        }
        self.counters.count(|c| {
            c.pushes += report.hops.len() as u64;
            c.offline_skips += report.offline_skipped as u64;
        });
        self.counters.epoch.store(stamp.0, Ordering::Relaxed);
        self.record_offline_lag();
        report
    }

    /// Refreshes the `offline_lag` gauge: the worst epoch lag among
    /// currently offline nodes (0 with everyone online).
    fn record_offline_lag(&self) {
        let root = self.epoch().0;
        let lag = self
            .nodes
            .iter()
            .filter(|n| !n.online)
            .map(|n| root.saturating_sub(n.pap.policy_epoch().0))
            .max()
            .unwrap_or(0);
        self.counters.offline_lag.store(lag, Ordering::Relaxed);
    }

    /// Replays every update a node missed, in epoch order, from its
    /// parent ("nearest syndication node"), honouring the node's accept
    /// filter. Afterwards the node's epoch equals the root's.
    ///
    /// An **offline** node cannot reach its syndication parent, so the
    /// call is a no-op (`replayed == 0`, epoch unchanged): were it to
    /// succeed, the node would claim the root epoch while still
    /// unreachable for subsequent pushes, and a cluster would readmit
    /// an epoch-plausible but staling replica. Bring the node online
    /// first.
    ///
    /// Replay is idempotent on content: an update the node already
    /// received out of order (a stamped push past a gap) is simply
    /// re-applied as a newer version of the same policy.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn catch_up(&mut self, idx: usize, at_ms: u64) -> CatchUpReport {
        let from_epoch = self.nodes[idx].pap.policy_epoch();
        if !self.nodes[idx].online {
            return CatchUpReport {
                node: idx,
                from_epoch,
                to_epoch: from_epoch,
                replayed: 0,
                filtered: 0,
            };
        }
        let from_name = match self.parent_of(idx) {
            Some(p) => self.nodes[p].name.clone(),
            None => "origin".to_string(),
        };
        let start = (from_epoch.0 as usize).min(self.log.len());
        let mut replayed = 0usize;
        let mut filtered = 0usize;
        for update in &self.log[start..] {
            let accept = match &self.nodes[idx].accept_filter {
                Some(f) => glob_match(f, update.policy.id.as_str()),
                None => true,
            };
            if accept {
                self.nodes[idx].pap.apply_syndicated_stamped(
                    &from_name,
                    Arc::clone(&update.policy),
                    update.epoch,
                    at_ms,
                );
                replayed += 1;
            } else {
                self.nodes[idx].pap.observe_policy_epoch(update.epoch);
                filtered += 1;
            }
        }
        self.counters.count(|c| c.catch_ups += 1);
        if let Some(h) = &self.replayed {
            h.record(replayed as u64);
        }
        self.record_offline_lag();
        CatchUpReport {
            node: idx,
            from_epoch,
            to_epoch: self.nodes[idx].pap.policy_epoch(),
            replayed,
            filtered,
        }
    }

    /// Checks convergence: every node whose filters accept `id` holds
    /// the same active version bytes as the root.
    pub fn converged(&self, id: &PolicyId) -> bool {
        let Some(root_policy) = self.nodes[0].pap.active(id) else {
            return false;
        };
        // Walk the tree; below a filtering node nothing is expected.
        let mut stack = vec![0usize];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n];
            if n != 0 {
                let accept = match &node.accept_filter {
                    Some(f) => glob_match(f, id.as_str()),
                    None => true,
                };
                if !accept {
                    continue;
                }
                match node.pap.active(id) {
                    Some(p) => {
                        if p.rules.len() != root_policy.rules.len() || p.id != root_policy.id {
                            return false;
                        }
                    }
                    None => return false,
                }
            }
            stack.extend(node.children.iter().copied());
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_policy::policy::{CombiningAlg, Effect, Rule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample(id: &str) -> Policy {
        Policy::new(PolicyId::new(id), CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new("ok", Effect::Permit))
    }

    #[test]
    fn propagation_reaches_all_nodes() {
        let mut tree = SyndicationTree::uniform("root", 2, 3);
        assert_eq!(tree.len(), 1 + 3 + 9);
        let report = tree.propagate(sample("global"), 100);
        assert_eq!(report.applied, 13);
        assert_eq!(report.filtered, 0);
        assert_eq!(report.offline_skipped, 0);
        assert_eq!(report.epoch, PolicyEpoch(1));
        // One push per edge, one report per push.
        assert_eq!(report.hops.len(), 12);
        assert_eq!(report.reports, 12);
        assert_eq!(report.total_messages(), 24);
        assert!(tree.converged(&PolicyId::new("global")));
        // Every node caught the stamp.
        for n in 0..tree.len() {
            assert_eq!(tree.node(n).pap.policy_epoch(), PolicyEpoch(1));
        }
    }

    #[test]
    fn filters_stop_subtrees() {
        let mut tree = SyndicationTree::new("root");
        let a = tree.add_child(0, "accepts-ehr", Some("ehr-*".into()));
        let _a1 = tree.add_child(a, "below-a", None);
        let b = tree.add_child(0, "accepts-all", None);
        let _b1 = tree.add_child(b, "below-b", None);

        let report = tree.propagate(sample("lab-policy"), 10);
        // Node a filters; its subtree is never contacted.
        assert_eq!(report.filtered, 1);
        assert_eq!(report.applied, 3); // root, b, below-b
        assert_eq!(report.hops.len(), 3); // root→a (filtered), root→b, b→b1
        assert!(tree.converged(&PolicyId::new("lab-policy")));
        // The filtering node still observed the stamp and is current.
        assert_eq!(tree.node(a).pap.policy_epoch(), PolicyEpoch(1));

        let report = tree.propagate(sample("ehr-policy"), 20);
        assert_eq!(report.filtered, 0);
        assert_eq!(report.applied, 5);
    }

    #[test]
    fn convergence_false_before_propagation() {
        let mut tree = SyndicationTree::uniform("root", 1, 2);
        assert!(!tree.converged(&PolicyId::new("nothing")));
        tree.propagate(sample("p"), 1);
        assert!(tree.converged(&PolicyId::new("p")));
        assert!(!tree.converged(&PolicyId::new("q")));
    }

    #[test]
    fn updates_create_new_versions_downstream() {
        let mut tree = SyndicationTree::uniform("root", 1, 1);
        tree.propagate(sample("p"), 1);
        tree.propagate(sample("p"), 2);
        let child = tree.node(1);
        assert_eq!(child.pap.version_count(&PolicyId::new("p")), 2);
        assert_eq!(child.pap.active(&PolicyId::new("p")).unwrap().version, 2);
        // Audit shows syndication actor.
        let log = child.pap.audit_log();
        assert!(log
            .iter()
            .all(|e| e.action == crate::repository::AdminAction::SyndicationApply));
    }

    #[test]
    fn message_count_scales_with_edges() {
        for (depth, fanout) in [(1u32, 2u32), (2, 2), (3, 2), (2, 4)] {
            let mut tree = SyndicationTree::uniform("r", depth, fanout);
            let edges = tree.len() - 1;
            let report = tree.propagate(sample("p"), 1);
            assert_eq!(report.hops.len(), edges);
            assert_eq!(report.total_messages(), 2 * edges);
        }
    }

    #[test]
    fn offline_node_misses_updates_and_catches_up() {
        let mut tree = SyndicationTree::uniform("root", 1, 2);
        tree.propagate(sample("a"), 1);
        tree.set_online(1, false);
        let report = tree.propagate(sample("b"), 2);
        assert_eq!(report.offline_skipped, 1);
        assert_eq!(report.applied, 2, "root + the online child");
        // The offline node is stuck at epoch 1 while the tree moved on.
        assert_eq!(tree.node(1).pap.policy_epoch(), PolicyEpoch(1));
        assert_eq!(tree.epoch(), PolicyEpoch(2));
        assert!(!tree.converged(&PolicyId::new("b")));

        tree.set_online(1, true);
        let caught = tree.catch_up(1, 3);
        assert_eq!(caught.from_epoch, PolicyEpoch(1));
        assert_eq!(caught.to_epoch, PolicyEpoch(2));
        assert_eq!(caught.replayed, 1);
        assert_eq!(tree.node(1).pap.policy_epoch(), tree.epoch());
        assert!(tree.converged(&PolicyId::new("b")));
    }

    #[test]
    fn offline_subtree_is_unreachable_until_each_node_catches_up() {
        let mut tree = SyndicationTree::new("root");
        let mid = tree.add_child(0, "mid", None);
        let leaf = tree.add_child(mid, "leaf", None);
        tree.set_online(mid, false);
        tree.propagate(sample("p"), 1);
        // Both mid and its (online) leaf missed the push.
        assert_eq!(tree.node(mid).pap.policy_epoch(), PolicyEpoch::ZERO);
        assert_eq!(tree.node(leaf).pap.policy_epoch(), PolicyEpoch::ZERO);
        tree.set_online(mid, true);
        tree.catch_up(mid, 2);
        tree.catch_up(leaf, 2);
        assert!(tree.converged(&PolicyId::new("p")));
        // Catch-up replays from the nearest syndication node: the
        // leaf's audit names its parent, not the root.
        let audit = tree.node(leaf).pap.audit_log();
        assert_eq!(audit.last().unwrap().actor, "mid");
    }

    #[test]
    fn catch_up_refuses_offline_nodes() {
        let mut tree = SyndicationTree::uniform("root", 1, 1);
        tree.propagate(sample("p"), 1);
        tree.set_online(1, false);
        tree.propagate(sample("p"), 2);
        // Unreachable: the replay cannot happen, the epoch must not move.
        let report = tree.catch_up(1, 3);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.from_epoch, report.to_epoch);
        assert_eq!(tree.node(1).pap.policy_epoch(), PolicyEpoch(1));
        tree.set_online(1, true);
        assert_eq!(tree.catch_up(1, 4).replayed, 1);
        assert_eq!(tree.node(1).pap.policy_epoch(), PolicyEpoch(2));
    }

    #[test]
    fn updates_since_returns_the_missing_suffix() {
        let mut tree = SyndicationTree::new("root");
        for (i, id) in ["a", "b", "c"].iter().enumerate() {
            tree.propagate(sample(id), i as u64);
        }
        assert_eq!(tree.updates_since(PolicyEpoch(3)).len(), 0);
        let tail = tree.updates_since(PolicyEpoch(1));
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].epoch, PolicyEpoch(2));
        assert_eq!(tail[0].policy.id.as_str(), "b");
        assert_eq!(tail[1].epoch, PolicyEpoch(3));
        // An epoch beyond the log (a node from a different tree) yields
        // nothing rather than panicking.
        assert_eq!(tree.updates_since(PolicyEpoch(99)).len(), 0);
    }

    #[test]
    fn catch_up_honours_accept_filters() {
        let mut tree = SyndicationTree::new("root");
        let a = tree.add_child(0, "ehr-only", Some("ehr-*".into()));
        tree.set_online(a, false);
        tree.propagate(sample("ehr-1"), 1);
        tree.propagate(sample("lab-1"), 2);
        tree.set_online(a, true);
        let caught = tree.catch_up(a, 3);
        assert_eq!(caught.replayed, 1, "only the ehr update applies");
        assert_eq!(caught.filtered, 1);
        assert_eq!(
            caught.to_epoch,
            PolicyEpoch(2),
            "filtered stamps still count"
        );
        assert!(tree.node(a).pap.active(&PolicyId::new("lab-1")).is_none());
    }

    /// One body per push: root, log and every child in step with the
    /// root hold the same `Arc`, across repeated pushes of one id.
    #[test]
    fn a_lock_step_push_shares_one_body_across_root_log_and_children() {
        let mut tree = SyndicationTree::uniform("root", 2, 2);
        let id = PolicyId::new("p");
        for push in 1..=3u64 {
            tree.propagate(sample("p"), push);
            let root = tree.node(0).pap.active(&id).unwrap();
            assert_eq!(root.version, push);
            let logged = &tree.updates_since(PolicyEpoch(push - 1))[0].policy;
            assert!(Arc::ptr_eq(&root, logged), "push {push}: the log copied");
            for n in 1..tree.len() {
                let held = tree.node(n).pap.active(&id).unwrap();
                assert!(Arc::ptr_eq(&root, &held), "push {push}: node {n} copied");
            }
        }
    }

    /// Version numbers stay PAP-local: a child out of step with the
    /// root — pushed to past a gap, then caught up — renumbers a private
    /// copy and never serves a body whose `version` disagrees with its
    /// own `version_count`.
    #[test]
    fn an_out_of_step_child_numbers_its_own_versions() {
        let mut tree = SyndicationTree::uniform("root", 1, 2);
        let id = PolicyId::new("p");
        let in_step = |tree: &SyndicationTree, n: usize| {
            let pap = &tree.node(n).pap;
            let active = pap.active(&id).unwrap();
            assert_eq!(active.version as usize, pap.version_count(&id), "node {n}");
            Arc::ptr_eq(&active, &tree.node(0).pap.active(&id).unwrap())
        };
        tree.set_online(1, false);
        tree.propagate(sample("p"), 1);
        tree.set_online(1, true);
        // A stamped push past the gap: the root's version 2 is this
        // child's version 1.
        tree.propagate(sample("p"), 2);
        assert!(!in_step(&tree, 1));
        assert!(in_step(&tree, 2), "the sibling never missed a push");
        // Catch-up replays both stamps on top: versions 2 and 3 here.
        assert_eq!(tree.catch_up(1, 3).replayed, 2);
        assert!(!in_step(&tree, 1));
        assert_eq!(tree.node(1).pap.version_count(&id), 3);
        assert!(tree.converged(&id));
        // A node that missed pushes while offline and replays exactly
        // those is back in step, and shares again.
        tree.set_online(2, false);
        tree.propagate(sample("p"), 4);
        tree.set_online(2, true);
        tree.catch_up(2, 5);
        assert!(in_step(&tree, 2));
    }

    /// The syndication plane counts in its own block, handle or no
    /// handle — pushes, skips and catch-ups, the root-epoch gauge, and
    /// the offline-lag gauge that rises while a node is unreachable and
    /// falls back to zero once its anti-entropy replay lands — and the
    /// registry reads it through.
    #[test]
    fn telemetry_tracks_pushes_lag_and_catch_up() {
        let run = |mut tree: SyndicationTree| {
            tree.propagate(sample("a"), 1);
            tree.set_online(1, false);
            tree.propagate(sample("b"), 2);
            tree.propagate(sample("c"), 3);
            let cut_off = tree.counters.snapshot();
            tree.set_online(1, true);
            tree.catch_up(1, 4);
            [cut_off, tree.counters.snapshot()]
        };
        let telemetry = Arc::new(Telemetry::new());
        let attached = run(SyndicationTree::uniform("root", 1, 2).with_telemetry(&telemetry));
        let cut_off = TreeStats {
            pushes: 4,
            offline_skips: 2,
            catch_ups: 0,
            epoch: 3,
            offline_lag: 2,
        };
        let healed = TreeStats {
            catch_ups: 1,
            offline_lag: 0,
            ..cut_off
        };
        assert_eq!(
            run(SyndicationTree::uniform("root", 1, 2)),
            [cut_off, healed]
        );
        assert_eq!(attached, [cut_off, healed]);
        let r = telemetry.registry();
        for (name, value) in healed.samples() {
            let read = if name.ends_with("_total") {
                r.counter_value(name)
            } else {
                r.gauge_value(name)
            };
            assert_eq!(read, Some(value), "{name}");
        }
        let replayed = r.histogram("dacs_syndication_replayed_updates");
        assert_eq!(replayed.count(), 1);
        assert_eq!(replayed.sum(), 2, "one replay carried both missed updates");
    }

    /// Property-style: under an arbitrary interleaving of pushes,
    /// outages, recoveries and partial catch-ups, a final catch-up pass
    /// converges every node to the root epoch and root content.
    #[test]
    fn random_interleavings_converge_after_catch_up() {
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let depth = rng.gen_range(1..=3);
            let fanout = rng.gen_range(1..=3);
            let mut tree = SyndicationTree::uniform("r", depth, fanout);
            let n = tree.len();
            let mut pushes = 0u64;
            for step in 0..40u64 {
                match rng.gen_range(0..4) {
                    0 => {
                        pushes += 1;
                        tree.propagate(sample("p"), step);
                    }
                    1 if n > 1 => {
                        let idx = rng.gen_range(1..n);
                        let online = rng.gen_bool(0.5);
                        tree.set_online(idx, online);
                    }
                    2 => {
                        // A partial catch-up of a random node at a
                        // random moment must never break convergence.
                        let idx = rng.gen_range(0..n);
                        tree.catch_up(idx, step);
                    }
                    _ => {}
                }
            }
            // Bring everything back and run the anti-entropy pass.
            for idx in 1..n {
                tree.set_online(idx, true);
            }
            for idx in 0..n {
                tree.catch_up(idx, 10_000);
            }
            assert_eq!(tree.epoch(), PolicyEpoch(pushes), "seed {seed}");
            for idx in 0..n {
                assert_eq!(
                    tree.node(idx).pap.policy_epoch(),
                    tree.epoch(),
                    "seed {seed}: node {idx} not at root epoch"
                );
            }
            if pushes > 0 {
                assert!(tree.converged(&PolicyId::new("p")), "seed {seed}");
            }
        }
    }
}
