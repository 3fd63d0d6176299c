//! Group-commit batch window: coalesce *concurrent* enforcements.
//!
//! [`dacs_cluster::BatchSubmitter`] amortizes evaluation across the
//! queries of one flush — but a PEP serving independent callers never
//! sees them as one flush: each enforcement arrives on its own thread
//! and, routed naively, becomes a batch of one. The window fixes that
//! with the classic group-commit move: the first query to arrive
//! becomes the *leader* of an open group and waits a configurable few
//! hundred microseconds; every query arriving while the group is open
//! joins it as a *follower*; the leader then closes the group, flushes
//! all of it as one [`dacs_cluster::BatchSubmitter`] round (identical
//! requests coalesce, per-shard slices stay back-to-back) and hands
//! each follower its outcome.
//!
//! Each joined query keeps its own [`DecisionClass`], so a window
//! group may mix interactive and bulk traffic freely — the flush
//! steers every query into its matching scheduler lane.
//!
//! The trade is explicit: up to one window of added latency on the
//! leader's query, in exchange for real multi-query batches under
//! concurrency. Size the window well below the interactive deadline
//! (hundreds of microseconds against millisecond budgets).

use dacs_cluster::{BatchSubmitter, ClusterOutcome, PdpCluster};
use dacs_pdp::DecisionClass;
use dacs_policy::request::RequestContext;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// One group of concurrent queries sharing a flush.
struct Group {
    state: Mutex<GroupState>,
    done: Condvar,
}

struct GroupState {
    entries: Vec<(RequestContext, DecisionClass)>,
    /// The flush evaluates at the latest timestamp any member carried,
    /// so no member's decision is made against a clock behind its own.
    now_ms_max: u64,
    results: Option<Vec<ClusterOutcome>>,
}

/// Locks a window mutex, shrugging off poisoning: the flush runs
/// outside both locks, so a panicked member leaves the group state
/// consistent, and one caller's panic must not become every later one's.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Publishes a closed group's outcomes when dropped, so every follower
/// is answered exactly once whether the leader's flush returned or
/// panicked. Without outcomes (the flush unwound) each member gets an
/// unavailable outcome for its shard, which the decision source maps to
/// `Indeterminate` and the PEP denies fail-safe.
struct Publish<'a> {
    cluster: &'a PdpCluster,
    group: &'a Group,
    outcomes: Option<Vec<ClusterOutcome>>,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.group.state);
        let outcomes = self.outcomes.take().unwrap_or_else(|| {
            let unavailable = |(request, _): &(RequestContext, DecisionClass)| ClusterOutcome {
                response: None,
                shard: self.cluster.router().shard_for(request),
                replicas_queried: 0,
                degraded: false,
            };
            state.entries.iter().map(unavailable).collect()
        });
        state.results = Some(outcomes);
        drop(state);
        self.group.done.notify_all();
    }
}

/// A PEP-side group-commit window in front of a cluster's batcher.
///
/// Thread-safe: share one window per decision source. Queries on the
/// same window coalesce; independent windows never interact.
pub struct BatchWindow {
    window: Duration,
    /// The group currently accepting joiners, if any. A leader removes
    /// its group from here *before* snapshotting it, so late arrivals
    /// open a fresh group instead of racing the flush.
    open: Mutex<Option<Arc<Group>>>,
}

impl BatchWindow {
    /// A window holding each group open for `window_us` microseconds.
    pub fn new(window_us: u64) -> Self {
        BatchWindow {
            window: Duration::from_micros(window_us),
            open: Mutex::new(None),
        }
    }

    /// Joins (or opens) the current group, waits out the window, and
    /// returns this query's outcome from the group's single flush.
    ///
    /// The flush runs on the group leader's thread. If it panics (a
    /// backend bug), the panic unwinds into the leader's caller only;
    /// every other member of the group returns an unavailable outcome
    /// (`response: None`), and the window keeps serving later groups.
    pub fn decide(
        &self,
        cluster: &PdpCluster,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> ClusterOutcome {
        let (group, index, leader) = self.join(request, now_ms, class);
        if leader {
            self.lead(cluster, &group, index)
        } else {
            Self::follow(&group, index)
        }
    }

    /// Adds one query to the open group, opening a new one (and
    /// becoming its leader) if none is accepting.
    fn join(
        &self,
        request: &RequestContext,
        now_ms: u64,
        class: DecisionClass,
    ) -> (Arc<Group>, usize, bool) {
        let mut open = lock(&self.open);
        match open.as_ref() {
            Some(group) => {
                // The entry lands while the `open` lock is held, so the
                // leader's close (which needs that lock) cannot slip in
                // between "saw the group" and "joined it".
                let mut state = lock(&group.state);
                let index = state.entries.len();
                state.entries.push((request.clone(), class));
                state.now_ms_max = state.now_ms_max.max(now_ms);
                drop(state);
                (Arc::clone(group), index, false)
            }
            None => {
                let group = Arc::new(Group {
                    state: Mutex::new(GroupState {
                        entries: vec![(request.clone(), class)],
                        now_ms_max: now_ms,
                        results: None,
                    }),
                    done: Condvar::new(),
                });
                *open = Some(Arc::clone(&group));
                (group, 0, true)
            }
        }
    }

    /// Leader path: hold the window open, close the group, flush it as
    /// one batch, publish the outcomes, take ours.
    fn lead(&self, cluster: &PdpCluster, group: &Arc<Group>, index: usize) -> ClusterOutcome {
        std::thread::sleep(self.window);
        {
            let mut open = lock(&self.open);
            if open.as_ref().is_some_and(|g| Arc::ptr_eq(g, group)) {
                *open = None;
            }
        }
        // From here the membership is final, and the followers are
        // answered on every exit.
        let mut publish = Publish {
            cluster,
            group,
            outcomes: None,
        };
        let (entries, now_ms_max) = {
            let state = lock(&group.state);
            (state.entries.clone(), state.now_ms_max)
        };
        let mut batch = BatchSubmitter::new(cluster);
        for (request, class) in entries {
            batch.submit_classed(request, class);
        }
        let outcomes = batch.flush(now_ms_max);
        let mine = outcomes[index].clone();
        publish.outcomes = Some(outcomes);
        mine
    }

    /// Follower path: park until the leader publishes, take ours.
    fn follow(group: &Arc<Group>, index: usize) -> ClusterOutcome {
        let mut state = lock(&group.state);
        loop {
            if let Some(results) = &state.results {
                return results[index].clone();
            }
            state = group
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_cluster::{ClusterBuilder, DecisionBackend, QuorumMode, StaticBackend};
    use dacs_policy::policy::Decision;
    use std::sync::Barrier;

    fn permit_cluster() -> PdpCluster {
        ClusterBuilder::new("window-test")
            .quorum(QuorumMode::FirstHealthy)
            .shard(vec![
                Arc::new(StaticBackend::new("r0", Decision::Permit)) as Arc<dyn DecisionBackend>
            ])
            .build()
    }

    #[test]
    fn lone_query_flushes_as_a_batch_of_one() {
        let cluster = permit_cluster();
        let window = BatchWindow::new(100);
        let req = RequestContext::basic("alice", "ehr/1", "read");
        let outcome = window.decide(&cluster, &req, 7, DecisionClass::default());
        assert_eq!(outcome.response.unwrap().decision, Decision::Permit);
        let m = cluster.metrics();
        assert_eq!(m.batches, 1);
        assert_eq!(m.batched_queries, 1);
    }

    #[test]
    fn concurrent_queries_share_one_flush() {
        let cluster = Arc::new(permit_cluster());
        let window = Arc::new(BatchWindow::new(20_000));
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let cluster = Arc::clone(&cluster);
                let window = Arc::clone(&window);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let req = RequestContext::basic(format!("user-{}", i % 4), "ehr/1", "read");
                    barrier.wait();
                    let class = if i % 2 == 0 {
                        DecisionClass::interactive()
                    } else {
                        DecisionClass::bulk()
                    };
                    window
                        .decide(&cluster, &req, i as u64, class)
                        .response
                        .unwrap()
                        .decision
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Decision::Permit);
        }
        let m = cluster.metrics();
        assert_eq!(m.batched_queries as usize, n, "every query rode a batch");
        assert!(
            (m.batches as usize) < n,
            "a 20ms window must group concurrent queries, saw {} batches",
            m.batches
        );
        // Four distinct subjects: any grouped flush coalesces repeats.
        assert!(m.queries < n as u64, "duplicate requests coalesced");
    }

    /// Regression (ISSUE 16): a leader whose flush panics used to leave
    /// its followers parked forever — results were published on the
    /// success path only. Now the panic reaches the leader's own caller
    /// and nobody else: every other member of that group is answered
    /// with a counted fail-safe deny, and the window serves the next
    /// group normally. A replica's `decide` no longer unwinds through a
    /// flush at all — it costs a vote — so that panic reaches nobody,
    /// and the one that does is injected where the roster reads a
    /// backend outside any evaluation: the policy epoch of a `Syncing`
    /// replica.
    #[test]
    fn panicking_leader_answers_its_followers_with_failsafe_denies() {
        use crate::domain::{ClusteredDecisionSource, Tripwire};
        use dacs_cluster::{PolicyEpoch, ReplicaPhase};
        use dacs_pep::{EnforceRequest, Pep};
        use dacs_policy::eval::Response;
        use std::sync::atomic::{AtomicBool, Ordering};
        /// A replica whose epoch read panics once after it is armed.
        struct EpochBomb(AtomicBool);
        impl DecisionBackend for EpochBomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn decide(&self, _request: &RequestContext, _now_ms: u64) -> Response {
                Response::decision(Decision::Permit)
            }
            fn policy_epoch(&self) -> PolicyEpoch {
                assert!(!self.0.swap(false, Ordering::SeqCst), "backend bug");
                PolicyEpoch::ZERO
            }
        }
        let bomb = Arc::new(EpochBomb(AtomicBool::new(false)));
        let cluster = Arc::new(
            ClusterBuilder::new("window-panic")
                .quorum(QuorumMode::FirstHealthy)
                .shard(vec![Tripwire::replica("tripwire", &["boom"]), bomb.clone()])
                .build(),
        );
        // Gated: the tripwire is the only voter, and every roster reads
        // the bomb's epoch to report its lag.
        let gated = cluster.directory().register("bomb", "window-panic");
        gated.set_phase(ReplicaPhase::Syncing);
        let source = ClusteredDecisionSource::new(cluster).with_batch_window_us(20_000);
        let pep = Pep::builder("pep.window").source(Arc::new(source)).build();
        let n = 6;
        // One concurrent round, `first` and five users. Per thread:
        // `Err` if `serve` panicked, else whether it allowed.
        let round = |first: &str| -> Vec<Result<bool, ()>> {
            let barrier = Barrier::new(n);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|i| {
                        let (pep, barrier) = (&pep, &barrier);
                        scope.spawn(move || {
                            let subject = if i == 0 {
                                first.into()
                            } else {
                                format!("user-{i}")
                            };
                            let req = RequestContext::basic(subject, "ehr/1", "read");
                            barrier.wait();
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let result = pep.serve(EnforceRequest::of(&req, 0));
                                assert!(
                                    result.allowed || result.decision == Decision::Indeterminate,
                                    "a lost answer is denied fail-safe, not by policy"
                                );
                                result.allowed
                            }))
                            .map_err(|_| ())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        // A `decide` that panics is a withdrawn vote: whatever the
        // grouping, its own caller is denied fail-safe and the rest of
        // its flush is served.
        let served = round("boom");
        assert_eq!(served[0], Ok(false), "{served:?}");
        assert!(served[1..].iter().all(|r| *r == Ok(true)), "{served:?}");
        assert_eq!(pep.stats().failsafe_denials, 1);
        // A panic that does unwind through a flush — exactly one, the
        // first after arming — reaches that group's leader only.
        bomb.0.store(true, Ordering::SeqCst);
        let served = round("user-0");
        let panicked = served.iter().filter(|r| r.is_err()).count();
        assert_eq!(panicked, 1, "the panic reaches the leader only: {served:?}");
        let denied = served.iter().filter(|r| **r == Ok(false)).count();
        assert!(
            denied >= 1,
            "the leader's followers were answered: {served:?}"
        );
        assert_eq!(pep.stats().failsafe_denials, 1 + denied as u64);
        assert_eq!(pep.stats().denied, 0);
        // The window is not wedged or poisoned: the next group serves.
        let req = RequestContext::basic("alice", "ehr/1", "read");
        assert!(pep.serve(EnforceRequest::of(&req, 1)).allowed);
    }
}
