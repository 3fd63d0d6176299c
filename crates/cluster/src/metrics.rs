//! Cluster-level dependability accounting.

use std::sync::atomic::{AtomicU64, Ordering};

/// Work and dependability counters for one [`crate::PdpCluster`].
///
/// `availability()` and `degraded_rate()` are the two numbers the
/// paper's dependability argument turns on: how often the cluster
/// answered at all, and how often it answered with less protection
/// than configured.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ClusterMetrics {
    /// Decision queries accepted by the cluster.
    pub queries: u64,
    /// Replica sub-queries issued (fan-out cost).
    pub replica_queries: u64,
    /// Queries that found no healthy replica in their shard.
    pub unavailable: u64,
    /// Queries served by fewer healthy replicas than configured.
    pub degraded: u64,
    /// Queries whose answers disagreed on the decision, as far as the
    /// settle point saw.
    ///
    /// A *lower bound* on every cluster, with or without a scheduler:
    /// the collector stops the moment the verdict is known — discarding
    /// a pooled straggler's late answer, never starting what is still
    /// queued or what the caller had not reached — so a divergent answer
    /// that would only have come after the settle point is never
    /// observed. A cluster with one slow, permanently
    /// wrong replica can therefore report zero disagreements.
    pub disagreements: u64,
    /// Queries forced to a fail-closed deny by the quorum rule.
    ///
    /// Like [`ClusterMetrics::disagreements`], a lower bound: a deny
    /// that arrives first under `UnanimousFailClosed` ends the query as
    /// a plain deny before any conflicting permit can be observed.
    pub fail_closed_denies: u64,
    /// Always 0: the collector never hedges — every replica it
    /// dispatches is a quorum member or a needed voter. Kept only while
    /// the repo benchmark's `cluster.hedges` row reads it.
    pub hedges: u64,
    /// Completed replica re-syncs: a replica returned by
    /// [`crate::PdpCluster::mark_up`] whose first vote after the return
    /// was counted at its group's target epoch — in a served or batched
    /// query, whichever asked it first. Each return counts at
    /// most once, and a returned replica is asked first until it does.
    pub resyncs: u64,
    /// Stale votes never counted: one per served vote withdrawn as
    /// behind its group's target epoch. Each is a decision that, judged
    /// only against its peers, a stale replica could have influenced.
    pub stale_decisions_avoided: u64,
    /// Gauge: the policy-epoch lag of the worst vote withdrawn by the
    /// most recent query (0 when it withdrew none).
    pub epoch_lag_last: u64,
    /// High-water mark of [`ClusterMetrics::epoch_lag_last`] across the
    /// cluster's lifetime.
    pub epoch_lag_max: u64,
    /// Batches decided by [`crate::PdpCluster::decide_batch`].
    pub batches: u64,
    /// Queries submitted through batches.
    pub batched_queries: u64,
    /// Batched queries answered by coalescing onto an equal request of
    /// the same batch (evaluation saved).
    pub coalesced: u64,
    /// Replica sub-queries the adaptive fan-out avoided issuing: for
    /// each fanning-out query under
    /// [`crate::SchedulerConfig::with_adaptive_fanout`], the healthy
    /// replicas beyond the quorum width (plus escalations) that were
    /// never dispatched. Divide by [`ClusterMetrics::queries`] to see
    /// how far below full-dispatch [`ClusterMetrics::amplification`]
    /// the scheduler is running.
    pub fanout_saved: u64,
    /// Replica evaluations served queries ran on the deciding thread:
    /// under a [`crate::ClusterBuilder::scheduler`], those kept off its
    /// pool (the replica answers faster than a hand-off costs, or had
    /// nothing to overlap); without one, every engine decision asked.
    pub caller_evaluations: u64,
}

impl ClusterMetrics {
    /// Fraction of queries that produced a decision, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            return 1.0;
        }
        (self.queries - self.unavailable) as f64 / self.queries as f64
    }

    /// Fraction of queries served in degraded mode, in `[0, 1]`.
    pub fn degraded_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.degraded as f64 / self.queries as f64
    }

    /// Mean replica sub-queries per cluster query (fan-out amplification).
    pub fn amplification(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.replica_queries as f64 / self.queries as f64
    }
}

dacs_telemetry::counter_block! {
    /// [`ClusterMetrics`] as relaxed atomics: the one place the
    /// cluster's counters live (the two epoch-lag fields are gauges).
    /// Concurrent deciders bump them without a shared lock;
    /// [`crate::PdpCluster::metrics`] and, with telemetry attached, the
    /// registry both read this block.
    pub(crate) struct AtomicClusterMetrics: ClusterMetrics {
        queries => "dacs_cluster_queries_total",
        replica_queries => "dacs_cluster_replica_queries_total",
        unavailable => "dacs_cluster_unavailable_total",
        degraded => "dacs_cluster_degraded_total",
        disagreements => "dacs_cluster_disagreements_total",
        fail_closed_denies => "dacs_cluster_fail_closed_denies_total",
        hedges => "dacs_cluster_hedges_total",
        resyncs => "dacs_cluster_resyncs_total",
        stale_decisions_avoided => "dacs_cluster_stale_decisions_avoided_total",
        epoch_lag_last => "dacs_cluster_epoch_lag_last",
        epoch_lag_max => "dacs_cluster_epoch_lag_max",
        batches => "dacs_cluster_batches_total",
        batched_queries => "dacs_cluster_batched_queries_total",
        coalesced => "dacs_cluster_coalesced_total",
        fanout_saved => "dacs_cluster_fanout_saved_total",
        caller_evaluations => "dacs_cluster_caller_evaluations_total",
    }
}

/// Adds `n` to a counter that rarely moves, skipping the atomic
/// operation on the common zero.
pub(crate) fn add_rare(counter: &AtomicU64, n: u64) {
    if n != 0 {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_and_counts() {
        let empty = ClusterMetrics::default();
        assert_eq!(empty.availability(), 1.0);
        assert_eq!(empty.degraded_rate(), 0.0);
        assert_eq!(empty.amplification(), 0.0);

        let m = ClusterMetrics {
            queries: 10,
            replica_queries: 30,
            unavailable: 2,
            degraded: 5,
            ..Default::default()
        };
        assert!((m.availability() - 0.8).abs() < 1e-9);
        assert!((m.degraded_rate() - 0.5).abs() < 1e-9);
        assert!((m.amplification() - 3.0).abs() < 1e-9);
    }
}
