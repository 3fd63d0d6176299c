//! Query batching: coalesce outstanding decisions per shard.
//!
//! A PEP under load submits many decision queries per scheduling
//! quantum. Flushing them shard-by-shard amortizes evaluation two ways:
//! identical outstanding queries (found by canonical hash, confirmed
//! by comparing the whole request) are evaluated once and answered
//! together, and each shard's replicas see their keyspace slice
//! back-to-back, keeping decision caches hot.
//!
//! Batching composes with the fan-out strategy: each coalesced query is
//! served through whatever path the cluster was built with, so on a
//! cluster configured with [`crate::ClusterBuilder::scheduler`] every
//! flushed query fans out to its shard's replicas concurrently (and
//! hedges, if configured) exactly like a direct `decide` call. Each
//! query carries a [`DecisionClass`] into the scheduler's priority
//! lanes; [`BatchSubmitter::submit`] uses the default class and
//! [`BatchSubmitter::submit_classed`] lets callers tag individual
//! queries (a batch may mix lanes freely).

use crate::cluster::{ClusterOutcome, PdpCluster};
use dacs_pdp::DecisionClass;
use dacs_policy::request::RequestContext;
use std::collections::HashMap;

/// Handle to one submitted query; redeem it against the flush result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Ticket(usize);

impl Ticket {
    /// Position of this query's outcome in the flush result.
    pub fn index(&self) -> usize {
        self.0
    }
}

struct Pending {
    shard: usize,
    request: RequestContext,
    class: DecisionClass,
}

/// Collects queries and evaluates them per shard on flush.
pub struct BatchSubmitter<'a> {
    cluster: &'a PdpCluster,
    pending: Vec<Pending>,
}

impl<'a> BatchSubmitter<'a> {
    /// Creates an empty batch against `cluster`.
    pub fn new(cluster: &'a PdpCluster) -> Self {
        BatchSubmitter {
            cluster,
            pending: Vec::new(),
        }
    }

    /// Queues one query under the default [`DecisionClass`]; the
    /// returned ticket indexes the flush result.
    pub fn submit(&mut self, request: RequestContext) -> Ticket {
        self.submit_classed(request, DecisionClass::default())
    }

    /// Queues one query under an explicit [`DecisionClass`], steering
    /// its fan-out jobs into the matching scheduler lane at flush time.
    pub fn submit_classed(&mut self, request: RequestContext, class: DecisionClass) -> Ticket {
        // Routing happens here, not at flush; the span sits with it so
        // batched traces still decompose into route + fanout stages.
        let _route = self.cluster.telemetry().map(|t| t.tracer().span("route"));
        let shard = self.cluster.router().shard_for(&request);
        let ticket = Ticket(self.pending.len());
        self.pending.push(Pending {
            shard,
            request,
            class,
        });
        ticket
    }

    /// Queries queued so far.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Evaluates every queued query, shard by shard, coalescing
    /// identical requests; returns outcomes aligned with the tickets.
    pub fn flush(&mut self, now_ms: u64) -> Vec<ClusterOutcome> {
        let cluster = self.cluster;
        let pending = std::mem::take(&mut self.pending);
        let submitted = pending.len();
        let mut order: Vec<usize> = (0..pending.len()).collect();
        // Stable sort groups each shard's queries back-to-back while
        // preserving submission order within a shard.
        order.sort_by_key(|&i| pending[i].shard);

        let mut outcomes: Vec<Option<ClusterOutcome>> = (0..pending.len()).map(|_| None).collect();
        // The current shard's evaluated queries, by canonical hash: a
        // hash only finds the candidate, the whole request confirms it
        // (the binding `HashedRequestCache` uses).
        let mut answered: HashMap<u64, usize> = HashMap::new();
        let mut coalesced = 0usize;
        let mut current_shard = usize::MAX;
        for i in order {
            let p = &pending[i];
            if p.shard != current_shard {
                // Identical requests never span shards (routing is
                // keyed), but clearing per shard keeps the map small.
                answered.clear();
                current_shard = p.shard;
            }
            let hash = p.request.canonical_hash();
            let prior = answered.get(&hash).copied();
            outcomes[i] = match prior.filter(|&j| pending[j].request == p.request) {
                Some(j) => {
                    coalesced += 1;
                    outcomes[j].clone()
                }
                None => {
                    answered.insert(hash, i);
                    Some(cluster.decide_on_shard(p.shard, &p.request, now_ms, p.class))
                }
            };
        }
        cluster.note_batch(submitted, coalesced);
        outcomes
            .into_iter()
            .map(|o| o.expect("every ticket answered"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterBuilder;
    use crate::quorum::QuorumMode;
    use crate::replica::{DecisionBackend, StaticBackend};
    use dacs_policy::policy::Decision;
    use std::sync::Arc;

    fn cluster(shards: usize) -> PdpCluster {
        let mut builder = ClusterBuilder::new("batch-test").quorum(QuorumMode::FirstHealthy);
        for s in 0..shards {
            builder = builder.shard(vec![Arc::new(StaticBackend::new(
                format!("s{s}-r0"),
                Decision::Permit,
            )) as Arc<dyn DecisionBackend>]);
        }
        builder.build()
    }

    #[test]
    fn flush_answers_every_ticket_in_submission_order() {
        let cluster = cluster(4);
        let mut batch = BatchSubmitter::new(&cluster);
        let mut tickets = Vec::new();
        for i in 0..20 {
            tickets.push(batch.submit(RequestContext::basic(
                format!("user-{i}"),
                format!("res/{}", i % 5),
                "read",
            )));
        }
        assert_eq!(batch.len(), 20);
        let outcomes = batch.flush(0);
        assert!(batch.is_empty());
        assert_eq!(outcomes.len(), 20);
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.index(), i);
            assert_eq!(
                outcomes[t.index()].response.as_ref().unwrap().decision,
                Decision::Permit
            );
        }
    }

    #[test]
    fn identical_queries_coalesce_to_one_evaluation() {
        let cluster = cluster(2);
        let mut batch = BatchSubmitter::new(&cluster);
        for _ in 0..10 {
            batch.submit(RequestContext::basic("alice", "ehr/1", "read"));
        }
        batch.submit(RequestContext::basic("bob", "ehr/2", "read"));
        let outcomes = batch.flush(0);
        assert_eq!(outcomes.len(), 11);
        let m = cluster.metrics();
        // 10 identical + 1 distinct → 2 evaluations, 9 coalesced.
        assert_eq!(m.queries, 2);
        assert_eq!(m.coalesced, 9);
        assert_eq!(m.batched_queries, 11);
        assert_eq!(m.batches, 1);
    }

    /// Coalescing binds on the whole request, not on its routing key
    /// or on how its values print: equal requests share one evaluation;
    /// one more environment attribute — same subject, resource, action
    /// and shard — or an `Integer(1)` beside a `Double(1.0)` (which
    /// serialize alike) is a different query.
    #[test]
    fn coalescing_binds_on_the_whole_request() {
        use dacs_policy::attr::AttrValue;
        let cluster = cluster(1);
        let mut batch = BatchSubmitter::new(&cluster);
        let plain = RequestContext::basic("alice", "ehr/1", "read");
        let at_night = plain.clone().with_env_attr("shift", "night");
        let int = plain.clone().with_env_attr("level", AttrValue::Integer(1));
        let double = plain.clone().with_env_attr("level", AttrValue::Double(1.0));
        assert_eq!(int.to_canonical_bytes(), double.to_canonical_bytes());
        for request in [&plain, &at_night, &plain, &int, &double, &at_night] {
            batch.submit(request.clone());
        }
        let outcomes = batch.flush(0);
        assert_eq!(outcomes.len(), 6);
        let m = cluster.metrics();
        // Four distinct requests, two repeats.
        assert_eq!(m.queries, 4);
        assert_eq!(m.coalesced, 2);
    }

    #[test]
    fn batches_flush_through_the_parallel_fanout() {
        let mut builder = ClusterBuilder::new("batch-par")
            .quorum(QuorumMode::Majority)
            .scheduler(crate::SchedulerConfig::new(4));
        for s in 0..2 {
            builder = builder.shard(
                (0..3)
                    .map(|r| {
                        Arc::new(StaticBackend::new(format!("s{s}-r{r}"), Decision::Permit))
                            as Arc<dyn DecisionBackend>
                    })
                    .collect(),
            );
        }
        let cluster = builder.build();
        let mut batch = BatchSubmitter::new(&cluster);
        for i in 0..12 {
            // Mix lanes: classed submissions ride the same flush.
            let class = if i % 2 == 0 {
                DecisionClass::interactive()
            } else {
                DecisionClass::bulk()
            };
            batch.submit_classed(
                RequestContext::basic(format!("user-{}", i % 4), format!("res/{}", i % 3), "read"),
                class,
            );
        }
        let outcomes = batch.flush(0);
        assert_eq!(outcomes.len(), 12);
        for o in &outcomes {
            assert_eq!(o.response.as_ref().unwrap().decision, Decision::Permit);
        }
        let m = cluster.metrics();
        // Distinct (subject, resource) pairs evaluate once each, and
        // each evaluation fanned out to all three shard replicas.
        assert_eq!(m.batched_queries, 12);
        assert_eq!(m.replica_queries, m.queries * 3);
    }

    #[test]
    fn coalescing_resets_between_flushes() {
        let cluster = cluster(1);
        let mut batch = BatchSubmitter::new(&cluster);
        batch.submit(RequestContext::basic("alice", "ehr/1", "read"));
        batch.flush(0);
        batch.submit(RequestContext::basic("alice", "ehr/1", "read"));
        batch.flush(1);
        let m = cluster.metrics();
        // Separate flushes re-evaluate (freshness over reuse).
        assert_eq!(m.queries, 2);
        assert_eq!(m.coalesced, 0);
        assert_eq!(m.batches, 2);
    }
}
