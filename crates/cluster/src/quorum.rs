//! Quorum modes: how a replica group combines the answers of its
//! replicas into one decision.
//!
//! The paper's dependability concern is not only availability but
//! *integrity of the decision*: a stale replica (missed a policy
//! update) or a Byzantine one must not be able to grant access
//! single-handedly. The three modes trade latency/cost against that
//! protection.
//!
//! # Replica lifecycle: who may vote at all
//!
//! Quorum counting is over *eligible* replicas: those whose shared
//! directory record is in the `Healthy` phase — up, and not held back
//! behind the group's policy epoch. The lifecycle (see
//! [`crate::ReplicaPhase`]):
//!
//! ```text
//! Healthy ──crash / partition──▶ Crashed
//!    ▲  ▲                           │
//!    │  └──returns, epoch current───┤
//!    │                              │ returns, epoch behind
//!    └──next query, epoch caught up── Syncing ◀┘
//! ```
//!
//! * `Healthy` — dispatched to and counted.
//! * `Crashed` — down. While down it misses policy pushes and its
//!   [`dacs_pdp::PolicyEpoch`] freezes.
//! * `Syncing` — back up, but its epoch lags the group maximum: it is
//!   excluded from dispatch and quorum counting (each exclusion counts
//!   in `ClusterMetrics::stale_decisions_avoided`) until it has
//!   replayed the missed updates from its syndication node
//!   (`SyndicationTree::catch_up`). The first query of its group that
//!   finds its epoch at the maximum readmits it, and it votes in that
//!   query (`ClusterMetrics::resyncs`). No caller drives this, and no
//!   option turns the gate off.
//!
//! Were a recovering replica to vote at once with whatever policy it
//! last saw, a stale *majority* could outvote the fresh survivors and
//! falsely permit — the failure experiment E16 guards against.
//!
//! # Semantics: mode × partition state
//!
//! For a group configured with `n` replicas of which `e` are currently
//! *eligible* (phase `Healthy`: up ∧ in sync with the group's maximum
//! policy epoch), the combined outcome is:
//!
//! | mode | `e = 0` | minority eligible (`2e ≤ n`) | majority eligible (`2e > n`) |
//! |------|---------|------------------------------|------------------------------|
//! | `FirstHealthy` | **unavailable** | first eligible replica's answer (a wrong survivor decides alone) | first eligible replica's answer |
//! | `Majority` | **unavailable** | strict majority of the *e* answers; split vote → fail-closed **deny** | strict majority of the *e* answers; split vote → fail-closed **deny** |
//! | `UnanimousFailClosed` | **unavailable** | fail-closed **deny** without evaluating (eligible-majority floor) | **permit** only if all *e* agree on permit; any deny or disagreement → **deny** |
//!
//! Four invariants fall out of the table:
//!
//! 1. **Unavailability is explicit** — `e = 0` yields no decision at
//!    all (`response: None`), never a default permit or deny. The
//!    caller (PEP) fails safe. In particular, a shard whose every
//!    replica is `Syncing` is *unavailable*, not stale-served.
//! 2. **The eligible-majority floor**: under `UnanimousFailClosed` a
//!    minority partition may not decide, because its survivors could
//!    all be stale or Byzantine. Unanimity over a minority would
//!    rubber-stamp them; the group denies without spending any
//!    evaluations instead. The floor counts *eligible* replicas, so a
//!    healthy-but-syncing (known-stale) replica cannot prop a
//!    partition over it.
//! 3. **The epoch-eligibility rule**: a known-stale replica never
//!    votes, in any mode — staleness is removed *before* the quorum
//!    arithmetic rather than hopefully outvoted by it.
//! 4. **`Majority` degrades gracefully but not absolutely**: while a
//!    fresh majority of the *configured* group is eligible, one wrong
//!    replica is outvoted; once churn leaves only a wrong minority
//!    eligible (e.g. a Byzantine replica, or staleness the epochs do
//!    not show), the vote is over the survivors and can go wrong (the
//!    degraded-mode risk [`crate::ClusterMetrics`] tracks).
//!
//! The same table is mirrored, with the decision-path diagrams, in the
//! repo-level `ARCHITECTURE.md`.

use dacs_policy::eval::Response;
use dacs_policy::policy::Decision;

/// How replica answers are combined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuorumMode {
    /// The first healthy replica answers alone. Cheapest (one
    /// evaluation per query) but a single wrong replica decides.
    FirstHealthy,
    /// All healthy replicas are queried; a strict majority on the
    /// decision wins. One wrong replica in three is outvoted. No
    /// majority yields fail-closed [`Decision::Deny`].
    Majority,
    /// All healthy replicas must agree **and** they must form a strict
    /// majority of the configured group; any disagreement — or a
    /// minority partition, where the surviving replicas could all be
    /// the wrong ones — yields [`Decision::Deny`] (fail closed). A
    /// wrong replica can cause false denies but never a false permit.
    UnanimousFailClosed,
}

impl QuorumMode {
    /// All modes, for experiment sweeps.
    pub const ALL: [QuorumMode; 3] = [
        QuorumMode::FirstHealthy,
        QuorumMode::Majority,
        QuorumMode::UnanimousFailClosed,
    ];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            QuorumMode::FirstHealthy => "first-healthy",
            QuorumMode::Majority => "majority",
            QuorumMode::UnanimousFailClosed => "unanimous-fail-closed",
        }
    }

    /// Whether the mode fans out to every healthy replica.
    pub fn fans_out(&self) -> bool {
        !matches!(self, QuorumMode::FirstHealthy)
    }
}

impl std::fmt::Display for QuorumMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The combined verdict of one fan-out.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// The combined response.
    pub response: Response,
    /// Whether the replicas disagreed on the decision.
    pub disagreement: bool,
    /// Whether the combination forced a fail-closed deny.
    pub fail_closed: bool,
}

/// Combines fan-out responses under `mode`.
///
/// `responses` must be non-empty; callers handle the no-healthy-replica
/// case (that is an availability gap, not a quorum question). Votes are
/// counted on the [`Decision`] alone; obligations are taken from the
/// first response that carried the winning decision.
pub fn combine(mode: QuorumMode, responses: &[Response]) -> Verdict {
    assert!(!responses.is_empty(), "combine needs at least one response");
    let first = &responses[0];
    let disagreement = responses[1..].iter().any(|r| r.decision != first.decision);

    match mode {
        QuorumMode::FirstHealthy => Verdict {
            response: first.clone(),
            disagreement,
            fail_closed: false,
        },
        QuorumMode::Majority => {
            let needed = responses.len() / 2 + 1;
            for candidate in responses {
                let votes = responses
                    .iter()
                    .filter(|r| r.decision == candidate.decision)
                    .count();
                if votes >= needed {
                    return Verdict {
                        response: candidate.clone(),
                        disagreement,
                        fail_closed: false,
                    };
                }
            }
            // Split vote: nobody may be trusted — fail closed.
            Verdict {
                response: Response::decision(Decision::Deny),
                disagreement,
                fail_closed: true,
            }
        }
        QuorumMode::UnanimousFailClosed => {
            if disagreement {
                Verdict {
                    response: Response::decision(Decision::Deny),
                    disagreement,
                    fail_closed: true,
                }
            } else {
                Verdict {
                    response: first.clone(),
                    disagreement: false,
                    fail_closed: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(d: Decision) -> Response {
        Response::decision(d)
    }

    #[test]
    fn majority_outvotes_one_wrong_replica() {
        let verdict = combine(
            QuorumMode::Majority,
            &[
                resp(Decision::Permit),
                resp(Decision::Deny), // stale or Byzantine
                resp(Decision::Permit),
            ],
        );
        assert_eq!(verdict.response.decision, Decision::Permit);
        assert!(verdict.disagreement);
        assert!(!verdict.fail_closed);
    }

    #[test]
    fn majority_split_fails_closed() {
        let verdict = combine(
            QuorumMode::Majority,
            &[resp(Decision::Permit), resp(Decision::Deny)],
        );
        assert_eq!(verdict.response.decision, Decision::Deny);
        assert!(verdict.fail_closed);
    }

    #[test]
    fn unanimous_denies_on_any_disagreement() {
        let verdict = combine(
            QuorumMode::UnanimousFailClosed,
            &[
                resp(Decision::Permit),
                resp(Decision::Permit),
                resp(Decision::NotApplicable),
            ],
        );
        assert_eq!(verdict.response.decision, Decision::Deny);
        assert!(verdict.fail_closed);

        let agreed = combine(
            QuorumMode::UnanimousFailClosed,
            &[resp(Decision::Permit), resp(Decision::Permit)],
        );
        assert_eq!(agreed.response.decision, Decision::Permit);
        assert!(!agreed.fail_closed);
    }

    #[test]
    fn first_healthy_trusts_the_first_answer() {
        let verdict = combine(
            QuorumMode::FirstHealthy,
            &[resp(Decision::Deny), resp(Decision::Permit)],
        );
        // Documents the exposure: the wrong replica answered first and won.
        assert_eq!(verdict.response.decision, Decision::Deny);
        assert!(verdict.disagreement);
    }

    #[test]
    fn obligations_follow_the_winning_decision() {
        use dacs_policy::policy::Obligation;
        let mut winner = resp(Decision::Permit);
        winner.obligations.push(Obligation {
            id: "log-access".into(),
            params: Vec::new(),
        });
        let verdict = combine(
            QuorumMode::Majority,
            &[winner.clone(), resp(Decision::Permit), resp(Decision::Deny)],
        );
        assert_eq!(verdict.response.obligations.len(), 1);
    }
}
