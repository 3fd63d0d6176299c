//! # dacs-trust
//!
//! Automated trust negotiation (§3.1 of the DSN 2008 paper): when
//! neither identity- nor capability-based approaches work because the
//! parties share no prior relationship, "the client and the resource
//! provider conduct a bilateral and iterative exchange of policies and
//! credentials to incrementally establish trust" (Winsborough et al.;
//! Traust).
//!
//! Model: each party holds [`Credential`]s guarded by release policies
//! over the *peer's* disclosed credentials. The resource is guarded by a
//! release policy over the client's credentials. Negotiation proceeds in
//! rounds; strategies:
//!
//! * [`Strategy::Eager`] — disclose every unlocked credential each
//!   round (fast convergence, maximal disclosure).
//! * [`Strategy::Parsimonious`] — disclose only credentials on the
//!   dependency path to the goal (minimal disclosure, same success).
//!
//! Experiment E10 sweeps dependency-chain depth and compares rounds and
//! credentials disclosed per strategy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A condition over the peer's disclosed credential ids.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ReleasePolicy {
    /// Freely disclosable.
    Unprotected,
    /// All listed peer credentials must have been disclosed.
    RequiresAll(Vec<String>),
    /// At least one listed peer credential must have been disclosed.
    RequiresAny(Vec<String>),
}

impl ReleasePolicy {
    /// Whether the condition holds against a set of disclosed ids.
    pub(crate) fn satisfied(&self, disclosed: &BTreeSet<String>) -> bool {
        match self {
            ReleasePolicy::Unprotected => true,
            ReleasePolicy::RequiresAll(ids) => ids.iter().all(|i| disclosed.contains(i)),
            ReleasePolicy::RequiresAny(ids) => ids.iter().any(|i| disclosed.contains(i)),
        }
    }

    /// Credential ids referenced by the policy.
    pub fn referenced(&self) -> &[String] {
        match self {
            ReleasePolicy::Unprotected => &[],
            ReleasePolicy::RequiresAll(ids) | ReleasePolicy::RequiresAny(ids) => ids,
        }
    }
}

/// A credential with a release policy guarding its disclosure.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Credential {
    /// Credential id, e.g. `"employee-badge"`.
    pub id: String,
    /// Sensitivity class (0 = public), used for reporting.
    pub sensitivity: u8,
    /// Condition the *peer* must meet before this is disclosed.
    pub release: ReleasePolicy,
}

impl Credential {
    /// Creates an unprotected credential.
    pub fn public(id: impl Into<String>) -> Self {
        Credential {
            id: id.into(),
            sensitivity: 0,
            release: ReleasePolicy::Unprotected,
        }
    }

    /// Creates a credential guarded by a release policy.
    pub fn guarded(id: impl Into<String>, sensitivity: u8, release: ReleasePolicy) -> Self {
        Credential {
            id: id.into(),
            sensitivity,
            release,
        }
    }
}

/// Disclosure strategies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Disclose everything currently unlocked.
    Eager,
    /// Disclose only credentials relevant to the goal.
    Parsimonious,
}

/// One negotiating party.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Party {
    /// Party name (diagnostics).
    pub name: String,
    /// Credentials held, by id.
    pub credentials: HashMap<String, Credential>,
}

impl Party {
    /// Creates a party from credentials.
    pub fn new(name: impl Into<String>, credentials: Vec<Credential>) -> Self {
        Party {
            name: name.into(),
            credentials: credentials.into_iter().map(|c| (c.id.clone(), c)).collect(),
        }
    }
}

/// One disclosure event in the transcript.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Disclosure {
    /// Round number (1-based).
    pub round: u32,
    /// `true` when disclosed by the client, `false` by the server.
    pub by_client: bool,
    /// The credential disclosed.
    pub credential: String,
}

/// Result of a negotiation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outcome {
    /// Whether the resource policy was eventually satisfied.
    pub success: bool,
    /// Rounds executed (a round = one client phase + one server phase).
    pub rounds: u32,
    /// Credentials the client ended up disclosing.
    pub disclosed_by_client: BTreeSet<String>,
    /// Credentials the server ended up disclosing.
    pub disclosed_by_server: BTreeSet<String>,
    /// Full ordered transcript.
    pub transcript: Vec<Disclosure>,
    /// Messages exchanged (2 per round plus the final grant/refuse).
    pub messages: u32,
}

/// Computes the relevance set for parsimonious disclosure: credentials
/// reachable by backward chaining from the goal through release
/// policies.
fn relevance(
    goal: &ReleasePolicy,
    client: &Party,
    server: &Party,
) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut relevant_client: BTreeSet<String> = goal.referenced().iter().cloned().collect();
    let mut relevant_server: BTreeSet<String> = BTreeSet::new();
    loop {
        let before = (relevant_client.len(), relevant_server.len());
        // A relevant client credential's release policy references server
        // credentials, which become relevant, and vice versa.
        for id in relevant_client.clone() {
            if let Some(c) = client.credentials.get(&id) {
                relevant_server.extend(c.release.referenced().iter().cloned());
            }
        }
        for id in relevant_server.clone() {
            if let Some(c) = server.credentials.get(&id) {
                relevant_client.extend(c.release.referenced().iter().cloned());
            }
        }
        if (relevant_client.len(), relevant_server.len()) == before {
            break;
        }
    }
    (relevant_client, relevant_server)
}

/// Runs a negotiation: the client wants a resource guarded by
/// `resource_policy` (a condition over *client* credentials).
///
/// Each round the client discloses what it can, then the server. The
/// negotiation succeeds as soon as the resource policy is satisfied,
/// and fails when a full round makes no progress or `max_rounds` is
/// reached.
pub fn negotiate(
    client: &Party,
    server: &Party,
    resource_policy: &ReleasePolicy,
    strategy: Strategy,
    max_rounds: u32,
) -> Outcome {
    let (relevant_client, relevant_server) = match strategy {
        Strategy::Eager => (BTreeSet::new(), BTreeSet::new()),
        Strategy::Parsimonious => relevance(resource_policy, client, server),
    };
    let relevant = |by_client: bool, id: &str| -> bool {
        match strategy {
            Strategy::Eager => true,
            Strategy::Parsimonious => {
                if by_client {
                    relevant_client.contains(id)
                } else {
                    relevant_server.contains(id)
                }
            }
        }
    };

    let mut disclosed_client: BTreeSet<String> = BTreeSet::new();
    let mut disclosed_server: BTreeSet<String> = BTreeSet::new();
    let mut transcript = Vec::new();
    let mut rounds = 0;
    let mut success = resource_policy.satisfied(&disclosed_client);

    while !success && rounds < max_rounds {
        rounds += 1;
        let mut progressed = false;

        // Client phase: disclose unlocked, relevant, undisclosed creds.
        for (id, cred) in &client.credentials {
            if !disclosed_client.contains(id)
                && relevant(true, id)
                && cred.release.satisfied(&disclosed_server)
            {
                disclosed_client.insert(id.clone());
                transcript.push(Disclosure {
                    round: rounds,
                    by_client: true,
                    credential: id.clone(),
                });
                progressed = true;
            }
        }
        if resource_policy.satisfied(&disclosed_client) {
            success = true;
            break;
        }
        // Server phase.
        for (id, cred) in &server.credentials {
            if !disclosed_server.contains(id)
                && relevant(false, id)
                && cred.release.satisfied(&disclosed_client)
            {
                disclosed_server.insert(id.clone());
                transcript.push(Disclosure {
                    round: rounds,
                    by_client: false,
                    credential: id.clone(),
                });
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    // Sort transcript within rounds deterministically (HashMap order).
    transcript.sort_by(|a, b| {
        (a.round, !a.by_client, a.credential.clone()).cmp(&(
            b.round,
            !b.by_client,
            b.credential.clone(),
        ))
    });

    Outcome {
        success,
        rounds,
        messages: rounds * 2 + 1,
        disclosed_by_client: disclosed_client,
        disclosed_by_server: disclosed_server,
        transcript,
    }
}

/// Builds the standard chain scenario of depth `n` used by experiment
/// E10: the resource requires client credential `c0`; `c0` requires
/// server credential `s0`; `s0` requires `c1`; ... The chain bottoms
/// out in an unprotected client credential `c{n}`.
///
/// Both parties also carry `extra` irrelevant public credentials, which
/// eager strategies will disclose and parsimonious ones will not.
pub fn chain_scenario(depth: u32, extra: u32) -> (Party, Party, ReleasePolicy) {
    let mut client_creds = Vec::new();
    let mut server_creds = Vec::new();
    for k in 0..=depth {
        let release = if k == depth {
            ReleasePolicy::Unprotected
        } else {
            ReleasePolicy::RequiresAll(vec![format!("s{k}")])
        };
        client_creds.push(Credential::guarded(format!("c{k}"), k as u8, release));
        if k < depth {
            server_creds.push(Credential::guarded(
                format!("s{k}"),
                k as u8,
                ReleasePolicy::RequiresAll(vec![format!("c{}", k + 1)]),
            ));
        }
    }
    for e in 0..extra {
        client_creds.push(Credential::public(format!("client-extra-{e}")));
        server_creds.push(Credential::public(format!("server-extra-{e}")));
    }
    (
        Party::new("client", client_creds),
        Party::new("server", server_creds),
        ReleasePolicy::RequiresAll(vec!["c0".into()]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_unprotected_succeeds_in_one_round() {
        let client = Party::new("c", vec![Credential::public("student-id")]);
        let server = Party::new("s", vec![]);
        let goal = ReleasePolicy::RequiresAll(vec!["student-id".into()]);
        let out = negotiate(&client, &server, &goal, Strategy::Eager, 10);
        assert!(out.success);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.disclosed_by_client.len(), 1);
    }

    #[test]
    fn chain_depth_drives_round_count() {
        for depth in 0..6u32 {
            let (client, server, goal) = chain_scenario(depth, 0);
            let out = negotiate(&client, &server, &goal, Strategy::Eager, 50);
            assert!(out.success, "depth {depth} should succeed");
            // Eager unlocks one chain link per phase-pair; rounds grow
            // with depth.
            assert!(
                out.rounds >= depth.max(1) / 2,
                "depth {depth}: rounds {}",
                out.rounds
            );
        }
        let shallow = {
            let (c, s, g) = chain_scenario(1, 0);
            negotiate(&c, &s, &g, Strategy::Eager, 50).rounds
        };
        let deep = {
            let (c, s, g) = chain_scenario(5, 0);
            negotiate(&c, &s, &g, Strategy::Eager, 50).rounds
        };
        assert!(deep > shallow);
    }

    #[test]
    fn parsimonious_discloses_less_than_eager() {
        let (client, server, goal) = chain_scenario(3, 5);
        let eager = negotiate(&client, &server, &goal, Strategy::Eager, 50);
        let pars = negotiate(&client, &server, &goal, Strategy::Parsimonious, 50);
        assert!(eager.success && pars.success);
        assert!(
            pars.disclosed_by_client.len() < eager.disclosed_by_client.len(),
            "parsimonious {:?} vs eager {:?}",
            pars.disclosed_by_client,
            eager.disclosed_by_client
        );
        assert!(pars.disclosed_by_server.len() < eager.disclosed_by_server.len());
        // Neither discloses the irrelevant extras under parsimonious.
        assert!(pars
            .disclosed_by_client
            .iter()
            .all(|c| !c.starts_with("client-extra")));
    }

    #[test]
    fn deadlock_detected_as_failure() {
        // c0 requires s0; s0 requires c0 — circular, no progress.
        let client = Party::new(
            "c",
            vec![Credential::guarded(
                "c0",
                1,
                ReleasePolicy::RequiresAll(vec!["s0".into()]),
            )],
        );
        let server = Party::new(
            "s",
            vec![Credential::guarded(
                "s0",
                1,
                ReleasePolicy::RequiresAll(vec!["c0".into()]),
            )],
        );
        let goal = ReleasePolicy::RequiresAll(vec!["c0".into()]);
        let out = negotiate(&client, &server, &goal, Strategy::Eager, 50);
        assert!(!out.success);
        assert!(out.rounds < 50, "must terminate early on no progress");
    }

    #[test]
    fn missing_credential_fails() {
        let client = Party::new("c", vec![Credential::public("x")]);
        let server = Party::new("s", vec![]);
        let goal = ReleasePolicy::RequiresAll(vec!["y".into()]);
        let out = negotiate(&client, &server, &goal, Strategy::Parsimonious, 10);
        assert!(!out.success);
    }

    #[test]
    fn requires_any_semantics() {
        let mut d = BTreeSet::new();
        let p = ReleasePolicy::RequiresAny(vec!["a".into(), "b".into()]);
        assert!(!p.satisfied(&d));
        d.insert("b".into());
        assert!(p.satisfied(&d));
        assert!(ReleasePolicy::Unprotected.satisfied(&BTreeSet::new()));
    }

    #[test]
    fn transcript_is_ordered_and_complete() {
        let (client, server, goal) = chain_scenario(2, 0);
        let out = negotiate(&client, &server, &goal, Strategy::Eager, 50);
        assert!(out.success);
        let total = out.disclosed_by_client.len() + out.disclosed_by_server.len();
        assert_eq!(out.transcript.len(), total);
        assert!(out.transcript.windows(2).all(|w| w[0].round <= w[1].round));
    }

    #[test]
    fn message_count_reported() {
        let (client, server, goal) = chain_scenario(1, 0);
        let out = negotiate(&client, &server, &goal, Strategy::Eager, 50);
        assert_eq!(out.messages, out.rounds * 2 + 1);
    }

    #[test]
    fn zero_depth_chain() {
        let (client, server, goal) = chain_scenario(0, 0);
        let out = negotiate(&client, &server, &goal, Strategy::Parsimonious, 10);
        assert!(out.success);
        assert_eq!(out.rounds, 1);
        assert_eq!(out.disclosed_by_server.len(), 0);
    }
}
