//! Adversarial and revocation tests for the signed capability fast
//! path: wire-level tampering, forged/truncated MACs, wrong keys,
//! expired leases, stale epochs and field-substitution attacks must
//! all reject; epoch bumps riding the syndication tree must kill
//! outstanding tokens in the same tick across a clustered VO; and a
//! recovering replica whose answers lag its domain's epoch must never
//! feed the mint. A proptest
//! property pins the safety direction: the token path may deny where
//! the cluster permits, never the reverse.

use dacs::capability::tamper;
use dacs::capability::{CapabilityKey, CapabilityToken, TokenError, MAC_LEN};
use dacs::cluster::{ClusterBuilder, QuorumMode, ReplicaPhase};
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{Domain, Vo};
use dacs::pap::PolicyEpoch;
use dacs::pep::EnforceRequest;
use dacs::policy::policy::Decision;
use dacs::policy::request::RequestContext;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture() -> (CapabilityKey, CapabilityToken) {
    let key = CapabilityKey::generate(&mut StdRng::seed_from_u64(7));
    let token = CapabilityToken::mint(
        &key,
        "alice@a",
        "records/1",
        "read",
        1000,
        500,
        PolicyEpoch(3),
    );
    (key, token)
}

/// Verifies the fixture token exactly as minted.
fn verify_as_minted(key: &CapabilityKey, token: &CapabilityToken) -> Result<(), TokenError> {
    token.verify(key, "alice@a", "records/1", "read", 1100, PolicyEpoch(3))
}

/// Every single-bit flip anywhere on the wire — payload or MAC — must
/// leave a token that either fails to decode or fails to verify. No
/// bit position may yield a different-but-valid token.
#[test]
fn every_wire_bit_flip_rejects() {
    let (key, token) = fixture();
    assert_eq!(verify_as_minted(&key, &token), Ok(()));
    let wire = token.to_bytes();
    for bit in 0..wire.len() * 8 {
        let mut flipped = wire.clone();
        tamper::flip_bit(&mut flipped, bit);
        if let Ok(decoded) = CapabilityToken::from_bytes(&flipped) {
            assert!(
                verify_as_minted(&key, &decoded).is_err(),
                "bit {bit}: tampered token verified"
            );
        }
    }
}

/// Truncation at every length, and trailing garbage, must fail to
/// decode — partial tokens can never reach verification.
#[test]
fn truncated_and_padded_wire_rejects() {
    let (_, token) = fixture();
    let wire = token.to_bytes();
    for drop in 1..=wire.len() {
        assert!(
            CapabilityToken::from_bytes(&tamper::truncated(&wire, drop)).is_err(),
            "truncating {drop} bytes decoded"
        );
    }
    let mut padded = wire.clone();
    padded.push(0);
    assert!(CapabilityToken::from_bytes(&padded).is_err());
    assert!(CapabilityToken::from_bytes(&[]).is_err());
}

/// Wholesale MAC forgeries and single-bit MAC damage reject, as does
/// a structurally perfect token presented to a verifier holding a
/// different key.
#[test]
fn forged_macs_and_wrong_keys_reject() {
    let (key, token) = fixture();
    for fill in [0x00, 0xFF, 0xAA] {
        assert_eq!(
            verify_as_minted(&key, &tamper::with_forged_mac(&token, fill)),
            Err(TokenError::BadMac)
        );
    }
    for bit in [0, 1, MAC_LEN * 8 / 2, MAC_LEN * 8 - 1] {
        assert_eq!(
            verify_as_minted(&key, &tamper::flip_mac_bit(&token, bit)),
            Err(TokenError::BadMac)
        );
    }
    let other = CapabilityKey::generate(&mut StdRng::seed_from_u64(8));
    assert_eq!(verify_as_minted(&other, &token), Err(TokenError::BadMac));
}

/// The validity window: not-yet-valid before issuance, expired at and
/// after the (exclusive) expiry instant — and an attacker extending
/// their own lease trips the MAC before the window is even checked.
#[test]
fn expiry_is_exclusive_and_unforgeable() {
    let (key, token) = fixture();
    let at = |now: u64| token.verify(&key, "alice@a", "records/1", "read", now, PolicyEpoch(3));
    assert_eq!(at(999), Err(TokenError::NotYetValid));
    assert_eq!(at(1000), Ok(()));
    assert_eq!(at(1499), Ok(()));
    assert_eq!(at(1500), Err(TokenError::Expired));
    assert_eq!(at(u64::MAX), Err(TokenError::Expired));
    assert_eq!(
        verify_as_minted(&key, &tamper::with_expiry(&token, u64::MAX)),
        Err(TokenError::BadMac)
    );
}

/// Epoch binding is strict equality: a token from an older epoch is
/// stale, a token claiming a *newer* epoch than the verifier knows is
/// equally rejected, and restamping the epoch field trips the MAC.
#[test]
fn stale_and_future_epochs_reject() {
    let (key, token) = fixture();
    let at = |epoch: u64| {
        token.verify(
            &key,
            "alice@a",
            "records/1",
            "read",
            1100,
            PolicyEpoch(epoch),
        )
    };
    assert_eq!(at(3), Ok(()));
    assert_eq!(
        at(4),
        Err(TokenError::StaleEpoch {
            token: PolicyEpoch(3),
            current: PolicyEpoch(4),
        })
    );
    assert_eq!(
        at(2),
        Err(TokenError::StaleEpoch {
            token: PolicyEpoch(3),
            current: PolicyEpoch(2),
        })
    );
    assert_eq!(
        verify_as_minted(&key, &tamper::with_epoch(&token, PolicyEpoch(4))),
        Err(TokenError::BadMac)
    );
}

/// Substitution attacks from both sides: presenting a valid token for
/// the wrong subject/resource/action is a binding mismatch, and
/// rewriting the token's own fields to match trips the MAC.
#[test]
fn subject_resource_action_substitution_rejects() {
    let (key, token) = fixture();
    assert_eq!(
        token.verify(&key, "eve@a", "records/1", "read", 1100, PolicyEpoch(3)),
        Err(TokenError::SubjectMismatch)
    );
    assert_eq!(
        token.verify(&key, "alice@a", "records/2", "read", 1100, PolicyEpoch(3)),
        Err(TokenError::ResourceMismatch)
    );
    assert_eq!(
        token.verify(&key, "alice@a", "records/1", "write", 1100, PolicyEpoch(3)),
        Err(TokenError::ActionMismatch)
    );
    assert_eq!(
        verify_as_minted(&key, &tamper::with_subject(&token, "eve@a")),
        Err(TokenError::BadMac)
    );
    assert_eq!(
        verify_as_minted(&key, &tamper::with_resource(&token, "records/2")),
        Err(TokenError::BadMac)
    );
    assert_eq!(
        verify_as_minted(&key, &tamper::with_action(&token, "write")),
        Err(TokenError::BadMac)
    );
}

/// One clustered capability domain for the revocation suites.
fn token_domain(name: &str, seed: u64, ctx: &CryptoCtx) -> Domain {
    let mut builder = Domain::builder(name)
        .policy(alternating_lockdown_gate(name, 0))
        .clustered(ClusterBuilder::new(name).quorum(QuorumMode::Majority))
        .cluster_topology(1, 3)
        .capability(10_000_000)
        .seed(seed);
    for u in 0..4 {
        builder = builder.subject_attr(&format!("user-{u}@{name}"), "role", "doctor");
    }
    builder.build(ctx)
}

/// An epoch bump riding the syndication tree kills every outstanding
/// token in the *same tick* it lands, across all three domains of a
/// clustered VO, through E17-style replica churn (crash over the
/// push, recover — replayed in the same call — and counted again by
/// the next decide, repeat). Every
/// enforcement is compared against the domain's reference engine:
/// the clustered-plus-token answer never diverges.
#[test]
fn epoch_bump_revokes_same_tick_across_clustered_vo() {
    let ctx = CryptoCtx::new();
    let domains: Vec<Domain> = (0..3)
        .map(|d| token_domain(&format!("domain-{d}"), 40 + d as u64, &ctx))
        .collect();
    let vo = Vo::new("vo-tokens", ctx.clone(), domains);
    let churn_replicas = vo.domains[0].replica_names();

    for round in 0u64..4 {
        let t0 = round * 100;
        // Warm phase: current gate version is `round` — doctors get in
        // on even rounds, and the second pass rides tokens.
        for _ in 0..2 {
            for d in &vo.domains {
                for u in 0..4 {
                    let req = RequestContext::basic(
                        format!("user-{u}@{}", d.name),
                        format!("records/{u}"),
                        "read",
                    );
                    let truth = d.pdp.decide(&req, t0).decision;
                    let got = d.pep.serve(EnforceRequest::of(&req, t0)).allowed;
                    assert_eq!(got, truth == Decision::Permit, "{} warm r{round}", d.name);
                }
            }
        }
        if round.is_multiple_of(2) {
            let hits = vo.domains[0].pep.stats().token_hits;
            assert!(hits > 0, "round {round}: permit rounds must ride tokens");
        }

        // E17 churn shape: domain-0's replica crashes over the push…
        vo.domains[0].crash_replica(&churn_replicas[1]);

        // …which lands at t0+50 in every domain and must revoke every
        // outstanding token at that same tick.
        let t_push = t0 + 50;
        let stale_before: u64 = vo
            .domains
            .iter()
            .map(|d| d.capability.as_ref().unwrap().stats().rejected_stale_epoch)
            .sum();
        for d in &vo.domains {
            d.propagate_policy(alternating_lockdown_gate(&d.name, round + 1), t_push);
        }
        for d in &vo.domains {
            for u in 0..4 {
                let req = RequestContext::basic(
                    format!("user-{u}@{}", d.name),
                    format!("records/{u}"),
                    "read",
                );
                let truth = d.pdp.decide(&req, t_push).decision;
                let got = d.pep.serve(EnforceRequest::of(&req, t_push)).allowed;
                assert_eq!(got, truth == Decision::Permit, "{} push r{round}", d.name);
            }
        }
        if round.is_multiple_of(2) {
            let stale_after: u64 = vo
                .domains
                .iter()
                .map(|d| d.capability.as_ref().unwrap().stats().rejected_stale_epoch)
                .sum();
            assert!(
                stale_after > stale_before,
                "round {round}: the push must catch live tokens stale, same tick"
            );
        }

        // The crashed replica recovers, and the next decide counts it.
        vo.domains[0].recover_replica(&churn_replicas[1]);
        for u in 0..4 {
            let req =
                RequestContext::basic(format!("user-{u}@domain-0"), format!("records/{u}"), "read");
            let truth = vo.domains[0].pdp.decide(&req, t0 + 70).decision;
            let got = vo.domains[0]
                .pep
                .serve(EnforceRequest::of(&req, t0 + 70))
                .allowed;
            assert_eq!(got, truth == Decision::Permit, "recovered r{round}");
        }
    }
}

/// Replicas that come back stale answer behind the domain's epoch, and
/// their votes are withdrawn: their pre-lockdown policy would permit
/// (and so mint), but the decision rides the fresh anchor alone and
/// denies. Only after recovery has replayed the lockdown into them and
/// a decide has counted them — onto the *current* policy — does the
/// authority mint again.
#[test]
fn syncing_replicas_never_feed_the_mint() {
    let ctx = CryptoCtx::new();
    let domain = token_domain("solo", 9, &ctx);
    let authority = domain.capability.clone().unwrap();
    let replicas = domain.replica_names();

    let warm = RequestContext::basic("user-0@solo", "records/0", "read");
    assert!(domain.pep.serve(EnforceRequest::of(&warm, 0)).allowed);
    assert_eq!(authority.stats().minted, 1);

    // Two of three replicas crash over a lockdown push, then answer
    // again while still cut off from their syndication node: `Healthy`,
    // but every answer of theirs is behind the domain's epoch. Their
    // stale policy (version 0) would *permit* the doctor — if the
    // cluster counted them, they would outvote the fresh anchor and
    // the authority would mint from a revoked policy state.
    domain.crash_replica(&replicas[1]);
    domain.crash_replica(&replicas[2]);
    domain.propagate_policy(alternating_lockdown_gate("solo", 1), 10);
    let cluster = domain.cluster.as_ref().unwrap();
    cluster.mark_up(&replicas[1]);
    cluster.mark_up(&replicas[2]);
    assert_eq!(
        domain.replica_phase(&replicas[1]),
        Some(ReplicaPhase::Healthy)
    );

    // Only the fresh anchor's vote counts: the lockdown denies, and —
    // critically — nothing is minted off the stale pair.
    let fresh = RequestContext::basic("user-0@solo", "records/1", "read");
    assert!(!domain.pep.serve(EnforceRequest::of(&fresh, 20)).allowed);
    assert_eq!(cluster.metrics().stale_decisions_avoided, 2);
    assert_eq!(
        authority.stats().minted,
        1,
        "stale votes must never feed the mint"
    );

    // Recovery replays the lockdown into the pair and the next decide
    // counts it; lifting the lockdown (version 2) permits again and
    // mints at the current epoch.
    assert!(domain.recover_replica(&replicas[1]));
    assert!(domain.recover_replica(&replicas[2]));
    assert!(!domain.pep.serve(EnforceRequest::of(&fresh, 35)).allowed);
    assert_eq!(cluster.metrics().resyncs, 2);
    domain.propagate_policy(alternating_lockdown_gate("solo", 2), 38);
    assert!(domain.pep.serve(EnforceRequest::of(&fresh, 40)).allowed);
    assert_eq!(authority.stats().minted, 2);
    assert!(domain.pep.serve(EnforceRequest::of(&fresh, 50)).allowed);
    assert_eq!(domain.pep.stats().token_hits, 1);
}

proptest! {
    /// Safety direction of the fast path: run the same request/push
    /// schedule through a token-enabled domain and an identical plain
    /// domain. The token domain may deny where the plain domain
    /// permits (a just-revoked token falling back through an
    /// unavailable path), but must never permit where the plain
    /// domain denies.
    #[test]
    fn token_path_never_permits_beyond_the_cluster(ops in prop::collection::vec(any::<u32>(), 1..48)) {
        let ctx = CryptoCtx::new();
        let with_tokens = token_domain("prop", 77, &ctx);
        let plain = {
            let mut builder = Domain::builder("prop")
                .policy(alternating_lockdown_gate("prop", 0))
                .clustered(ClusterBuilder::new("prop").quorum(QuorumMode::Majority))
                .cluster_topology(1, 3)
                .seed(77);
            for u in 0..4 {
                builder = builder.subject_attr(&format!("user-{u}@prop"), "role", "doctor");
            }
            builder.build(&ctx)
        };
        let mut version = 0u64;
        for (i, op) in ops.iter().enumerate() {
            let t = i as u64 * 10;
            if op % 5 == 0 {
                version += 1;
                with_tokens.propagate_policy(alternating_lockdown_gate("prop", version), t);
                plain.propagate_policy(alternating_lockdown_gate("prop", version), t);
            }
            let req = RequestContext::basic(
                format!("user-{}@prop", (op >> 8) % 4),
                format!("records/{}", (op >> 16) % 3),
                "read",
            );
            let token_allowed = with_tokens.pep.serve(EnforceRequest::of(&req, t)).allowed;
            let plain_allowed = plain.pep.serve(EnforceRequest::of(&req, t)).allowed;
            prop_assert!(
                !token_allowed || plain_allowed,
                "op {i}: token path permitted where the cluster denied"
            );
            // With identical push schedules the two paths agree
            // outright; the one-sided assert above is the invariant,
            // this equality documents the steady state.
            prop_assert_eq!(token_allowed, plain_allowed);
        }
    }
}
