//! The minting/verifying authority: one per domain, sharing its key
//! with the domain's enforcement points and tracking the domain's
//! policy epoch so revocation needs no channel of its own.

use crate::token::{Admitted, CapabilityKey, CapabilityToken, TokenError};
use dacs_pap::PolicyEpoch;
use dacs_policy::eval::Response;
use dacs_policy::policy::Decision;
use dacs_policy::request::RequestContext;
use dacs_telemetry::{Histogram, Telemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Aggregate mint/verify counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AuthorityStats {
    /// Tokens minted.
    pub minted: u64,
    /// Uses that passed: a `verify`, or a `recheck` of an admitted
    /// token (a successful admission is not yet a use).
    pub verified: u64,
    /// Verifications, admissions and rechecks that rejected, any reason.
    pub rejected: u64,
    /// Rejections specifically for an epoch mismatch (revocations).
    pub rejected_stale_epoch: u64,
}

dacs_telemetry::counter_block! {
    /// [`AuthorityStats`] as relaxed atomics: the one place the
    /// counters live, shared with the registry's read-through samples.
    struct AtomicAuthorityStats: AuthorityStats {
        minted => "dacs_capability_minted_total",
        verified => "dacs_capability_verified_total",
        rejected => "dacs_capability_rejected_total",
        rejected_stale_epoch => "dacs_capability_rejected_stale_epoch_total",
    }
}

/// Mints and verifies capability tokens under the domain's current
/// policy epoch.
///
/// The authority's epoch is advanced by the domain on every policy
/// push ([`CapabilityAuthority::advance_epoch`]); because
/// [`CapabilityToken::verify`] demands epoch equality, every
/// outstanding token dies the instant the push lands — exactly when a
/// cached grant would have been flushed.
pub struct CapabilityAuthority {
    key: CapabilityKey,
    ttl_ms: u64,
    epoch: AtomicU64,
    stats: Arc<AtomicAuthorityStats>,
    /// Verify latency in ns, timed only with telemetry attached.
    verify_ns: Option<Arc<Histogram>>,
}

impl CapabilityAuthority {
    /// Creates an authority minting `ttl_ms`-lived tokens with `key`,
    /// starting at [`PolicyEpoch::ZERO`].
    pub fn new(key: CapabilityKey, ttl_ms: u64) -> Self {
        CapabilityAuthority {
            key,
            ttl_ms,
            epoch: AtomicU64::new(0),
            stats: Arc::default(),
            verify_ns: None,
        }
    }

    /// Exposes every [`AuthorityStats`] field to `telemetry`'s
    /// registry and times full verifications (admissions included,
    /// rechecks not) into `dacs_capability_verify_ns` (builder style).
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        let stats = Arc::clone(&self.stats);
        r.expose(move || stats.snapshot().samples());
        self.verify_ns = Some(r.histogram("dacs_capability_verify_ns"));
        self
    }

    /// Token lifetime.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    /// The epoch new tokens are stamped with and presented tokens are
    /// checked against.
    pub fn current_epoch(&self) -> PolicyEpoch {
        PolicyEpoch(self.epoch.load(Ordering::Acquire))
    }

    /// Observes a policy push: moves the authority's epoch forward
    /// (never backward), revoking every token stamped earlier.
    pub fn advance_epoch(&self, epoch: PolicyEpoch) {
        self.epoch.fetch_max(epoch.0, Ordering::AcqRel);
    }

    /// Mints a token for a grant decided under `epoch`.
    ///
    /// Callers must pass the epoch they captured *before* consulting
    /// the decision source: if a policy push interleaves with the
    /// decision, the token is born stale and rejects — deny-biased by
    /// construction, never permit-biased.
    pub fn mint_at_epoch(
        &self,
        subject: &str,
        resource: &str,
        action: &str,
        now_ms: u64,
        epoch: PolicyEpoch,
    ) -> CapabilityToken {
        self.stats.minted.fetch_add(1, Ordering::Relaxed);
        CapabilityToken::mint(
            &self.key,
            subject,
            resource,
            action,
            now_ms,
            self.ttl_ms,
            epoch,
        )
    }

    /// Mints at the authority's current epoch (tests, canaries).
    pub fn mint(
        &self,
        subject: &str,
        resource: &str,
        action: &str,
        now_ms: u64,
    ) -> CapabilityToken {
        self.mint_at_epoch(subject, resource, action, now_ms, self.current_epoch())
    }

    /// Mints a token iff `response` is an unconditional permit for a
    /// fully identified request, stamped with the epoch the answer was
    /// decided at ([`Response::epoch`]): an answer decided behind the
    /// authority's epoch yields a token admission refuses as stale.
    ///
    /// Obligated permits never mint: obligations must be discharged on
    /// *every* enforcement, so those requests keep consulting the
    /// source and concluding the full obligation pipeline.
    pub fn grant_for(
        &self,
        request: &RequestContext,
        response: &Response,
        now_ms: u64,
    ) -> Option<CapabilityToken> {
        if response.decision != Decision::Permit || !response.obligations.is_empty() {
            return None;
        }
        let (subject, resource, action) = match (
            request.subject_id(),
            request.resource_id(),
            request.action_id(),
        ) {
            (Some(s), Some(r), Some(a)) => (s, r, a),
            _ => return None,
        };
        Some(self.mint_at_epoch(subject, resource, action, now_ms, response.epoch))
    }

    /// Verifies a presented token against a request at the authority's
    /// current epoch, recording stats: an admission used on the spot.
    ///
    /// # Errors
    ///
    /// The first failing check — see [`CapabilityToken::verify`].
    pub fn verify(
        &self,
        token: &CapabilityToken,
        subject: &str,
        resource: &str,
        action: &str,
        now_ms: u64,
    ) -> Result<(), TokenError> {
        let admitted = self.admit(token, subject, resource, action, now_ms)?;
        self.recheck(&admitted, now_ms)
    }

    /// Admits a token a verifier is about to keep: the full, timed
    /// verification of [`CapabilityAuthority::verify`], run once,
    /// yielding the [`Admitted`] remainder the holder must
    /// [`CapabilityAuthority::recheck`] on every use. A refusal counts
    /// as `rejected`; a success is not yet a verified *use*.
    ///
    /// # Errors
    ///
    /// The first failing check — see [`CapabilityToken::verify`].
    pub fn admit(
        &self,
        token: &CapabilityToken,
        subject: &str,
        resource: &str,
        action: &str,
        now_ms: u64,
    ) -> Result<Admitted, TokenError> {
        let timed = self
            .verify_ns
            .as_ref()
            .map(|h| (h, std::time::Instant::now()));
        let result = token.verify(
            &self.key,
            subject,
            resource,
            action,
            now_ms,
            self.current_epoch(),
        );
        if let Some((h, started)) = timed {
            h.record(started.elapsed().as_nanos() as u64);
        }
        result
            .map(|()| token.admitted())
            .map_err(|e| self.rejected(e))
    }

    /// The per-use half of verification: the checks that change with
    /// time (validity window, epoch equality), counted as
    /// [`CapabilityAuthority::verify`] counts them. Untimed on purpose —
    /// two clock reads would cost several times the three compares.
    ///
    /// # Errors
    ///
    /// [`TokenError::NotYetValid`], [`TokenError::Expired`] or
    /// [`TokenError::StaleEpoch`].
    pub fn recheck(&self, admitted: &Admitted, now_ms: u64) -> Result<(), TokenError> {
        admitted
            .check(now_ms, self.current_epoch())
            .map_err(|e| self.rejected(e))?;
        self.stats.verified.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counts a rejection on its way out.
    fn rejected(&self, e: TokenError) -> TokenError {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        if matches!(e, TokenError::StaleEpoch { .. }) {
            self.stats
                .rejected_stale_epoch
                .fetch_add(1, Ordering::Relaxed);
        }
        e
    }

    /// Snapshot of the mint/verify counters.
    pub fn stats(&self) -> AuthorityStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_policy::policy::Obligation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn authority() -> CapabilityAuthority {
        let key = CapabilityKey::generate(&mut StdRng::seed_from_u64(9));
        CapabilityAuthority::new(key, 500)
    }

    fn permit() -> Response {
        Response::decision(Decision::Permit)
    }

    #[test]
    fn epoch_bump_revokes_outstanding_tokens() {
        let a = authority();
        a.advance_epoch(PolicyEpoch(4));
        let t = a.mint("u@d", "r/1", "read", 100);
        assert_eq!(a.verify(&t, "u@d", "r/1", "read", 101), Ok(()));
        a.advance_epoch(PolicyEpoch(5));
        assert_eq!(
            a.verify(&t, "u@d", "r/1", "read", 102),
            Err(TokenError::StaleEpoch {
                token: PolicyEpoch(4),
                current: PolicyEpoch(5)
            })
        );
        let s = a.stats();
        assert_eq!(
            (s.minted, s.verified, s.rejected, s.rejected_stale_epoch),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn epoch_never_moves_backward() {
        let a = authority();
        a.advance_epoch(PolicyEpoch(7));
        a.advance_epoch(PolicyEpoch(3));
        assert_eq!(a.current_epoch(), PolicyEpoch(7));
    }

    #[test]
    fn grant_for_mints_only_unconditional_permits() {
        let a = authority();
        let req = RequestContext::basic("u@d", "r/1", "read");
        let token = a.grant_for(&req, &permit(), 10).unwrap();
        assert_eq!(token.subject, "u@d");
        assert_eq!(token.expires_at_ms, 510);
        // Minted at the answer's epoch, whatever the authority's.
        let decided = Response {
            epoch: PolicyEpoch(3),
            ..permit()
        };
        assert_eq!(
            a.grant_for(&req, &decided, 10).unwrap().epoch,
            PolicyEpoch(3)
        );

        let mut obligated = permit();
        obligated.obligations.push(Obligation {
            id: "log".into(),
            params: Vec::new(),
        });
        assert!(a.grant_for(&req, &obligated, 10).is_none());

        let mut deny = permit();
        deny.decision = Decision::Deny;
        assert!(a.grant_for(&req, &deny, 10).is_none());

        let anonymous = RequestContext::new();
        assert!(a.grant_for(&anonymous, &permit(), 10).is_none());
    }

    #[test]
    fn pre_decision_epoch_makes_interleaved_pushes_deny_biased() {
        let a = authority();
        let epoch_before = a.current_epoch();
        // A policy push lands between the epoch capture and the mint.
        a.advance_epoch(PolicyEpoch(1));
        let t = a.mint_at_epoch("u@d", "r/1", "read", 10, epoch_before);
        // Born stale: never accepted, so never a false permit.
        assert!(matches!(
            a.verify(&t, "u@d", "r/1", "read", 11),
            Err(TokenError::StaleEpoch { .. })
        ));
    }

    /// Admission runs (and times) the full verification but is not a
    /// use; each recheck is one, counted as `verify` counts and untimed.
    #[test]
    fn admit_counts_refusals_and_recheck_counts_uses() {
        let telemetry = Telemetry::new();
        let a = authority().with_telemetry(&telemetry);
        let t = a.mint("u@d", "r/1", "read", 0);
        let admitted = a.admit(&t, "u@d", "r/1", "read", 1).unwrap();
        assert_eq!(a.stats().verified, 0);
        assert_eq!(
            a.admit(&t, "eve@d", "r/1", "read", 1).unwrap_err(),
            TokenError::SubjectMismatch
        );
        assert_eq!(a.recheck(&admitted, 1), Ok(()));
        assert_eq!(a.recheck(&admitted, 500), Err(TokenError::Expired));
        a.advance_epoch(PolicyEpoch(1));
        assert!(matches!(
            a.recheck(&admitted, 2),
            Err(TokenError::StaleEpoch { .. })
        ));
        let s = a.stats();
        assert_eq!((s.verified, s.rejected, s.rejected_stale_epoch), (1, 3, 1));
        let timed = telemetry.registry().histogram("dacs_capability_verify_ns");
        assert_eq!(timed.count(), 2, "the two admissions, no recheck");
    }

    #[test]
    fn telemetry_counters_track_mint_and_verify() {
        let telemetry = Telemetry::new();
        let key = CapabilityKey::generate(&mut StdRng::seed_from_u64(9));
        let a = CapabilityAuthority::new(key, 500).with_telemetry(&telemetry);
        let t = a.mint("u@d", "r/1", "read", 0);
        a.verify(&t, "u@d", "r/1", "read", 1).unwrap();
        a.verify(&t, "eve@d", "r/1", "read", 1).unwrap_err();
        let r = telemetry.registry();
        assert_eq!(r.counter_value("dacs_capability_minted_total"), Some(1));
        assert_eq!(r.counter_value("dacs_capability_verified_total"), Some(1));
        assert_eq!(r.counter_value("dacs_capability_rejected_total"), Some(1));
        assert_eq!(r.histogram("dacs_capability_verify_ns").count(), 2);
    }
}
