//! Admission is the only door into a PEP's token store, judged at the
//! PEP: whatever token a decision source hands back beside its answer
//! — tampered, bound to another request, minted under another key,
//! outside its window, born stale — the source's verdict stands, the
//! token is counted as a reject and *nothing is stored*, so the next
//! identical request reaches the source again. A good token is admitted
//! once and rechecked on every use; an epoch bump between two serves
//! revokes it with no clock and no sleep.

use dacs::capability::tamper;
use dacs::capability::{AuthorityStats, CapabilityAuthority, CapabilityKey, CapabilityToken};
use dacs::pep::{DecisionSource, EnforceOptions, EnforceRequest, Pep};
use dacs::policy::eval::{Response, Status};
use dacs::policy::policy::Decision;
use dacs::policy::request::RequestContext;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NOW: u64 = 1_000;
const TTL: u64 = 500;
const TRIPLE: (&str, &str, &str) = ("alice@d", "records/1", "read");

fn authority(seed: u64) -> Arc<CapabilityAuthority> {
    let key = CapabilityKey::generate(&mut StdRng::seed_from_u64(seed));
    Arc::new(CapabilityAuthority::new(key, TTL))
}

/// What the stub grants beside each `Permit`, given the authority.
type Grant = dyn Fn(&CapabilityAuthority) -> CapabilityToken + Send + Sync;

/// A decision source that permits everything and answers every grant
/// query with whatever token `grant` makes, counting its calls.
struct Stub {
    authority: Arc<CapabilityAuthority>,
    grant: Box<Grant>,
    calls: AtomicU64,
}

impl DecisionSource for Stub {
    fn decide(&self, _: &RequestContext, _: u64) -> Response {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Response {
            decision: Decision::Permit,
            obligations: Vec::new(),
            status: Status::Ok,
        }
    }

    fn decide_with_grant(
        &self,
        request: &RequestContext,
        now_ms: u64,
    ) -> (Response, Option<CapabilityToken>) {
        let token = (self.grant)(&self.authority);
        (self.decide(request, now_ms), Some(token))
    }

    fn decide_batch_with_grants(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        requests
            .iter()
            .map(|r| self.decide_with_grant(r, now_ms))
            .collect()
    }
}

/// A capability-fast-path PEP over a [`Stub`] granting `grant`.
fn pep_granting(
    grant: impl Fn(&CapabilityAuthority) -> CapabilityToken + Send + Sync + 'static,
) -> (Pep, Arc<Stub>) {
    let authority = authority(7);
    let stub = Arc::new(Stub {
        authority: authority.clone(),
        grant: Box::new(grant),
        calls: AtomicU64::new(0),
    });
    let pep = Pep::builder("pep.d")
        .source(stub.clone())
        .capability_fastpath(authority, 64)
        .build();
    (pep, stub)
}

/// A token the authority would admit for [`TRIPLE`] at [`NOW`].
fn good(authority: &CapabilityAuthority) -> CapabilityToken {
    authority.mint(TRIPLE.0, TRIPLE.1, TRIPLE.2, NOW)
}

/// Serves [`TRIPLE`] twice singly and once batched through a PEP whose
/// source grants `grant`, and checks that the token never got in.
/// Returns the authority's counters.
fn assert_refused(
    what: &str,
    grant: impl Fn(&CapabilityAuthority) -> CapabilityToken + Send + Sync + 'static,
) -> AuthorityStats {
    let (pep, stub) = pep_granting(grant);
    let request = RequestContext::basic(TRIPLE.0, TRIPLE.1, TRIPLE.2);
    for round in 1..=2 {
        let result = pep.serve(EnforceRequest::of(&request, NOW));
        assert!(result.allowed, "{what}: the source's permit stands");
        let calls = stub.calls.load(Ordering::Relaxed);
        assert_eq!(
            calls, round,
            "{what}: serve {round} did not reach the source"
        );
    }
    let batch = pep.serve_batch(std::slice::from_ref(&request), NOW, EnforceOptions::new());
    assert!(batch[0].allowed, "{what}: the source's permit stands");
    assert_eq!(stub.calls.load(Ordering::Relaxed), 3, "{what}: batch door");

    let stats = pep.stats();
    assert_eq!(stats.token_rejects, 3, "{what}: every grant is a reject");
    assert_eq!(stats.token_hits, 0, "{what}");
    assert_eq!(stats.tokens_minted, 3, "{what}");
    let store = pep.token_cache_stats().expect("fast path enabled");
    assert_eq!(store.hits, 0, "{what}: something was stored");
    let authority = stub.authority.stats();
    assert_eq!((authority.verified, authority.rejected), (0, 3), "{what}");
    authority
}

#[test]
fn no_tampered_token_is_admitted() {
    assert_refused("subject swapped", |a| {
        tamper::with_subject(&good(a), "eve@d")
    });
    assert_refused("resource swapped", |a| {
        tamper::with_resource(&good(a), "records/2")
    });
    assert_refused("action swapped", |a| tamper::with_action(&good(a), "write"));
    // These two pass every check but the MAC: same triple, inside the
    // window, at the current epoch.
    assert_refused("lease extended", |a| {
        tamper::with_expiry(&good(a), u64::MAX)
    });
    assert_refused("restamped to the current epoch", |a| {
        let stale = a.mint_at_epoch(TRIPLE.0, TRIPLE.1, TRIPLE.2, NOW, a.current_epoch().next());
        tamper::with_epoch(&stale, a.current_epoch())
    });
    assert_refused("MAC forged", |a| tamper::with_forged_mac(&good(a), 0xAA));
    assert_refused("MAC bit flipped", |a| tamper::flip_mac_bit(&good(a), 17));
    // A wire-level flip inside `issued_at_ms` still decodes — and moves
    // the issue instant *earlier*, so only the MAC refuses it.
    assert_refused("wire bit flipped", |a| {
        let mut wire = good(a).to_bytes();
        let issued_at = wire.len() - 32 - 24;
        tamper::flip_bit(&mut wire, issued_at * 8);
        let decoded = CapabilityToken::from_bytes(&wire).expect("an integer bit still decodes");
        assert!(decoded.issued_at_ms < NOW);
        decoded
    });
    // A truncated token never gets as far as a PEP: it does not decode.
    let wire = good(&authority(7)).to_bytes();
    assert!(CapabilityToken::from_bytes(&tamper::truncated(&wire, 1)).is_err());
}

#[test]
fn no_token_for_another_request_key_or_time_is_admitted() {
    assert_refused("another request's triple", |a| {
        a.mint("bob@d", "records/2", "read", NOW)
    });
    assert_refused("another key", |_| good(&authority(8)));
    assert_refused("expired", |a| {
        a.mint(TRIPLE.0, TRIPLE.1, TRIPLE.2, NOW - TTL)
    });
    assert_refused("not yet valid", |a| {
        a.mint(TRIPLE.0, TRIPLE.1, TRIPLE.2, NOW + 1)
    });
}

/// A push that lands between the source's epoch capture and its return
/// leaves the token born stale: refused at the door, counted as a
/// revocation.
#[test]
fn a_born_stale_token_is_refused_at_admission() {
    let stats = assert_refused("born stale", |a| {
        let captured = a.current_epoch();
        a.advance_epoch(captured.next());
        a.mint_at_epoch(TRIPLE.0, TRIPLE.1, TRIPLE.2, NOW, captured)
    });
    assert_eq!(stats.rejected_stale_epoch, 3);
}

/// The positive leg: a good token is admitted once (not a verified
/// *use*), each later serve is one recheck, and `advance_epoch` between
/// two serves sends the second back to the source — zero-tick
/// revocation at the PEP.
#[test]
fn a_good_token_is_admitted_once_rechecked_per_use_and_revoked_by_an_epoch_bump() {
    const HITS: u64 = 5;
    let (pep, stub) = pep_granting(good);
    let request = RequestContext::basic(TRIPLE.0, TRIPLE.1, TRIPLE.2);
    let serve = || assert!(pep.serve(EnforceRequest::of(&request, NOW)).allowed);

    serve();
    assert_eq!(stub.authority.stats().verified, 0, "admission is not a use");
    for _ in 0..HITS {
        serve();
    }
    assert_eq!(stub.calls.load(Ordering::Relaxed), 1, "admitted once");
    assert_eq!(stub.authority.stats().verified, HITS);
    assert_eq!(pep.stats().token_hits, HITS);
    assert_eq!(pep.stats().token_rejects, 0);

    stub.authority
        .advance_epoch(stub.authority.current_epoch().next());
    serve();
    assert_eq!(
        stub.calls.load(Ordering::Relaxed),
        2,
        "revoked: back to the source"
    );
    let authority = stub.authority.stats();
    assert_eq!(authority.rejected_stale_epoch, 1);
    assert_eq!(authority.verified, HITS);
    assert_eq!(pep.stats().token_rejects, 1);
    // The fresh grant, minted at the new epoch, is admitted in turn.
    serve();
    assert_eq!(stub.calls.load(Ordering::Relaxed), 2);
    assert_eq!(pep.stats().token_hits, HITS + 1);
}
