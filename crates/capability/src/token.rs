//! The capability token itself: canonical signing bytes, wire codec,
//! and the deny-biased verification checks.

use dacs_crypto::hmac::{ct_eq, HmacSha256};
use dacs_pap::PolicyEpoch;
use rand::RngCore;

/// Length of the HMAC-SHA-256 tag carried by every token.
pub const MAC_LEN: usize = 32;

/// Wire-format version byte; verification rejects anything else.
pub(crate) const WIRE_VERSION: u8 = 1;

/// Domain-separation tag mixed into every MAC so capability tags can
/// never collide with other HMAC uses of the same key material.
const DOMAIN_TAG: &[u8] = b"dacs-capability-v1";

/// Symmetric capability-minting key, shared between the minting
/// authority and the enforcement points that verify its tokens.
#[derive(Clone)]
pub struct CapabilityKey {
    bytes: [u8; 32],
    /// HMAC context keyed once with `bytes`; every MAC clones it.
    keyed: HmacSha256,
}

impl CapabilityKey {
    /// Draws a fresh random key.
    pub fn generate<R: RngCore>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        Self::from_bytes(bytes)
    }

    /// Wraps existing key material (tests, key distribution).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        CapabilityKey {
            keyed: HmacSha256::new(&bytes),
            bytes,
        }
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }
}

impl std::fmt::Debug for CapabilityKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.write_str("CapabilityKey(..)")
    }
}

/// Why a token failed verification or decoding.
///
/// Every variant is a *rejection*: callers treat any error as "no
/// token" and fall back to the decision source (fail-safe).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenError {
    /// The wire bytes do not decode (truncated, trailing garbage, bad
    /// version, non-UTF-8 field).
    Malformed(&'static str),
    /// The MAC does not verify (forged, tampered, or wrong key).
    BadMac,
    /// The token binds a different subject than the request presents.
    SubjectMismatch,
    /// The token binds a different resource than the request names.
    ResourceMismatch,
    /// The token binds a different action than the request names.
    ActionMismatch,
    /// Presented before its issue instant.
    NotYetValid,
    /// Presented at or after its expiry instant.
    Expired,
    /// The token's policy epoch differs from the verifier's current
    /// epoch: the policy state it was minted under no longer holds.
    StaleEpoch {
        /// Epoch baked into the token at mint time.
        token: PolicyEpoch,
        /// The verifier's current epoch.
        current: PolicyEpoch,
    },
}

impl std::fmt::Display for TokenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenError::Malformed(what) => write!(f, "malformed token: {what}"),
            TokenError::BadMac => write!(f, "MAC verification failed"),
            TokenError::SubjectMismatch => write!(f, "token bound to a different subject"),
            TokenError::ResourceMismatch => write!(f, "token bound to a different resource"),
            TokenError::ActionMismatch => write!(f, "token bound to a different action"),
            TokenError::NotYetValid => write!(f, "token not yet valid"),
            TokenError::Expired => write!(f, "token expired"),
            TokenError::StaleEpoch { token, current } => {
                write!(f, "token minted at {token}, verifier at {current}")
            }
        }
    }
}

impl std::error::Error for TokenError {}

/// What can still go stale of a token whose MAC and binding verified:
/// its window and mint epoch. Only
/// [`CapabilityAuthority::admit`](crate::CapabilityAuthority::admit)
/// makes one, so holding it proves the full verification ran; each use
/// must pass [`CapabilityAuthority::recheck`](crate::CapabilityAuthority::recheck).
#[derive(Clone, Copy, Debug)]
pub struct Admitted {
    issued_at_ms: u64,
    expires_at_ms: u64,
    epoch: PolicyEpoch,
}

impl Admitted {
    /// The checks whose answer changes with time — window, then strict
    /// epoch equality — for [`CapabilityToken::verify`] and recheck alike.
    pub(crate) fn check(&self, now_ms: u64, current_epoch: PolicyEpoch) -> Result<(), TokenError> {
        if now_ms < self.issued_at_ms {
            return Err(TokenError::NotYetValid);
        }
        if now_ms >= self.expires_at_ms {
            return Err(TokenError::Expired);
        }
        if self.epoch != current_epoch {
            return Err(TokenError::StaleEpoch {
                token: self.epoch,
                current: current_epoch,
            });
        }
        Ok(())
    }
}

/// A short-lived, HMAC-signed grant of one (subject, resource, action)
/// triple, valid for `[issued_at_ms, expires_at_ms)` under one policy
/// epoch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CapabilityToken {
    /// The subject the grant is bound to.
    pub subject: String,
    /// The resource the grant is bound to.
    pub resource: String,
    /// The action the grant is bound to.
    pub action: String,
    /// Mint instant (simulation milliseconds), inclusive.
    pub issued_at_ms: u64,
    /// Expiry instant, exclusive.
    pub expires_at_ms: u64,
    /// The policy epoch the minting decision was made under.
    pub epoch: PolicyEpoch,
    /// HMAC-SHA-256 over [`CapabilityToken::signing_bytes`].
    pub mac: [u8; MAC_LEN],
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, TokenError> {
    let end = at
        .checked_add(4)
        .filter(|&e| e <= bytes.len())
        .ok_or(TokenError::Malformed("truncated length"))?;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u32::from_le_bytes(buf))
}

fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, TokenError> {
    let end = at
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or(TokenError::Malformed("truncated integer"))?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(u64::from_le_bytes(buf))
}

fn take_str(bytes: &[u8], at: &mut usize) -> Result<String, TokenError> {
    let len = take_u32(bytes, at)? as usize;
    let end = at
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or(TokenError::Malformed("truncated field"))?;
    let s = std::str::from_utf8(&bytes[*at..end])
        .map_err(|_| TokenError::Malformed("non-UTF-8 field"))?;
    *at = end;
    Ok(s.to_owned())
}

impl CapabilityToken {
    /// Mints a token: computes the MAC over the canonical signing bytes
    /// of the given grant.
    pub fn mint(
        key: &CapabilityKey,
        subject: impl Into<String>,
        resource: impl Into<String>,
        action: impl Into<String>,
        issued_at_ms: u64,
        ttl_ms: u64,
        epoch: PolicyEpoch,
    ) -> Self {
        let mut token = CapabilityToken {
            subject: subject.into(),
            resource: resource.into(),
            action: action.into(),
            issued_at_ms,
            expires_at_ms: issued_at_ms.saturating_add(ttl_ms),
            epoch,
            mac: [0u8; MAC_LEN],
        };
        token.mac = token.mac_under(key);
        token
    }

    /// `HMAC(key, signing_bytes())`, streamed field by field into a
    /// clone of the key's context instead of through a buffer.
    fn mac_under(&self, key: &CapabilityKey) -> [u8; MAC_LEN] {
        let mut mac = key.keyed.clone();
        mac.update(DOMAIN_TAG);
        for field in [&self.subject, &self.resource, &self.action] {
            mac.update(&(field.len() as u32).to_le_bytes());
            mac.update(field.as_bytes());
        }
        for n in [self.issued_at_ms, self.expires_at_ms, self.epoch.0] {
            mac.update(&n.to_le_bytes());
        }
        mac.finalize()
    }

    /// The time-dependent remainder of this token.
    pub(crate) fn admitted(&self) -> Admitted {
        Admitted {
            issued_at_ms: self.issued_at_ms,
            expires_at_ms: self.expires_at_ms,
            epoch: self.epoch,
        }
    }

    /// The canonical byte string the MAC covers: a domain-separation
    /// tag, then every field length-prefixed so no two distinct grants
    /// can serialize identically (`"ab" + "c"` vs `"a" + "bc"`).
    pub fn signing_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            DOMAIN_TAG.len()
                + 12
                + self.subject.len()
                + self.resource.len()
                + self.action.len()
                + 24,
        );
        out.extend_from_slice(DOMAIN_TAG);
        push_str(&mut out, &self.subject);
        push_str(&mut out, &self.resource);
        push_str(&mut out, &self.action);
        out.extend_from_slice(&self.issued_at_ms.to_le_bytes());
        out.extend_from_slice(&self.expires_at_ms.to_le_bytes());
        out.extend_from_slice(&self.epoch.0.to_le_bytes());
        out
    }

    /// Serializes for the wire: version byte, payload fields, MAC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(WIRE_VERSION);
        push_str(&mut out, &self.subject);
        push_str(&mut out, &self.resource);
        push_str(&mut out, &self.action);
        out.extend_from_slice(&self.issued_at_ms.to_le_bytes());
        out.extend_from_slice(&self.expires_at_ms.to_le_bytes());
        out.extend_from_slice(&self.epoch.0.to_le_bytes());
        out.extend_from_slice(&self.mac);
        out
    }

    /// Decodes wire bytes. Rejects unknown versions, truncation and
    /// trailing bytes — a token either parses exactly or not at all.
    ///
    /// # Errors
    ///
    /// [`TokenError::Malformed`] naming the first structural defect.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TokenError> {
        let mut at = match bytes.first() {
            Some(&WIRE_VERSION) => 1usize,
            Some(_) => return Err(TokenError::Malformed("unknown version")),
            None => return Err(TokenError::Malformed("empty")),
        };
        let subject = take_str(bytes, &mut at)?;
        let resource = take_str(bytes, &mut at)?;
        let action = take_str(bytes, &mut at)?;
        let issued_at_ms = take_u64(bytes, &mut at)?;
        let expires_at_ms = take_u64(bytes, &mut at)?;
        let epoch = PolicyEpoch(take_u64(bytes, &mut at)?);
        if bytes.len() != at + MAC_LEN {
            return Err(TokenError::Malformed("bad MAC length"));
        }
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&bytes[at..]);
        Ok(CapabilityToken {
            subject,
            resource,
            action,
            issued_at_ms,
            expires_at_ms,
            epoch,
            mac,
        })
    }

    /// Full verification against a presented request: MAC first (in
    /// constant time), then subject/resource/action binding, then the
    /// validity window, then epoch equality. The first failing check
    /// wins; any error means "fall back to the decision source".
    ///
    /// Epoch equality is deliberately strict — a token from a *newer*
    /// epoch than the verifier knows is just as untrustworthy as a
    /// stale one (the verifier cannot know what that policy state
    /// permits).
    ///
    /// # Errors
    ///
    /// The first failing check, in the order above.
    pub fn verify(
        &self,
        key: &CapabilityKey,
        subject: &str,
        resource: &str,
        action: &str,
        now_ms: u64,
        current_epoch: PolicyEpoch,
    ) -> Result<(), TokenError> {
        if !ct_eq(&self.mac_under(key), &self.mac) {
            return Err(TokenError::BadMac);
        }
        if self.subject != subject {
            return Err(TokenError::SubjectMismatch);
        }
        if self.resource != resource {
            return Err(TokenError::ResourceMismatch);
        }
        if self.action != action {
            return Err(TokenError::ActionMismatch);
        }
        self.admitted().check(now_ms, current_epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key() -> CapabilityKey {
        CapabilityKey::generate(&mut StdRng::seed_from_u64(42))
    }

    fn token(k: &CapabilityKey) -> CapabilityToken {
        CapabilityToken::mint(k, "alice@a", "records/1", "read", 100, 1000, PolicyEpoch(3))
    }

    #[test]
    fn mint_verify_roundtrip() {
        let k = key();
        let t = token(&k);
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 500, PolicyEpoch(3)),
            Ok(())
        );
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let k = key();
        let t = token(&k);
        let bytes = t.to_bytes();
        assert_eq!(CapabilityToken::from_bytes(&bytes).unwrap(), t);
        // Trailing garbage is rejected, not ignored.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            CapabilityToken::from_bytes(&extended),
            Err(TokenError::Malformed(_))
        ));
        // Every truncation point fails to parse.
        for cut in 0..bytes.len() {
            assert!(
                CapabilityToken::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn unknown_version_rejected() {
        let k = key();
        let mut bytes = token(&k).to_bytes();
        bytes[0] = 2;
        assert_eq!(
            CapabilityToken::from_bytes(&bytes),
            Err(TokenError::Malformed("unknown version"))
        );
    }

    #[test]
    fn field_ambiguity_is_impossible() {
        // "ab"+"c" and "a"+"bc" must MAC differently despite equal
        // concatenation — the length prefixes separate them.
        let k = key();
        let t1 = CapabilityToken::mint(&k, "ab", "c", "x", 0, 10, PolicyEpoch(0));
        let t2 = CapabilityToken::mint(&k, "a", "bc", "x", 0, 10, PolicyEpoch(0));
        assert_ne!(t1.mac, t2.mac);
    }

    #[test]
    fn every_check_fires() {
        let k = key();
        let t = token(&k);
        let e = PolicyEpoch(3);
        let wrong = CapabilityKey::from_bytes([7u8; 32]);
        assert_eq!(
            t.verify(&wrong, "alice@a", "records/1", "read", 500, e),
            Err(TokenError::BadMac)
        );
        assert_eq!(
            t.verify(&k, "eve@a", "records/1", "read", 500, e),
            Err(TokenError::SubjectMismatch)
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/2", "read", 500, e),
            Err(TokenError::ResourceMismatch)
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "write", 500, e),
            Err(TokenError::ActionMismatch)
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 99, e),
            Err(TokenError::NotYetValid)
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 1100, e),
            Err(TokenError::Expired)
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 500, PolicyEpoch(4)),
            Err(TokenError::StaleEpoch {
                token: PolicyEpoch(3),
                current: PolicyEpoch(4)
            })
        );
        // Expiry is exclusive: the expiry instant itself is too late.
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 1100, e),
            Err(TokenError::Expired)
        );
    }

    /// One token's MAC and wire bytes, written down from the scalar
    /// SHA-256: whichever compression function the host runs, a token
    /// minted by an earlier build still verifies.
    #[test]
    fn a_fixed_token_is_pinned() {
        let k = CapabilityKey::from_bytes(*b"dacs-capability-pinned-token-key");
        let t = token(&k);
        assert_eq!(
            dacs_crypto::hex::encode(&t.mac),
            "f67519675b4beebe862ecd4d27ae63dffa612070f7599cd8030d2467cb0bacd5"
        );
        assert_eq!(
            dacs_crypto::hex::encode(&t.to_bytes()),
            "0107000000616c6963654061090000007265636f7264732f310400000072656164\
             64000000000000004c040000000000000300000000000000\
             f67519675b4beebe862ecd4d27ae63dffa612070f7599cd8030d2467cb0bacd5"
        );
        assert_eq!(
            t.verify(&k, "alice@a", "records/1", "read", 500, PolicyEpoch(3)),
            Ok(())
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = TokenError::StaleEpoch {
            token: PolicyEpoch(2),
            current: PolicyEpoch(5),
        };
        assert!(e.to_string().contains("epoch:2"));
        assert!(e.to_string().contains("epoch:5"));
        assert!(format!("{:?}", key()).contains(".."));
    }
}
