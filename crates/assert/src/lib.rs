//! # dacs-assert
//!
//! SAML-like security assertions — the credential substrate of the
//! capability-issuing (push) architecture (Fig. 2 of the DSN 2008
//! paper) and of cross-domain attribute exchange.
//!
//! [`Assertion`] / [`SignedAssertion`] carry structured statements
//! (attributes, authorization decisions, capabilities) with validity
//! conditions and audience restriction, signed by an issuer (the SAML
//! analogue, as used by CAS).
//!
//! Verification is fail-safe: any defect (signature, window, audience)
//! yields an error the PEP maps to deny.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dacs_crypto::sign::{CryptoCtx, PublicKey, SignError, Signature, SigningKey};
use dacs_policy::attr::AttrValue;
use dacs_policy::glob::glob_match;
use dacs_policy::policy::Decision;
use serde::{Deserialize, Serialize};

/// Validity conditions of an assertion (SAML `<Conditions>`).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Conditions {
    /// Valid from (inclusive), simulation milliseconds.
    pub not_before: u64,
    /// Valid until (exclusive).
    pub not_on_or_after: u64,
    /// If set, only this audience (e.g. a domain) may accept the
    /// assertion.
    pub audience: Option<String>,
}

impl Conditions {
    /// A window starting at `now` lasting `ttl_ms`, unrestricted
    /// audience.
    pub fn window(now: u64, ttl_ms: u64) -> Self {
        Conditions {
            not_before: now,
            not_on_or_after: now + ttl_ms,
            audience: None,
        }
    }

    /// Restricts the audience (builder style).
    pub fn for_audience(mut self, audience: impl Into<String>) -> Self {
        self.audience = Some(audience.into());
        self
    }
}

/// A statement carried inside an assertion.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Statement {
    /// Attribute statement: name/value pairs about the subject.
    Attributes(Vec<(String, AttrValue)>),
    /// An authorization decision made by the issuer for one specific
    /// resource/action pair (SAML AuthzDecisionStatement).
    AuthzDecision {
        /// The resource decided on.
        resource: String,
        /// The action decided on.
        action: String,
        /// The decision.
        decision: Decision,
    },
    /// A capability: the holder may perform `actions` on resources
    /// matching `resource_pattern` (CAS-style pre-screening, Fig. 2).
    Capability {
        /// Glob pattern over resource identifiers.
        resource_pattern: String,
        /// Permitted actions.
        actions: Vec<String>,
    },
}

/// An unsigned assertion body.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Assertion {
    /// Issuer-unique assertion id.
    pub id: u64,
    /// Issuing authority, e.g. `"cas.vo-cancer"`.
    pub issuer: String,
    /// The subject the statements are about.
    pub subject: String,
    /// Issue timestamp (simulation milliseconds).
    pub issued_at: u64,
    /// Validity conditions.
    pub conditions: Conditions,
    /// The statements.
    pub statements: Vec<Statement>,
}

impl Assertion {
    /// Canonical bytes covered by the issuer signature.
    pub fn to_canonical_bytes(&self) -> Vec<u8> {
        dacs_wire::codec::to_bytes(self).expect("assertions contain only sized data")
    }

    /// Compact wire size in bytes.
    pub fn wire_len(&self) -> usize {
        self.to_canonical_bytes().len()
    }
}

/// Why assertion acceptance failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AssertError {
    /// Signature did not verify against the issuer key.
    BadSignature,
    /// `now` is before the validity window.
    NotYetValid,
    /// `now` is at or past the end of the validity window.
    Expired,
    /// The verifier is not in the assertion's audience.
    AudienceMismatch {
        /// The audience the assertion was issued for.
        expected: String,
    },
    /// The assertion does not contain a capability covering the request.
    CapabilityInsufficient {
        /// The resource requested.
        resource: String,
        /// The action requested.
        action: String,
    },
    /// The assertion subject does not match the requester.
    SubjectMismatch {
        /// Subject named in the assertion.
        asserted: String,
    },
}

impl std::fmt::Display for AssertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssertError::BadSignature => write!(f, "assertion signature invalid"),
            AssertError::NotYetValid => write!(f, "assertion not yet valid"),
            AssertError::Expired => write!(f, "assertion expired"),
            AssertError::AudienceMismatch { expected } => {
                write!(f, "assertion audience is {expected}")
            }
            AssertError::CapabilityInsufficient { resource, action } => {
                write!(f, "no capability for {action} on {resource}")
            }
            AssertError::SubjectMismatch { asserted } => {
                write!(f, "assertion subject is {asserted}")
            }
        }
    }
}

impl std::error::Error for AssertError {}

/// A signed assertion as transported in message headers.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SignedAssertion {
    /// The assertion body.
    pub assertion: Assertion,
    /// Issuer signature over [`Assertion::to_canonical_bytes`].
    pub signature: Signature,
}

impl SignedAssertion {
    /// Signs an assertion with the issuer's key.
    ///
    /// # Errors
    ///
    /// [`SignError`] if the key is exhausted.
    pub fn sign(assertion: Assertion, issuer_key: &SigningKey) -> Result<Self, SignError> {
        let signature = issuer_key.sign(&assertion.to_canonical_bytes())?;
        Ok(SignedAssertion {
            assertion,
            signature,
        })
    }

    /// Verifies issuer signature and validity conditions.
    ///
    /// `audience` is the verifying party's identity (e.g. its domain
    /// name); assertions restricted to a different audience are
    /// rejected.
    ///
    /// # Errors
    ///
    /// The first [`AssertError`] encountered.
    pub fn verify(
        &self,
        ctx: &CryptoCtx,
        issuer_key: &PublicKey,
        now: u64,
        audience: Option<&str>,
    ) -> Result<(), AssertError> {
        if !ctx.verify(
            issuer_key,
            &self.assertion.to_canonical_bytes(),
            &self.signature,
        ) {
            return Err(AssertError::BadSignature);
        }
        let c = &self.assertion.conditions;
        if now < c.not_before {
            return Err(AssertError::NotYetValid);
        }
        if now >= c.not_on_or_after {
            return Err(AssertError::Expired);
        }
        if let Some(expected) = &c.audience {
            if audience != Some(expected.as_str()) {
                return Err(AssertError::AudienceMismatch {
                    expected: expected.clone(),
                });
            }
        }
        Ok(())
    }

    /// Checks that the assertion's subject matches and that some
    /// capability statement covers `(resource, action)`.
    ///
    /// # Errors
    ///
    /// [`AssertError::SubjectMismatch`] or
    /// [`AssertError::CapabilityInsufficient`].
    pub fn check_capability(
        &self,
        subject: &str,
        resource: &str,
        action: &str,
    ) -> Result<(), AssertError> {
        if self.assertion.subject != subject {
            return Err(AssertError::SubjectMismatch {
                asserted: self.assertion.subject.clone(),
            });
        }
        let covered = self.assertion.statements.iter().any(|s| match s {
            Statement::Capability {
                resource_pattern,
                actions,
            } => actions.iter().any(|a| a == action) && glob_match(resource_pattern, resource),
            Statement::AuthzDecision {
                resource: r,
                action: a,
                decision,
            } => r == resource && a == action && *decision == Decision::Permit,
            Statement::Attributes(_) => false,
        });
        if covered {
            Ok(())
        } else {
            Err(AssertError::CapabilityInsufficient {
                resource: resource.to_owned(),
                action: action.to_owned(),
            })
        }
    }

    /// Total wire size (assertion + signature), compact encoding.
    pub fn wire_len(&self) -> usize {
        self.assertion.wire_len() + self.signature.byte_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Issuer {
        ctx: CryptoCtx,
        key: SigningKey,
    }

    fn issuer(seed: u64) -> Issuer {
        let ctx = CryptoCtx::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let key = SigningKey::generate_sim(ctx.registry(), &mut rng);
        Issuer { ctx, key }
    }

    fn capability_assertion(now: u64, ttl: u64) -> Assertion {
        Assertion {
            id: 1,
            issuer: "cas.vo".into(),
            subject: "alice".into(),
            issued_at: now,
            conditions: Conditions::window(now, ttl).for_audience("hospital-b"),
            statements: vec![
                Statement::Capability {
                    resource_pattern: "ehr/records/*".into(),
                    actions: vec!["read".into(), "list".into()],
                },
                Statement::Attributes(vec![("role".into(), AttrValue::from("doctor"))]),
            ],
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let i = issuer(1);
        let sa = SignedAssertion::sign(capability_assertion(1000, 60_000), &i.key).unwrap();
        let pk = i.key.public_key();
        assert_eq!(sa.verify(&i.ctx, &pk, 2000, Some("hospital-b")), Ok(()));
    }

    #[test]
    fn expiry_and_not_before() {
        let i = issuer(2);
        let sa = SignedAssertion::sign(capability_assertion(1000, 60_000), &i.key).unwrap();
        let pk = i.key.public_key();
        assert_eq!(
            sa.verify(&i.ctx, &pk, 500, Some("hospital-b")),
            Err(AssertError::NotYetValid)
        );
        assert_eq!(
            sa.verify(&i.ctx, &pk, 61_000, Some("hospital-b")),
            Err(AssertError::Expired)
        );
    }

    #[test]
    fn audience_restriction() {
        let i = issuer(3);
        let sa = SignedAssertion::sign(capability_assertion(0, 1000), &i.key).unwrap();
        let pk = i.key.public_key();
        assert_eq!(
            sa.verify(&i.ctx, &pk, 10, Some("hospital-c")),
            Err(AssertError::AudienceMismatch {
                expected: "hospital-b".into()
            })
        );
        assert_eq!(
            sa.verify(&i.ctx, &pk, 10, None),
            Err(AssertError::AudienceMismatch {
                expected: "hospital-b".into()
            })
        );
    }

    #[test]
    fn tampered_assertion_rejected() {
        let i = issuer(4);
        let mut sa = SignedAssertion::sign(capability_assertion(0, 1000), &i.key).unwrap();
        sa.assertion.subject = "mallory".into();
        assert_eq!(
            sa.verify(&i.ctx, &i.key.public_key(), 10, Some("hospital-b")),
            Err(AssertError::BadSignature)
        );
    }

    #[test]
    fn capability_coverage() {
        let i = issuer(5);
        let sa = SignedAssertion::sign(capability_assertion(0, 1000), &i.key).unwrap();
        assert_eq!(
            sa.check_capability("alice", "ehr/records/42", "read"),
            Ok(())
        );
        assert!(matches!(
            sa.check_capability("alice", "ehr/records/42", "write"),
            Err(AssertError::CapabilityInsufficient { .. })
        ));
        assert!(matches!(
            sa.check_capability("alice", "lab/1", "read"),
            Err(AssertError::CapabilityInsufficient { .. })
        ));
        assert_eq!(
            sa.check_capability("mallory", "ehr/records/42", "read"),
            Err(AssertError::SubjectMismatch {
                asserted: "alice".into()
            })
        );
    }

    #[test]
    fn authz_decision_statement_counts_as_capability() {
        let i = issuer(6);
        let a = Assertion {
            id: 2,
            issuer: "pdp.a".into(),
            subject: "bob".into(),
            issued_at: 0,
            conditions: Conditions::window(0, 1000),
            statements: vec![Statement::AuthzDecision {
                resource: "doc/1".into(),
                action: "read".into(),
                decision: Decision::Permit,
            }],
        };
        let sa = SignedAssertion::sign(a, &i.key).unwrap();
        assert_eq!(sa.check_capability("bob", "doc/1", "read"), Ok(()));
        assert!(sa.check_capability("bob", "doc/2", "read").is_err());
    }

    #[test]
    fn xml_encoding_is_larger() {
        let a = capability_assertion(0, 1000);
        let xml_len = dacs_wire::xmlish::encoded_len(&a).unwrap();
        assert!(xml_len > 2 * a.wire_len());
    }

    #[test]
    fn signed_assertion_codec_roundtrip() {
        let i = issuer(10);
        let sa = SignedAssertion::sign(capability_assertion(0, 1000), &i.key).unwrap();
        let bytes = dacs_wire::codec::to_bytes(&sa).unwrap();
        let back: SignedAssertion = dacs_wire::codec::from_bytes(&bytes).unwrap();
        assert_eq!(sa, back);
    }
}
