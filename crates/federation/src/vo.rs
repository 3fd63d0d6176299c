//! Virtual organisations (§2.1, Fig. 1): a set of autonomous domains
//! collaborating under shared infrastructure — a capability service
//! (CAS analogue), scoped trust relationships, and VO-level
//! meta-policies (Chinese Wall conflict-of-interest classes, Brewer &
//! Nash, as §3.1 prescribes for cross-domain conflicts).

use crate::domain::Domain;
use dacs_assert::{Assertion, Conditions, SignedAssertion, Statement};
use dacs_crypto::sign::{CryptoCtx, PublicKey, SigningKey};
use dacs_pap::Pap;
use dacs_pdp::Pdp;
use dacs_pip::PipRegistry;
use dacs_policy::policy::{Decision, Policy, PolicyElement, PolicyId};
use dacs_policy::request::RequestContext;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The VO's capability service: pre-screens capability requests against
/// a VO-wide policy and issues signed capability assertions (Fig. 2).
pub struct CapabilityService {
    /// Service name, e.g. `"cas.vo-cancer"`.
    pub name: String,
    key: Arc<SigningKey>,
    prescreen: Arc<Pdp>,
    default_ttl_ms: u64,
    next_id: Mutex<u64>,
    issued: Mutex<u64>,
    refused: Mutex<u64>,
}

impl CapabilityService {
    /// Creates a capability service with a pre-screening policy.
    pub fn new(
        name: impl Into<String>,
        ctx: &CryptoCtx,
        prescreen_policy: Policy,
        default_ttl_ms: u64,
        seed: u64,
    ) -> Self {
        let name = name.into();
        let pap = Arc::new(Pap::new(format!("pap.{name}")));
        let policy_id = PolicyId::new(prescreen_policy.id.as_str());
        pap.submit("vo-bootstrap", prescreen_policy, 0)
            .expect("bootstrap submission cannot be denied");
        let prescreen = Arc::new(Pdp::new(
            format!("pdp.{name}"),
            pap,
            PolicyElement::PolicyRef(policy_id),
            Arc::new(PipRegistry::new()),
        ));
        let mut rng = StdRng::seed_from_u64(seed);
        CapabilityService {
            name,
            key: Arc::new(SigningKey::generate_sim(ctx.registry(), &mut rng)),
            prescreen,
            default_ttl_ms,
            next_id: Mutex::new(0),
            issued: Mutex::new(0),
            refused: Mutex::new(0),
        }
    }

    /// The service's verification key (PEPs register it as a trusted
    /// issuer).
    pub fn public_key(&self) -> PublicKey {
        self.key.public_key()
    }

    /// Handles a capability request: every requested action must be
    /// permitted by the pre-screening policy for the requested scope.
    pub fn issue(
        &self,
        subject: &str,
        resource_pattern: &str,
        actions: &[String],
        audience: &str,
        now_ms: u64,
    ) -> Option<SignedAssertion> {
        if actions.is_empty() {
            *self.refused.lock() += 1;
            return None;
        }
        for action in actions {
            let request = RequestContext::basic(subject, resource_pattern, action.as_str());
            if self.prescreen.decide(&request, now_ms).decision != Decision::Permit {
                *self.refused.lock() += 1;
                return None;
            }
        }
        let mut id = self.next_id.lock();
        *id += 1;
        let assertion = Assertion {
            id: *id,
            issuer: self.name.clone(),
            subject: subject.to_owned(),
            issued_at: now_ms,
            conditions: Conditions::window(now_ms, self.default_ttl_ms).for_audience(audience),
            statements: vec![Statement::Capability {
                resource_pattern: resource_pattern.to_owned(),
                actions: actions.to_vec(),
            }],
        };
        drop(id);
        match SignedAssertion::sign(assertion, &self.key) {
            Ok(signed) => {
                *self.issued.lock() += 1;
                Some(signed)
            }
            Err(_) => {
                *self.refused.lock() += 1;
                None
            }
        }
    }

    /// (issued, refused) counters.
    pub fn counters(&self) -> (u64, u64) {
        (*self.issued.lock(), *self.refused.lock())
    }
}

/// A Chinese Wall conflict-of-interest class over domains: once a
/// subject has accessed resources in one member domain, access to the
/// other members is denied (Brewer & Nash, applied VO-wide per §3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConflictClass {
    /// Class name, e.g. `"competing-pharma"`.
    pub name: String,
    /// The mutually conflicting domains.
    pub domains: BTreeSet<String>,
}

/// A virtual organisation: domains plus VO-level infrastructure.
pub struct Vo {
    /// VO name.
    pub name: String,
    /// Shared crypto context (PKI registry).
    pub ctx: CryptoCtx,
    /// Member domains.
    pub domains: Vec<Domain>,
    /// The VO capability service, if configured.
    pub cas: Option<CapabilityService>,
    conflict_classes: Vec<ConflictClass>,
    /// subject → domains whose resources the subject has accessed.
    access_history: Mutex<HashMap<String, BTreeSet<String>>>,
}

impl Vo {
    /// Creates a VO from domains.
    pub fn new(name: impl Into<String>, ctx: CryptoCtx, domains: Vec<Domain>) -> Self {
        Vo {
            name: name.into(),
            ctx,
            domains,
            cas: None,
            conflict_classes: Vec::new(),
            access_history: Mutex::new(HashMap::new()),
        }
    }

    /// Installs the capability service (PEPs must separately trust it;
    /// see [`crate::flows`] helpers).
    pub fn with_cas(mut self, cas: CapabilityService) -> Self {
        self.cas = Some(cas);
        self
    }

    /// Registers a Chinese Wall conflict class.
    pub fn add_conflict_class(&mut self, class: ConflictClass) {
        self.conflict_classes.push(class);
    }

    /// Finds a member domain by name.
    pub fn domain(&self, name: &str) -> Option<&Domain> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Index of a member domain.
    pub(crate) fn domain_index(&self, name: &str) -> Option<usize> {
        self.domains.iter().position(|d| d.name == name)
    }

    /// Chinese Wall check: may `subject` access resources of
    /// `target_domain` given its access history?
    pub(crate) fn wall_permits(&self, subject: &str, target_domain: &str) -> bool {
        let history = self.access_history.lock();
        let Some(visited) = history.get(subject) else {
            return true;
        };
        for class in &self.conflict_classes {
            if class.domains.contains(target_domain) {
                // Inside this class, the subject may only ever touch one
                // member.
                let touched_other = visited
                    .iter()
                    .any(|d| d != target_domain && class.domains.contains(d));
                if touched_other {
                    return false;
                }
            }
        }
        true
    }

    /// Records a successful access for Chinese Wall purposes.
    pub(crate) fn record_access(&self, subject: &str, domain: &str) {
        self.access_history
            .lock()
            .entry(subject.to_owned())
            .or_default()
            .insert(domain.to_owned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Vo {
        /// Access history snapshot for a subject.
        fn history_of(&self, subject: &str) -> BTreeSet<String> {
            self.access_history
                .lock()
                .get(subject)
                .cloned()
                .unwrap_or_default()
        }
    }

    fn simple_domain(ctx: &CryptoCtx, name: &str) -> Domain {
        Domain::builder(name)
            .policy_dsl(
                r#"
policy "open" deny-unless-permit {
  rule "reads" permit { target { action "id" == "read"; } }
}
"#,
            )
            .build(ctx)
    }

    #[test]
    fn chinese_wall_blocks_second_domain_in_class() {
        let ctx = CryptoCtx::new();
        let mut vo = Vo::new(
            "vo",
            ctx.clone(),
            vec![
                simple_domain(&ctx, "pharma-a"),
                simple_domain(&ctx, "pharma-b"),
                simple_domain(&ctx, "university"),
            ],
        );
        vo.add_conflict_class(ConflictClass {
            name: "competing-pharma".into(),
            domains: ["pharma-a".to_string(), "pharma-b".to_string()]
                .into_iter()
                .collect(),
        });
        assert!(vo.wall_permits("eve@university", "pharma-a"));
        vo.record_access("eve@university", "pharma-a");
        // Same domain again: fine. Competitor: blocked. Outside: fine.
        assert!(vo.wall_permits("eve@university", "pharma-a"));
        assert!(!vo.wall_permits("eve@university", "pharma-b"));
        assert!(vo.wall_permits("eve@university", "university"));
        // Another subject is unaffected.
        assert!(vo.wall_permits("mallory@university", "pharma-b"));
        assert_eq!(vo.history_of("eve@university").len(), 1);
    }

    #[test]
    fn capability_service_prescreens() {
        let ctx = CryptoCtx::new();
        let prescreen = dacs_policy::dsl::parse_policy(
            r#"
policy "vo-prescreen" deny-unless-permit {
  rule "researchers-read-shared" permit {
    target {
      subject "id" ~= "*@university";
      resource "id" ~= "shared/*";
      action "id" == "read";
    }
  }
}
"#,
        )
        .unwrap();
        let cas = CapabilityService::new("cas.vo", &ctx, prescreen, 60_000, 42);
        // Permitted scope.
        let cap = cas.issue(
            "alice@university",
            "shared/datasets/*",
            &["read".to_string()],
            "pharma-a",
            100,
        );
        assert!(cap.is_some());
        let cap = cap.unwrap();
        assert_eq!(
            cap.verify(&ctx, &cas.public_key(), 200, Some("pharma-a")),
            Ok(())
        );
        assert_eq!(
            cap.check_capability("alice@university", "shared/datasets/genomes", "read"),
            Ok(())
        );
        // Refused: wrong subject domain.
        assert!(cas
            .issue("bob@pharma-b", "shared/*", &["read".to_string()], "x", 100)
            .is_none());
        // Refused: action outside policy.
        assert!(cas
            .issue(
                "alice@university",
                "shared/*",
                &["read".to_string(), "write".to_string()],
                "x",
                100
            )
            .is_none());
        // Refused: empty actions.
        assert!(cas
            .issue("alice@university", "shared/*", &[], "x", 100)
            .is_none());
        assert_eq!(cas.counters(), (1, 3));
    }

    #[test]
    fn domain_lookup() {
        let ctx = CryptoCtx::new();
        let vo = Vo::new(
            "vo",
            ctx.clone(),
            vec![simple_domain(&ctx, "a"), simple_domain(&ctx, "b")],
        );
        assert!(vo.domain("a").is_some());
        assert_eq!(vo.domain_index("b"), Some(1));
        assert!(vo.domain("zzz").is_none());
    }
}
