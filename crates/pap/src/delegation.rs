//! Cross-domain delegation of administrative authority (§3.2 "Access
//! Control Delegation"): decentralized administrative policies where
//! each authority decides how much of its policy-making power to
//! delegate, with depth limits, namespace narrowing, expiry and
//! cascading revocation.

use dacs_policy::glob::glob_match;
use std::collections::{HashMap, HashSet};

/// A single delegation grant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct Delegation {
    /// Unique grant id.
    pub id: u64,
    /// The delegating authority.
    pub delegator: String,
    /// The authority receiving power.
    pub delegatee: String,
    /// Glob over policy ids the delegatee may administer.
    pub namespace: String,
    /// How many further re-delegation steps are allowed below this
    /// grant (0 = delegatee may not re-delegate).
    pub remaining_depth: u32,
    /// Expiry (exclusive), simulation milliseconds.
    pub expires_at: u64,
    /// The grant under which the delegator itself holds power
    /// (`None` when the delegator is a root authority).
    pub parent: Option<u64>,
}

/// Why a delegation operation failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DelegationError {
    /// Delegator holds no valid authority over the namespace.
    NoAuthority {
        /// The would-be delegator.
        delegator: String,
    },
    /// Parent grant does not allow further re-delegation.
    DepthExhausted,
    /// Requested namespace is not a subset of the parent namespace.
    NamespaceEscalation {
        /// The parent namespace.
        parent: String,
        /// The requested namespace.
        requested: String,
    },
    /// Requested expiry exceeds the parent grant's expiry.
    ExpiryEscalation,
    /// Referenced grant does not exist.
    UnknownGrant(u64),
}

impl std::fmt::Display for DelegationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelegationError::NoAuthority { delegator } => {
                write!(f, "{delegator} holds no authority to delegate")
            }
            DelegationError::DepthExhausted => write!(f, "re-delegation depth exhausted"),
            DelegationError::NamespaceEscalation { parent, requested } => {
                write!(f, "namespace {requested} escapes parent scope {parent}")
            }
            DelegationError::ExpiryEscalation => {
                write!(f, "delegation outlives its parent grant")
            }
            DelegationError::UnknownGrant(id) => write!(f, "unknown grant {id}"),
        }
    }
}

impl std::error::Error for DelegationError {}

/// Conservative namespace-subset test on globs: `child ⊆ parent` when
/// the parent pattern matches the child pattern's literal prefix
/// rendering, or the patterns are equal.
fn namespace_within(child: &str, parent: &str) -> bool {
    if child == parent {
        return true;
    }
    // Exact-literal child against parent glob.
    if !child.contains('*') && !child.contains('?') {
        return glob_match(parent, child);
    }
    // `ehr/radiology/*` within `ehr/*`: parent prefix (up to `*`) must
    // prefix the child.
    if let Some(pp) = parent.strip_suffix('*') {
        return child.starts_with(pp);
    }
    false
}

/// Registry of delegation grants held by one scope (typically a VO).
#[derive(Debug, Default)]
pub struct DelegationRegistry {
    /// Root authorities: may grant without a parent.
    roots: HashSet<String>,
    grants: HashMap<u64, Delegation>,
    /// Children of each grant (for cascading revocation).
    children: HashMap<u64, Vec<u64>>,
    revoked: HashSet<u64>,
    next_id: u64,
}

impl DelegationRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a root authority (e.g. the domain owning a namespace).
    pub fn add_root(&mut self, authority: impl Into<String>) {
        self.roots.insert(authority.into());
    }

    /// Grants authority over `namespace` from `delegator` to
    /// `delegatee`.
    ///
    /// A root authority grants directly; a non-root must hold a valid
    /// (unrevoked, unexpired at `now`) grant covering the namespace with
    /// remaining depth.
    ///
    /// # Errors
    ///
    /// Any [`DelegationError`].
    #[allow(clippy::too_many_arguments)]
    pub fn grant(
        &mut self,
        delegator: &str,
        delegatee: &str,
        namespace: &str,
        depth: u32,
        expires_at: u64,
        now: u64,
    ) -> Result<u64, DelegationError> {
        let parent = if self.roots.contains(delegator) {
            None
        } else {
            // Find the strongest valid grant the delegator holds that
            // covers the namespace.
            let best = self
                .grants
                .values()
                .filter(|g| {
                    g.delegatee == delegator
                        && !self.is_revoked(g.id)
                        && now < g.expires_at
                        && namespace_within(namespace, &g.namespace)
                })
                .max_by_key(|g| g.remaining_depth);
            let Some(parent_grant) = best else {
                // Distinguish the failure for diagnostics.
                let held: Vec<&Delegation> = self
                    .grants
                    .values()
                    .filter(|g| {
                        g.delegatee == delegator && !self.is_revoked(g.id) && now < g.expires_at
                    })
                    .collect();
                if held.is_empty() {
                    return Err(DelegationError::NoAuthority {
                        delegator: delegator.to_owned(),
                    });
                }
                return Err(DelegationError::NamespaceEscalation {
                    parent: held
                        .iter()
                        .map(|g| g.namespace.clone())
                        .collect::<Vec<_>>()
                        .join(","),
                    requested: namespace.to_owned(),
                });
            };
            if parent_grant.remaining_depth == 0 {
                return Err(DelegationError::DepthExhausted);
            }
            if expires_at > parent_grant.expires_at {
                return Err(DelegationError::ExpiryEscalation);
            }
            if depth >= parent_grant.remaining_depth {
                return Err(DelegationError::DepthExhausted);
            }
            Some(parent_grant.id)
        };

        self.next_id += 1;
        let id = self.next_id;
        self.grants.insert(
            id,
            Delegation {
                id,
                delegator: delegator.to_owned(),
                delegatee: delegatee.to_owned(),
                namespace: namespace.to_owned(),
                remaining_depth: depth,
                expires_at,
                parent,
            },
        );
        if let Some(p) = parent {
            self.children.entry(p).or_default().push(id);
        }
        Ok(id)
    }

    /// Revokes a grant and, transitively, everything granted under it
    /// (the cascading revocation the paper notes is "complex" in
    /// decentralized administration). Returns the number of grants
    /// revoked.
    ///
    /// # Errors
    ///
    /// [`DelegationError::UnknownGrant`].
    pub fn revoke(&mut self, id: u64) -> Result<usize, DelegationError> {
        if !self.grants.contains_key(&id) {
            return Err(DelegationError::UnknownGrant(id));
        }
        let mut count = 0;
        let mut stack = vec![id];
        while let Some(g) = stack.pop() {
            if self.revoked.insert(g) {
                count += 1;
                if let Some(kids) = self.children.get(&g) {
                    stack.extend(kids.iter().copied());
                }
            }
        }
        Ok(count)
    }

    /// Whether a grant (by id) is revoked.
    pub(crate) fn is_revoked(&self, id: u64) -> bool {
        self.revoked.contains(&id)
    }

    /// Validates that `actor` currently holds authority over
    /// `policy_id`, returning the chain length to a root (0 = actor is
    /// itself a root).
    pub fn validate(&self, actor: &str, policy_id: &str, now: u64) -> Option<u32> {
        if self.roots.contains(actor) {
            return Some(0);
        }
        // Walk up from each grant the actor holds.
        let mut best: Option<u32> = None;
        for g in self.grants.values() {
            if g.delegatee != actor
                || self.is_revoked(g.id)
                || now >= g.expires_at
                || !glob_match(&g.namespace, policy_id)
            {
                continue;
            }
            if let Some(depth) = self.chain_to_root(g, now) {
                best = Some(best.map_or(depth, |b| b.min(depth)));
            }
        }
        best
    }

    fn chain_to_root(&self, grant: &Delegation, now: u64) -> Option<u32> {
        let mut depth = 1;
        let mut current = grant;
        loop {
            if self.is_revoked(current.id) || now >= current.expires_at {
                return None;
            }
            match current.parent {
                None => {
                    // Issued by a root authority.
                    return if self.roots.contains(&current.delegator) {
                        Some(depth)
                    } else {
                        None
                    };
                }
                Some(pid) => {
                    current = self.grants.get(&pid)?;
                    depth += 1;
                }
            }
        }
    }

    /// Number of grants ever issued (including revoked).
    pub fn len(&self) -> usize {
        self.grants.len()
    }

    /// Whether no grants were issued.
    pub fn is_empty(&self) -> bool {
        self.grants.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> DelegationRegistry {
        let mut r = DelegationRegistry::new();
        r.add_root("vo-authority");
        r
    }

    #[test]
    fn root_grants_and_validation() {
        let mut r = registry();
        assert_eq!(r.validate("vo-authority", "anything", 0), Some(0));
        let g = r
            .grant("vo-authority", "hospital-a", "ehr/*", 2, 1000, 0)
            .unwrap();
        assert_eq!(r.validate("hospital-a", "ehr/records/1", 10), Some(1));
        assert_eq!(r.validate("hospital-a", "lab/1", 10), None);
        assert!(!r.is_revoked(g));
    }

    #[test]
    fn re_delegation_narrows() {
        let mut r = registry();
        r.grant("vo-authority", "hospital-a", "ehr/*", 2, 1000, 0)
            .unwrap();
        // hospital-a re-delegates a narrower namespace.
        r.grant("hospital-a", "radiology-dept", "ehr/radiology/*", 1, 500, 0)
            .unwrap();
        assert_eq!(
            r.validate("radiology-dept", "ehr/radiology/scan-9", 10),
            Some(2)
        );
        assert_eq!(r.validate("radiology-dept", "ehr/oncology/1", 10), None);
    }

    #[test]
    fn namespace_escalation_rejected() {
        let mut r = registry();
        r.grant("vo-authority", "hospital-a", "ehr/*", 2, 1000, 0)
            .unwrap();
        let err = r
            .grant("hospital-a", "rogue", "lab/*", 0, 500, 0)
            .unwrap_err();
        assert!(matches!(err, DelegationError::NamespaceEscalation { .. }));
    }

    #[test]
    fn depth_limits_enforced() {
        let mut r = registry();
        r.grant("vo-authority", "a", "ns/*", 1, 1000, 0).unwrap();
        r.grant("a", "b", "ns/x/*", 0, 900, 0).unwrap();
        // b cannot re-delegate at all.
        assert_eq!(
            r.grant("b", "c", "ns/x/y/*", 0, 800, 0).unwrap_err(),
            DelegationError::DepthExhausted
        );
        // a cannot grant depth >= its remaining depth.
        assert_eq!(
            r.grant("a", "b2", "ns/z/*", 1, 900, 0).unwrap_err(),
            DelegationError::DepthExhausted
        );
    }

    #[test]
    fn expiry_escalation_rejected_and_expiry_respected() {
        let mut r = registry();
        r.grant("vo-authority", "a", "ns/*", 1, 100, 0).unwrap();
        assert_eq!(
            r.grant("a", "b", "ns/x", 0, 200, 0).unwrap_err(),
            DelegationError::ExpiryEscalation
        );
        r.grant("a", "b", "ns/x", 0, 90, 0).unwrap();
        assert_eq!(r.validate("b", "ns/x", 50), Some(2));
        // After parent expiry the whole chain dies.
        assert_eq!(r.validate("b", "ns/x", 95), None);
        assert_eq!(r.validate("b", "ns/x", 150), None);
    }

    #[test]
    fn cascading_revocation() {
        let mut r = registry();
        let g1 = r.grant("vo-authority", "a", "ns/*", 3, 1000, 0).unwrap();
        let _g2 = r.grant("a", "b", "ns/b/*", 2, 1000, 0).unwrap();
        let _g3 = r.grant("b", "c", "ns/b/c/*", 1, 1000, 0).unwrap();
        assert_eq!(r.validate("c", "ns/b/c/1", 10), Some(3));
        let revoked = r.revoke(g1).unwrap();
        assert_eq!(revoked, 3);
        assert_eq!(r.validate("a", "ns/1", 10), None);
        assert_eq!(r.validate("b", "ns/b/1", 10), None);
        assert_eq!(r.validate("c", "ns/b/c/1", 10), None);
        // Root authority is untouched.
        assert_eq!(r.validate("vo-authority", "ns/1", 10), Some(0));
    }

    #[test]
    fn no_authority_without_grant() {
        let mut r = registry();
        assert_eq!(
            r.grant("stranger", "x", "ns/*", 0, 100, 0).unwrap_err(),
            DelegationError::NoAuthority {
                delegator: "stranger".into()
            }
        );
        assert_eq!(r.validate("stranger", "ns/1", 0), None);
    }

    #[test]
    fn revoke_unknown_grant() {
        let mut r = registry();
        assert_eq!(r.revoke(42).unwrap_err(), DelegationError::UnknownGrant(42));
    }

    #[test]
    fn namespace_subset_rules() {
        assert!(namespace_within("ehr/1", "ehr/*"));
        assert!(namespace_within("ehr/radiology/*", "ehr/*"));
        assert!(namespace_within("ehr/*", "ehr/*"));
        assert!(!namespace_within("lab/*", "ehr/*"));
        assert!(!namespace_within("ehr/*", "ehr/radiology/*"));
    }
}
