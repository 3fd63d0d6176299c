//! # dacs-rbac
//!
//! RBAC96-style role-based access control (Sandhu et al.), the access
//! control *model* the paper singles out as "well suited for distributed
//! environments that need to address protection requirements for a large
//! base of subjects and objects" (§2.2).
//!
//! Implements:
//! * users, roles, permissions (action + resource glob)
//! * role hierarchies (a senior role inherits its juniors' permissions),
//!   with cycle prevention
//!
//! [`Rbac::check`] walks the user's role closure; E12 measures how it
//! scales with the role hierarchy.
//!
//! # Examples
//!
//! ```
//! use dacs_rbac::{Permission, Rbac};
//!
//! let mut rbac = Rbac::new();
//! rbac.add_role("doctor");
//! rbac.add_role("chief");
//! rbac.add_inheritance("chief", "doctor")?;
//! rbac.grant("doctor", Permission::new("read", "ehr/*"))?;
//! rbac.add_user("alice");
//! rbac.assign("alice", "chief")?;
//! assert!(rbac.check("alice", "read", "ehr/42"));
//! # Ok::<(), dacs_rbac::RbacError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dacs_policy::glob::glob_match;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A permission: an action on resources matching a glob pattern.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Permission {
    /// Action identifier, e.g. `"read"`.
    pub action: String,
    /// Resource pattern, e.g. `"ehr/records/*"`.
    pub resource: String,
}

impl Permission {
    /// Creates a permission.
    pub fn new(action: impl Into<String>, resource: impl Into<String>) -> Self {
        Permission {
            action: action.into(),
            resource: resource.into(),
        }
    }

    /// Whether this permission authorizes `action` on `resource`.
    pub fn covers(&self, action: &str, resource: &str) -> bool {
        self.action == action && glob_match(&self.resource, resource)
    }
}

/// Errors from RBAC administration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbacError {
    /// Referenced user does not exist.
    UnknownUser(String),
    /// Referenced role does not exist.
    UnknownRole(String),
    /// Adding this inheritance edge would create a cycle.
    HierarchyCycle {
        /// The proposed senior role.
        senior: String,
        /// The proposed junior role.
        junior: String,
    },
}

impl std::fmt::Display for RbacError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RbacError::UnknownUser(u) => write!(f, "unknown user {u}"),
            RbacError::UnknownRole(r) => write!(f, "unknown role {r}"),
            RbacError::HierarchyCycle { senior, junior } => {
                write!(f, "inheritance {senior} -> {junior} would create a cycle")
            }
        }
    }
}

impl std::error::Error for RbacError {}

/// The RBAC model state for one administrative domain.
#[derive(Debug, Default)]
pub struct Rbac {
    users: BTreeSet<String>,
    roles: BTreeSet<String>,
    assignments: BTreeMap<String, BTreeSet<String>>,
    permissions: BTreeMap<String, BTreeSet<Permission>>,
    /// senior → direct juniors (senior inherits junior permissions).
    juniors: BTreeMap<String, BTreeSet<String>>,
    closure_cache: RwLock<Option<HashMap<String, Arc<BTreeSet<String>>>>>,
}

impl Rbac {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    fn invalidate(&mut self) {
        *self.closure_cache.write() = None;
    }

    /// Adds a user (idempotent).
    pub fn add_user(&mut self, user: impl Into<String>) {
        self.users.insert(user.into());
    }

    /// Adds a role (idempotent).
    pub fn add_role(&mut self, role: impl Into<String>) {
        self.roles.insert(role.into());
        self.invalidate();
    }

    /// Grants a permission to a role.
    ///
    /// # Errors
    ///
    /// [`RbacError::UnknownRole`] if the role does not exist.
    pub fn grant(&mut self, role: &str, permission: Permission) -> Result<(), RbacError> {
        if !self.roles.contains(role) {
            return Err(RbacError::UnknownRole(role.to_owned()));
        }
        self.permissions
            .entry(role.to_owned())
            .or_default()
            .insert(permission);
        Ok(())
    }

    /// Adds an inheritance edge: `senior` inherits `junior`'s
    /// permissions.
    ///
    /// # Errors
    ///
    /// [`RbacError::UnknownRole`] for missing roles and
    /// [`RbacError::HierarchyCycle`] if the edge would create a cycle.
    pub fn add_inheritance(&mut self, senior: &str, junior: &str) -> Result<(), RbacError> {
        for r in [senior, junior] {
            if !self.roles.contains(r) {
                return Err(RbacError::UnknownRole(r.to_owned()));
            }
        }
        // A cycle appears iff senior is reachable (junior-wards) from junior.
        if senior == junior || self.reachable(junior, senior) {
            return Err(RbacError::HierarchyCycle {
                senior: senior.to_owned(),
                junior: junior.to_owned(),
            });
        }
        self.juniors
            .entry(senior.to_owned())
            .or_default()
            .insert(junior.to_owned());
        self.invalidate();
        Ok(())
    }

    fn reachable(&self, from: &str, to: &str) -> bool {
        let mut stack = vec![from.to_owned()];
        let mut seen = BTreeSet::new();
        while let Some(r) = stack.pop() {
            if r == to {
                return true;
            }
            if !seen.insert(r.clone()) {
                continue;
            }
            if let Some(js) = self.juniors.get(&r) {
                stack.extend(js.iter().cloned());
            }
        }
        false
    }

    /// Assigns a role to a user.
    ///
    /// # Errors
    ///
    /// [`RbacError::UnknownUser`] or [`RbacError::UnknownRole`].
    pub fn assign(&mut self, user: &str, role: &str) -> Result<(), RbacError> {
        if !self.users.contains(user) {
            return Err(RbacError::UnknownUser(user.to_owned()));
        }
        if !self.roles.contains(role) {
            return Err(RbacError::UnknownRole(role.to_owned()));
        }
        self.assignments
            .entry(user.to_owned())
            .or_default()
            .insert(role.to_owned());
        Ok(())
    }

    /// Removes a role assignment (idempotent).
    pub fn revoke(&mut self, user: &str, role: &str) {
        if let Some(set) = self.assignments.get_mut(user) {
            set.remove(role);
        }
    }

    /// The role plus every junior it transitively inherits.
    pub(crate) fn role_closure(&self, role: &str) -> Arc<BTreeSet<String>> {
        {
            let cache = self.closure_cache.read();
            if let Some(map) = cache.as_ref() {
                if let Some(c) = map.get(role) {
                    return c.clone();
                }
            }
        }
        let mut cache = self.closure_cache.write();
        let map = cache.get_or_insert_with(HashMap::new);
        if let Some(c) = map.get(role) {
            return c.clone();
        }
        let mut closure = BTreeSet::new();
        let mut stack = vec![role.to_owned()];
        while let Some(r) = stack.pop() {
            if !closure.insert(r.clone()) {
                continue;
            }
            if let Some(js) = self.juniors.get(&r) {
                stack.extend(js.iter().cloned());
            }
        }
        let arc = Arc::new(closure);
        map.insert(role.to_owned(), arc.clone());
        arc
    }

    /// All roles a user holds, directly or through inheritance.
    pub(crate) fn authorized_roles(&self, user: &str) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        if let Some(assigned) = self.assignments.get(user) {
            for r in assigned {
                out.extend(self.role_closure(r).iter().cloned());
            }
        }
        out
    }

    /// Whether `user` may perform `action` on `resource`.
    pub fn check(&self, user: &str, action: &str, resource: &str) -> bool {
        for role in self.authorized_roles(user) {
            if let Some(perms) = self.permissions.get(&role) {
                if perms.iter().any(|p| p.covers(action, resource)) {
                    return true;
                }
            }
        }
        false
    }

    /// Numbers of users and roles (scale metrics).
    pub fn size(&self) -> (usize, usize) {
        (self.users.len(), self.roles.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital() -> Rbac {
        let mut r = Rbac::new();
        for role in ["staff", "nurse", "doctor", "chief", "auditor", "pharmacist"] {
            r.add_role(role);
        }
        // chief > doctor > staff; nurse > staff.
        r.add_inheritance("doctor", "staff").unwrap();
        r.add_inheritance("chief", "doctor").unwrap();
        r.add_inheritance("nurse", "staff").unwrap();
        r.grant("staff", Permission::new("read", "bulletin/*"))
            .unwrap();
        r.grant("doctor", Permission::new("read", "ehr/*")).unwrap();
        r.grant("doctor", Permission::new("write", "ehr/*/notes"))
            .unwrap();
        r.grant("chief", Permission::new("approve", "ehr/*"))
            .unwrap();
        r.grant("auditor", Permission::new("read", "audit/*"))
            .unwrap();
        for u in ["alice", "bob", "carol"] {
            r.add_user(u);
        }
        r
    }

    #[test]
    fn direct_permission_check() {
        let mut r = hospital();
        r.assign("alice", "doctor").unwrap();
        assert!(r.check("alice", "read", "ehr/42"));
        assert!(!r.check("alice", "approve", "ehr/42"));
        assert!(!r.check("bob", "read", "ehr/42"));
    }

    #[test]
    fn inheritance_grants_junior_permissions() {
        let mut r = hospital();
        r.assign("alice", "chief").unwrap();
        // chief inherits doctor and staff permissions transitively.
        assert!(r.check("alice", "read", "ehr/42"));
        assert!(r.check("alice", "read", "bulletin/today"));
        assert!(r.check("alice", "approve", "ehr/42"));
    }

    #[test]
    fn cycle_rejected() {
        let mut r = hospital();
        assert_eq!(
            r.add_inheritance("staff", "chief"),
            Err(RbacError::HierarchyCycle {
                senior: "staff".into(),
                junior: "chief".into()
            })
        );
        assert!(matches!(
            r.add_inheritance("doctor", "doctor"),
            Err(RbacError::HierarchyCycle { .. })
        ));
    }

    #[test]
    fn unknown_entities_rejected() {
        let mut r = hospital();
        assert_eq!(
            r.assign("nobody", "doctor"),
            Err(RbacError::UnknownUser("nobody".into()))
        );
        assert_eq!(
            r.assign("alice", "wizard"),
            Err(RbacError::UnknownRole("wizard".into()))
        );
        assert_eq!(
            r.grant("wizard", Permission::new("a", "b")),
            Err(RbacError::UnknownRole("wizard".into()))
        );
    }

    #[test]
    fn revoke_removes_access() {
        let mut r = hospital();
        r.assign("alice", "doctor").unwrap();
        assert!(r.check("alice", "read", "ehr/1"));
        r.revoke("alice", "doctor");
        assert!(!r.check("alice", "read", "ehr/1"));
    }

    #[test]
    fn closure_cache_consistent_after_mutation() {
        let mut r = hospital();
        r.assign("alice", "doctor").unwrap();
        assert!(r.check("alice", "read", "ehr/1"));
        // Mutating the hierarchy invalidates cached closures.
        r.add_role("intern");
        r.add_inheritance("intern", "staff").unwrap();
        r.add_user("dave");
        r.assign("dave", "intern").unwrap();
        assert!(r.check("dave", "read", "bulletin/x"));
        assert!(!r.check("dave", "read", "ehr/1"));
    }

    #[test]
    fn glob_permissions() {
        let mut r = Rbac::new();
        r.add_role("reader");
        r.add_user("u");
        r.grant("reader", Permission::new("read", "docs/*/public"))
            .unwrap();
        r.assign("u", "reader").unwrap();
        assert!(r.check("u", "read", "docs/team-a/public"));
        assert!(!r.check("u", "read", "docs/team-a/private"));
    }

    #[test]
    fn size_reports_scale() {
        let r = hospital();
        let (users, roles) = r.size();
        assert_eq!(users, 3);
        assert_eq!(roles, 6);
    }
}
