//! The versioned policy repository with an audit log and an
//! administrative (meta) policy guarding every mutation — the paper's
//! §3.2 "Security of Access Control Systems": the authorization system
//! is protected "based on the same PEP/PDP mechanisms that protect
//! ordinary resources", using one policy language for both.

use crate::epoch::PolicyEpoch;
use dacs_policy::eval::{resolve_references, Evaluator, PolicyStore, TreeError};
use dacs_policy::policy::{Decision, Policy, PolicyElement, PolicyId, PolicySet};
use dacs_policy::request::RequestContext;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Administrative operations recorded in the audit log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdminAction {
    /// A new policy (version 1) was inserted.
    Insert,
    /// A new version of an existing policy was installed.
    Update,
    /// The active version was rolled back.
    Rollback,
    /// A policy was removed entirely.
    Remove,
    /// A syndication update was applied.
    SyndicationApply,
}

impl std::fmt::Display for AdminAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AdminAction::Insert => "insert",
            AdminAction::Update => "update",
            AdminAction::Rollback => "rollback",
            AdminAction::Remove => "remove",
            AdminAction::SyndicationApply => "syndication-apply",
        };
        f.write_str(s)
    }
}

/// One append-only audit record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuditEntry {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Simulation time of the operation.
    pub at_ms: u64,
    /// The administrator (or syndication peer) that performed it.
    pub actor: String,
    /// What was done.
    pub action: AdminAction,
    /// The policy affected.
    pub policy: PolicyId,
    /// The resulting active version.
    pub version: u64,
}

/// Why an administrative operation was refused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PapError {
    /// The administrative policy denied the operation.
    AdminDenied {
        /// The actor that was refused.
        actor: String,
        /// The operation attempted.
        action: String,
    },
    /// Referenced policy does not exist.
    UnknownPolicy(PolicyId),
    /// Referenced version does not exist.
    UnknownVersion {
        /// The policy.
        policy: PolicyId,
        /// The missing version.
        version: u64,
    },
    /// The policy set would leave a stored set that does not resolve.
    Tree(TreeError),
}

impl std::fmt::Display for PapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PapError::AdminDenied { actor, action } => {
                write!(f, "administrative policy denied {action} by {actor}")
            }
            PapError::UnknownPolicy(id) => write!(f, "unknown policy {id}"),
            PapError::UnknownVersion { policy, version } => {
                write!(f, "policy {policy} has no version {version}")
            }
            PapError::Tree(refused) => write!(f, "policy set refused: {refused}"),
        }
    }
}

impl std::error::Error for PapError {}

#[derive(Debug, Default)]
struct Versioned {
    versions: Vec<Arc<Policy>>,
    /// Index into `versions` of the active one.
    active: usize,
}

/// The Policy Administration Point for one domain.
///
/// All reads go through the [`PolicyStore`] impl (giving PDPs the
/// *active* version of each policy); all writes are checked against the
/// administrative policy and audited.
pub struct Pap {
    name: String,
    policies: RwLock<HashMap<PolicyId, Versioned>>,
    /// Ordered, so that an install judges the stored sets in one order.
    sets: RwLock<BTreeMap<PolicyId, Arc<PolicySet>>>,
    admin_policy: RwLock<Option<Policy>>,
    audit: RwLock<Vec<AuditEntry>>,
    seq: RwLock<u64>,
    /// Bumped on every mutation; a PDP keys its snapshot on it.
    epoch: AtomicU64,
    /// Highest syndication stamp processed with no gap before it — the
    /// repository's position in the global policy timeline (distinct
    /// from the local mutation counter above).
    policy_epoch: AtomicU64,
}

impl Pap {
    /// Creates a PAP with no administrative policy (all actors allowed —
    /// for single-authority tests; production domains install one).
    pub fn new(name: impl Into<String>) -> Self {
        Pap {
            name: name.into(),
            policies: RwLock::new(HashMap::new()),
            sets: RwLock::new(BTreeMap::new()),
            admin_policy: RwLock::new(None),
            audit: RwLock::new(Vec::new()),
            seq: RwLock::new(0),
            epoch: AtomicU64::new(0),
            policy_epoch: AtomicU64::new(0),
        }
    }

    /// The PAP's name (used as audit context).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Installs the administrative policy. Subsequent mutations are
    /// evaluated against it with a request of the form
    /// `subject.id = actor`, `resource.id = policy id`,
    /// `action.id = insert|update|rollback|remove`.
    pub fn set_admin_policy(&self, policy: Policy) {
        *self.admin_policy.write() = Some(policy);
    }

    /// Current mutation epoch (cache validity token).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The repository's position in the global policy timeline: the
    /// highest syndication stamp processed without a gap before it.
    ///
    /// A PDP bound to this PAP stamps every answer with this value.
    /// A mutation's stamp is observed after the mutation is recorded,
    /// so a reader that loads this before [`Pap::epoch`] never pairs a
    /// stamp with an older mutation epoch.
    pub fn policy_epoch(&self) -> PolicyEpoch {
        PolicyEpoch(self.policy_epoch.load(Ordering::Acquire))
    }

    /// Observes syndication stamp `stamp` (whether the update was
    /// applied or filtered). The epoch advances only when the stamp is
    /// *contiguous* with the current position — a skipped stamp means
    /// updates were missed while offline, so the position holds until
    /// [`Pap::apply_syndicated_stamped`] replays the gap in order (the
    /// `SyndicationTree::catch_up` path). Returns whether the epoch
    /// advanced.
    pub fn observe_policy_epoch(&self, stamp: PolicyEpoch) -> bool {
        let previous = stamp.0.wrapping_sub(1);
        self.policy_epoch
            .compare_exchange(previous, stamp.0, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn authorize_admin(&self, actor: &str, policy: &PolicyId, op: &str) -> Result<(), PapError> {
        let guard = self.admin_policy.read();
        let Some(admin) = guard.as_ref() else {
            return Ok(());
        };
        let request = RequestContext::basic(actor, policy.as_str(), op);
        let mut ev = Evaluator::new(&request);
        let resp = ev.evaluate_policy(admin);
        if resp.decision == Decision::Permit {
            Ok(())
        } else {
            Err(PapError::AdminDenied {
                actor: actor.to_owned(),
                action: format!("{op} {policy}"),
            })
        }
    }

    fn record(
        &self,
        at_ms: u64,
        actor: &str,
        action: AdminAction,
        policy: &PolicyId,
        version: u64,
    ) {
        let mut seq = self.seq.write();
        *seq += 1;
        self.audit.write().push(AuditEntry {
            seq: *seq,
            at_ms,
            actor: actor.to_owned(),
            action,
            policy: policy.clone(),
            version,
        });
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Inserts a new policy or a new version of an existing one.
    ///
    /// # Errors
    ///
    /// [`PapError::AdminDenied`] if the administrative policy refuses.
    pub fn submit(&self, actor: &str, policy: Policy, at_ms: u64) -> Result<u64, PapError> {
        let id = policy.id.clone();
        let exists = self.policies.read().contains_key(&id);
        let op = if exists { "update" } else { "insert" };
        self.authorize_admin(actor, &id, op)?;
        let version = self.install(&id, Arc::new(policy));
        self.record(
            at_ms,
            actor,
            if exists {
                AdminAction::Update
            } else {
                AdminAction::Insert
            },
            &id,
            version,
        );
        Ok(version)
    }

    /// Applies a syndicated policy carrying the tree-assigned epoch
    /// `stamp` (bypasses the admin policy check — trust in the
    /// syndication parent was established at tree setup — but is still
    /// audited). The policy content is always installed (a newer
    /// version supersedes whatever was active), but the repository's
    /// [`Pap::policy_epoch`] advances only when the stamp is contiguous
    /// — see [`Pap::observe_policy_epoch`] for the gap rule. A shared
    /// body whose `version` is the one this repository would assign is
    /// stored as it is (one body per push, tree-wide), else renumbered.
    pub fn apply_syndicated_stamped(
        &self,
        from: &str,
        policy: impl Into<Arc<Policy>>,
        stamp: PolicyEpoch,
        at_ms: u64,
    ) -> u64 {
        let policy = policy.into();
        let id = policy.id.clone();
        let version = self.install(&id, policy);
        self.record(at_ms, from, AdminAction::SyndicationApply, &id, version);
        self.observe_policy_epoch(stamp);
        version
    }

    /// Installs `policy` as the next active version of `id`, numbered
    /// by this repository: version numbers stay PAP-local.
    fn install(&self, id: &PolicyId, mut policy: Arc<Policy>) -> u64 {
        let mut guard = self.policies.write();
        let entry = guard.entry(id.clone()).or_default();
        let version = entry.versions.len() as u64 + 1;
        if policy.version != version {
            // Copy-on-write: a unique `Arc` (a body that arrived by
            // value) is renumbered in place, a shared one copied first.
            Arc::make_mut(&mut policy).version = version;
        }
        entry.versions.push(policy);
        entry.active = entry.versions.len() - 1;
        version
    }

    /// Rolls the active version of `id` back to `version`.
    ///
    /// # Errors
    ///
    /// [`PapError::AdminDenied`], [`PapError::UnknownPolicy`] or
    /// [`PapError::UnknownVersion`].
    pub fn rollback(
        &self,
        actor: &str,
        id: &PolicyId,
        version: u64,
        at_ms: u64,
    ) -> Result<(), PapError> {
        self.authorize_admin(actor, id, "rollback")?;
        let mut guard = self.policies.write();
        let entry = guard
            .get_mut(id)
            .ok_or_else(|| PapError::UnknownPolicy(id.clone()))?;
        if version == 0 || version as usize > entry.versions.len() {
            return Err(PapError::UnknownVersion {
                policy: id.clone(),
                version,
            });
        }
        entry.active = version as usize - 1;
        drop(guard);
        self.record(at_ms, actor, AdminAction::Rollback, id, version);
        Ok(())
    }

    /// Removes a policy entirely.
    ///
    /// # Errors
    ///
    /// [`PapError::AdminDenied`] or [`PapError::UnknownPolicy`].
    pub fn remove(&self, actor: &str, id: &PolicyId, at_ms: u64) -> Result<(), PapError> {
        self.authorize_admin(actor, id, "remove")?;
        let removed = self.policies.write().remove(id).is_some();
        if !removed {
            return Err(PapError::UnknownPolicy(id.clone()));
        }
        self.record(at_ms, actor, AdminAction::Remove, id, 0);
        Ok(())
    }

    /// Installs a policy set (sets are unversioned containers; their
    /// children are versioned policies referenced by id), stored only if
    /// every stored set still resolves with it in place
    /// ([`resolve_references`]). The judge and the insert share the
    /// write lock, so two installs cannot together close a cycle that
    /// neither closes alone. [`Pap::submit`] and the other policy
    /// mutations need no judge: a `Policy` holds no reference, and
    /// filling a dangling `PolicyRef` swaps one leaf for one leaf.
    ///
    /// # Errors
    ///
    /// [`PapError::Tree`] with the first [`TreeError`] met, the new set
    /// judged first, then the stored ones in id order. The store,
    /// [`Pap::epoch`] and the audit log stay as they were.
    pub fn install_set(&self, set: PolicySet) -> Result<(), PapError> {
        let mut sets = self.sets.write();
        let mut after = sets.clone();
        let id = set.id.clone();
        after.insert(id.clone(), Arc::new(set));
        std::iter::once(&id)
            .chain(sets.keys().filter(|stored| **stored != id))
            .try_for_each(|stored| {
                let root = PolicyElement::PolicySetRef(stored.clone());
                resolve_references(&root, &SetsOnly(&after)).map(drop)
            })
            .map_err(PapError::Tree)?;
        *sets = after;
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// The active version of a policy.
    pub fn active(&self, id: &PolicyId) -> Option<Arc<Policy>> {
        let guard = self.policies.read();
        let entry = guard.get(id)?;
        entry.versions.get(entry.active).cloned()
    }

    /// Number of distinct policies.
    pub fn len(&self) -> usize {
        self.policies.read().len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.read().is_empty()
    }

    /// Snapshot of the audit log.
    pub fn audit_log(&self) -> Vec<AuditEntry> {
        self.audit.read().clone()
    }
}

impl PolicyStore for Pap {
    fn policy(&self, id: &PolicyId) -> Option<Arc<Policy>> {
        self.active(id)
    }
    fn policy_set(&self, id: &PolicyId) -> Option<Arc<PolicySet>> {
        self.sets.read().get(id).cloned()
    }
}

/// Stored sets alone: a tree's shape does not depend on the policies,
/// since a resolved `PolicyRef` and a dangling one are each one leaf.
struct SetsOnly<'a>(&'a BTreeMap<PolicyId, Arc<PolicySet>>);

impl PolicyStore for SetsOnly<'_> {
    fn policy(&self, _id: &PolicyId) -> Option<Arc<Policy>> {
        None
    }
    fn policy_set(&self, id: &PolicyId) -> Option<Arc<PolicySet>> {
        self.0.get(id).cloned()
    }
}

#[cfg(test)]
impl Pap {
    /// The number of stored versions of a policy.
    pub(crate) fn version_count(&self, id: &PolicyId) -> usize {
        self.policies
            .read()
            .get(id)
            .map(|v| v.versions.len())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_policy::dsl::parse_policy;
    use dacs_policy::policy::{CombiningAlg, Effect, Rule};

    fn sample(id: &str) -> Policy {
        Policy::new(PolicyId::new(id), CombiningAlg::DenyUnlessPermit)
            .with_rule(Rule::new("ok", Effect::Permit))
    }

    #[test]
    fn insert_update_versions() {
        let pap = Pap::new("pap.a");
        let id = PolicyId::new("p1");
        assert_eq!(pap.submit("admin", sample("p1"), 10).unwrap(), 1);
        assert_eq!(pap.submit("admin", sample("p1"), 20).unwrap(), 2);
        assert_eq!(pap.version_count(&id), 2);
        assert_eq!(pap.active(&id).unwrap().version, 2);
        assert_eq!(pap.len(), 1);
    }

    #[test]
    fn rollback_switches_active() {
        let pap = Pap::new("pap.a");
        let id = PolicyId::new("p1");
        pap.submit("admin", sample("p1"), 10).unwrap();
        pap.submit("admin", sample("p1"), 20).unwrap();
        pap.rollback("admin", &id, 1, 30).unwrap();
        assert_eq!(pap.active(&id).unwrap().version, 1);
        assert_eq!(
            pap.rollback("admin", &id, 9, 40),
            Err(PapError::UnknownVersion {
                policy: id.clone(),
                version: 9
            })
        );
    }

    #[test]
    fn remove_policy() {
        let pap = Pap::new("pap.a");
        let id = PolicyId::new("p1");
        pap.submit("admin", sample("p1"), 10).unwrap();
        pap.remove("admin", &id, 20).unwrap();
        assert!(pap.active(&id).is_none());
        assert_eq!(
            pap.remove("admin", &id, 30),
            Err(PapError::UnknownPolicy(id))
        );
    }

    #[test]
    fn audit_log_records_everything() {
        let pap = Pap::new("pap.a");
        pap.submit("alice", sample("p1"), 10).unwrap();
        pap.submit("bob", sample("p1"), 20).unwrap();
        pap.rollback("alice", &PolicyId::new("p1"), 1, 30).unwrap();
        let log = pap.audit_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].action, AdminAction::Insert);
        assert_eq!(log[1].action, AdminAction::Update);
        assert_eq!(log[2].action, AdminAction::Rollback);
        assert_eq!(log[1].actor, "bob");
        // Sequence numbers are strictly increasing.
        assert!(log.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn admin_policy_gates_writers() {
        let pap = Pap::new("pap.a");
        let admin = parse_policy(
            r#"
policy "admin" deny-unless-permit {
  rule "security-team-writes" permit {
    target {
      subject "id" ~= "sec-*";
    }
  }
}
"#,
        )
        .unwrap();
        pap.set_admin_policy(admin);
        assert!(pap.submit("sec-alice", sample("p1"), 10).is_ok());
        assert_eq!(
            pap.submit("dev-bob", sample("p2"), 20).unwrap_err(),
            PapError::AdminDenied {
                actor: "dev-bob".into(),
                action: "insert p2".into()
            }
        );
        // Denied operations are not audited as applied.
        assert_eq!(pap.audit_log().len(), 1);
        assert_eq!(pap.len(), 1);
    }

    #[test]
    fn admin_policy_can_scope_namespaces() {
        let pap = Pap::new("pap.a");
        let admin = parse_policy(
            r#"
policy "admin" deny-unless-permit {
  rule "team-a-owns-ehr" permit {
    target {
      subject "id" == "team-a";
      resource "id" ~= "ehr-*";
    }
  }
}
"#,
        )
        .unwrap();
        pap.set_admin_policy(admin);
        assert!(pap.submit("team-a", sample("ehr-read"), 10).is_ok());
        assert!(pap.submit("team-a", sample("lab-read"), 20).is_err());
    }

    #[test]
    fn policy_store_serves_active_versions() {
        use dacs_policy::eval::PolicyStore as _;
        let pap = Pap::new("pap.a");
        pap.submit("admin", sample("p1"), 10).unwrap();
        let got = pap.policy(&PolicyId::new("p1")).unwrap();
        assert_eq!(got.id.as_str(), "p1");
        assert!(pap.policy(&PolicyId::new("zzz")).is_none());
    }

    #[test]
    fn epoch_bumps_on_mutation() {
        let pap = Pap::new("pap.a");
        let e0 = pap.epoch();
        pap.submit("admin", sample("p1"), 10).unwrap();
        assert!(pap.epoch() > e0);
    }

    #[test]
    fn policy_epoch_advances_contiguously_and_holds_on_gaps() {
        let pap = Pap::new("pap.a");
        assert_eq!(pap.policy_epoch(), PolicyEpoch::ZERO);
        // Contiguous stamps advance…
        pap.apply_syndicated_stamped("parent", sample("p"), PolicyEpoch(1), 1);
        pap.apply_syndicated_stamped("parent", sample("p"), PolicyEpoch(2), 2);
        assert_eq!(pap.policy_epoch(), PolicyEpoch(2));
        // …a gap (stamp 5 while at 2) installs the content but pins the
        // epoch: stamps 3 and 4 were missed and must be replayed.
        pap.apply_syndicated_stamped("parent", sample("p"), PolicyEpoch(5), 3);
        assert_eq!(pap.policy_epoch(), PolicyEpoch(2));
        assert_eq!(pap.active(&PolicyId::new("p")).unwrap().version, 3);
        // Replaying the gap in order catches the epoch up.
        for stamp in [3u64, 4, 5] {
            pap.apply_syndicated_stamped("parent", sample("p"), PolicyEpoch(stamp), 4);
        }
        assert_eq!(pap.policy_epoch(), PolicyEpoch(5));
        // Re-observing an old stamp never rewinds.
        assert!(!pap.observe_policy_epoch(PolicyEpoch(2)));
        assert_eq!(pap.policy_epoch(), PolicyEpoch(5));
    }

    #[test]
    fn filtered_observation_advances_without_applying() {
        let pap = Pap::new("pap.a");
        assert!(pap.observe_policy_epoch(PolicyEpoch(1)));
        assert_eq!(pap.policy_epoch(), PolicyEpoch(1));
        assert!(pap.is_empty(), "observation alone installs nothing");
    }

    #[test]
    fn syndicated_apply_bypasses_admin_but_audits() {
        let pap = Pap::new("pap.child");
        let admin = parse_policy(
            r#"
policy "admin" deny-unless-permit {
  rule "nobody" permit {
    target { subject "id" == "no-such-actor"; }
  }
}
"#,
        )
        .unwrap();
        pap.set_admin_policy(admin);
        let v = pap.apply_syndicated_stamped(
            "pap.parent",
            sample("global-baseline"),
            PolicyEpoch(1),
            50,
        );
        assert_eq!(v, 1);
        let log = pap.audit_log();
        assert_eq!(log[0].action, AdminAction::SyndicationApply);
        assert_eq!(log[0].actor, "pap.parent");
    }
}
