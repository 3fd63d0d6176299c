//! An administrative domain: the unit of autonomy in the multi-domain
//! environment (Fig. 1). Each domain wires together its own PAP, PDP,
//! PEP, PIP chain, identity provider (attribute authority) and keys.
//!
//! A domain's decision point comes in two shapes. The classic wiring
//! binds the PEP to a single [`Pdp`] engine. A *clustered* domain
//! ([`DomainBuilder::clustered`]) instead backs its PEP with a full
//! [`PdpCluster`] whose replica PAPs are leaves of the domain's own
//! syndication tree, so policy updates ([`Domain::propagate_policy`])
//! and their epochs flow from the domain authority down to every
//! replica. Each push announces its epoch to every holder of an answer
//! — cluster, PEP, capability authority — and an answer behind it does
//! not count, so a replica recovering from a crash
//! ([`Domain::recover_replica`]) votes again only once the replay that
//! the same call runs has brought it to the domain's epoch.

use dacs_capability::{CapabilityAuthority, CapabilityKey, CapabilityToken};
use dacs_cluster::{ClusterBuilder, ClusterOutcome, DecisionBackend, PdpCluster, ReplicaPhase};
use dacs_crypto::sign::{CryptoCtx, SigningKey};
use dacs_pap::{Pap, PolicyEpoch, SyndicationTree};
use dacs_pdp::{CacheConfig, DecisionClass, Pdp, PdpMetrics};
use dacs_pep::{DecisionSource, LogObligationHandler, MintingSource, NotifyObligationHandler, Pep};
use dacs_pip::{EnvironmentProvider, PipRegistry, PipStats, StaticAttributes};
use dacs_policy::eval::{EvalMetrics, Response};
use dacs_policy::expr::ExprStats;
use dacs_policy::policy::{CombiningAlg, Policy, PolicyElement, PolicyId, PolicySet};
use dacs_policy::request::RequestContext;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A root of one reference per policy is refused only past 16 382 policies.
const ROOT_RESOLVES: &str = "a domain root of policy references resolves";

/// Routes a PEP's decision queries through a domain's [`PdpCluster`] —
/// quorum fan-out, directory-driven failover and per-shard batching —
/// instead of a single engine. A batch of one goes straight to the
/// quorum ([`PdpCluster::decide_classed`]); a larger one is one
/// [`PdpCluster::decide_batch`] call, which coalesces equal requests.
///
/// An unavailable shard (no eligible replica) maps to an
/// `Indeterminate` response, which the PEP denies fail-safe: a domain
/// whose cluster cannot answer never silently grants.
pub struct ClusteredDecisionSource {
    cluster: Arc<PdpCluster>,
}

impl ClusteredDecisionSource {
    /// Wraps a cluster as a PEP decision source.
    pub fn new(cluster: Arc<PdpCluster>) -> Self {
        ClusteredDecisionSource { cluster }
    }

    /// The cluster behind this source.
    pub fn cluster(&self) -> &Arc<PdpCluster> {
        &self.cluster
    }

    /// The source-hop span; entered by the caller so the cluster's
    /// route/fan-out spans nest under it.
    fn span(&self) -> Option<dacs_telemetry::Span<'_>> {
        self.cluster
            .telemetry()
            .map(|t| t.tracer().span(dacs_telemetry::Stage::SourceDecide))
    }

    fn to_response(outcome: ClusterOutcome) -> Response {
        match outcome.response {
            Some(response) => response,
            None => {
                Response::indeterminate(format!("shard {} has no eligible replica", outcome.shard))
            }
        }
    }
}

impl DecisionSource for ClusteredDecisionSource {
    fn decide_batch_with_grants_classed(
        &self,
        requests: &[RequestContext],
        now_ms: u64,
        class: DecisionClass,
    ) -> Vec<(Response, Option<CapabilityToken>)> {
        let span = self.span();
        let _entered = span.as_ref().map(|s| s.enter());
        let answer = |outcome| (Self::to_response(outcome), None);
        match requests {
            [request] => vec![answer(self.cluster.decide_classed(request, now_ms, class))],
            _ => self
                .cluster
                .decide_batch(requests, now_ms, class)
                .into_iter()
                .map(answer)
                .collect(),
        }
    }
}

/// A fully wired administrative domain.
pub struct Domain {
    /// Domain name, e.g. `"hospital-a"`.
    pub name: String,
    /// The domain's policy administration point. For a clustered
    /// domain this is the *root* of the domain's syndication tree (the
    /// domain authority); replica PAPs hang below it and receive
    /// updates via [`Domain::propagate_policy`].
    pub pap: Arc<Pap>,
    /// The domain's decision point. For a clustered domain this is the
    /// *reference* engine bound to the root PAP — it sees every
    /// propagated update immediately (ground truth for experiments);
    /// enforcement itself rides [`Domain::decision_source`].
    pub pdp: Arc<Pdp>,
    /// The enforcement point guarding the domain's services.
    pub pep: Arc<Pep>,
    /// The clustered decision service, when built with
    /// [`DomainBuilder::clustered`].
    pub cluster: Option<Arc<PdpCluster>>,
    /// The capability-minting authority, when built with
    /// [`DomainBuilder::capability`]. Every [`Domain::propagate_policy`]
    /// advances its epoch, revoking all outstanding tokens.
    pub capability: Option<Arc<CapabilityAuthority>>,
    /// Identity-provider attribute store (serves federated attribute
    /// queries about this domain's subjects).
    pub idp_attributes: Arc<StaticAttributes>,
    /// The domain's signing key (certificates, assertions).
    pub key: Arc<SigningKey>,
    /// The `log` obligation sink, for audit inspection in tests and
    /// experiments.
    pub log_handler: Arc<LogObligationHandler>,
    /// The decision service the PEP is bound to.
    source: Arc<dyn DecisionSource>,
    /// The domain's PAP syndication tree (clustered domains only):
    /// root = the domain PAP, leaves = the per-replica PAPs.
    syndication: Option<Mutex<SyndicationTree>>,
    /// Replica name → leaf index in the syndication tree.
    replica_leaves: Vec<(String, usize)>,
}

impl Domain {
    /// Whether `subject` (convention: `user@domain`) is homed here.
    pub fn is_home_of(&self, subject: &str) -> bool {
        subject
            .rsplit_once('@')
            .map(|(_, d)| d == self.name)
            .unwrap_or(false)
    }

    /// Starts building a domain.
    pub fn builder(name: impl Into<String>) -> DomainBuilder {
        DomainBuilder {
            name: name.into(),
            policies: Vec::new(),
            idp_attributes: Arc::new(StaticAttributes::new()),
            pep_cache: None,
            seed: 0x5eed,
            cluster: None,
            shards: 1,
            replicas_per_shard: 3,
            telemetry: None,
            capability_ttl_ms: None,
        }
    }

    /// The decision service the domain's PEP enforces through: the
    /// single [`Pdp`] engine, or the [`ClusteredDecisionSource`] when
    /// the domain was built with [`DomainBuilder::clustered`] — either
    /// one inside a [`MintingSource`] when the domain was built with
    /// [`DomainBuilder::capability`]. Rebuilt
    /// PEPs (e.g. ones that must trust a VO capability service) should
    /// bind to this, never to [`Domain::pdp`] directly, or they would
    /// silently bypass the cluster.
    pub fn decision_source(&self) -> Arc<dyn DecisionSource> {
        self.source.clone()
    }

    /// Whether the domain backs its PEP with a [`PdpCluster`].
    pub fn is_clustered(&self) -> bool {
        self.cluster.is_some()
    }

    /// Names of the domain's cluster replicas, in shard-major order
    /// (empty for a single-engine domain).
    pub fn replica_names(&self) -> Vec<String> {
        self.replica_leaves
            .iter()
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// The domain's policy epoch: the syndication root's stamp for a
    /// clustered domain (every [`Domain::propagate_policy`] advances
    /// it), the root PAP's observed position otherwise.
    pub fn policy_epoch(&self) -> PolicyEpoch {
        match &self.syndication {
            Some(tree) => tree.lock().epoch(),
            None => self.pap.policy_epoch(),
        }
    }

    /// Installs a policy update at the domain authority. For a
    /// clustered domain the update propagates down the syndication
    /// tree — every *online* replica PAP applies it and its epoch
    /// stamp; offline replicas miss it and replay it when
    /// [`Domain::recover_replica`] brings them back. For a single-engine
    /// domain it submits to the PAP and stamps the update itself (the
    /// domain is its own syndication authority). Either way the new
    /// epoch, which it returns, is announced: no vote, cached decision
    /// or token decided under an older policy counts from now on.
    ///
    /// # Panics
    ///
    /// Panics if a single-engine domain's admin policy refuses the
    /// submission (builder-owned domains bootstrap with an open admin
    /// policy).
    pub fn propagate_policy(&self, policy: Policy, at_ms: u64) -> PolicyEpoch {
        let epoch = match &self.syndication {
            Some(tree) => tree.lock().propagate(policy, at_ms).epoch,
            None => {
                self.pap
                    .submit("domain-bootstrap", policy, at_ms)
                    .expect("domain authority submissions cannot be denied");
                let stamped = self.pap.policy_epoch().next();
                self.pap.observe_policy_epoch(stamped);
                stamped
            }
        };
        self.announce(epoch);
        epoch
    }

    /// Moves the cluster, the PEP and the authority to `epoch`: votes,
    /// cached answers and tokens behind it stop counting at once.
    fn announce(&self, epoch: PolicyEpoch) {
        if let Some(cluster) = &self.cluster {
            cluster.advance_epoch(epoch);
        }
        self.pep.advance_epoch(epoch);
        if let Some(authority) = &self.capability {
            authority.advance_epoch(epoch);
        }
    }

    /// The cluster and syndication-leaf index behind a replica name.
    fn replica_leaf(&self, name: &str) -> Option<(&Arc<PdpCluster>, usize)> {
        let cluster = self.cluster.as_ref()?;
        self.replica_leaves
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, leaf)| (cluster, leaf))
    }

    /// Crashes a cluster replica: marked down in the directory *and*
    /// offline in the syndication tree, so it misses policy pushes
    /// until it recovers. Returns whether the name matched a replica.
    pub fn crash_replica(&self, name: &str) -> bool {
        let Some((cluster, leaf)) = self.replica_leaf(name) else {
            return false;
        };
        if let Some(tree) = &self.syndication {
            tree.lock().set_online(leaf, false);
        }
        cluster.mark_down(name);
        true
    }

    /// Recovers a crashed replica, and this one call heals it: back
    /// online in the syndication tree, back up in the cluster, and then
    /// caught up by the tree's replay of the updates it missed (until
    /// then its votes are behind the domain's epoch and withdrawn). The
    /// next decide that reaches its shard counts its vote. Returns
    /// whether the name matched a replica.
    ///
    /// The call takes no clock, so the replay is back-dated: the replica
    /// PAP's audit records for the updates it missed carry the newest
    /// push's `at_ms`, not the time of recovery.
    pub fn recover_replica(&self, name: &str) -> bool {
        let Some((cluster, leaf)) = self.replica_leaf(name) else {
            return false;
        };
        let tree = self
            .syndication
            .as_ref()
            .expect("a clustered domain has a tree");
        tree.lock().set_online(leaf, true);
        cluster.mark_up(name);
        let mut tree = tree.lock();
        // Stamped with the newest push's time (see the note above).
        let newest = tree.updates_since(PolicyEpoch::ZERO).last();
        let at_ms = newest.map_or(0, |update| update.at_ms);
        tree.catch_up(leaf, at_ms);
        true
    }

    /// Replays through the syndication tree what the replica missed —
    /// nothing, once [`Domain::recover_replica`] has run — and returns
    /// whether the name matched a replica. Kept only while the repo
    /// benchmark still calls it.
    #[doc(hidden)]
    pub fn catch_up_replica(&self, name: &str, at_ms: u64) -> bool {
        let Some((_, leaf)) = self.replica_leaf(name) else {
            return false;
        };
        if let Some(tree) = &self.syndication {
            tree.lock().catch_up(leaf, at_ms);
        }
        true
    }

    /// A cluster replica's position in the recovery lifecycle
    /// (`Healthy / Crashed`), or `None` for unknown names and
    /// single-engine domains.
    pub fn replica_phase(&self, name: &str) -> Option<ReplicaPhase> {
        self.cluster.as_ref()?.replica_phase(name)
    }
}

/// Home domain of a federated subject id (`user@domain`).
pub(crate) fn home_domain(subject: &str) -> Option<&str> {
    subject.rsplit_once('@').map(|(_, d)| d)
}

/// Exposes every [`PdpMetrics`] field of `pdp` (evaluation work
/// flattened) as `dacs_pdp_*`; a domain's PDPs share the names, so the
/// registry reports their sum; without a registry there is nothing to
/// do. The destructuring is exhaustive on purpose: a new field that is
/// not exposed fails to compile.
fn expose_pdp(registry: Option<&dacs_telemetry::Registry>, pdp: &Arc<Pdp>) {
    let Some(registry) = registry else { return };
    let pdp = Arc::clone(pdp);
    registry.expose(move || {
        let PdpMetrics {
            decisions,
            eval:
                EvalMetrics {
                    rules_evaluated,
                    policies_evaluated,
                    policy_sets_evaluated,
                    targets_checked,
                    expr:
                        ExprStats {
                            functions_applied,
                            attribute_lookups,
                        },
                },
        } = pdp.metrics();
        vec![
            ("dacs_pdp_decisions_total", decisions),
            ("dacs_pdp_rules_evaluated_total", rules_evaluated),
            ("dacs_pdp_policies_evaluated_total", policies_evaluated),
            (
                "dacs_pdp_policy_sets_evaluated_total",
                policy_sets_evaluated,
            ),
            ("dacs_pdp_targets_checked_total", targets_checked),
            ("dacs_pdp_functions_applied_total", functions_applied),
            ("dacs_pdp_attribute_lookups_total", attribute_lookups),
        ]
    });
}

/// Exposes the PIP chain's [`PipStats`] as `dacs_pip_*` (exhaustive
/// destructuring, as in [`expose_pdp`]).
fn expose_pips(registry: Option<&dacs_telemetry::Registry>, pips: &Arc<PipRegistry>) {
    let Some(registry) = registry else { return };
    let pips = Arc::clone(pips);
    registry.expose(move || {
        let PipStats { lookups, resolved } = pips.stats();
        vec![
            ("dacs_pip_lookups_total", lookups),
            ("dacs_pip_resolved_total", resolved),
        ]
    });
}

/// The decision-plane parts [`DomainBuilder::build`] assembles: the
/// root PAP, the reference PDP, the optional cluster with its
/// syndication tree and replica-leaf map, and the decision source the
/// PEP binds to.
type DecisionPlane = (
    Arc<Pap>,
    Arc<Pdp>,
    Option<Arc<PdpCluster>>,
    Option<Mutex<SyndicationTree>>,
    Vec<(String, usize)>,
    Arc<dyn DecisionSource>,
);

/// Builder for [`Domain`].
pub struct DomainBuilder {
    name: String,
    policies: Vec<Policy>,
    /// The store [`Domain::idp_attributes`] will be: provisioned in
    /// place, never copied.
    idp_attributes: Arc<StaticAttributes>,
    pep_cache: Option<CacheConfig>,
    seed: u64,
    cluster: Option<ClusterBuilder>,
    shards: usize,
    replicas_per_shard: usize,
    telemetry: Option<Arc<dacs_telemetry::Telemetry>>,
    capability_ttl_ms: Option<u64>,
}

impl DomainBuilder {
    /// Adds a policy to the domain's repository (combined under the
    /// domain root policy set).
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policies.push(policy);
        self
    }

    /// Parses and adds a DSL policy.
    ///
    /// # Panics
    ///
    /// Panics on DSL parse errors (builder inputs are programmer-owned).
    pub fn policy_dsl(self, src: &str) -> Self {
        let policy = dacs_policy::dsl::parse_policy(src).expect("valid policy DSL");
        self.policy(policy)
    }

    /// Provisions a subject attribute at the domain's IdP.
    pub fn subject_attr(
        self,
        subject: &str,
        name: &str,
        value: impl Into<dacs_policy::attr::AttrValue>,
    ) -> Self {
        self.idp_attributes.add_subject_attr(subject, name, value);
        self
    }

    /// Enables the PEP decision cache.
    pub fn pep_cache(mut self, config: CacheConfig) -> Self {
        self.pep_cache = Some(config);
        self
    }

    /// Key-generation seed (determinism across runs).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Backs the domain's decision point with a full [`PdpCluster`]
    /// built from `template` instead of a single engine. The template
    /// carries quorum mode, fan-out pool and
    /// (crucially, for VO-wide discovery and failover) a shared
    /// [`dacs_pdp::PdpDirectory`]; the builder renames it to the
    /// domain name, creates the replica PDPs itself — each bound to a
    /// leaf PAP of the domain's syndication tree, so policy updates
    /// and epochs flow end to end — and adds the shards per
    /// [`DomainBuilder::cluster_topology`].
    pub fn clustered(mut self, template: ClusterBuilder) -> Self {
        self.cluster = Some(template);
        self
    }

    /// Shard layout for a clustered domain (default: 1 shard × 3
    /// replicas). Ignored without [`DomainBuilder::clustered`].
    ///
    /// # Panics
    ///
    /// Panics (at [`DomainBuilder::build`]) if either count is zero.
    pub fn cluster_topology(mut self, shards: usize, replicas_per_shard: usize) -> Self {
        self.shards = shards;
        self.replicas_per_shard = replicas_per_shard;
        self
    }

    /// Enables the signed-capability fast path (opt-in): the decision
    /// service — single engine or cluster, wrapped in a
    /// [`MintingSource`] either way — mints an
    /// HMAC-signed token with every unconditional permit, the PEP
    /// caches and verifies tokens locally for `ttl_ms`, and every
    /// [`Domain::propagate_policy`] advances the authority's epoch so
    /// outstanding tokens die with the policy state they were minted
    /// under.
    pub fn capability(mut self, ttl_ms: u64) -> Self {
        self.capability_ttl_ms = Some(ttl_ms);
        self
    }

    /// Threads a telemetry registry + tracer through the whole decision
    /// path: the PEP (root spans), the cluster (route/fan-out/quorum and
    /// per-replica spans, each feeding its stage's histogram) and — for a
    /// clustered domain — the syndication tree (push/catch-up counters,
    /// epoch and offline-lag gauges). The registry also reads every
    /// counter the PEP, its caches, the cluster, the capability
    /// authority, the PDPs and the PIP chain already keep in their own
    /// stats structs, so the exposition is complete without a second
    /// count. One registry per domain keeps per-domain breakdowns
    /// separable; share one `Arc` across domains to aggregate instead.
    pub fn telemetry(mut self, telemetry: Arc<dacs_telemetry::Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Wires everything together.
    pub fn build(self, ctx: &CryptoCtx) -> Domain {
        let name = self.name;
        let root_id = PolicyId::new(format!("{name}-root"));
        let mut root = PolicySet::new(root_id.clone(), CombiningAlg::DenyOverrides);
        for policy in &self.policies {
            root = root.with_policy_ref(PolicyId::new(policy.id.as_str()));
        }

        let mut pips = PipRegistry::new();
        pips.add(self.idp_attributes.clone());
        pips.add(Arc::new(EnvironmentProvider));
        let pips = Arc::new(pips);
        let registry = self.telemetry.as_deref().map(|t| t.registry());
        expose_pips(registry, &pips);
        let root_elem = PolicyElement::PolicySetRef(root_id);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let capability = self.capability_ttl_ms.map(|ttl| {
            let mut authority = CapabilityAuthority::new(CapabilityKey::generate(&mut rng), ttl);
            if let Some(t) = &self.telemetry {
                authority = authority.with_telemetry(t);
            }
            Arc::new(authority)
        });

        let (pap, pdp, cluster, syndication, replica_leaves, source): DecisionPlane =
            match self.cluster {
                None => {
                    let pap = Arc::new(Pap::new(format!("pap.{name}")));
                    for policy in self.policies {
                        pap.submit("domain-bootstrap", policy, 0)
                            .expect("bootstrap submission cannot be denied");
                    }
                    pap.install_set(root).expect(ROOT_RESOLVES);
                    let pdp = Arc::new(Pdp::new(
                        format!("pdp.{name}"),
                        pap.clone(),
                        root_elem,
                        pips,
                    ));
                    expose_pdp(registry, &pdp);
                    (pap, pdp.clone(), None, None, Vec::new(), pdp)
                }
                Some(template) => {
                    assert!(self.shards >= 1, "a clustered domain needs shards");
                    assert!(self.replicas_per_shard >= 1, "shards need replicas");
                    // The domain authority is the syndication root; every
                    // replica PDP reads a leaf PAP below it.
                    let mut tree = SyndicationTree::new(format!("pap.{name}"));
                    if let Some(t) = &self.telemetry {
                        tree = tree.with_telemetry(t);
                    }
                    let pap = tree.node(0).pap.clone();
                    pap.install_set(root.clone()).expect(ROOT_RESOLVES);
                    let mut builder = template.named(name.clone());
                    if let Some(t) = &self.telemetry {
                        builder = builder.telemetry(Arc::clone(t));
                    }
                    let mut replica_leaves = Vec::new();
                    for s in 0..self.shards {
                        let mut replicas: Vec<Arc<dyn DecisionBackend>> =
                            Vec::with_capacity(self.replicas_per_shard);
                        for r in 0..self.replicas_per_shard {
                            let replica_name = format!("pdp.{name}.s{s}r{r}");
                            let leaf = tree.add_child(0, replica_name.clone(), None);
                            let leaf_pap = &tree.node(leaf).pap;
                            leaf_pap.install_set(root.clone()).expect(ROOT_RESOLVES);
                            let pdp = Arc::new(Pdp::new(
                                replica_name.clone(),
                                leaf_pap.clone(),
                                root_elem.clone(),
                                pips.clone(),
                            ));
                            expose_pdp(registry, &pdp);
                            replicas.push(pdp);
                            replica_leaves.push((replica_name, leaf));
                        }
                        builder = builder.shard(replicas);
                    }
                    // Bootstrap policies flow through the tree so the root
                    // and every replica share content *and* epoch stamps.
                    for policy in self.policies {
                        tree.propagate(policy, 0);
                    }
                    let cluster = Arc::new(builder.build());
                    // The reference engine on the root PAP: it always
                    // reflects the authority's latest policies (ground
                    // truth for experiments and tests).
                    let pdp = Arc::new(Pdp::new(
                        format!("pdp.{name}"),
                        pap.clone(),
                        root_elem,
                        pips,
                    ));
                    expose_pdp(registry, &pdp);
                    let source = Arc::new(ClusteredDecisionSource::new(cluster.clone()));
                    (
                        pap,
                        pdp,
                        Some(cluster),
                        Some(Mutex::new(tree)),
                        replica_leaves,
                        source,
                    )
                }
            };

        // The one place tokens are minted, whatever the decision plane.
        let source: Arc<dyn DecisionSource> = match &capability {
            Some(authority) => Arc::new(MintingSource::new(source, authority.clone())),
            None => source,
        };

        let key = Arc::new(SigningKey::generate_sim(ctx.registry(), &mut rng));

        let log_handler = Arc::new(LogObligationHandler::new());
        let mut pep = Pep::builder(format!("pep.{name}"))
            .audience(name.clone())
            .source(source.clone())
            .crypto(ctx.clone())
            .handler(log_handler.clone())
            .handler(Arc::new(NotifyObligationHandler::new()));
        if let Some(cfg) = self.pep_cache {
            pep = pep.cache(cfg);
        }
        if let Some(t) = self.telemetry {
            pep = pep.telemetry(t);
        }
        if let Some(authority) = &capability {
            pep = pep.capability_fastpath(authority.clone(), 4096);
        }

        let domain = Domain {
            name,
            pap,
            pdp,
            pep: Arc::new(pep.build()),
            cluster,
            capability,
            idp_attributes: self.idp_attributes,
            key,
            log_handler,
            source,
            syndication,
            replica_leaves,
        };
        // The bootstrap pushes above already advanced the domain epoch;
        // announce it, so first-mint tokens verify and first votes count.
        domain.announce(domain.policy_epoch());
        domain
    }
}

/// A replica that permits everything except the subjects in `trips`,
/// on which it panics — a backend bug, for the fail-safe tests.
#[cfg(test)]
struct Tripwire {
    name: &'static str,
    trips: &'static [&'static str],
}

#[cfg(test)]
impl Tripwire {
    fn replica(name: &'static str, trips: &'static [&'static str]) -> Arc<dyn DecisionBackend> {
        Arc::new(Tripwire { name, trips })
    }
}

#[cfg(test)]
impl DecisionBackend for Tripwire {
    fn name(&self) -> &str {
        self.name
    }
    fn decide(&self, request: &RequestContext, _now_ms: u64) -> Response {
        let subject = request.subject_id().unwrap_or_default();
        assert!(!self.trips.contains(&subject), "backend bug");
        Response::decision(dacs_policy::policy::Decision::Permit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacs_pep::{EnforceOptions, EnforceRequest};
    use dacs_policy::policy::Decision;
    use dacs_policy::request::RequestContext;

    #[test]
    fn builder_wires_working_domain() {
        let ctx = CryptoCtx::new();
        let domain = Domain::builder("hospital-a")
            .policy_dsl(
                r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#,
            )
            .subject_attr("alice@hospital-a", "role", "doctor")
            .build(&ctx);

        let req = RequestContext::basic("alice@hospital-a", "ehr/1", "read");
        assert_eq!(domain.pdp.decide(&req, 0).decision, Decision::Permit);
        let result = domain.pep.serve(EnforceRequest::of(&req, 0));
        assert!(result.allowed);
        assert!(domain.is_home_of("alice@hospital-a"));
        assert!(!domain.is_home_of("bob@lab-b"));
        assert_eq!(home_domain("bob@lab-b"), Some("lab-b"));
        assert_eq!(home_domain("no-at-sign"), None);
    }

    const DOCTOR_GATE: &str = r#"
policy "gate" deny-unless-permit {
  rule "doctors" permit {
    condition is-in("doctor", attr(subject, "role"))
  }
}
"#;

    #[test]
    fn clustered_builder_backs_the_pep_with_a_quorum() {
        let domain = Domain::builder("ward")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-grey@ward", "role", "doctor")
            .clustered(ClusterBuilder::new("ward").quorum(dacs_cluster::QuorumMode::Majority))
            .telemetry(Arc::new(dacs_telemetry::Telemetry::new()))
            .build(&CryptoCtx::new());
        assert!(domain.is_clustered());
        let names = domain.replica_names();
        assert_eq!(
            names,
            vec!["pdp.ward.s0r0", "pdp.ward.s0r1", "pdp.ward.s0r2"]
        );
        // Bootstrap policies flowed through the syndication tree: one
        // epoch stamp per policy, shared by root and replicas.
        assert_eq!(domain.policy_epoch(), PolicyEpoch(1));
        assert_eq!(domain.pdp.policy_epoch(), PolicyEpoch(1));

        let cluster = domain.cluster.as_ref().expect("clustered");
        // Replicas register under the *domain* name, so ordinary
        // discovery finds them.
        assert_eq!(cluster.directory().endpoints_in("ward").len(), 3);

        let req = RequestContext::basic("dr-grey@ward", "ehr/1", "read");
        assert!(domain.pep.serve(EnforceRequest::of(&req, 0)).allowed);
        let m = cluster.metrics();
        assert_eq!(m.queries, 1, "enforcement rode the cluster");
        assert_eq!(m.replica_queries, 3, "majority fans out to every replica");
        assert_eq!(m.batches, 0, "a single decision is no batch");

        // One replica down: the quorum degrades but still answers; all
        // down: fail-safe deny, never a silent grant.
        domain.cluster.as_ref().unwrap().mark_down(&names[0]);
        assert!(domain.pep.serve(EnforceRequest::of(&req, 1)).allowed);
        assert_eq!(cluster.metrics().degraded, 1);
        for name in &names {
            cluster.mark_down(name);
        }
        let denied = domain.pep.serve(EnforceRequest::of(&req, 2));
        assert!(!denied.allowed);
        assert!(denied.reason.unwrap().contains("no eligible replica"));
        assert_eq!(cluster.metrics().unavailable, 1);
        // The blackout's fail-safe denial shows in the registry too —
        // the exposition and the stats snapshot count in one place.
        let stats = domain.pep.stats();
        assert_eq!(stats.failsafe_denials, 1);
        assert_eq!(
            cluster
                .telemetry()
                .expect("telemetry attached")
                .registry()
                .counter_value("dacs_pep_failsafe_denials_total"),
            Some(stats.failsafe_denials)
        );
    }

    /// Review regression: a policy update must move the PEP past its
    /// cached answers too — a cached grant must never outlive the
    /// policy it was decided under, clustered or not. Nothing is
    /// flushed: the cached permit carries the epoch it was decided at,
    /// and the PEP's epoch is past it.
    #[test]
    fn propagate_policy_moves_the_pep_past_its_cached_answers() {
        let ctx = CryptoCtx::new();
        let lockdown = || {
            dacs_policy::dsl::parse_policy(
                r#"policy "gate" first-applicable { rule "lockdown" deny { } }"#,
            )
            .unwrap()
        };
        let cache = CacheConfig {
            capacity: 64,
            ttl_ms: 1_000_000,
        };
        // Clustered domain with a PEP cache in front of the quorum.
        let clustered = Domain::builder("ward")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-grey@ward", "role", "doctor")
            .clustered(ClusterBuilder::new("ward"))
            .pep_cache(cache)
            .build(&ctx);
        let req = RequestContext::basic("dr-grey@ward", "ehr/1", "read");
        assert!(clustered.pep.serve(EnforceRequest::of(&req, 0)).allowed);
        assert!(
            clustered.pep.serve(EnforceRequest::of(&req, 1)).allowed,
            "cached grant"
        );
        clustered.propagate_policy(lockdown(), 10);
        assert!(
            !clustered.pep.serve(EnforceRequest::of(&req, 11)).allowed,
            "the cached permit must not survive the lockdown"
        );
        // Same guarantee for a single-engine domain, whose epoch also
        // advances per update (it is its own syndication authority).
        let single = Domain::builder("ward")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-grey@ward", "role", "doctor")
            .pep_cache(cache)
            .build(&ctx);
        assert_eq!(single.policy_epoch(), PolicyEpoch::ZERO);
        assert!(single.pep.serve(EnforceRequest::of(&req, 0)).allowed);
        assert_eq!(single.propagate_policy(lockdown(), 10), PolicyEpoch(1));
        assert_eq!(single.policy_epoch(), PolicyEpoch(1));
        assert!(!single.pep.serve(EnforceRequest::of(&req, 11)).allowed);
    }

    /// The capability opt-in end to end: first permit rides the quorum
    /// and mints, later permits verify locally, a propagated update
    /// revokes every outstanding token in the same tick.
    #[test]
    fn capability_domain_mints_verifies_and_revokes() {
        let ctx = CryptoCtx::new();
        let domain = Domain::builder("ward")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-grey@ward", "role", "doctor")
            .clustered(ClusterBuilder::new("ward").quorum(dacs_cluster::QuorumMode::Majority))
            .capability(1_000_000)
            .build(&ctx);
        let authority = domain.capability.as_ref().expect("capability enabled");
        assert_eq!(authority.current_epoch(), domain.policy_epoch());

        let cluster = domain.cluster.as_ref().unwrap();
        let req = RequestContext::basic("dr-grey@ward", "ehr/1", "read");
        for t in 0..10 {
            assert!(domain.pep.serve(EnforceRequest::of(&req, t)).allowed);
        }
        assert_eq!(
            cluster.metrics().queries,
            1,
            "nine permits verified locally"
        );
        assert_eq!(domain.pep.stats().token_hits, 9);

        // The lockdown revokes the token the instant it propagates.
        let lockdown = dacs_policy::dsl::parse_policy(
            r#"policy "gate" first-applicable { rule "lockdown" deny { } }"#,
        )
        .unwrap();
        let epoch = domain.propagate_policy(lockdown, 10);
        assert_eq!(authority.current_epoch(), epoch);
        assert!(
            !domain.pep.serve(EnforceRequest::of(&req, 10)).allowed,
            "a revoked token must not outlive the push, even in its tick"
        );
        assert_eq!(domain.pep.stats().token_rejects, 1);
        assert_eq!(authority.stats().rejected_stale_epoch, 1);
        assert_eq!(
            cluster.metrics().queries,
            2,
            "the reject re-consulted the quorum"
        );
        // Denies do not mint.
        assert_eq!(authority.stats().minted, 1);
    }

    /// Single-engine domains mint through [`MintingSource`]; their
    /// self-stamped epochs revoke just the same.
    #[test]
    fn single_engine_capability_domain() {
        let ctx = CryptoCtx::new();
        let domain = Domain::builder("clinic")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-yang@clinic", "role", "doctor")
            .capability(1_000_000)
            .build(&ctx);
        let req = RequestContext::basic("dr-yang@clinic", "ehr/2", "read");
        assert!(domain.pep.serve(EnforceRequest::of(&req, 0)).allowed);
        assert!(domain.pep.serve(EnforceRequest::of(&req, 1)).allowed);
        assert_eq!(domain.pdp.metrics().decisions, 1, "second permit was local");
        let lockdown = dacs_policy::dsl::parse_policy(
            r#"policy "gate" first-applicable { rule "lockdown" deny { } }"#,
        )
        .unwrap();
        domain.propagate_policy(lockdown, 5);
        assert!(!domain.pep.serve(EnforceRequest::of(&req, 6)).allowed);
        assert_eq!(domain.pep.stats().token_rejects, 1);
    }

    #[test]
    fn replica_lifecycle_flows_through_the_domain_syndication_tree() {
        let ctx = CryptoCtx::new();
        let domain = Domain::builder("ward")
            .policy_dsl(DOCTOR_GATE)
            .subject_attr("dr-grey@ward", "role", "doctor")
            .clustered(ClusterBuilder::new("ward").quorum(dacs_cluster::QuorumMode::Majority))
            .build(&ctx);
        let names = domain.replica_names();
        let cluster = domain.cluster.as_ref().unwrap();
        let req = RequestContext::basic("dr-grey@ward", "ehr/1", "read");
        assert!(domain.pep.serve(EnforceRequest::of(&req, 0)).allowed);

        // r1 crashes; the lockdown lands while it sleeps.
        assert!(domain.crash_replica(&names[1]));
        assert_eq!(domain.replica_phase(&names[1]), Some(ReplicaPhase::Crashed));
        let lockdown = dacs_policy::dsl::parse_policy(
            r#"policy "gate" first-applicable { rule "lockdown" deny { } }"#,
        )
        .unwrap();
        assert_eq!(domain.propagate_policy(lockdown, 10), PolicyEpoch(2));
        // The reference engine on the root PAP flips immediately.
        assert_eq!(domain.pdp.decide(&req, 11).decision, Decision::Deny);

        // Marked up on the cluster alone, its leaf still offline in the
        // tree: it is `Healthy` and asked first, but it answers behind
        // the domain's epoch, so its vote is withdrawn.
        cluster.mark_up(&names[1]);
        assert_eq!(domain.replica_phase(&names[1]), Some(ReplicaPhase::Healthy));
        let denied = domain.pep.serve(EnforceRequest::of(&req, 12));
        assert!(!denied.allowed, "the fresh pair enforces the lockdown");
        assert_eq!(cluster.metrics().stale_decisions_avoided, 1);
        assert_eq!(cluster.metrics().resyncs, 0, "nothing replayed yet");

        // The domain's recovery brings the leaf online and replays the
        // lockdown through the tree; the next decide counts its vote.
        assert!(domain.recover_replica(&names[1]));
        let other = RequestContext::basic("dr-grey@ward", "ehr/2", "read");
        assert!(!domain.pep.serve(EnforceRequest::of(&other, 20)).allowed);
        assert_eq!(cluster.metrics().resyncs, 1);
        assert_eq!(cluster.metrics().stale_decisions_avoided, 1);

        // Unknown names are a polite no-op.
        assert!(!domain.crash_replica("pdp.ward.s9r9"));
        assert!(!domain.recover_replica("pdp.ward.s9r9"));
    }

    #[test]
    fn multiple_policies_combined_at_root() {
        let ctx = CryptoCtx::new();
        let domain = Domain::builder("d")
            .policy_dsl(
                r#"
policy "allow-reads" permit-overrides {
  rule "r" permit { target { action "id" == "read"; } }
}
"#,
            )
            .policy_dsl(
                r#"
policy "block-secret" deny-overrides {
  rule "d" deny { target { resource "id" ~= "secret/*"; } }
}
"#,
            )
            .build(&ctx);
        // Root combines with deny-overrides: secret reads denied.
        let ok = RequestContext::basic("u@d", "public/1", "read");
        let blocked = RequestContext::basic("u@d", "secret/1", "read");
        assert!(domain.pep.serve(EnforceRequest::of(&ok, 0)).allowed);
        assert!(!domain.pep.serve(EnforceRequest::of(&blocked, 0)).allowed);
    }

    /// A backend that panics is a lost vote wherever it was evaluated,
    /// judged where it matters — at the PEP: two surviving votes still
    /// permit; three lost votes are an unavailable shard, which the PEP
    /// denies fail-safe and counts once, alone or inside a batch; and
    /// whoever caught the panics serves the next request — the
    /// enforcing thread of a cluster built without a scheduler, the two
    /// workers of one built with, and its deciding thread too, once the
    /// collector evaluates there.
    #[test]
    fn panicking_pool_replicas_cost_votes_and_the_pep_fails_safe() {
        use dacs_cluster::{QuorumMode, SchedulerConfig};
        for scheduler in [None, Some(SchedulerConfig::new(2))] {
            let builder = ClusterBuilder::new("pool-panic")
                .quorum(QuorumMode::Majority)
                .shard(vec![
                    Tripwire::replica("r0", &["trips-one", "trips-all"]),
                    Tripwire::replica("r1", &["trips-all"]),
                    Tripwire::replica("r2", &["trips-all"]),
                ]);
            let cluster = Arc::new(match scheduler {
                Some(config) => builder.scheduler(config).build(),
                None => builder.build(),
            });
            panicking_replicas_cost_votes(cluster);
        }
    }

    fn panicking_replicas_cost_votes(cluster: Arc<dacs_cluster::PdpCluster>) {
        let source = ClusteredDecisionSource::new(cluster.clone());
        let pep = Pep::builder("pep.pool").source(Arc::new(source)).build();
        let serve = |subject: &str, now_ms| {
            let req = RequestContext::basic(subject, "ehr/1", "read");
            pep.serve(EnforceRequest::of(&req, now_ms))
        };

        assert!(serve("trips-one", 0).allowed, "two permits are a majority");
        let m = cluster.metrics();
        assert_eq!((m.queries, m.replica_queries), (1, 3));
        // A lost vote is not a lost replica: all three stayed eligible,
        // so the collector reported a full-strength group.
        assert_eq!((m.degraded, m.unavailable), (0, 0));

        let denied = serve("trips-all", 1);
        assert!(!denied.allowed);
        assert_eq!(denied.decision, Decision::Indeterminate);
        assert_eq!(pep.stats().failsafe_denials, 1);
        assert_eq!(pep.stats().denied, 0);
        assert_eq!(cluster.metrics().unavailable, 1);

        assert!(serve("alice", 2).allowed, "the workers survived");
        assert_eq!(cluster.metrics().unavailable, 1);
        assert_eq!(pep.stats().allowed, 2);

        // In one batch the panicking request's answer stays its own:
        // its neighbours are served, the repeat among them coalesced.
        let batch = ["trips-all", "alice", "trips-one", "alice"]
            .map(|subject| RequestContext::basic(subject, "ehr/1", "read"));
        let results = pep.serve_batch(&batch, 3, EnforceOptions::default());
        let verdicts: Vec<_> = results.iter().map(|r| (r.allowed, r.decision)).collect();
        let allow = (true, Decision::Permit);
        assert_eq!(
            verdicts,
            [(false, Decision::Indeterminate), allow, allow, allow]
        );
        assert_eq!(pep.stats().failsafe_denials, 2);
        assert_eq!(pep.stats().denied, 0);
        assert_eq!(cluster.metrics().coalesced, 1);
        assert_eq!(cluster.metrics().unavailable, 2);

        // The same on the caller, pool or no pool: replicas that have
        // been answering faster than a pool hand-off costs are evaluated
        // by the deciding thread, which catches their panics itself.
        for replica in ["r0", "r1", "r2"] {
            let record = cluster.directory().register(replica, "pool-panic");
            (0..64).for_each(|_| record.record_latency_ns(1));
        }
        let on_caller = cluster.metrics().caller_evaluations;
        assert!(!serve("trips-all", 4).allowed);
        assert_eq!(cluster.metrics().caller_evaluations - on_caller, 3);
        assert_eq!(pep.stats().failsafe_denials, 3);
        assert_eq!(cluster.metrics().unavailable, 3);
        assert!(serve("alice", 5).allowed, "the caller survived");
    }

    /// A `decide` that panics inside a batch withdraws its own vote
    /// only: that request is denied fail-safe, the rest of the batch is
    /// served. A panic that does unwind out of a batch — here from the
    /// source hop, which no vote guards — reaches that batch's caller
    /// alone, and the next batch is served in full.
    #[test]
    fn a_panic_inside_a_batch_reaches_only_its_own_request_or_caller() {
        use dacs_cluster::QuorumMode;
        use std::sync::atomic::{AtomicBool, Ordering};
        /// The clustered source, with a bug that panics once armed.
        struct Bomb(ClusteredDecisionSource, AtomicBool);
        impl DecisionSource for Bomb {
            fn decide_batch_with_grants_classed(
                &self,
                requests: &[RequestContext],
                now_ms: u64,
                class: DecisionClass,
            ) -> Vec<(Response, Option<CapabilityToken>)> {
                assert!(!self.1.swap(false, Ordering::SeqCst), "source bug");
                self.0
                    .decide_batch_with_grants_classed(requests, now_ms, class)
            }
        }
        let cluster = ClusterBuilder::new("batch-panic")
            .quorum(QuorumMode::FirstHealthy)
            .shard(vec![Tripwire::replica("tripwire", &["boom"])])
            .build();
        let bomb = Arc::new(Bomb(
            ClusteredDecisionSource::new(Arc::new(cluster)),
            AtomicBool::new(false),
        ));
        let pep = Pep::builder("pep.batch").source(bomb.clone()).build();
        let batch = |first: &str| -> Vec<RequestContext> {
            std::iter::once(first.to_string())
                .chain((1..6).map(|i| format!("user-{i}")))
                .map(|subject| RequestContext::basic(subject, "ehr/1", "read"))
                .collect()
        };

        let results = pep.serve_batch(&batch("boom"), 0, EnforceOptions::default());
        let verdicts: Vec<_> = results.iter().map(|r| (r.allowed, r.decision)).collect();
        let mut expected = vec![(true, Decision::Permit); 6];
        expected[0] = (false, Decision::Indeterminate);
        assert_eq!(verdicts, expected);
        assert_eq!(pep.stats().failsafe_denials, 1);
        assert_eq!(pep.stats().denied, 0);

        bomb.1.store(true, Ordering::SeqCst);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pep.serve_batch(&batch("user-0"), 1, EnforceOptions::default())
        }));
        assert!(unwound.is_err(), "the armed source unwinds to the caller");

        // Not wedged or poisoned: the next batch is served in full.
        let results = pep.serve_batch(&batch("user-0"), 2, EnforceOptions::default());
        assert!(results.iter().all(|r| r.allowed), "{results:?}");
        assert_eq!(pep.stats().failsafe_denials, 1);
        assert_eq!(pep.stats().denied, 0);
    }
}
