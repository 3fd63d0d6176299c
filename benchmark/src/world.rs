//! The four workloads: each a domain topology, a request table with
//! its oracle verdicts, a pre-drawn request sequence, and the loop
//! that enforces it. Everything is built from the seed in set-up; the
//! program under test only ever sees `&RequestContext`s, and no
//! string is formatted inside a timed region.

use crate::trace::{Recorder, TimedSource};
use dacs::cluster::{ClusterBuilder, QuorumMode, SchedulerConfig};
use dacs::core::scenario::alternating_lockdown_gate;
use dacs::core::ZipfSampler;
use dacs::crypto::sign::CryptoCtx;
use dacs::federation::{Domain, DomainBuilder};
use dacs::pdp::CacheConfig;
use dacs::pep::{EnforceOptions, EnforceRequest, NotifyObligationHandler, Pep};
use dacs::policy::policy::{Decision, Policy};
use dacs::policy::request::RequestContext;
use dacs::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One benchmark workload (names are the contract's).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Single engine behind a PEP cache an eighth of the working set.
    CachedZipf,
    /// 2×3 majority quorum, sequential fan-out, nothing cached.
    QuorumMiss,
    /// 1×5 majority quorum through the lane scheduler, singles and batches.
    PlannedQuorum,
    /// Capability fast path beside policy pushes and replica churn.
    TokenChurn,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [
        Kind::CachedZipf,
        Kind::QuorumMiss,
        Kind::PlannedQuorum,
        Kind::TokenChurn,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CachedZipf => "cached_zipf",
            Kind::QuorumMiss => "quorum_miss",
            Kind::PlannedQuorum => "planned_quorum",
            Kind::TokenChurn => "token_churn",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The domain the workload enforces in.
    fn domain_name(self) -> &'static str {
        match self {
            Kind::CachedZipf => "mega",
            Kind::QuorumMiss => "q",
            Kind::PlannedQuorum => "pq",
            Kind::TokenChurn => "cap",
        }
    }
}

/// How large a workload is built and how long its laps are.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Subjects provisioned at the IdP.
    pub subjects: usize,
    /// PEP decision-cache capacity (`cached_zipf` only).
    pub pep_cache: usize,
    /// Untimed enforcements before the first lap.
    pub warmup_ops: u64,
    /// Enforcements per timed lap.
    pub lap_ops: u64,
    /// Length of the pre-drawn request sequence (cycled).
    pub seq_len: usize,
    /// `token_churn` round length: one crash, two pushes, one recovery.
    pub round: u64,
}

/// Single enforcements before each `serve_batch` of [`BATCH`].
const SINGLES: u64 = 48;
/// Requests per `serve_batch`.
pub const BATCH: u64 = 16;
/// One `planned_quorum` cycle.
const CYCLE: u64 = SINGLES + BATCH;
/// Pre-built batches (cycled).
const BATCHES: usize = 1024;
/// The PEP cache TTL of `cached_zipf`, in simulated ms (100 ops each).
const PEP_CACHE_TTL_MS: u64 = 30_000;
/// Token-cache capacity `Domain::build` gives its PEP; the traced PEP
/// mirrors it.
const TOKEN_CACHE: usize = 4096;
/// Token lifetime beyond any run.
const TOKEN_TTL_MS: u64 = 1 << 40;
const CANARY: (&str, &str, &str) = ("user-0@cap", "records/0", "read");

impl Sizes {
    /// Full scale, or the 1/100 `quick` scale. Laps are short (about
    /// 0.15 s here) so that the host clock rarely changes within one.
    pub fn of(kind: Kind, quick: bool) -> Sizes {
        let (subjects, pep_cache, warmup_ops, lap_ops, seq_len, round) = match (kind, quick) {
            (Kind::CachedZipf, false) => (1 << 16, 8_192, 125_000, 60_000, 1 << 20, 0),
            (Kind::CachedZipf, true) => (1 << 12, 512, 5_000, 3_000, 1 << 14, 0),
            (Kind::QuorumMiss, false) => (4096, 0, 5_000, 10_000, 1 << 18, 0),
            (Kind::QuorumMiss, true) => (4096, 0, 200, 1_600, 1 << 12, 0),
            (Kind::PlannedQuorum, false) => (4096, 0, 50 * CYCLE, 100 * CYCLE, 1 << 18, 0),
            (Kind::PlannedQuorum, true) => (4096, 0, 2 * CYCLE, 25 * CYCLE, 1 << 12, 0),
            (Kind::TokenChurn, false) => (512, 0, 20_000, 40_000, 1 << 18, 20_000),
            (Kind::TokenChurn, true) => (512, 0, 400, 2_000, 1 << 12, 400),
        };
        Sizes {
            subjects,
            pep_cache,
            warmup_ops,
            lap_ops,
            seq_len,
            round,
        }
    }
}

/// Verdict bookkeeping for every enforcement a world ever served.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Tally {
    /// Enforcements checked against the oracle.
    pub attempted: u64,
    /// Denies (fail-safe or not) where the oracle permits.
    pub failed: u64,
    /// Permits where the oracle denies — the one unforgivable outcome.
    pub false_permits: u64,
    /// Canary tokens still verifiable after the push that revoked them.
    pub canary_survivals: u64,
    /// `token_churn` cross-checks where the root-PAP engine disagreed
    /// with the verdict expected from the gate's parity.
    pub oracle_mismatches: u64,
}

impl Tally {
    fn check(&mut self, allowed: bool, expected: bool) {
        self.attempted += 1;
        self.false_permits += u64::from(allowed && !expected);
        self.failed += u64::from(!allowed && expected);
    }
}

/// Samples one lap collects (reused lap to lap).
#[derive(Default)]
pub struct LapBuf {
    /// Latency of each single `Pep::serve`, ns.
    pub lat_ns: Vec<u32>,
    /// Time spent inside the lap on the benchmark's own oracle
    /// cross-checks; not the program's, so taken off the lap clock.
    excluded_ns: u64,
}

/// A built, warmed-up workload.
pub struct World {
    /// Which workload this is.
    pub kind: Kind,
    /// The domain under test.
    pub domain: Domain,
    /// The request table.
    pub requests: Vec<RequestContext>,
    /// The root-PAP engine's verdict per request under the bootstrap
    /// (even) gate.
    pub permits: Vec<bool>,
    /// Pre-drawn indices into `requests`.
    pub seq: Vec<u32>,
    /// Pre-built `serve_batch` inputs with their oracle verdicts.
    batches: Vec<(Vec<RequestContext>, Vec<bool>)>,
    /// Span sink of the traced pass.
    pub recorder: Option<Arc<Recorder>>,
    /// Enforcements served so far; drives `now_ms = op / 100`.
    pub op: u64,
    cursor: usize,
    batch_cursor: usize,
    /// Decisions the benchmark itself asked of `domain.pdp`.
    pub oracle_calls: u64,
    /// Verdict bookkeeping since the world was built.
    pub tally: Tally,
    /// The sizes the world was built to.
    pub sizes: Sizes,
    /// Digest of the generated inputs (request table and sequences).
    pub fingerprint: u64,
    /// The gate's even (doctors permitted) and odd (lockdown) contents.
    gates: [Policy; 2],
    gate_version: u64,
    victim: String,
}

fn aux_policy(k: usize) -> String {
    format!(
        r#"
policy "aux-{k}" deny-overrides {{
  rule "quarantine" deny {{
    target {{ resource "id" ~= "aux-{k}/*"; }}
  }}
}}
"#
    )
}

/// The domain of workload `kind`: the alternating lockdown gate plus
/// sixteen quarantine policies, so every evaluation walks seventeen
/// policies and one PIP role lookup.
fn domain_builder(kind: Kind, sizes: &Sizes) -> DomainBuilder {
    let name = kind.domain_name();
    let mut b = Domain::builder(name).policy(alternating_lockdown_gate(name, 0));
    for k in 0..16 {
        b = b.policy_dsl(&aux_policy(k));
    }
    for u in 0..sizes.subjects {
        // Every eighth subject of `cached_zipf` lacks the role the
        // gate asks for, so the hot path carries denials too.
        let role = if kind == Kind::CachedZipf && u % 8 == 7 {
            "auditor"
        } else {
            "doctor"
        };
        b = b.subject_attr(&format!("user-{u}@{name}"), "role", role);
    }
    let majority = || ClusterBuilder::new(name).quorum(QuorumMode::Majority);
    match kind {
        Kind::CachedZipf => b.pep_cache(pep_cache_config(sizes)),
        Kind::QuorumMiss => b.clustered(majority().resync(true)).cluster_topology(2, 3),
        Kind::PlannedQuorum => b
            .clustered(majority().scheduler(SchedulerConfig::new(1).with_adaptive_fanout(true)))
            .cluster_topology(1, 5),
        Kind::TokenChurn => b
            .clustered(majority().resync(true))
            .cluster_topology(1, 5)
            .capability(TOKEN_TTL_MS),
    }
}

fn pep_cache_config(sizes: &Sizes) -> CacheConfig {
    CacheConfig {
        capacity: sizes.pep_cache,
        ttl_ms: PEP_CACHE_TTL_MS,
    }
}

/// The request table of workload `kind`.
fn request_table(kind: Kind, sizes: &Sizes) -> Vec<RequestContext> {
    let name = kind.domain_name();
    let user = |u: usize| format!("user-{u}@{name}");
    // `resources` records per subject; with `writes`, every fifth
    // request is a write into a quarantined `aux-*` tree (denied).
    let grid = |resources: usize, writes: bool| {
        (0..sizes.subjects * resources)
            .map(|i| {
                let (u, r) = (i % sizes.subjects, i / sizes.subjects);
                if writes && i % 5 == 4 {
                    RequestContext::basic(user(u), format!("aux-{}/{}", r % 16, u % 64), "write")
                } else {
                    RequestContext::basic(user(u), format!("records/{r}"), "read")
                }
            })
            .collect()
    };
    match kind {
        Kind::CachedZipf => (0..sizes.subjects)
            .map(|k| RequestContext::basic(user(k), format!("records/{}", k % 4096), "read"))
            .collect(),
        Kind::QuorumMiss => grid(16, true),
        Kind::PlannedQuorum => grid(4, true),
        Kind::TokenChurn => grid(2, false),
    }
}

/// Draws request indices: Zipf over the table for the two skewed
/// workloads, uniform for the others.
struct Draw {
    zipf: Option<ZipfSampler>,
    table: u32,
}

impl Draw {
    fn new(kind: Kind, table: usize) -> Draw {
        let zipf = match kind {
            Kind::CachedZipf => Some(ZipfSampler::new(table, 1.07)),
            Kind::PlannedQuorum => Some(ZipfSampler::new(table, 0.9)),
            Kind::QuorumMiss | Kind::TokenChurn => None,
        };
        Draw {
            zipf,
            table: table as u32,
        }
    }

    fn indices(&self, len: usize, rng: &mut StdRng) -> Vec<u32> {
        (0..len)
            .map(|_| match &self.zipf {
                Some(z) => z.sample(rng) as u32,
                None => rng.gen_range(0..self.table),
            })
            .collect()
    }
}

/// Times one `Pep::serve`, recording the latency (and, traced, the
/// root span) from the same two clock reads.
#[inline]
fn timed_serve(
    pep: &Pep,
    recorder: Option<&Recorder>,
    op: u64,
    request: EnforceRequest<'_>,
    lat_ns: &mut Vec<u32>,
) -> bool {
    let t0 = Instant::now();
    let span = recorder.map(|r| (r, r.open_root("serve", op, t0)));
    let allowed = black_box(pep.serve(black_box(request))).allowed;
    let t1 = Instant::now();
    if let Some((r, id)) = span {
        r.close(id, t1);
    }
    lat_ns.push((t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32);
    allowed
}

impl World {
    /// Builds workload `kind` from `seed` and warms it up. `traced`
    /// rebuilds the PEP over a [`TimedSource`]; `telemetry` threads a
    /// registry through the domain (the telemetry-cost probe).
    pub fn build(
        kind: Kind,
        seed: u64,
        sizes: Sizes,
        traced: bool,
        telemetry: Option<Arc<Telemetry>>,
    ) -> World {
        let ctx = CryptoCtx::new();
        let mut builder = domain_builder(kind, &sizes);
        if let Some(t) = telemetry {
            builder = builder.telemetry(t);
        }
        let mut domain = builder.build(&ctx);
        let recorder = traced.then(Recorder::new);
        if let Some(recorder) = &recorder {
            // Same wiring as `Domain::build` gives its PEP, over the
            // decorated source (the public `pep` field is how
            // `scenario::with_shared_cas` rebuilds PEPs too).
            let source = Arc::new(TimedSource::new(domain.decision_source(), recorder.clone()));
            let name = domain.name.clone();
            let mut pep = Pep::builder(format!("pep.{name}"))
                .audience(name)
                .source(source)
                .crypto(ctx.clone())
                .handler(domain.log_handler.clone())
                .handler(Arc::new(NotifyObligationHandler::new()));
            if kind == Kind::CachedZipf {
                pep = pep.cache(pep_cache_config(&sizes));
            }
            if let Some(authority) = &domain.capability {
                pep = pep.capability_fastpath(authority.clone(), TOKEN_CACHE);
            }
            domain.pep = Arc::new(pep.build());
        }

        let requests = request_table(kind, &sizes);
        let permits: Vec<bool> = requests
            .iter()
            .map(|r| domain.pdp.decide(r, 0).decision == Decision::Permit)
            .collect();
        let oracle_calls = requests.len() as u64;

        // One generator per (seed, workload): sequences, then batches.
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (kind as u64 + 1)));
        let draw = Draw::new(kind, requests.len());
        let seq = draw.indices(sizes.seq_len, &mut rng);
        // `DefaultHasher::new()` is keyed with constants, so the digest
        // of one input is the same in every process.
        let mut digest = DefaultHasher::new();
        seq.hash(&mut digest);
        for request in &requests {
            request.canonical_hash().hash(&mut digest);
        }
        let mut batches = Vec::new();
        if kind == Kind::PlannedQuorum {
            for _ in 0..BATCHES {
                let picks = draw.indices(BATCH as usize, &mut rng);
                picks.hash(&mut digest);
                batches.push(
                    picks
                        .iter()
                        .map(|&k| (requests[k as usize].clone(), permits[k as usize]))
                        .unzip(),
                );
            }
        }
        let fingerprint = digest.finish();

        let name = kind.domain_name();
        let victim = domain.replica_names().get(1).cloned().unwrap_or_default();
        let mut world = World {
            kind,
            domain,
            requests,
            permits,
            seq,
            batches,
            recorder,
            op: 0,
            cursor: 0,
            batch_cursor: 0,
            oracle_calls,
            tally: Tally::default(),
            sizes,
            fingerprint,
            gates: [
                alternating_lockdown_gate(name, 2),
                alternating_lockdown_gate(name, 1),
            ],
            gate_version: 0,
            victim,
        };
        // Warm-up fills caches and mints the first tokens; on
        // `token_churn` it is one whole round, every verdict checked
        // against the root-PAP engine.
        let mut scratch = LapBuf::default();
        world.run_ops(sizes.warmup_ops, &mut scratch, kind == Kind::TokenChurn);
        if let Some(recorder) = &world.recorder {
            recorder.take();
        }
        world
    }

    /// Runs one timed lap of `sizes.lap_ops` enforcements into `buf`
    /// (cleared first); returns the lap's wall clock in ns.
    pub fn run_lap(&mut self, buf: &mut LapBuf) -> u64 {
        buf.lat_ns.clear();
        buf.excluded_ns = 0;
        let started = Instant::now();
        self.run_ops(self.sizes.lap_ops, buf, false);
        (started.elapsed().as_nanos() as u64).saturating_sub(buf.excluded_ns)
    }

    /// The gate content in force: even versions permit doctors.
    fn gate_open(&self) -> bool {
        self.gate_version.is_multiple_of(2)
    }

    /// Runs `step` under a root span called `name` (traced pass only).
    fn spanned<T>(&self, name: &'static str, step: impl FnOnce(&Domain) -> T) -> T {
        let span = self
            .recorder
            .as_deref()
            .map(|r| (r, r.open_root(name, self.op, Instant::now())));
        let out = step(&self.domain);
        if let Some((r, id)) = span {
            r.close(id, Instant::now());
        }
        out
    }

    /// Pushes the next gate version (odd versions lock down, even ones
    /// restore). A canary token minted just before must not verify
    /// just after: revocation lag is zero or the run fails.
    fn push(&mut self) {
        let now_ms = self.op / 100;
        self.gate_version += 1;
        let policy = self.gates[(self.gate_version % 2) as usize].clone();
        let authority = self.domain.capability.as_ref();
        let canary = authority.map(|a| a.mint(CANARY.0, CANARY.1, CANARY.2, now_ms));
        self.spanned("push", |d| d.propagate_policy(policy, now_ms));
        if let (Some(a), Some(token)) = (authority, canary) {
            let survived = a
                .verify(&token, CANARY.0, CANARY.1, CANARY.2, now_ms)
                .is_ok();
            self.tally.canary_survivals += u64::from(survived);
        }
    }

    /// Runs a lifecycle step on the round's victim replica.
    fn lifecycle(&self, name: &'static str, step: impl FnOnce(&Domain, &str) -> bool) {
        let known = self.spanned(name, |d| step(d, &self.victim));
        assert!(known, "{name}: {} is not a replica", self.victim);
    }

    /// The next pre-drawn request index.
    fn next_index(&mut self) -> usize {
        let k = self.seq[self.cursor % self.seq.len()] as usize;
        self.cursor += 1;
        k
    }

    /// Enforces `ops` operations of the workload's shape. `checked`
    /// asks the root-PAP engine about every operation (`token_churn`'s
    /// untimed first round) instead of every 64th.
    fn run_ops(&mut self, ops: u64, buf: &mut LapBuf, checked: bool) {
        match self.kind {
            Kind::CachedZipf | Kind::QuorumMiss => {
                for _ in 0..ops {
                    let k = self.next_index();
                    let allowed = timed_serve(
                        &self.domain.pep,
                        self.recorder.as_deref(),
                        self.op,
                        EnforceRequest::of(&self.requests[k], self.op / 100),
                        &mut buf.lat_ns,
                    );
                    self.tally.check(allowed, self.permits[k]);
                    self.op += 1;
                }
            }
            Kind::PlannedQuorum => {
                assert_eq!(ops % CYCLE, 0, "planned_quorum runs whole cycles");
                for _ in 0..ops / CYCLE {
                    self.planned_cycle(buf);
                }
            }
            Kind::TokenChurn => {
                assert_eq!(ops % self.sizes.round, 0, "token_churn runs whole rounds");
                for _ in 0..ops {
                    self.churn_op(buf, checked);
                }
            }
        }
    }

    /// 48 single enforcements alternating the interactive lane (5 ms
    /// deadline) with the default lane, then one bulk-lane batch of 16.
    fn planned_cycle(&mut self, buf: &mut LapBuf) {
        for i in 0..SINGLES {
            let k = self.next_index();
            let mut request = EnforceRequest::of(&self.requests[k], self.op / 100);
            if i % 2 == 0 {
                request = request.interactive().with_deadline_ms(5);
            }
            let allowed = timed_serve(
                &self.domain.pep,
                self.recorder.as_deref(),
                self.op,
                request,
                &mut buf.lat_ns,
            );
            self.tally.check(allowed, self.permits[k]);
            self.op += 1;
        }
        let (requests, permits) = &self.batches[self.batch_cursor % self.batches.len()];
        self.batch_cursor += 1;
        let results = self.spanned("serve_batch", |d| {
            black_box(
                d.pep
                    .serve_batch(black_box(requests), self.op / 100, EnforceOptions::bulk()),
            )
        });
        assert_eq!(
            results.len() as u64,
            BATCH,
            "one result per batched request"
        );
        for (result, &expected) in results.iter().zip(permits) {
            self.tally.check(result.allowed, expected);
        }
        self.op += BATCH;
    }

    /// One `token_churn` operation: the round's lifecycle step, if one
    /// is due at this phase, then an enforcement.
    fn churn_op(&mut self, buf: &mut LapBuf, checked: bool) {
        let round = self.sizes.round;
        let phase = self.op % round;
        let now_ms = self.op / 100;
        if phase == round / 4 {
            self.lifecycle("crash", |d, v| d.crash_replica(v));
        } else if phase == round / 2 || phase == round / 2 + round / 40 {
            self.push();
        } else if phase == round * 5 / 8 {
            self.lifecycle("recover", |d, v| d.recover_replica(v));
        } else if phase == round * 3 / 4 {
            self.lifecycle("catch_up", |d, v| d.catch_up_replica(v, now_ms));
        }
        let k = self.next_index();
        let request = &self.requests[k];
        let allowed = timed_serve(
            &self.domain.pep,
            self.recorder.as_deref(),
            self.op,
            EnforceRequest::of(request, now_ms),
            &mut buf.lat_ns,
        );
        let expected = self.gate_open() && self.permits[k];
        self.tally.check(allowed, expected);
        if checked || self.op.is_multiple_of(64) {
            let c0 = Instant::now();
            let oracle = self.domain.pdp.decide(request, now_ms).decision == Decision::Permit;
            self.oracle_calls += 1;
            self.tally.oracle_mismatches += u64::from(oracle != expected);
            buf.excluded_ns += c0.elapsed().as_nanos() as u64;
        }
        self.op += 1;
    }
}
