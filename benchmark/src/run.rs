//! The two passes of a benchmark run. The end-to-end pass times laps
//! of a warmed-up workload with nothing of the benchmark's on the
//! decision path; the per-layer pass repeats a fixed number of
//! operations untraced and traced, reads the layers' own counters
//! (which repeat exactly for one seed), and probes each layer's public
//! entry point directly.

use crate::clock::Clock;
use crate::probes;
use crate::stats::{median, quiet_quartile, Better, LapStats};
use crate::trace::{self, Span};
use crate::world::{Kind, LapBuf, Sizes, World, BATCH};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds of the end-to-end pass.
    pub seconds: u64,
    /// 1/100 scale: same checks, figures not comparable.
    pub quick: bool,
}

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The figure as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one pass.
#[derive(Clone, Debug)]
pub struct Report {
    /// Enforcements checked against the oracle.
    pub attempted: u64,
    /// Denies where the oracle permits.
    pub failed: u64,
    /// The pass's metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Digest of the generated inputs.
    pub fingerprint: u64,
    /// The layers' counters over the measured operations of the
    /// per-layer pass (empty for the end-to-end pass).
    pub exact: Counters,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest laps a median is taken over.
const MIN_LAPS: usize = 10;
/// Laps of each fixed-count pass of the per-layer run (about a second).
const TRACE_LAPS: u64 = 8;

/// Named counters of every layer, read from the program's own stats
/// structs at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters(pub Vec<(&'static str, u64)>);

impl Counters {
    /// Reads every layer's counters (quiesced, so exact).
    pub fn read(w: &World) -> Counters {
        let d = &w.domain;
        let pep = d.pep.stats();
        let cache = d.pep.cache_stats().unwrap_or_default();
        let cluster = d.cluster.as_ref().map(|c| c.metrics()).unwrap_or_default();
        let cap = d.capability.as_ref().map(|a| a.stats()).unwrap_or_default();
        Counters(vec![
            ("enforcements", w.op),
            ("oracle_calls", w.oracle_calls),
            ("pep.allowed", pep.allowed),
            ("pep.denied", pep.denied),
            ("pep.failsafe_denials", pep.failsafe_denials),
            ("pep.token_hits", pep.token_hits),
            ("pep.tokens_minted", pep.tokens_minted),
            ("pep.token_rejects", pep.token_rejects),
            ("pep.audit_dropped", pep.audit_dropped),
            ("pep.audit_len", d.pep.audit_log().len() as u64),
            ("pep.cache_hits", cache.hits),
            ("pep.cache_misses", cache.misses),
            ("pep.cache_evictions", cache.evictions),
            ("pep.cache_expirations", cache.expirations),
            ("pdp.decisions", d.pdp.metrics().decisions),
            ("cluster.queries", cluster.queries),
            ("cluster.replica_queries", cluster.replica_queries),
            ("cluster.unavailable", cluster.unavailable),
            ("cluster.degraded", cluster.degraded),
            ("cluster.hedges", cluster.hedges),
            ("cluster.resyncs", cluster.resyncs),
            ("cluster.coalesced", cluster.coalesced),
            ("cluster.fanout_saved", cluster.fanout_saved),
            ("capability.minted", cap.minted),
            ("capability.rejected_stale_epoch", cap.rejected_stale_epoch),
        ])
    }

    /// The counters' growth since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .zip(&before.0)
                .map(|(&(name, now), &(_, then))| (name, now - then))
                .collect(),
        )
    }

    /// The counter called `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name [`Counters::read`] does not produce.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no counter {name}"))
            .1
    }

    /// `num / den`; 0 when nothing was counted.
    fn ratio(&self, num: &str, den: &str) -> f64 {
        self.get(num) as f64 / self.get(den).max(1) as f64
    }
}

/// Checks the count identities of `kind` over the interval `d` covers:
/// every enforcement must be accounted for at every layer it crossed.
fn check_identities(kind: Kind, d: &Counters) -> Result<(), String> {
    let n = d.get("enforcements");
    let mut identities = vec![
        (
            "allowed + denied + failsafe == enforcements",
            d.get("pep.allowed") + d.get("pep.denied") + d.get("pep.failsafe_denials"),
            n,
        ),
        (
            "audit_log().len() + audit_dropped == enforcements",
            d.get("pep.audit_len") + d.get("pep.audit_dropped"),
            n,
        ),
    ];
    let queries = d.get("cluster.queries");
    match kind {
        Kind::CachedZipf => identities.extend([
            (
                "hits + misses == enforcements",
                d.get("pep.cache_hits") + d.get("pep.cache_misses"),
                n,
            ),
            (
                "pdp decisions == misses",
                d.get("pdp.decisions") - d.get("oracle_calls"),
                d.get("pep.cache_misses"),
            ),
        ]),
        Kind::QuorumMiss => identities.extend([
            ("cluster queries == enforcements", queries, n),
            (
                "replica_queries == 3 x queries",
                d.get("cluster.replica_queries"),
                3 * queries,
            ),
        ]),
        Kind::PlannedQuorum => identities.push((
            "cluster queries + coalesced == enforcements",
            queries + d.get("cluster.coalesced"),
            n,
        )),
        Kind::TokenChurn => identities.push((
            "token_hits + cluster queries == enforcements",
            d.get("pep.token_hits") + queries,
            n,
        )),
    }
    for (identity, left, right) in identities {
        if left != right {
            return Err(format!(
                "{}: identity broken: {identity} ({left} != {right})",
                kind.name()
            ));
        }
    }
    Ok(())
}

/// The verdict gate: a false permit, a surviving canary or an oracle
/// that contradicts the expected verdict fails the run outright.
fn check_verdicts(w: &World) -> Result<(), String> {
    let t = &w.tally;
    for (what, count) in [
        ("false permits", t.false_permits),
        (
            "canary tokens verifiable after their revoking push",
            t.canary_survivals,
        ),
        (
            "oracle cross-checks contradicting the gate's parity",
            t.oracle_mismatches,
        ),
    ] {
        if count != 0 {
            return Err(format!("{}: {count} {what}", w.kind.name()));
        }
    }
    Ok(())
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// The end-to-end pass: `--trace 0`. Every time is at the reference
/// clock (see [`crate::clock`]).
pub fn end_to_end(cfg: Config) -> Result<Report, String> {
    let sizes = Sizes::of(cfg.kind, cfg.quick);
    let mut clock = Clock::start();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        // The previous world goes first, so peak memory is one world's.
        drop(world.take());
        clock.factor();
        let started = Instant::now();
        world = Some(World::build(cfg.kind, cfg.seed, sizes, false, None));
        setups.push(started.elapsed().as_secs_f64() / clock.factor());
    }
    let mut world = world.expect("SETUPS is positive");

    let before = Counters::read(&world);
    let mut buf = LapBuf::default();
    let mut laps = Vec::new();
    let started = Instant::now();
    clock.factor();
    while laps.len() < MIN_LAPS || (!cfg.quick && started.elapsed().as_secs() < cfg.seconds) {
        let elapsed_ns = world.run_lap(&mut buf);
        laps.push(LapStats::of(
            sizes.lap_ops,
            elapsed_ns,
            &mut buf.lat_ns,
            clock.factor(),
        ));
    }
    check_verdicts(&world)?;
    check_identities(cfg.kind, &Counters::read(&world).since(&before))?;

    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        attempted: world.tally.attempted,
        failed: world.tally.failed,
        metrics: vec![
            metric("setup_s", median(&setups), "s"),
            metric(
                "enforce_per_s",
                quiet_quartile(&laps, Better::Higher, |l| l.rate),
                "1/s",
            ),
            metric(
                "enforce_p50_us",
                quiet_quartile(&laps, Better::Lower, |l| l.p50_ns) / 1e3,
                "us",
            ),
            metric(
                "enforce_p99_us",
                quiet_quartile(&laps, Better::Lower, |l| l.p99_ns) / 1e3,
                "us",
            ),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
        fingerprint: world.fingerprint,
        exact: Counters::default(),
    })
}

/// What a fixed-count pass yields.
struct Pass {
    /// Enforcements per second at the reference clock.
    rate: f64,
    /// Mean clock factor over the pass's laps.
    factor: f64,
    /// The layers' counters over exactly the pass's operations.
    counts: Counters,
}

/// Runs `laps` laps back to back, verdicts and identities checked.
fn fixed_pass(world: &mut World, laps: u64) -> Result<Pass, String> {
    let before = Counters::read(world);
    let mut buf = LapBuf::default();
    let mut clock = Clock::start();
    let (mut reference_ns, mut factors) = (0.0, 0.0);
    for _ in 0..laps {
        let elapsed_ns = world.run_lap(&mut buf);
        let factor = clock.factor();
        reference_ns += elapsed_ns as f64 / factor;
        factors += factor;
    }
    let counts = Counters::read(world).since(&before);
    check_verdicts(world)?;
    check_identities(world.kind, &counts)?;
    Ok(Pass {
        rate: counts.get("enforcements") as f64 * 1e9 / reference_ns.max(1.0),
        factor: factors / laps as f64,
        counts,
    })
}

/// Where the traced pass leaves its spans.
pub fn trace_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{}.json", kind.name()))
}

/// The per-layer pass: `--trace 1`. `unpin` lifts the CPU pin for the
/// two-client probe, which needs a second CPU to mean anything.
pub fn per_layer(cfg: Config, unpin: impl FnOnce()) -> Result<Report, String> {
    let kind = cfg.kind;
    let sizes = Sizes::of(kind, cfg.quick);
    // A fixed count, whatever `--seconds` says, so the counters repeat.
    let laps = if cfg.quick { 1 } else { TRACE_LAPS };
    let build = |traced, telemetry| World::build(kind, cfg.seed, sizes, traced, telemetry);

    let mut plain = build(false, None);
    let plain_pass = fixed_pass(&mut plain, laps)?;
    let mut traced = build(true, None);
    let traced_pass = fixed_pass(&mut traced, laps)?;
    let d = traced_pass.counts;
    if d != plain_pass.counts {
        return Err(format!(
            "{}: the traced pass counted differently from the untraced one:\n{d:?}\n{:?}",
            kind.name(),
            plain_pass.counts
        ));
    }
    let spans: Vec<Span> = traced.recorder.as_ref().expect("traced world").take();
    trace::write_json(&trace_path(kind), &spans).map_err(|e| format!("writing trace: {e}"))?;
    let own = trace::self_times(&spans);
    let durs: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    // Span figures at the reference clock (the file keeps raw times).
    let span_mean =
        |figure: &[u64], name| trace::mean_of(&spans, figure, name) / traced_pass.factor;
    let span_median_us = |name| trace::median_dur(&spans, name) / traced_pass.factor / 1e3;
    let fingerprint = traced.fingerprint;
    let tally = traced.tally;
    drop(traced);

    let p = probes::layers(&plain, laps * sizes.lap_ops);
    let per_query = d.ratio("cluster.replica_queries", "cluster.queries");
    // Engine decisions on the serving path: the single engine's own
    // (less what the benchmark asked of it), or the replicas'.
    let engine_decisions =
        d.get("pdp.decisions") - d.get("oracle_calls") + d.get("cluster.replica_queries");
    let behind_source = if plain.domain.is_clustered() {
        p.cluster_decide_ns
    } else {
        p.pdp_decide_ns
    };
    // Not on `token_churn`: its quorum narrows and widens through the
    // round, so the probe's full-width call is not what the spans saw.
    let source_hop_ns = match kind {
        Kind::TokenChurn => 0.0,
        _ => span_mean(&durs, "source") - behind_source,
    };

    let telemetry_ratio = if kind == Kind::QuorumMiss {
        let telemetry = std::sync::Arc::new(dacs::telemetry::Telemetry::new());
        fixed_pass(&mut build(false, Some(telemetry)), laps)?.rate / plain_pass.rate
    } else {
        0.0
    };
    let two_client_ratio = if matches!(kind, Kind::CachedZipf | Kind::QuorumMiss) {
        unpin();
        let ops = laps * sizes.lap_ops;
        probes::client_rate(&plain, 2, ops)? / probes::client_rate(&plain, 1, ops)?
    } else {
        0.0
    };
    let only = |k: Kind, v: f64| if kind == k { v } else { 0.0 };

    let count = |name: &str| d.get(name) as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            metric("pep.serve_self_ns", span_mean(&own, "serve"), "ns"),
            metric(
                "pep.cache_hit_ratio",
                count("pep.cache_hits")
                    / (count("pep.cache_hits") + count("pep.cache_misses")).max(1.0),
                "ratio",
            ),
            metric("pep.cache_evictions", count("pep.cache_evictions"), "count"),
            metric(
                "pep.cache_expirations",
                count("pep.cache_expirations"),
                "count",
            ),
            metric(
                "pep.token_hit_ratio",
                d.ratio("pep.token_hits", "enforcements"),
                "ratio",
            ),
            metric("pep.token_rejects", count("pep.token_rejects"), "count"),
            metric(
                "pep.failsafe_denials",
                count("pep.failsafe_denials"),
                "count",
            ),
            metric("pep.audit_dropped", count("pep.audit_dropped"), "count"),
            metric(
                "pep.batch_ns_per_req",
                span_mean(&durs, "serve_batch") / BATCH as f64,
                "ns",
            ),
            metric("policy.hash_ns", p.hash_ns, "ns"),
            metric("pdp.decide_ns", p.pdp_decide_ns, "ns"),
            metric(
                "pdp.decisions_per_op",
                engine_decisions as f64 / count("enforcements"),
                "ratio",
            ),
            metric("pdp.cache_get_ns", p.cache_get_ns, "ns"),
            metric("pdp.cache_insert_ns", p.cache_insert_ns, "ns"),
            metric("pip.provide_ns", p.pip_provide_ns, "ns"),
            metric("cluster.decide_ns", p.cluster_decide_ns, "ns"),
            metric("cluster.route_ns", p.cluster_route_ns, "ns"),
            metric(
                "cluster.self_ns",
                p.cluster_decide_ns - p.cluster_width * p.pdp_decide_ns,
                "ns",
            ),
            metric("cluster.replica_queries_per_query", per_query, "ratio"),
            metric(
                "cluster.fanout_saved_per_query",
                d.ratio("cluster.fanout_saved", "cluster.queries"),
                "ratio",
            ),
            metric("cluster.coalesced", count("cluster.coalesced"), "count"),
            metric("cluster.unavailable", count("cluster.unavailable"), "count"),
            metric(
                "cluster.degraded_ratio",
                d.ratio("cluster.degraded", "cluster.queries"),
                "ratio",
            ),
            metric("cluster.resyncs", count("cluster.resyncs"), "count"),
            metric("cluster.hedges", count("cluster.hedges"), "count"),
            metric("capability.verify_ns", p.capability_verify_ns, "ns"),
            metric("capability.mint_ns", p.capability_mint_ns, "ns"),
            metric("capability.minted", count("capability.minted"), "count"),
            metric(
                "capability.rejected_stale_epoch",
                count("capability.rejected_stale_epoch"),
                "count",
            ),
            metric("federation.source_hop_ns", source_hop_ns, "ns"),
            metric("federation.push_p50_us", span_median_us("push"), "us"),
            metric("federation.crash_us", span_median_us("crash"), "us"),
            metric("federation.recover_us", span_median_us("recover"), "us"),
            metric("federation.catch_up_us", span_median_us("catch_up"), "us"),
            metric(
                "pep.two_client_ratio",
                only(Kind::CachedZipf, two_client_ratio),
                "ratio",
            ),
            metric(
                "cluster.two_client_ratio",
                only(Kind::QuorumMiss, two_client_ratio),
                "ratio",
            ),
            metric("telemetry.enabled_cost_ratio", telemetry_ratio, "ratio"),
            metric(
                "bench.trace_overhead_ratio",
                traced_pass.rate / plain_pass.rate,
                "ratio",
            ),
        ],
        fingerprint,
        exact: d,
    })
}
