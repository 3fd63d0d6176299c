//! The experiment harness: regenerates every figure/claim table of the
//! paper (see ARCHITECTURE.md).
//!
//! Usage:
//! ```text
//! cargo run -p dacs-core --release --bin harness -- all
//! cargo run -p dacs-core --release --bin harness -- e5 e8 e14
//! ```
//!
//! The tables' time columns are reported, not gated — the repo
//! benchmark (`benchmark/`, `BENCHMARK.json`) judges timing.
//!
//! `--telemetry PATH` and `--trace PATH` run the fully instrumented
//! clustered scenario (`traced_cluster_run`) once and write,
//! respectively, the Prometheus-style text exposition of its metric
//! registry and the JSON dump of its span trace — the per-stage
//! latency artifacts CI uploads next to the tables. `--trace` also
//! prints, per sequential parent stage, the share of its time that no
//! child span accounts for (the decomposition figure `cargo test`
//! leaves to this run).
//!
//! `--capability-telemetry PATH` runs the capability-enabled clustered
//! scenario (`capability_telemetry_run`) and writes its registry text:
//! the `dacs_capability_*` mint/verify/reject counters and the
//! verify-latency histogram (`dacs_capability_verify_ns`) the e18
//! artifact tracks.
//!
//! `--lane-telemetry PATH` runs the mixed-lane scheduler scenario
//! (`scheduler_telemetry_run`) and writes the `dacs_sched_*` families
//! only: per-lane job counters, queue-wait histograms, and the
//! deadline-miss counter the e19 artifact tracks.
//!
//! `DACS_BENCH_SCALE=N` divides every experiment's iteration count by
//! `N` (with a floor that keeps the experiments meaningful) — the
//! reduced-iteration knob CI smoke runs use.

use dacs_core::experiments as exp;
use dacs_core::stats::Table;

const EXPERIMENT_COUNT: usize = 20;

/// Applies the `DACS_BENCH_SCALE` divisor to a default iteration
/// count. Counts that are already small (≤ 100) pass through; larger
/// ones are divided but never drop below 100, so scaled runs still
/// exercise several churn rounds per experiment.
fn scaled(default: usize) -> usize {
    let divisor = std::env::var("DACS_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|d| *d >= 1)
        .unwrap_or(1);
    (default / divisor).max(default.min(100))
}

fn run(id: &str) -> Option<Table> {
    Some(match id {
        "e1" => exp::e1_vo_end_to_end(scaled(400)),
        "e2" => exp::e2_capability_flow(),
        "e3" => exp::e3_policy_scaling(),
        "e4" => exp::e4_xacml_dataflow(),
        "e5" => exp::e5_syndication(),
        "e6" => exp::e6_caching(scaled(4000)),
        "e7" => exp::e7_message_security(scaled(50)),
        "e8" => exp::e8_push_vs_pull(),
        "e9" => exp::e9_conflict_analysis(),
        "e10" => exp::e10_trust_negotiation(),
        "e11" => exp::e11_delegation(),
        "e12" => exp::e12_rbac_scale(),
        "e13" => exp::e13_pdp_discovery(scaled(2000)),
        "e14" => exp::e14_cluster_dependability(scaled(4000)),
        "e15" => exp::e15_fanout_latency(scaled(400)),
        "e16" => exp::e16_replica_resync(scaled(2000)),
        "e17" => exp::e17_federated_cluster(scaled(2400)),
        "e18" => exp::e18_capability_ceiling(scaled(2400)),
        "e19" => exp::e19_scheduler_saturation(scaled(1600)),
        "e20" => exp::e20_read_path_scaling(scaled(24_000)),
        _ => return None,
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: harness <all | e1 .. e{EXPERIMENT_COUNT}>... \
         [--telemetry PATH] [--trace PATH] \
         [--capability-telemetry PATH] [--lane-telemetry PATH]"
    );
    std::process::exit(2);
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {what} to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut telemetry_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut capability_telemetry_path: Option<String> = None;
    let mut lane_telemetry_path: Option<String> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--telemetry" => match iter.next() {
                Some(path) => telemetry_path = Some(path),
                None => usage(),
            },
            "--trace" => match iter.next() {
                Some(path) => trace_path = Some(path),
                None => usage(),
            },
            "--capability-telemetry" => match iter.next() {
                Some(path) => capability_telemetry_path = Some(path),
                None => usage(),
            },
            "--lane-telemetry" => match iter.next() {
                Some(path) => lane_telemetry_path = Some(path),
                None => usage(),
            },
            _ => ids.push(arg),
        }
    }
    if ids.is_empty()
        && telemetry_path.is_none()
        && trace_path.is_none()
        && capability_telemetry_path.is_none()
        && lane_telemetry_path.is_none()
    {
        usage();
    }
    if ids.iter().any(|a| a == "all") {
        ids = (1..=EXPERIMENT_COUNT).map(|i| format!("e{i}")).collect();
    }

    for id in &ids {
        match run(id) {
            Some(table) => println!("{}", table.render()),
            None => {
                eprintln!("unknown experiment {id}");
                std::process::exit(2);
            }
        }
    }
    if telemetry_path.is_some() || trace_path.is_some() {
        // One shared instrumented run feeds both artifacts, so the
        // trace's spans are the ones the registry's histograms saw.
        let (telemetry, lats) = exp::traced_cluster_run(scaled(2400));
        let summary = dacs_core::stats::Summary::of(&lats);
        // Two clocks around the same `serve` calls, both in ns: the
        // registry's log-bucketed `pep_enforce` span durations beside the
        // caller-side wall clock. A timing figure, so it is printed, not
        // asserted.
        let enforce_ns = telemetry.registry().histogram("dacs_pep_enforce_ns");
        let mut table = dacs_core::stats::Table::new(
            format!("traced run: {} enforcements (ns)", summary.count),
            &["percentile", "registry", "caller"],
        );
        for (label, q, caller) in [
            ("p50", 0.5, summary.p50),
            ("p95", 0.95, summary.p95),
            ("p99", 0.99, summary.p99),
        ] {
            table.row(vec![
                label.to_string(),
                enforce_ns.percentile(q).to_string(),
                caller.to_string(),
            ]);
        }
        eprintln!("{}", table.render());
        if let Some(path) = telemetry_path {
            write_or_die(&path, &telemetry.registry().render_text(), "telemetry text");
        }
        if let Some(path) = trace_path {
            write_or_die(&path, &telemetry.tracer().dump_json(), "JSON trace");
            for (stage, parents, share) in exp::unaccounted_shares(&telemetry.tracer().snapshot()) {
                eprintln!(
                    "traced run: {}: {:.1}% of {parents} spans' time unaccounted by children",
                    stage.name(),
                    share * 100.0
                );
            }
        }
    }
    if let Some(path) = capability_telemetry_path {
        let telemetry = exp::capability_telemetry_run(scaled(2400));
        write_or_die(
            &path,
            &telemetry.registry().render_text(),
            "capability telemetry text",
        );
    }
    if let Some(path) = lane_telemetry_path {
        let telemetry = exp::scheduler_telemetry_run(scaled(2400));
        write_or_die(
            &path,
            &telemetry.registry().render_text_filtered("dacs_sched_"),
            "scheduler lane telemetry text",
        );
    }
}
