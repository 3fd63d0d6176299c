//! `dacs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one pass of one workload and prints its result as the last
//! line of standard output. Without `--workload` it runs both passes
//! of all four, one child process each (so `peak_rss_mb` is a
//! workload's own); `--quick` does so at 1/100 scale.

use dacs_benchmark::affinity;
use dacs_benchmark::run::{self, Config, Report};
use dacs_benchmark::world::Kind;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: dacs-benchmark [--workload cached_zipf|quorum_miss|planned_quorum|token_churn] \
[--seed N] [--seconds 1..60] [--trace 0|1] [--quick]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: None,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Kind::from_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => parsed.trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1..=60).contains(&parsed.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", parsed.seconds));
    }
    Ok(parsed)
}

fn print(kind: Kind, args: &Args, report: &Report) {
    let scale = if args.quick {
        " (quick scale: figures are not comparable with a full run)"
    } else {
        ""
    };
    println!("workload {} seed {}{scale}", kind.name(), args.seed);
    println!("  attempted {} failed {}", report.attempted, report.failed);
    for m in &report.metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

/// Both passes of every workload, each in a process of its own.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for kind in Kind::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            let status = child.status().map_err(|e| e.to_string())?;
            if !status.success() {
                return Err(format!("{} --trace {trace}: {status}", kind.name()));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&argv).and_then(|args| {
        let Some(kind) = args.workload else {
            return run_all(&args);
        };
        let config = Config {
            kind,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
        };
        // Before any thread exists, so the pool workers inherit it.
        let unpinned = affinity::pin_to_one_cpu();
        if unpinned.is_none() {
            eprintln!("warning: could not pin to one CPU; figures will be noisier");
        }
        let report = if args.trace.unwrap_or(false) {
            run::per_layer(config, || {
                if let Some(mask) = &unpinned {
                    affinity::set(mask);
                }
            })
        } else {
            run::end_to_end(config)
        }?;
        print(kind, &args, &report);
        Ok(())
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dacs-benchmark: {message}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
