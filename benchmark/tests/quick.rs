//! The whole benchmark at 1/100 scale: every check it makes at full
//! scale, plus what only repeated runs can show — one seed gives the
//! same inputs and the same exact counts, another seed gives others.

use dacs_benchmark::run::{end_to_end, per_layer, Config};
use dacs_benchmark::world::Kind;

fn quick(kind: Kind, seed: u64) -> Config {
    Config {
        kind,
        seed,
        seconds: 10,
        quick: true,
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_differs() {
    for kind in Kind::ALL {
        let first = per_layer(quick(kind, 1), || ()).expect("checks pass");
        let again = per_layer(quick(kind, 1), || ()).expect("checks pass");
        assert_eq!(first.fingerprint, again.fingerprint, "{kind:?}: inputs");
        assert_eq!(first.exact, again.exact, "{kind:?}: exact counts");
        let names: Vec<_> = first.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            again.metrics.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert!(first.metrics.iter().all(|m| m.value.is_finite()));
        assert_eq!(first.failed, 0, "{kind:?}: no operation fails");

        let other = per_layer(quick(kind, 2), || ()).expect("checks pass on another seed");
        assert_ne!(
            first.fingerprint, other.fingerprint,
            "{kind:?}: seed 2 inputs"
        );
    }
}

#[test]
fn end_to_end_pass_reports_every_metric_nonzero() {
    for kind in Kind::ALL {
        let report = end_to_end(quick(kind, 1)).expect("checks pass");
        assert_eq!(report.failed, 0, "{kind:?}");
        assert!(report.attempted > 0);
        let names: Vec<_> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "enforce_per_s",
                "enforce_p50_us",
                "enforce_p99_us",
                "peak_rss_mb"
            ]
        );
        for m in &report.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{kind:?} {}", m.name);
        }
    }
}
