//! Lap statistics: every timing the benchmark reports is an order
//! statistic over many short laps of a per-lap figure, so disturbed
//! laps (a preempted quantum, a neighbour's burst on a shared VM)
//! cannot move the result.

/// Nearest-rank percentile `p` (in `(0, 1]`) of an ascending slice:
/// the smallest sample with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples may be reported: a tail
/// figure needs at least ten samples beyond it to be more than the
/// single worst observation.
pub fn resolves(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= 10
}

/// Median of unordered values; the mean of the middle pair when their
/// count is even.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among lap figures"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// What one timed lap yields, at the reference clock (see
/// [`crate::clock`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LapStats {
    /// Enforcements completed per second of lap wall clock.
    pub rate: f64,
    /// Median single-`serve` latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile single-`serve` latency, ns.
    pub p99_ns: f64,
}

impl LapStats {
    /// Summarises one lap: `ops` enforcements in `elapsed_ns`, with the
    /// single-call latencies in `lat_ns` (sorted in place), measured
    /// while the host clock ran `clock_factor` times slower than the
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the lap is too short for its p99 to resolve.
    pub fn of(ops: u64, elapsed_ns: u64, lat_ns: &mut [u32], clock_factor: f64) -> Self {
        assert!(
            resolves(lat_ns.len(), 0.99),
            "a lap of {} latency samples cannot resolve p99",
            lat_ns.len()
        );
        lat_ns.sort_unstable();
        LapStats {
            rate: ops as f64 * 1e9 / elapsed_ns.max(1) as f64 * clock_factor,
            p50_ns: f64::from(percentile(lat_ns, 0.50)) / clock_factor,
            p99_ns: f64::from(percentile(lat_ns, 0.99)) / clock_factor,
        }
    }
}

/// Which way a figure is better.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Rates.
    Higher,
    /// Times.
    Lower,
}

/// The quartile of one per-lap figure on its *better* side: the value
/// a quarter of the laps reach or beat. On a shared host disturbances
/// only ever slow a lap down, so the undisturbed side of the
/// distribution is the one that repeats run to run; across ten runs of
/// each workload this quartile spread a third to a half of what the
/// median of the same laps did (README.md, "Noise floor").
pub fn quiet_quartile(laps: &[LapStats], better: Better, figure: impl Fn(&LapStats) -> f64) -> f64 {
    let mut v: Vec<f64> = laps.iter().map(figure).collect();
    assert!(!v.is_empty(), "quartile of no laps");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among lap figures"));
    let p = match better {
        Better::Lower => 0.25,
        Better::Higher => 0.75,
    };
    v[rank(v.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.001), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // 0.5 of 5 samples is rank 3, not an interpolation.
        assert_eq!(percentile(&[1, 2, 30, 40, 50], 0.5), 30);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(resolves(1000, 0.99));
        assert!(!resolves(999, 0.99));
        assert!(!resolves(0, 0.5));
        assert!(resolves(20, 0.5));
        assert!(!resolves(19, 0.5));
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_quartile_ignores_disturbed_laps() {
        let lap = |rate: f64| LapStats {
            rate,
            p50_ns: 1e6 / rate,
            p99_ns: 2e6 / rate,
        };
        // Eight laps, five of them disturbed (slower) to varying degrees.
        let laps = [100.0, 101.0, 99.5, 80.0, 3.0, 60.0, 75.0, 90.0].map(lap);
        assert_eq!(quiet_quartile(&laps, Better::Higher, |l| l.rate), 99.5);
        assert_eq!(
            quiet_quartile(&laps, Better::Lower, |l| l.p50_ns),
            1e6 / 100.0
        );
        // One lap is its own quartile.
        assert_eq!(quiet_quartile(&laps[..1], Better::Lower, |l| l.p99_ns), 2e4);
    }

    #[test]
    fn lap_summary_sorts_and_rates() {
        let mut lat: Vec<u32> = (0..2000).rev().collect();
        let lap = LapStats::of(4000, 2_000_000_000, &mut lat, 1.0);
        assert_eq!(lap.rate, 2000.0);
        assert_eq!(lap.p50_ns, 999.0);
        assert_eq!(lap.p99_ns, 1979.0);
        // The same lap on a clock running a quarter slower than the
        // reference: at the reference it would have been that much faster.
        let slow = LapStats::of(4000, 2_000_000_000, &mut lat, 1.25);
        assert_eq!(slow.rate, 2500.0);
        assert_eq!(slow.p50_ns, 999.0 / 1.25);
    }

    #[test]
    #[should_panic(expected = "cannot resolve p99")]
    fn short_lap_is_refused() {
        LapStats::of(10, 10, &mut [1; 500], 1.0);
    }
}
