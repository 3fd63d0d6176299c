//! Log-bucketed histograms, and the counters and gauges the components
//! keep in their own stats blocks, read through.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declares the one place a component's event counters live: `$block`,
/// a relaxed-atomic mirror of its public stats struct `$stats`, with
/// `$block::snapshot() -> $stats` and `$stats::samples()`, which pairs
/// every field with its exposition name for [`Registry::expose`]. Both
/// name every field of `$stats` (a struct literal, an exhaustive
/// destructuring), so a field added to the stats struct and not listed
/// here — not counted, not exposed — fails to compile.
#[macro_export]
macro_rules! counter_block {
    ($(#[$meta:meta])* $vis:vis struct $block:ident: $stats:ident {
        $($field:ident => $name:literal),* $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $block {
            $($vis $field: ::std::sync::atomic::AtomicU64),*
        }

        impl $block {
            /// The counters now: exact per counter, not a cross-counter
            /// instant while other threads count.
            $vis fn snapshot(&self) -> $stats {
                $stats {
                    $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed)),*
                }
            }
        }

        impl $stats {
            /// Every field under its exposition name.
            $vis fn samples(self) -> Vec<(&'static str, u64)> {
                let $stats { $($field),* } = self;
                vec![$(($name, $field)),*]
            }
        }
    };
}

/// Number of linear sub-buckets per power-of-two octave: 2^5.
const SUB_BITS: u32 = 5;
/// Sub-bucket count (32).
const SUB: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

/// A log-bucketed histogram: percentile estimates without stored
/// samples.
///
/// Values below 32 land in exact unit buckets; above that, each
/// power-of-two octave is split into 32 linear sub-buckets, so a
/// bucket's width is at most 1/32 of its lower bound and the reported
/// percentile (the bucket midpoint) is within ~1.6% of the true
/// sample. Recording is two relaxed atomic adds; reading walks ~2k
/// counters.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // 2^exp <= v
    let group = exp - SUB_BITS; // octaves past the exact range
    let sub = (v >> group) - SUB; // top SUB_BITS+1 bits minus the leading one
    (group as u64 * SUB + SUB + sub) as usize
}

/// Lower bound and width of one bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let index = index as u64;
    if index < SUB {
        return (index, 1);
    }
    let group = (index - SUB) / SUB;
    let sub = (index - SUB) % SUB;
    ((SUB + sub) << group, 1u64 << group)
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimated quantile `q` in `[0, 1]`, using the same nearest-rank
    /// convention as the experiment suite's `Summary` (`q = 0.99` of
    /// 100 samples is the 99th smallest) so the two agree to within a
    /// bucket width. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64 + 1;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                let (lo, width) = bucket_bounds(i);
                return lo + width / 2;
            }
        }
        bucket_bounds(BUCKETS - 1).0
    }
}

/// One component instance's read-through samples: every field of its
/// stats struct under its exposition name, read at call time.
struct Exposed(Box<dyn Fn() -> Vec<(&'static str, u64)> + Send + Sync>);

impl std::fmt::Debug for Exposed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Exposed")
    }
}

/// A lock-cheap registry: the histograms it owns, plus a reader of
/// every counter and gauge the components keep themselves.
///
/// Histogram lookup takes a read lock on a name→`Arc` map; hot paths
/// resolve their handles once and keep the `Arc`s. Names follow the
/// Prometheus convention (`dacs_capability_verify_ns`); registration is
/// implicit on first use.
///
/// The registry owns no counter and no gauge: a component counts in
/// its own [`counter_block!`](crate::counter_block) whether or not a
/// handle is attached, [`Registry::expose`]s a sample function, and the
/// registry reads that storage through on every
/// [`Registry::counter_value`], [`Registry::gauge_value`] and
/// [`Registry::render_text`].
#[derive(Debug, Default)]
pub struct Registry {
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    exposed: RwLock<Vec<Exposed>>,
}

impl Registry {
    /// A fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        let mut histograms = self.histograms.write();
        Arc::clone(histograms.entry(name.to_string()).or_default())
    }

    /// Exposes a component's own counters without copying them: on
    /// every read the registry calls `samples`, which returns each
    /// field of the component's stats struct under its metric name.
    /// A name ending in `_total` is a counter and any other name a
    /// gauge; when several instances expose the same name (two PEPs on
    /// one shared handle) counters read as their sum and gauges as
    /// their maximum. The component keeps counting whether or not it
    /// is exposed — this adds a reader, not a second store.
    pub fn expose(&self, samples: impl Fn() -> Vec<(&'static str, u64)> + Send + Sync + 'static) {
        self.exposed.write().push(Exposed(Box::new(samples)));
    }

    /// Every exposed counter (or every exposed gauge) by name,
    /// same-name values folded — counters sum, gauges take the maximum.
    fn scalars(&self, counters: bool) -> BTreeMap<&'static str, u64> {
        let mut folded = BTreeMap::new();
        for Exposed(samples) in self.exposed.read().iter() {
            for (name, value) in samples() {
                // The Prometheus `_total` suffix marks a counter.
                if name.ends_with("_total") != counters {
                    continue;
                }
                let slot = folded.entry(name).or_insert(0);
                *slot = if counters {
                    *slot + value
                } else {
                    (*slot).max(value)
                };
            }
        }
        folded
    }

    /// The value of the counter exposed under `name`, if any.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.scalars(true).get(name).copied()
    }

    /// The value of the gauge exposed under `name`, if any.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.scalars(false).get(name).copied()
    }

    /// Prometheus-style text exposition of every registered metric.
    ///
    /// Counters and gauges render as single samples; histograms render
    /// as summaries with `quantile` labels for p50/p95/p99/p999 plus
    /// `_sum` and `_count`, in deterministic (sorted-name) order.
    pub fn render_text(&self) -> String {
        self.render_text_filtered("")
    }

    /// [`Registry::render_text`] restricted to metrics whose name
    /// starts with `prefix` (the empty prefix renders everything).
    /// Used to cut one subsystem's exposition out of a shared registry
    /// — e.g. the fan-out scheduler's per-lane queue-wait histograms
    /// (`dacs_sched_`) as a standalone artifact.
    pub fn render_text_filtered(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (kind, counters) in [("counter", true), ("gauge", false)] {
            for (name, value) in self.scalars(counters) {
                if name.starts_with(prefix) {
                    out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
                }
            }
        }
        for (name, h) in self.histograms.read().iter() {
            if !name.starts_with(prefix) {
                continue;
            }
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (label, q) in [
                ("0.5", 0.50),
                ("0.95", 0.95),
                ("0.99", 0.99),
                ("0.999", 0.999),
            ] {
                out.push_str(&format!(
                    "{name}{{quantile=\"{label}\"}} {}\n",
                    h.percentile(q)
                ));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposed_samples_read_through_and_fold_across_instances() {
        let r = Registry::new();
        let a = Arc::new(AtomicU64::new(2));
        let b = Arc::new(AtomicU64::new(5));
        for cell in [&a, &b] {
            let cell = Arc::clone(cell);
            r.expose(move || {
                let v = cell.load(Ordering::Relaxed);
                vec![("dacs_x_total", v), ("dacs_x_lag", v)]
            });
        }
        assert_eq!(r.counter_value("dacs_x_total"), Some(7));
        assert_eq!(r.gauge_value("dacs_x_lag"), Some(5));
        assert_eq!(r.counter_value("dacs_x_lag"), None, "a gauge name");
        assert_eq!(r.counter_value("missing"), None);
        // Read through, not copied: the next read sees the new value.
        a.fetch_add(4, Ordering::Relaxed);
        assert_eq!(r.counter_value("dacs_x_total"), Some(11));
        assert_eq!(r.gauge_value("dacs_x_lag"), Some(6));
        let text = r.render_text();
        assert!(text.contains("# TYPE dacs_x_total counter\ndacs_x_total 11\n"));
        assert!(text.contains("# TYPE dacs_x_lag gauge\ndacs_x_lag 6\n"));
    }

    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct DoorStats {
        opened: u64,
        ajar: u64,
    }

    crate::counter_block! {
        /// The door's counters.
        struct DoorCounters: DoorStats {
            opened => "dacs_door_opened_total",
            ajar => "dacs_door_ajar",
        }
    }

    #[test]
    fn counter_block_mirrors_and_names_every_field() {
        let block = Arc::new(DoorCounters::default());
        block.opened.fetch_add(3, Ordering::Relaxed);
        block.ajar.store(1, Ordering::Relaxed);
        assert_eq!(block.snapshot(), DoorStats { opened: 3, ajar: 1 });
        let r = Registry::new();
        let exposed = Arc::clone(&block);
        r.expose(move || exposed.snapshot().samples());
        assert_eq!(r.counter_value("dacs_door_opened_total"), Some(3));
        assert_eq!(r.gauge_value("dacs_door_ajar"), Some(1));
    }

    #[test]
    fn bucket_index_and_bounds_are_inverse() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 100, 1000, 65_535, 1 << 40] {
            let i = bucket_index(v);
            let (lo, width) = bucket_bounds(i);
            assert!(lo <= v && v < lo + width, "v={v} i={i} lo={lo} w={width}");
        }
        // Small values are exact.
        for v in 0..32u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, 1));
        }
    }

    #[test]
    fn percentiles_track_exact_ranks_within_bucket_error() {
        let h = Histogram::default();
        let mut samples: Vec<u64> = (0..5000u64).map(|i| (i * i) % 90_000 + 10).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99, 0.999] {
            let exact = samples[((samples.len() - 1) as f64 * q).round() as usize];
            let est = h.percentile(q);
            let err = (est as f64 - exact as f64).abs();
            assert!(
                err <= (exact as f64) * 0.02 + 1.0,
                "q={q} exact={exact} est={est}"
            );
        }
        assert_eq!(h.count(), 5000);
        assert_eq!(h.sum(), samples.iter().sum::<u64>());
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn render_text_is_prometheus_shaped_and_sorted() {
        let r = Registry::new();
        r.expose(|| vec![("dacs_b_total", 2), ("dacs_a_total", 1), ("dacs_epoch", 3)]);
        let h = r.histogram("dacs_lat_ns");
        for v in 1..=100u64 {
            h.record(v);
        }
        let text = r.render_text();
        let a = text.find("dacs_a_total 1").expect("counter a");
        let b = text.find("dacs_b_total 2").expect("counter b");
        assert!(a < b, "sorted order");
        assert!(text.contains("# TYPE dacs_lat_ns summary"));
        // Nearest-rank p99 of 1..=100 is the 99th smallest sample; it
        // lands in a width-2 bucket whose midpoint is exactly 99.
        assert!(text.contains("dacs_lat_ns{quantile=\"0.99\"} 99"));
        assert!(text.contains("dacs_lat_ns_count 100"));
        assert!(text.contains("dacs_lat_ns_sum 5050"));
        assert!(text.contains("# TYPE dacs_epoch gauge\ndacs_epoch 3"));
    }

    #[test]
    fn filtered_exposition_cuts_one_subsystem() {
        let r = Registry::new();
        r.expose(|| {
            vec![
                ("dacs_sched_bulk_jobs_total", 3),
                ("dacs_other_total", 1),
                ("dacs_sched_depth", 2),
            ]
        });
        r.histogram("dacs_sched_interactive_queue_wait_ns")
            .record(7);
        let text = r.render_text_filtered("dacs_sched_");
        assert!(text.contains("dacs_sched_bulk_jobs_total 3"));
        assert!(text.contains("dacs_sched_interactive_queue_wait_ns_count 1"));
        assert!(text.contains("dacs_sched_depth 2"));
        assert!(!text.contains("dacs_other_total"));
        // The unfiltered render still carries everything.
        assert!(r.render_text().contains("dacs_other_total 1"));
    }
}
