//! Summary statistics and plain-text result tables for the experiment
//! harness.

/// Distribution summary of a sample of `u64` measurements.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Summary {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (p50).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile (tail latency).
    pub p99: u64,
    /// 99.9th percentile (extreme tail; needs ~1000 samples to
    /// separate from [`Summary::max`]).
    pub p999: u64,
    /// Maximum.
    pub max: u64,
    /// Population standard deviation (spread around the mean).
    pub stddev: f64,
}

impl Summary {
    /// Summarizes a sample (empty samples give zeros).
    pub fn of(samples: &[u64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let mean = sorted.iter().sum::<u64>() as f64 / count as f64;
        let idx = |q: f64| -> u64 {
            let i = ((count as f64 - 1.0) * q).round() as usize;
            sorted[i.min(count - 1)]
        };
        let variance = sorted
            .iter()
            .map(|&v| {
                let d = v as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / count as f64;
        Summary {
            count,
            mean,
            p50: idx(0.5),
            p95: idx(0.95),
            p99: idx(0.99),
            p999: idx(0.999),
            max: sorted[count - 1],
            stddev: variance.sqrt(),
        }
    }
}

/// A printable experiment result table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table {
    /// Experiment title (e.g. `"E5 — syndication hierarchy (Fig. 5)"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<width$} |", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Formats a float with 2 decimal places (table helper).
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats microseconds as milliseconds with 2 decimals.
pub(crate) fn us_as_ms(us: u64) -> String {
    format!("{:.2}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1, 2, 3, 4, 100]);
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3);
        assert_eq!(s.max, 100);
        assert!((s.mean - 22.0).abs() < 1e-9);
        assert_eq!(Summary::of(&[]).count, 0);
    }

    #[test]
    fn percentile_monotone() {
        let s = Summary::of(&(0..1000u64).collect::<Vec<_>>());
        assert!(s.p50 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.p999);
        assert!(s.p999 <= s.max);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p95, 949);
        assert_eq!(s.p99, 989);
        assert_eq!(s.p999, 998);
        assert_eq!(s.max, 999);
    }

    #[test]
    fn stddev_of_uniform_pair_and_constant() {
        // Two-point sample {0, 10}: mean 5, population stddev 5.
        let s = Summary::of(&[0, 10]);
        assert!((s.stddev - 5.0).abs() < 1e-9);
        // A constant sample has zero spread.
        let c = Summary::of(&[7, 7, 7, 7]);
        assert_eq!(c.stddev, 0.0);
        assert_eq!(c.p999, 7);
        assert_eq!(Summary::of(&[]).stddev, 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["n", "value"]);
        t.row(vec!["1".into(), "short".into()]);
        t.row(vec!["1000".into(), "x".into()]);
        let r = t.render();
        assert!(r.contains("## demo"));
        assert!(r.contains("| n    | value |"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    fn helpers() {
        assert_eq!(f2(1.005), "1.00"); // banker-ish rounding acceptable
        assert_eq!(us_as_ms(1500), "1.50");
    }
}
