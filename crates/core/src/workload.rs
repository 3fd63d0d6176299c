//! Workload generation: Zipf-distributed subjects and resources, mixed
//! intra-/cross-domain request streams — the "large user and resource
//! bases" and "fine-grained interactions" the paper's requirements call
//! out (§1, §3.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Zipf(s) sampler over ranks `0..n` using an inverse-CDF table.
///
/// Rank 0 is the most popular item. `s = 0` degenerates to uniform.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(s >= 0.0, "negative zipf exponent");
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            let w = 1.0 / (k as f64).powf(s);
            total += w;
            weights.push(w);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against rounding.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf }
    }

    /// Samples a rank.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of `rank` — the analytic counterpart of
    /// [`ZipfSampler::sample`]'s frequencies, used to compute expected
    /// unique-item counts (and hence cache hit rates) in closed form.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the support.
    pub(crate) fn prob(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }

    /// Support size.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never; construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// One generated access request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkItem {
    /// Federated subject id (`user-K@domain`).
    pub subject: String,
    /// Index of the domain whose resource is accessed.
    pub target_domain: usize,
    /// Resource id (`kind/index`).
    pub resource: String,
    /// Action id.
    pub action: String,
    /// Whether the request crosses domains.
    pub cross_domain: bool,
}

/// Configuration for [`generate`].
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of domains.
    pub domains: usize,
    /// Users per domain.
    pub users_per_domain: usize,
    /// Distinct resources per domain.
    pub resources_per_domain: usize,
    /// Fraction of requests that target a foreign domain.
    pub cross_domain_fraction: f64,
    /// Zipf exponent over users (0 = uniform).
    pub user_skew: f64,
    /// Zipf exponent over resources.
    pub resource_skew: f64,
    /// Actions drawn uniformly.
    pub actions: Vec<String>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            domains: 2,
            users_per_domain: 100,
            resources_per_domain: 200,
            cross_domain_fraction: 0.3,
            user_skew: 0.9,
            resource_skew: 0.9,
            actions: vec!["read".into(), "write".into()],
        }
    }
}

/// Generates a deterministic request stream.
pub fn generate(spec: &WorkloadSpec, count: usize, seed: u64) -> Vec<WorkItem> {
    assert!(spec.domains > 0, "need at least one domain");
    assert!(!spec.actions.is_empty(), "need at least one action");
    let mut rng = StdRng::seed_from_u64(seed);
    let users = ZipfSampler::new(spec.users_per_domain, spec.user_skew);
    let resources = ZipfSampler::new(spec.resources_per_domain, spec.resource_skew);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let home = rng.gen_range(0..spec.domains);
        let cross = spec.domains > 1 && rng.gen::<f64>() < spec.cross_domain_fraction;
        let target = if cross {
            let mut t = rng.gen_range(0..spec.domains - 1);
            if t >= home {
                t += 1;
            }
            t
        } else {
            home
        };
        let user = users.sample(&mut rng);
        let resource = resources.sample(&mut rng);
        let action = &spec.actions[rng.gen_range(0..spec.actions.len())];
        out.push(WorkItem {
            subject: format!("user-{user}@domain-{home}"),
            target_domain: target,
            resource: format!("records/{resource}"),
            action: action.clone(),
            cross_domain: cross,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_complete() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Head rank far outweighs a tail rank.
        assert!(counts[0] > 10 * counts[90].max(1));
        assert_eq!(z.len(), 100);
    }

    #[test]
    fn zipf_zero_exponent_is_uniformish() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let (min, max) = (
            counts.iter().min().copied().unwrap(),
            counts.iter().max().copied().unwrap(),
        );
        assert!(max < 2 * min, "uniform-ish spread: {counts:?}");
    }

    #[test]
    #[should_panic(expected = "empty support")]
    fn zipf_rejects_empty() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn prob_sums_to_one_and_matches_frequencies() {
        let z = ZipfSampler::new(50, 1.07);
        let total: f64 = (0..z.len()).map(|k| z.prob(k)).sum();
        assert!((total - 1.0).abs() < 1e-9, "masses sum to {total}");
        assert!(z.prob(0) > z.prob(1), "mass decreases with rank");
        // Empirical frequency of the head rank tracks its mass.
        let mut rng = StdRng::seed_from_u64(5);
        let draws = 20_000;
        let head = (0..draws).filter(|_| z.sample(&mut rng) == 0).count();
        let expected = z.prob(0) * draws as f64;
        assert!(
            (head as f64 - expected).abs() < 0.1 * expected + 30.0,
            "head drawn {head}, expected ≈{expected:.0}"
        );
    }

    #[test]
    fn workload_respects_cross_fraction() {
        let spec = WorkloadSpec {
            domains: 4,
            cross_domain_fraction: 0.5,
            ..WorkloadSpec::default()
        };
        let items = generate(&spec, 4000, 3);
        let cross = items.iter().filter(|w| w.cross_domain).count();
        assert!((1600..=2400).contains(&cross), "cross count {cross}");
        // Cross requests never target the home domain.
        for w in &items {
            let home: usize = w.subject.rsplit_once("domain-").unwrap().1.parse().unwrap();
            if w.cross_domain {
                assert_ne!(home, w.target_domain);
            } else {
                assert_eq!(home, w.target_domain);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(generate(&spec, 100, 9), generate(&spec, 100, 9));
        assert_ne!(generate(&spec, 100, 9), generate(&spec, 100, 10));
    }

    #[test]
    fn single_domain_never_cross() {
        let spec = WorkloadSpec {
            domains: 1,
            cross_domain_fraction: 0.9,
            ..WorkloadSpec::default()
        };
        assert!(generate(&spec, 200, 4).iter().all(|w| !w.cross_domain));
    }
}
