//! Zipf-distributed sampling over a finite integer domain.
//!
//! The paper's relations draw attribute values "according to a Zipf
//! distribution with θ = 0.7". We implement the textbook definition:
//! `P(X = i) ∝ 1/i^θ` for ranks `i ∈ 1..=domain`, sampled by exact
//! inverse-CDF lookup (binary search over the precomputed cumulative
//! table). Exact, deterministic given the caller's RNG, and fast enough
//! for the domain sizes histograms care about (≤ a few million values).

use rand::Rng;

/// A Zipf(θ) distribution over ranks `1..=domain`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities, `cdf[i] = P(X ≤ i+1)`; last entry is 1.
    cdf: Vec<f64>,
    theta: f64,
}

impl Zipf {
    /// Build the distribution. `domain ≥ 1`; `theta ≥ 0` (θ = 0 is
    /// uniform).
    #[expect(
        clippy::expect_used,
        reason = "invariant: cdf has one entry per rank and ranks >= 1"
    )]
    pub fn new(domain: usize, theta: f64) -> Self {
        assert!(domain >= 1, "domain must be non-empty");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be ≥ 0");
        let mut cdf = Vec::with_capacity(domain);
        let mut acc = 0.0f64;
        for i in 1..=domain {
            acc += (i as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for p in &mut cdf {
            *p /= total;
        }
        // Guard against floating-point round-off at the top end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Zipf { cdf, theta }
    }

    /// Number of distinct values in the domain.
    pub fn domain(&self) -> usize {
        self.cdf.len()
    }

    /// The skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Exact probability of rank `i` (1-based).
    pub fn pmf(&self, i: usize) -> f64 {
        assert!((1..=self.domain()).contains(&i));
        if i == 1 {
            self.cdf[0]
        } else {
            self.cdf[i - 1] - self.cdf[i - 2]
        }
    }

    /// Draw one rank in `1..=domain`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        // First index with cdf ≥ u.
        self.cdf.partition_point(|&p| p < u) + 1
    }

    /// Expected number of *distinct* ranks seen in `n` draws
    /// (`Σ_i 1 − (1−p_i)^n`) — the ground truth for distinct-count
    /// experiments that sample values rather than enumerate them.
    pub fn expected_distinct(&self, n: u64) -> f64 {
        let nf = n as f64;
        (1..=self.domain())
            .map(|i| 1.0 - (1.0 - self.pmf(i)).powf(nf))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(1000, 0.7);
        let total: f64 = (1..=1000).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_is_decreasing() {
        let z = Zipf::new(100, 0.7);
        for i in 1..100 {
            assert!(z.pmf(i) >= z.pmf(i + 1), "rank {i}");
        }
    }

    #[test]
    fn theta_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for i in 1..=10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_ratio_matches_theory() {
        // P(1)/P(2) = 2^θ.
        let theta = 0.7;
        let z = Zipf::new(1000, theta);
        let ratio = z.pmf(1) / z.pmf(2);
        assert!((ratio - 2f64.powf(theta)).abs() < 1e-9);
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(50, 0.7);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let mut counts = vec![0u32; 51];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Compare observed frequency of the head ranks to the pmf.
        for (i, &count) in counts.iter().enumerate().take(11).skip(1) {
            let observed = f64::from(count) / f64::from(n);
            let expected = z.pmf(i);
            assert!(
                (observed - expected).abs() / expected < 0.05,
                "rank {i}: observed {observed}, expected {expected}"
            );
        }
    }

    #[test]
    fn sample_stays_in_domain() {
        let z = Zipf::new(7, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!((1..=7).contains(&s));
        }
    }

    #[test]
    fn degenerate_single_value_domain() {
        let z = Zipf::new(1, 0.7);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(z.sample(&mut rng), 1);
        assert_eq!(z.pmf(1), 1.0);
    }

    #[test]
    fn expected_distinct_saturates() {
        let z = Zipf::new(100, 0.7);
        assert!(z.expected_distinct(0) < 1e-9);
        let e1 = z.expected_distinct(100);
        let e2 = z.expected_distinct(100_000);
        assert!(e1 < e2);
        assert!(e2 <= 100.0 + 1e-9);
        assert!(e2 > 99.0, "100k draws should see nearly all of 100 values");
    }
}
