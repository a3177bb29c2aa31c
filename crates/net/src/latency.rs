//! Per-hop latency distributions.
//!
//! Every message leg draws one sample; a routed message's end-to-end
//! delay is the sum over its hops. Units are abstract virtual "ticks"
//! (the paper reports hop counts, not wall-clock — ticks let experiments
//! translate hops into queueing-visible time without committing to a
//! physical unit).

use rand::Rng;

/// A per-hop delay distribution, sampled with the simulator's seeded RNG
/// (so scenarios are reproducible tick-for-tick).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every hop takes exactly this many ticks.
    Constant(u64),
    /// Uniform in `[lo, hi]` ticks (inclusive).
    Uniform {
        /// Minimum per-hop delay.
        lo: u64,
        /// Maximum per-hop delay (inclusive).
        hi: u64,
    },
    /// Log-normal with the given parameters of the underlying normal —
    /// the classic heavy-tailed internet RTT shape — truncated at `cap`.
    LogNormal {
        /// Mean of `ln(delay)`.
        mu: f64,
        /// Standard deviation of `ln(delay)`.
        sigma: f64,
        /// Hard upper truncation in ticks (keeps timeouts meaningful).
        cap: u64,
    },
}

impl LatencyModel {
    /// Draw one per-hop delay. Always at least 1 tick — a zero-latency
    /// network would collapse the event ordering the queue exists for.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "float→int: a rounded, finite delay, clamped to [1, cap]"
    )]
    pub fn sample(&self, rng: &mut impl Rng) -> u64 {
        match *self {
            LatencyModel::Constant(t) => t.max(1),
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency needs lo ≤ hi");
                rng.gen_range(lo..=hi).max(1)
            }
            LatencyModel::LogNormal { mu, sigma, cap } => {
                // Box–Muller; u1 shifted into (0, 1] so ln is finite.
                let u1 = 1.0 - rng.gen::<f64>();
                let u2 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                let ticks = (mu + sigma * z).exp().round();
                (ticks as u64).clamp(1, cap.max(1))
            }
        }
    }
}

impl Default for LatencyModel {
    /// 10 ticks per hop — a round "one unit of distance" default.
    fn default() -> Self {
        LatencyModel::Constant(10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(7);
        assert!((0..100).all(|_| m.sample(&mut rng) == 7));
        assert_eq!(LatencyModel::Constant(0).sample(&mut rng), 1, "floor");
    }

    #[test]
    fn uniform_stays_in_bounds_and_spreads() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform { lo: 5, hi: 20 };
        let samples: Vec<u64> = (0..500).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (5..=20).contains(&s)));
        assert!(samples.iter().any(|&s| s < 10) && samples.iter().any(|&s| s > 15));
    }

    #[test]
    fn lognormal_is_positive_capped_and_skewed() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::LogNormal {
            mu: 3.0,
            sigma: 0.8,
            cap: 500,
        };
        let samples: Vec<u64> = (0..2000).map(|_| m.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| (1..=500).contains(&s)));
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[samples.len() / 2] as f64;
        // exp(mu) ≈ 20 is the median; the mean sits above it (right skew).
        assert!((10.0..40.0).contains(&median), "median {median}");
        assert!(mean > median, "mean {mean} ≤ median {median}");
    }

    #[test]
    fn same_seed_same_stream() {
        let m = LatencyModel::LogNormal {
            mu: 2.0,
            sigma: 1.0,
            cap: 1000,
        };
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..50).map(|_| m.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
