//! super-LogLog counting (Durand & Flajolet, *Loglog Counting of Large
//! Cardinalities*, ESA 2003).
//!
//! Insertion is identical to PCSA's; storage is not: instead of a bitmap,
//! each bucket keeps only the **maximum** (1-based) rank observed —
//! `O(log log n)` bits per bucket. Plain LogLog averages all `m`
//! registers; super-LogLog adds the *truncation rule*: keep only the
//! `m₀ = ⌊θ₀·m⌋` smallest register values (`θ₀ = 0.7`), which discards the
//! heavy upper tail of the max-rank distribution and reduces the standard
//! error from `1.30/√m` to `1.05/√m` (paper eq. 2):
//!
//! ```text
//! E(n) = α̃_m · m₀ · 2^{(1/m₀)·Σ* M⟨i⟩}
//! ```

use crate::alpha::{alpha_superloglog, truncated_raw_estimate};
use crate::estimator::{validate_buckets, CardinalityEstimator, MergeError, SketchConfigError};
use crate::registers::MaxRegisters;
use crate::rho::rho;

pub use crate::alpha::THETA_0;

/// The super-LogLog (truncated) estimate from raw register values.
/// `regs.len()` must be a power of two ≥ 2.
///
/// Shared by [`SuperLogLog::estimate`] and the distributed (DHS) counting
/// path.
pub fn superloglog_estimate_from_registers(regs: &[u8]) -> f64 {
    let m = regs.len();
    assert!(m >= 2 && m.is_power_of_two());
    let mut r = MaxRegisters::new(m);
    for (i, &v) in regs.iter().enumerate() {
        r.observe(i, v);
    }
    alpha_superloglog(m) * truncated_raw_estimate(&r)
}

/// super-LogLog sketch: `m` max-rank registers plus the truncation rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperLogLog {
    regs: MaxRegisters,
    bucket_bits: u32,
}

impl SuperLogLog {
    /// Create a super-LogLog sketch with `m` registers (power of two, ≥ 2).
    pub fn new(m: usize) -> Result<Self, SketchConfigError> {
        let bucket_bits = validate_buckets(m)?;
        // One bucket leaves nothing to truncate, and the register-level
        // estimator rejects it.
        if m < 2 {
            return Err(SketchConfigError::BucketsOutOfRange(m));
        }
        Ok(SuperLogLog {
            regs: MaxRegisters::new(m),
            bucket_bits,
        })
    }

    /// Register value (max 1-based rank) of bucket `i`.
    pub fn register(&self, i: usize) -> u8 {
        self.regs.get(i)
    }

    /// Record a rank observation directly (the DHS reconstruction path).
    pub fn observe(&mut self, i: usize, rank: u8) {
        self.regs.observe(i, rank);
    }
}

impl CardinalityEstimator for SuperLogLog {
    fn buckets(&self) -> usize {
        self.regs.len()
    }

    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn insert_hash(&mut self, hash: u64) {
        let m = self.regs.len() as u64;
        // dhs-lint: allow(lossy_cast) — masked by m − 1 (m ≤ 2^16), fits.
        let bucket = (hash & (m - 1)) as usize;
        // 1-based rank of the remaining bits; ρ(0) = 64 saturates to 64+1,
        // clamped into u8 range (255 ≫ any feasible rank).
        // dhs-lint: allow(lossy_cast) — clamped to 255, fits u8.
        let rank = (rho(hash >> self.bucket_bits) + 1).min(255) as u8;
        self.regs.observe(bucket, rank);
    }

    fn estimate(&self) -> f64 {
        alpha_superloglog(self.buckets()) * truncated_raw_estimate(&self.regs)
    }

    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.regs.len() != other.regs.len() {
            return Err(MergeError {
                reason: format!("m mismatch: {} vs {}", self.regs.len(), other.regs.len()),
            });
        }
        self.regs.union_in_place(&other.regs);
        Ok(())
    }

    fn is_empty(&self) -> bool {
        self.regs.all_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{ItemHasher, SplitMix64};

    fn fill<E: CardinalityEstimator>(sketch: &mut E, n: u64, seed: u64) {
        let hasher = SplitMix64::with_seed(seed);
        for i in 0..n {
            sketch.insert_hash(hasher.hash_u64(i));
        }
    }

    #[test]
    fn superloglog_accuracy_within_three_sigma() {
        // std error ≈ 1.05/√m; m = 256 ⇒ ~6.6%, 3σ ≈ 20%.
        for (seed, n) in [(1u64, 20_000u64), (2, 100_000), (3, 500_000)] {
            let mut sketch = SuperLogLog::new(256).unwrap();
            fill(&mut sketch, n, seed);
            let err = (sketch.estimate() - n as f64).abs() / n as f64;
            assert!(err < 0.20, "n={n} err={err}");
        }
    }

    #[test]
    fn superloglog_is_unbiased_on_average() {
        // Average relative signed error across many seeds should be near 0
        // (the α̃_m calibration's whole purpose).
        let n = 50_000u64;
        let trials = 20;
        let mut mean_rel = 0.0;
        for seed in 0..trials {
            let mut sketch = SuperLogLog::new(128).unwrap();
            fill(&mut sketch, n, 1000 + seed);
            mean_rel += (sketch.estimate() - n as f64) / n as f64;
        }
        mean_rel /= trials as f64;
        // 1.05/√(m·trials) ≈ 2.1%; allow 3x.
        assert!(mean_rel.abs() < 0.065, "mean signed error {mean_rel}");
    }

    #[test]
    fn duplicate_insensitive() {
        let hasher = SplitMix64::default();
        let mut once = SuperLogLog::new(64).unwrap();
        let mut many = SuperLogLog::new(64).unwrap();
        for i in 0..10_000u64 {
            let h = hasher.hash_u64(i);
            once.insert_hash(h);
            for _ in 0..5 {
                many.insert_hash(h);
            }
        }
        assert_eq!(once, many);
    }

    #[test]
    fn merge_equals_union() {
        let hasher = SplitMix64::default();
        let mut a = SuperLogLog::new(64).unwrap();
        let mut b = SuperLogLog::new(64).unwrap();
        let mut union = SuperLogLog::new(64).unwrap();
        for i in 0..30_000u64 {
            let h = hasher.hash_u64(i);
            if i < 20_000 {
                a.insert_hash(h);
            }
            if i >= 10_000 {
                b.insert_hash(h);
            }
            union.insert_hash(h);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, union);
    }

    #[test]
    fn merge_rejects_mismatched_m() {
        let mut a = SuperLogLog::new(64).unwrap();
        let b = SuperLogLog::new(32).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn truncation_discards_outliers() {
        // A register outlier (a huge max rank in one bucket) falls in the
        // discarded 30 % and barely moves the estimate.
        let n = 50_000u64;
        let mut sll = SuperLogLog::new(64).unwrap();
        fill(&mut sll, n, 7);
        let base = sll.estimate();
        // Poison one bucket with a rank-40 observation (~2^40 "items").
        sll.observe(0, 40);
        let moved = (sll.estimate() - base).abs() / base;
        assert!(moved < 0.05, "super-LogLog should shrug: {moved}");
    }

    #[test]
    fn observe_reconstruction_matches_insertion() {
        let mut direct = SuperLogLog::new(32).unwrap();
        fill(&mut direct, 10_000, 0);
        let mut rebuilt = SuperLogLog::new(32).unwrap();
        for i in 0..32 {
            let r = direct.register(i);
            if r > 0 {
                rebuilt.observe(i, r);
            }
        }
        assert_eq!(direct, rebuilt);
    }

    #[test]
    fn empty_sketches() {
        // All-zero registers ⇒ a small estimate, and no panic.
        let sll = SuperLogLog::new(16).unwrap();
        assert!(sll.is_empty());
        assert!(sll.estimate() < 16.0);
    }

    #[test]
    fn invalid_m_rejected() {
        assert!(SuperLogLog::new(0).is_err());
        assert!(SuperLogLog::new(3).is_err());
        assert!(SuperLogLog::new(100).is_err());
        // One bucket too: the register-level estimator (the DHS path)
        // needs m ≥ 2.
        assert_eq!(
            SuperLogLog::new(1),
            Err(SketchConfigError::BucketsOutOfRange(1))
        );
        assert!(SuperLogLog::new(2).is_ok());
    }
}
