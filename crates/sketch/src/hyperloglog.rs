//! HyperLogLog (Flajolet, Fusy, Gandouet & Meunier, AOFA 2007).
//!
//! The successor of super-LogLog, included as the "future work" extension
//! of the paper's estimator lineup: same registers as LogLog, but the
//! estimate uses the *harmonic* mean, which tames the max-rank outliers
//! without a truncation rule, for a standard error of `1.04/√m`:
//!
//! ```text
//! E(n) = α^HLL_m · m² · ( Σ_i 2^{−M⟨i⟩} )^{−1}
//! ```
//!
//! with the usual small-range (linear counting) correction. Because we
//! consume 64-bit hashes, the 32-bit large-range correction of the original
//! paper is unnecessary and deliberately omitted.

use crate::alpha::alpha_hyperloglog;
use crate::estimator::{validate_buckets, CardinalityEstimator, MergeError, SketchConfigError};
use crate::registers::MaxRegisters;
use crate::rho::rho;

/// The HyperLogLog estimate from raw register values (max 1-based ranks,
/// 0 = empty bucket), including the small-range linear-counting
/// correction. `regs.len()` must be a power of two ≥ 16.
///
/// Shared by [`HyperLogLog::estimate`] and the distributed (DHS) counting
/// path, which reconstructs registers from DHT probes.
pub fn hyperloglog_estimate_from_registers(regs: &[u8]) -> f64 {
    let m = regs.len();
    assert!(m >= 16 && m.is_power_of_two());
    let mf = m as f64;
    let inv_sum: f64 = regs.iter().map(|&r| 2f64.powi(-i32::from(r))).sum();
    let raw = alpha_hyperloglog(m) * mf * mf / inv_sum;
    if raw <= 2.5 * mf {
        let zeros = regs.iter().filter(|&&r| r == 0).count();
        if zeros > 0 {
            return mf * (mf / zeros as f64).ln();
        }
    }
    raw
}

/// A HyperLogLog sketch with `m` registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    regs: MaxRegisters,
    bucket_bits: u32,
}

impl HyperLogLog {
    /// Create a HyperLogLog sketch with `m` registers (power of two, ≥ 16
    /// for the published α constants to apply).
    pub fn new(m: usize) -> Result<Self, SketchConfigError> {
        let bucket_bits = validate_buckets(m)?;
        if m < 16 {
            return Err(SketchConfigError::BucketsOutOfRange(m));
        }
        Ok(HyperLogLog {
            regs: MaxRegisters::new(m),
            bucket_bits,
        })
    }

    /// Register value (max 1-based rank) of bucket `i`.
    pub fn register(&self, i: usize) -> u8 {
        self.regs.get(i)
    }

    /// Record a rank observation directly (distributed-reconstruction path).
    pub fn observe(&mut self, i: usize, rank: u8) {
        self.regs.observe(i, rank);
    }
}

impl CardinalityEstimator for HyperLogLog {
    fn buckets(&self) -> usize {
        self.regs.len()
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked by m − 1 (m ≤ 2^16), fits; clamped to 255, fits u8"
    )]
    fn insert_hash(&mut self, hash: u64) {
        let m = self.regs.len() as u64;
        let bucket = (hash & (m - 1)) as usize;
        let rank = (rho(hash >> self.bucket_bits) + 1).min(255) as u8;
        self.regs.observe(bucket, rank);
    }

    fn estimate(&self) -> f64 {
        let regs: Vec<u8> = self.regs.iter().collect();
        hyperloglog_estimate_from_registers(&regs)
    }

    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.buckets() != other.buckets() {
            return Err(MergeError {
                reason: format!("m mismatch: {} vs {}", self.buckets(), other.buckets()),
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

    fn filled(m: usize, n: u64, seed: u64) -> HyperLogLog {
        let hasher = SplitMix64::with_seed(seed);
        let mut sketch = HyperLogLog::new(m).unwrap();
        for i in 0..n {
            sketch.insert_hash(hasher.hash_u64(i));
        }
        sketch
    }

    #[test]
    fn empty_estimates_zero() {
        let sketch = HyperLogLog::new(64).unwrap();
        assert!(sketch.is_empty());
        assert_eq!(sketch.estimate(), 0.0); // linear counting with V = m
    }

    #[test]
    fn small_range_linear_counting() {
        // For n ≪ m the linear-counting path should be nearly exact.
        for n in [1u64, 5, 20, 50] {
            let sketch = filled(1024, n, 3);
            let err = (sketch.estimate() - n as f64).abs();
            assert!(
                err <= (n as f64 * 0.25).max(2.0),
                "n={n} est={}",
                sketch.estimate()
            );
        }
    }

    #[test]
    fn accuracy_within_three_sigma() {
        // std error ≈ 1.04/√m; m = 256 ⇒ ~6.5%, 3σ ≈ 20%.
        for (seed, n) in [(1u64, 20_000u64), (2, 200_000), (3, 1_000_000)] {
            let sketch = filled(256, n, seed);
            let err = (sketch.estimate() - n as f64).abs() / n as f64;
            assert!(err < 0.20, "n={n} err={err}");
        }
    }

    #[test]
    fn duplicate_insensitive_and_mergeable() {
        let hasher = SplitMix64::default();
        let mut a = HyperLogLog::new(64).unwrap();
        let mut b = HyperLogLog::new(64).unwrap();
        let mut union = HyperLogLog::new(64).unwrap();
        for i in 0..20_000u64 {
            let h = hasher.hash_u64(i);
            a.insert_hash(h);
            a.insert_hash(h);
            if i % 2 == 0 {
                b.insert_hash(h);
            }
            union.insert_hash(h);
        }
        a.merge(&b).unwrap();
        assert_eq!(a, union);
    }

    #[test]
    fn merge_rejects_mismatch() {
        let mut a = HyperLogLog::new(64).unwrap();
        let b = HyperLogLog::new(128).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn m_below_sixteen_rejected() {
        assert!(HyperLogLog::new(8).is_err());
        assert!(HyperLogLog::new(16).is_ok());
    }
}
