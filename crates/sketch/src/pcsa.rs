//! PCSA — Probabilistic Counting with Stochastic Averaging
//! (Flajolet & Martin, *Probabilistic Counting Algorithms for Data Base
//! Applications*, JCSS 1985).
//!
//! The sketch keeps `m` bitmaps of `width` bits. Each inserted hash `h`
//! selects bitmap `h mod m` and sets bit `ρ(h div m)` of it. The estimate
//! reads, per bitmap, the position `M⟨i⟩` of the lowest 0-bit, and returns
//!
//! ```text
//! E(n) = (1/φ) · m · 2^{(1/m)·Σ M⟨i⟩},   φ = 0.77351           (paper eq. 4)
//! ```
//!
//! with the residual multiplicative bias `1 + 0.31/m` divided out (the
//! paper quotes bias `1 + 0.31/m` and standard error `0.78/√m`).

use crate::estimator::{validate_buckets, CardinalityEstimator, MergeError, SketchConfigError};
use crate::registers::BitmapArray;
use crate::rho::rho;

/// Flajolet–Martin's magic constant `φ`.
pub const PCSA_PHI: f64 = 0.77351;

/// The PCSA estimate from per-bitmap lowest-zero positions `M⟨i⟩`,
/// including the `1 + 0.31/m` bias division.
///
/// Shared by [`Pcsa::estimate`] and the distributed (DHS) counting path,
/// which concludes the `M⟨i⟩` values from DHT probes.
pub fn pcsa_estimate_from_first_zeros(first_zeros: &[u32]) -> f64 {
    let m = first_zeros.len();
    assert!(m >= 1 && m.is_power_of_two());
    let mf = m as f64;
    let sum: f64 = first_zeros.iter().map(|&v| f64::from(v)).sum();
    mf / PCSA_PHI * 2f64.powf(sum / mf) / (1.0 + 0.31 / mf)
}

/// A PCSA sketch with `m` bitmaps of `width` bits each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcsa {
    bitmaps: BitmapArray,
    /// log2(m), cached for insertion.
    bucket_bits: u32,
}

impl Pcsa {
    /// Default bitmap width: enough for any 64-bit hash rank.
    pub const DEFAULT_WIDTH: u32 = 64;

    /// Create a PCSA sketch with `m` bitmaps (power of two) of 64 bits.
    pub fn new(m: usize) -> Result<Self, SketchConfigError> {
        Self::with_width(m, Self::DEFAULT_WIDTH)
    }

    /// Create a PCSA sketch with `m` bitmaps of `width` bits each.
    ///
    /// `width` bounds the countable cardinality at roughly `m · 2^width`;
    /// the paper's guidance (its eq. 3) is
    /// `width ≥ log2(n_max/m) + 3`.
    pub fn with_width(m: usize, width: u32) -> Result<Self, SketchConfigError> {
        let bucket_bits = validate_buckets(m)?;
        if width == 0 || width > 64 {
            return Err(SketchConfigError::BitmapWidthOutOfRange(width));
        }
        Ok(Pcsa {
            bitmaps: BitmapArray::new(m, width),
            bucket_bits,
        })
    }

    /// Bitmap width in bits.
    pub fn width(&self) -> u32 {
        self.bitmaps.width()
    }

    /// `M⟨i⟩`: position of the lowest 0-bit of bitmap `i`.
    pub fn lowest_zero(&self, i: usize) -> u32 {
        self.bitmaps.lowest_zero(i)
    }

    /// Whether bit `rank` of bitmap `i` is set (used by tests comparing
    /// against the distributed implementation).
    pub fn bit(&self, i: usize, rank: u32) -> bool {
        self.bitmaps.get(i, rank)
    }

    /// Set a bit directly. This is the primitive DHS distributes: a remote
    /// reader reconstructing a sketch from DHT probes calls this.
    pub fn set_bit(&mut self, i: usize, rank: u32) {
        self.bitmaps.set(i, rank);
    }
}

impl CardinalityEstimator for Pcsa {
    fn buckets(&self) -> usize {
        self.bitmaps.len()
    }

    #[inline]
    #[allow(clippy::cast_possible_truncation)]
    fn insert_hash(&mut self, hash: u64) {
        let m = self.bitmaps.len() as u64;
        // dhs-lint: allow(lossy_cast) — masked by m − 1 (m ≤ 2^16), fits.
        let bucket = (hash & (m - 1)) as usize;
        let rank = rho(hash >> self.bucket_bits);
        self.bitmaps.set(bucket, rank);
    }

    fn estimate(&self) -> f64 {
        let first_zeros: Vec<u32> = (0..self.buckets())
            .map(|i| self.bitmaps.lowest_zero(i))
            .collect();
        pcsa_estimate_from_first_zeros(&first_zeros)
    }

    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.buckets() != other.buckets() || self.width() != other.width() {
            return Err(MergeError {
                reason: format!(
                    "shape mismatch: {}x{} vs {}x{}",
                    self.buckets(),
                    self.width(),
                    other.buckets(),
                    other.width()
                ),
            });
        }
        self.bitmaps.union_in_place(&other.bitmaps);
        Ok(())
    }

    fn is_empty(&self) -> bool {
        self.bitmaps.all_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{ItemHasher, SplitMix64};

    fn filled(m: usize, n: u64, seed: u64) -> Pcsa {
        let hasher = SplitMix64::with_seed(seed);
        let mut sketch = Pcsa::new(m).unwrap();
        for i in 0..n {
            sketch.insert_hash(hasher.hash_u64(i));
        }
        sketch
    }

    #[test]
    fn empty_estimates_small() {
        let sketch = Pcsa::new(64).unwrap();
        assert!(sketch.is_empty());
        // All M = 0 ⇒ E = m/φ / (1+0.31/m) ≈ 82.3 for m = 64; PCSA is known
        // to be inaccurate for n ≲ m — we only require it not to blow up.
        assert!(sketch.estimate() < 100.0);
    }

    #[test]
    fn accuracy_within_three_sigma() {
        // std error ≈ 0.78/√m; for m = 256 that is ~4.9%, 3σ ≈ 14.6%.
        for (seed, n) in [(1u64, 10_000u64), (2, 100_000), (3, 400_000)] {
            let sketch = filled(256, n, seed);
            let err = (sketch.estimate() - n as f64).abs() / n as f64;
            assert!(err < 0.15, "n={n} err={err}");
        }
    }

    #[test]
    fn duplicate_insensitive() {
        let hasher = SplitMix64::default();
        let mut once = Pcsa::new(64).unwrap();
        let mut thrice = Pcsa::new(64).unwrap();
        for i in 0..5_000u64 {
            let h = hasher.hash_u64(i);
            once.insert_hash(h);
            for _ in 0..3 {
                thrice.insert_hash(h);
            }
        }
        assert_eq!(once, thrice);
    }

    #[test]
    fn merge_equals_union() {
        let hasher = SplitMix64::default();
        let mut left = Pcsa::new(128).unwrap();
        let mut right = Pcsa::new(128).unwrap();
        let mut both = Pcsa::new(128).unwrap();
        for i in 0..20_000u64 {
            let h = hasher.hash_u64(i);
            if i % 2 == 0 {
                left.insert_hash(h);
            }
            if i % 3 == 0 {
                right.insert_hash(h);
            }
            if i % 2 == 0 || i % 3 == 0 {
                both.insert_hash(h);
            }
        }
        left.merge(&right).unwrap();
        assert_eq!(left, both);
    }

    #[test]
    fn merge_shape_mismatch_errors() {
        let mut a = Pcsa::new(64).unwrap();
        let b = Pcsa::new(128).unwrap();
        assert!(a.merge(&b).is_err());
        let c = Pcsa::with_width(64, 24).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn narrow_width_saturates_gracefully() {
        // A 4-bit-wide PCSA cannot represent large counts, but it must not
        // panic and must cap at roughly m·2^width/φ.
        let hasher = SplitMix64::default();
        let mut sketch = Pcsa::with_width(16, 4).unwrap();
        for i in 0..100_000u64 {
            sketch.insert_hash(hasher.hash_u64(i));
        }
        let cap = 16.0 / PCSA_PHI * 2f64.powi(4);
        assert!(sketch.estimate() <= cap + 1.0);
    }

    #[test]
    fn set_bit_reconstruction_matches_insertion() {
        // Rebuilding a sketch from observed (bucket, rank) bits must yield
        // the same estimate — this is exactly what DHS counting does.
        let hasher = SplitMix64::default();
        let mut direct = Pcsa::new(32).unwrap();
        for i in 0..10_000u64 {
            direct.insert_hash(hasher.hash_u64(i));
        }
        let mut rebuilt = Pcsa::new(32).unwrap();
        for i in 0..32 {
            for r in 0..64 {
                if direct.bit(i, r) {
                    rebuilt.set_bit(i, r);
                }
            }
        }
        assert_eq!(direct, rebuilt);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Pcsa::new(0).is_err());
        assert!(Pcsa::new(48).is_err());
        assert!(Pcsa::with_width(64, 0).is_err());
        assert!(Pcsa::with_width(64, 65).is_err());
    }
}
