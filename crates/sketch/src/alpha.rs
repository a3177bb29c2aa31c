//! Bias-correction constants for the super-LogLog and HyperLogLog
//! estimators.
//!
//! * [`alpha_superloglog`] returns the constant `α̃_m` for the *truncated*
//!   estimator (keep the `m₀ = ⌊θ₀·m⌋` smallest registers). Durand &
//!   Flajolet give no closed form for it; following common practice (and
//!   as documented in DESIGN.md) we calibrate it once per `m` with a
//!   seeded Monte-Carlo so that the estimator is unbiased, and cache the
//!   result process-wide.
//! * [`alpha_hyperloglog`] is the standard harmonic-mean constant of
//!   Flajolet et al. 2007.

use std::collections::HashMap;
// The calibration cache below holds pure, order-independent floats; a
// process-wide lock cannot change any replayed outcome.
use std::sync::{Mutex, OnceLock}; // dhs-lint: allow(determinism)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::registers::MaxRegisters;
use crate::rho::rho;

/// The truncation ratio of super-LogLog (`θ₀` in the paper).
pub const THETA_0: f64 = 0.7;

/// HyperLogLog's harmonic-mean constant `α^HLL_m`.
pub fn alpha_hyperloglog(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// Truncated-estimator constant `α̃_m` for super-LogLog with `θ₀ = 0.7`.
///
/// Calibrated once per `m` (seeded, deterministic) so that
/// `E[α̃_m · m₀ · 2^{mean of the m₀ smallest registers}] = n` in the
/// asymptotic regime `n ≫ m`, then cached.
pub fn alpha_superloglog(m: usize) -> f64 {
    // dhs-lint: allow(determinism) — the lock guards pure calibration floats.
    static CACHE: OnceLock<Mutex<HashMap<usize, f64>>> = OnceLock::new();
    // dhs-lint: allow(determinism) — same cache; contents are order-free.
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    // A poisoned lock only means another thread panicked mid-insert; the
    // cached values themselves are plain floats, so recover the guard.
    if let Some(&a) = cache.lock().unwrap_or_else(|p| p.into_inner()).get(&m) {
        return a;
    }
    let a = calibrate_alpha_superloglog(m, 0x005e_eda1_1ce5);
    cache.lock().unwrap_or_else(|p| p.into_inner()).insert(m, a);
    a
}

/// Number of registers kept by the truncation rule.
#[allow(clippy::cast_possible_truncation)]
pub fn truncated_count(m: usize) -> usize {
    // dhs-lint: allow(lossy_cast) — float→int: a truncation index ≤ m.
    (((m as f64) * THETA_0).floor() as usize).max(1)
}

/// The raw (un-normalized) truncated estimate `m₀ · 2^{mean of the m₀
/// smallest registers}` used both by the estimator and the calibration.
pub(crate) fn truncated_raw_estimate(regs: &MaxRegisters) -> f64 {
    let m = regs.len();
    let m0 = truncated_count(m);
    let mut values: Vec<u8> = regs.iter().collect();
    values.sort_unstable();
    let sum: f64 = values[..m0].iter().map(|&v| f64::from(v)).sum();
    (m0 as f64) * 2f64.powf(sum / m0 as f64)
}

/// Monte-Carlo calibration of `α̃_m`: simulate the sketch on `n` uniform
/// hashes for several trials and several `n`, and return `n / E[raw]`.
#[allow(clippy::cast_possible_truncation)]
// dhs-flow: allow(rng-plumbing) — the calibration owns a stream seeded
// from (seed, m) by construction: results are cached process-wide, so a
// caller-supplied RNG would make the cache contents call-order-dependent.
fn calibrate_alpha_superloglog(m: usize, seed: u64) -> f64 {
    let c = m.trailing_zeros();
    assert!(m.is_power_of_two(), "m must be a power of two");
    let mut rng = StdRng::seed_from_u64(seed ^ (m as u64));
    // Calibrate in the asymptotic regime n/m ∈ {64, 128}, 12 trials each.
    let mut ratios = Vec::new();
    for n_per_bucket in [64usize, 128] {
        let n = n_per_bucket * m;
        for _ in 0..12 {
            let mut regs = MaxRegisters::new(m);
            for _ in 0..n {
                let h: u64 = rng.gen();
                // dhs-lint: allow(lossy_cast) — masked by m − 1, fits usize.
                let bucket = (h & (m as u64 - 1)) as usize;
                // dhs-lint: allow(lossy_cast) — clamped to 64, fits u8.
                let rank = (rho(h >> c).min(63) + 1) as u8;
                regs.observe(bucket, rank);
            }
            ratios.push(truncated_raw_estimate(&regs) / n as f64);
        }
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    1.0 / mean_ratio
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hll_alpha_known_values() {
        assert!((alpha_hyperloglog(16) - 0.673).abs() < 1e-12);
        assert!((alpha_hyperloglog(64) - 0.709).abs() < 1e-12);
        let a = alpha_hyperloglog(4096);
        assert!((0.70..0.73).contains(&a));
    }

    #[test]
    fn truncated_count_floors() {
        assert_eq!(truncated_count(10), 7);
        assert_eq!(truncated_count(512), 358); // ⌊0.7·512⌋ = 358
        assert_eq!(truncated_count(1), 1);
    }

    #[test]
    fn alpha_tilde_cached_and_plausible() {
        let a1 = alpha_superloglog(64);
        let a2 = alpha_superloglog(64);
        assert_eq!(a1, a2, "cache must return identical values");
        // Empirically the truncated constant sits around 0.4–0.9 for
        // moderate m.
        assert!((0.2..1.5).contains(&a1), "α̃_64 = {a1}");
    }

    #[test]
    fn calibration_is_seed_deterministic() {
        let a = calibrate_alpha_superloglog(32, 42);
        let b = calibrate_alpha_superloglog(32, 42);
        assert_eq!(a, b);
    }
}
