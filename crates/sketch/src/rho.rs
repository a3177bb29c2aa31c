//! Bit-rank helpers.
//!
//! The hash-sketch literature (and the DHS paper) uses the function
//! `ρ(y)`: the position of the least-significant 1-bit in the binary
//! representation of `y`, with positions counted from 0. The paper defines
//! `ρ(0) = L` (the bit width), i.e. the rank saturates when no 1-bit exists.
//!
//! For a pseudo-uniform `y`, `P(ρ(y) = k) = 2^{-k-1}` — the geometric
//! distribution that makes hash sketches tick (paper eq. 1).

/// Position of the least-significant 1-bit of `y` (0-based).
///
/// Returns 64 for `y == 0` (the saturated value for a 64-bit word, matching
/// the paper's convention `ρ(0) = L`).
///
/// ```
/// use dhs_sketch::rho;
/// assert_eq!(rho(0b1), 0);
/// assert_eq!(rho(0b1010_0000), 5);
/// assert_eq!(rho(0), 64);
/// ```
#[inline]
pub fn rho(y: u64) -> u32 {
    y.trailing_zeros()
}

/// `ρ(y)` restricted to a `width`-bit value: returns
/// `min(rho(y), width)`.
///
/// DHS works with `k`-bit keys (`k ≤ L`); an all-zero `k`-bit key has rank
/// `k`, not 64. `width` must be ≤ 64.
///
/// ```
/// use dhs_sketch::rho_capped;
/// assert_eq!(rho_capped(0, 24), 24);
/// assert_eq!(rho_capped(0b100, 24), 2);
/// ```
#[inline]
pub fn rho_capped(y: u64, width: u32) -> u32 {
    debug_assert!(width <= 64);
    rho(y).min(width)
}

/// Keep only the `k` low-order bits of `y` (`lsb_k` in the paper).
///
/// `k` must be ≤ 64; `k == 64` returns `y` unchanged.
#[inline]
pub fn lsb(y: u64, k: u32) -> u64 {
    debug_assert!(k <= 64);
    if k == 64 {
        y
    } else {
        y & ((1u64 << k) - 1)
    }
}

/// The value of bit `k` of `y` (0 or 1), bit 0 being least significant.
#[inline]
pub fn bit(y: u64, k: u32) -> u64 {
    debug_assert!(k < 64);
    (y >> k) & 1
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data has known ranges"
)]
mod tests {
    use super::*;

    #[test]
    fn rho_of_powers_of_two() {
        for k in 0..64u32 {
            assert_eq!(rho(1u64 << k), k);
        }
    }

    #[test]
    fn rho_ignores_higher_bits() {
        assert_eq!(rho(0b1011_0100), 2);
        assert_eq!(rho(u64::MAX), 0);
        assert_eq!(rho(u64::MAX << 17), 17);
    }

    #[test]
    fn rho_zero_saturates() {
        assert_eq!(rho(0), 64);
        assert_eq!(rho_capped(0, 24), 24);
        assert_eq!(rho_capped(0, 64), 64);
    }

    #[test]
    fn rho_capped_caps_only_at_width() {
        assert_eq!(rho_capped(1 << 30, 24), 24);
        assert_eq!(rho_capped(1 << 23, 24), 23);
        assert_eq!(rho_capped(1 << 5, 24), 5);
    }

    #[test]
    fn lsb_masks() {
        assert_eq!(lsb(0xFFFF_FFFF_FFFF_FFFF, 8), 0xFF);
        assert_eq!(lsb(0x1234_5678_9ABC_DEF0, 64), 0x1234_5678_9ABC_DEF0);
        assert_eq!(lsb(0b1111, 0), 0);
    }

    #[test]
    fn bit_extracts() {
        let y = 0b1010_0110u64;
        let expected = [0, 1, 1, 0, 0, 1, 0, 1];
        for (k, &e) in expected.iter().enumerate() {
            assert_eq!(bit(y, k as u32), e, "bit {k}");
        }
    }

    #[test]
    fn rho_distribution_is_geometric() {
        // Over all 16-bit values, exactly 2^{15-k} values have rho == k.
        let mut counts = [0u32; 17];
        for y in 0..(1u64 << 16) {
            counts[rho_capped(y, 16) as usize] += 1;
        }
        for (k, &count) in counts.iter().enumerate().take(16) {
            assert_eq!(count, 1 << (15 - k), "rank {k}");
        }
        assert_eq!(counts[16], 1); // only y == 0
    }
}
