//! Bit-position → ID-space interval mapping (§3.1).
//!
//! The node identifier space `[0, 2^64)` is partitioned into consecutive
//! intervals of exponentially decreasing size,
//!
//! ```text
//! I_0 = [2^63, 2^64)        — half the space, for bit 0
//! I_1 = [2^62, 2^63)        — a quarter,      for bit 1
//! …
//! I_last = [0, 2^{64−last}) — everything below, for the last bit
//! ```
//!
//! Bit `r` is set by a fraction `2^{−r−1}` of inserted items, and interval
//! `I_r` holds a `2^{−r−1}` fraction of (uniformly placed) nodes — so the
//! expected per-node load is identical across the whole ring. This is the
//! paper's central load-balancing construction.
//!
//! With the §3.5 bit-shift `b`, stored bit `r` maps to interval `I_{r−b}`
//! (bits below `b` are never stored), giving the highest — smallest-
//! interval — bits more nodes to live on.

use dhs_dht::overlay::Overlay;

use crate::config::DhsConfig;

/// An inclusive identifier range `[lo, hi]` (inclusive on both ends so
/// `I_0` can reach `u64::MAX` without overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdInterval {
    /// Lowest identifier in the interval.
    pub lo: u64,
    /// Highest identifier in the interval (inclusive).
    pub hi: u64,
}

impl IdInterval {
    /// Whether `id` lies in the interval.
    #[inline]
    pub fn contains(&self, id: u64) -> bool {
        (self.lo..=self.hi).contains(&id)
    }

    /// Number of identifiers in the interval, as `f64` (the exact count
    /// can exceed `u64` only for the full space, which never occurs here).
    pub fn size(&self) -> f64 {
        (self.hi - self.lo) as f64 + 1.0
    }
}

/// The Alg. 1 walk order inside one interval, with no borrow of the
/// ring: successors while the current node stays inside the interval,
/// then predecessors of the original target.
#[derive(Debug, Clone, Copy)]
pub struct WalkState {
    interval: IdInterval,
    first: u64,
    cur: u64,
    going_succ: bool,
}

impl WalkState {
    /// A walk over `interval` starting at lookup target `first`.
    pub fn new(interval: IdInterval, first: u64) -> Self {
        WalkState {
            interval,
            first,
            cur: first,
            going_succ: true,
        }
    }

    /// The next node to probe (one hop away from the current one).
    ///
    /// Successor direction first (Alg. 1 line 13, `id < thr(r−1)`): we
    /// keep stepping while the *current* node is still inside the
    /// interval, which deliberately probes one node **past** the
    /// interval's top boundary — in Chord that successor owns the
    /// interval's topmost keys, so tuples stored under them live there.
    /// (In sparse intervals, which decide the estimate, that boundary
    /// owner holds everything.) Then predecessors of the original target.
    pub fn next_target<O: Overlay>(&mut self, ring: &O) -> u64 {
        if self.going_succ {
            if self.interval.contains(self.cur) {
                let next = ring.next_node(self.cur);
                if next != self.first {
                    self.cur = next;
                    return next;
                }
            }
            // Walked out of the interval (or wrapped): restart from the
            // original target, walking predecessors.
            self.going_succ = false;
            self.cur = self.first;
        }
        self.cur = ring.prev_node(self.cur);
        self.cur
    }
}

/// The identifier interval of bit position `rank`, under `cfg`'s
/// bit-shift. `rank` must satisfy `cfg.bit_shift ≤ rank < cfg.k`
/// (storage only ever uses ranks below `cfg.rank_bits()`; the counting
/// scan also probes the empty positions above — see
/// [`DhsConfig::num_intervals`]).
pub fn interval_for_rank(cfg: &DhsConfig, rank: u32) -> IdInterval {
    assert!(
        rank >= cfg.bit_shift && rank < cfg.k,
        "rank {rank} outside storable range [{}, {})",
        cfg.bit_shift,
        cfg.k
    );
    let index = rank - cfg.bit_shift;
    interval_at(index, cfg.num_intervals())
}

/// The `index`-th of `count` intervals (0 = the big half-space interval;
/// `count − 1` = the catch-all bottom interval).
pub fn interval_at(index: u32, count: u32) -> IdInterval {
    assert!(index < count);
    assert!(count <= 64);
    if index + 1 == count {
        // Last interval swallows everything below thr(count − 2).
        IdInterval {
            lo: 0,
            hi: (1u64 << (64 - count as u64)) - 1 + (1u64 << (64 - count as u64)),
        }
    } else {
        let lo = 1u64 << (63 - index);
        let hi = if index == 0 {
            u64::MAX
        } else {
            (1u64 << (64 - index)) - 1
        };
        IdInterval { lo, hi }
    }
}

/// Which bit position (rank) an identifier belongs to, under `cfg` —
/// the inverse of [`interval_for_rank`]. Returns `None` for ids below the
/// last interval's floor (cannot happen: the last interval reaches 0).
pub fn rank_of_id(cfg: &DhsConfig, id: u64) -> u32 {
    let count = cfg.num_intervals();
    // Index = number of leading zero bits, capped by the interval count.
    let index = (id.leading_zeros()).min(count - 1);
    index + cfg.bit_shift
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with(k: u32, m: usize, bit_shift: u32) -> DhsConfig {
        let cfg = DhsConfig {
            k,
            m,
            bit_shift,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
        cfg
    }

    #[test]
    fn intervals_partition_the_space() {
        // Consecutive intervals must tile [0, 2^64) with no gap/overlap.
        let count = 15;
        let mut expected_hi = u64::MAX;
        for i in 0..count {
            let iv = interval_at(i, count);
            assert_eq!(iv.hi, expected_hi, "interval {i} upper bound");
            assert!(iv.lo <= iv.hi);
            if i + 1 == count {
                assert_eq!(iv.lo, 0, "last interval reaches the floor");
            } else {
                expected_hi = iv.lo - 1;
            }
        }
    }

    #[test]
    fn interval_sizes_halve() {
        let count = 10;
        for i in 0..count - 2 {
            let a = interval_at(i, count).size();
            let b = interval_at(i + 1, count).size();
            assert!((a / b - 2.0).abs() < 1e-9, "interval {i} vs {}", i + 1);
        }
    }

    #[test]
    fn paper_thresholds() {
        // I_0 = [2^63, 2^64), I_1 = [2^62, 2^63).
        let i0 = interval_at(0, 15);
        assert_eq!(i0.lo, 1u64 << 63);
        assert_eq!(i0.hi, u64::MAX);
        let i1 = interval_at(1, 15);
        assert_eq!(i1.lo, 1u64 << 62);
        assert_eq!(i1.hi, (1u64 << 63) - 1);
    }

    #[test]
    fn rank_of_id_inverts_interval_for_rank() {
        let cfg = cfg_with(24, 512, 0);
        for rank in 0..cfg.rank_bits() {
            let iv = interval_for_rank(&cfg, rank);
            assert_eq!(rank_of_id(&cfg, iv.lo), rank, "lo of rank {rank}");
            assert_eq!(rank_of_id(&cfg, iv.hi), rank, "hi of rank {rank}");
            let mid = iv.lo + (iv.hi - iv.lo) / 2;
            assert_eq!(rank_of_id(&cfg, mid), rank, "mid of rank {rank}");
        }
    }

    #[test]
    fn bit_shift_promotes_ranks_into_larger_intervals() {
        let plain = cfg_with(24, 512, 0);
        let shifted = cfg_with(24, 512, 4);
        // With b = 4, rank 4 occupies the big half-space interval that
        // rank 0 occupies without the shift.
        assert_eq!(interval_for_rank(&shifted, 4), interval_for_rank(&plain, 0));
        assert_eq!(interval_for_rank(&shifted, 5), interval_for_rank(&plain, 1));
    }

    #[test]
    #[should_panic(expected = "outside storable range")]
    fn rank_below_bit_shift_panics() {
        let cfg = cfg_with(24, 512, 4);
        interval_for_rank(&cfg, 3);
    }

    #[test]
    fn single_interval_config() {
        // k = 1, m = 1 → one bit position → one interval covering all ids.
        let cfg = DhsConfig {
            k: 1,
            m: 1,
            estimator: crate::EstimatorKind::Pcsa,
            ..DhsConfig::default()
        };
        cfg.validate().unwrap();
        assert_eq!(cfg.num_intervals(), 1);
        let iv = interval_for_rank(&cfg, 0);
        assert_eq!(iv.lo, 0);
        assert_eq!(iv.hi, u64::MAX);
        assert_eq!(rank_of_id(&cfg, 0), 0);
        assert_eq!(rank_of_id(&cfg, u64::MAX), 0);
    }
}
