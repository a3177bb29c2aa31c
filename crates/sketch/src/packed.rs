//! Bit-packed max-rank registers.
//!
//! A `u8` per register wastes space: 64-bit hashes never produce ranks
//! above 64, so 6 bits suffice (and the paper's whole point about
//! LogLog-family sketches is their `O(log log n)` bits per register).
//! [`PackedRegisters`] stores `m` registers at `BITS_PER_REGISTER` bits
//! each — the representation a production node would gossip or persist —
//! and unpacks losslessly into the byte-per-register form used by the
//! estimator code.

use crate::registers::MaxRegisters;

/// Bits per packed register: ranks of 64-bit hashes fit in 6 bits
/// (values 0–64 need 7… but DHS ranks are capped at `k − log2(m) < 64`,
/// and the LogLog register convention stores rank+1 ≤ 64, so 6 bits hold
/// every value up to 63; 64 is clamped, losing nothing measurable).
pub const BITS_PER_REGISTER: u32 = 6;

/// Maximum value a packed register can hold.
pub const MAX_PACKED: u8 = (1 << BITS_PER_REGISTER) - 1;

/// `m` max-rank registers at 6 bits each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedRegisters {
    words: Vec<u64>,
    len: usize,
}

impl PackedRegisters {
    /// Create `m` zeroed packed registers.
    #[allow(clippy::cast_possible_truncation)]
    pub fn new(m: usize) -> Self {
        let total_bits = m as u64 * u64::from(BITS_PER_REGISTER);
        PackedRegisters {
            // dhs-lint: allow(lossy_cast) — a register count, far below
            // usize::MAX on any supported target.
            words: vec![0; total_bits.div_ceil(64) as usize],
            len: m,
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `m == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory footprint of the register payload in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Read register `i`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len);
        let bit = i as u64 * u64::from(BITS_PER_REGISTER);
        // dhs-lint: allow(lossy_cast) — div/mod by 64 bound both values.
        let (word, offset) = ((bit / 64) as usize, (bit % 64) as u32);
        let lo = self.words[word] >> offset;
        let value = if offset + BITS_PER_REGISTER <= 64 {
            lo
        } else {
            lo | (self.words[word + 1] << (64 - offset))
        };
        // dhs-lint: allow(lossy_cast) — masked to MAX_PACKED, fits u8.
        (value & u64::from(MAX_PACKED)) as u8
    }

    /// Set register `i` to `value` (clamped to the packed maximum).
    pub fn set(&mut self, i: usize, value: u8) {
        assert!(i < self.len);
        let value = u64::from(value.min(MAX_PACKED));
        let bit = i as u64 * u64::from(BITS_PER_REGISTER);
        // dhs-lint: allow(lossy_cast) — div/mod by 64 bound both values.
        let (word, offset) = ((bit / 64) as usize, (bit % 64) as u32);
        let mask = u64::from(MAX_PACKED);
        self.words[word] &= !(mask << offset);
        self.words[word] |= value << offset;
        if offset + BITS_PER_REGISTER > 64 {
            let spill = BITS_PER_REGISTER - (64 - offset);
            let spill_mask = (1u64 << spill) - 1;
            self.words[word + 1] &= !spill_mask;
            self.words[word + 1] |= value >> (64 - offset);
        }
    }

    /// Record a rank observation (keeps the max), like
    /// [`MaxRegisters::observe`].
    pub fn observe(&mut self, i: usize, rank: u8) {
        if rank.min(MAX_PACKED) > self.get(i) {
            self.set(i, rank);
        }
    }

    /// Unpack into the byte-per-register form the estimators consume.
    pub fn unpack(&self) -> MaxRegisters {
        let mut regs = MaxRegisters::new(self.len);
        for i in 0..self.len {
            regs.observe(i, self.get(i));
        }
        regs
    }
}

#[cfg(test)]
#[allow(clippy::cast_possible_truncation)] // test data has known ranges
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn get_set_roundtrip_all_positions() {
        let m = 100;
        let mut p = PackedRegisters::new(m);
        for i in 0..m {
            p.set(i, (i % 64) as u8);
        }
        for i in 0..m {
            assert_eq!(p.get(i), (i % 64) as u8, "register {i}");
        }
    }

    #[test]
    fn values_clamp_at_packed_max() {
        let mut p = PackedRegisters::new(4);
        p.set(0, 255);
        assert_eq!(p.get(0), MAX_PACKED);
        p.observe(1, 200);
        assert_eq!(p.get(1), MAX_PACKED);
    }

    #[test]
    fn observe_keeps_max() {
        let mut p = PackedRegisters::new(2);
        p.observe(0, 5);
        p.observe(0, 3);
        assert_eq!(p.get(0), 5);
        p.observe(0, 9);
        assert_eq!(p.get(0), 9);
    }

    #[test]
    fn pack_unpack_is_lossless_for_in_range_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut regs = MaxRegisters::new(512);
        let mut packed = PackedRegisters::new(512);
        for i in 0..512 {
            let v = rng.gen_range(0..=MAX_PACKED);
            regs.observe(i, v);
            packed.observe(i, v);
        }
        assert_eq!(packed.unpack(), regs);
    }

    #[test]
    fn payload_is_three_quarters_smaller() {
        let p = PackedRegisters::new(1024);
        // 1024 × 6 bits = 768 bytes vs 1024 unpacked.
        assert_eq!(p.payload_bytes(), 768);
    }

    #[test]
    fn neighbors_do_not_clobber() {
        // Straddling word boundaries: setting one register must not
        // disturb its neighbors, for every alignment.
        for target in 0..64usize {
            let mut p = PackedRegisters::new(64);
            for i in 0..64 {
                p.set(i, 0b10_1010);
            }
            p.set(target, 0b01_0101);
            for i in 0..64 {
                let want = if i == target { 0b01_0101 } else { 0b10_1010 };
                assert_eq!(p.get(i), want, "target {target}, register {i}");
            }
        }
    }

    #[test]
    fn estimate_from_packed_matches_unpacked() {
        use crate::hash::{ItemHasher, SplitMix64};
        use crate::CardinalityEstimator;
        let hasher = SplitMix64::default();
        let mut sketch = crate::SuperLogLog::new(128).unwrap();
        for i in 0..50_000u64 {
            sketch.insert_hash(hasher.hash_u64(i));
        }
        let mut packed = PackedRegisters::new(128);
        for i in 0..128 {
            packed.observe(i, sketch.register(i));
        }
        let unpacked: Vec<u8> = (0..128).map(|i| packed.get(i)).collect();
        assert_eq!(
            crate::superloglog_estimate_from_registers(&unpacked),
            sketch.estimate()
        );
    }
}
