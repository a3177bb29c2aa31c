//! Register storage shared by the sketch families.
//!
//! * [`BitmapArray`] — one `u64` bitmap per bucket (PCSA stores *which*
//!   ranks were observed).
//! * [`MaxRegisters`] — one `u8` per bucket holding the *maximum* observed
//!   rank (LogLog / super-LogLog / HyperLogLog only need the max).
//!
//! Both support the union operation that makes sketches mergeable.

/// An array of `m` bitmaps, each at most 64 bits wide.
///
/// Bit `r` of bitmap `i` is set iff some inserted item selected bucket `i`
/// and had rank `r` (with `r < width`; higher ranks are recorded in the
/// last usable bit position's stead only if `saturate` semantics are chosen
/// by the caller — PCSA simply drops ranks ≥ width, which is harmless
/// because the estimator never reads past the first 0-bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitmapArray {
    maps: Vec<u64>,
    width: u32,
}

impl BitmapArray {
    /// Create `m` zeroed bitmaps of `width` bits each (`1 ..= 64`).
    pub fn new(m: usize, width: u32) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        BitmapArray {
            maps: vec![0; m],
            width,
        }
    }

    /// Number of bitmaps.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// True when there are no bitmaps (never the case for a valid sketch).
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Bitmap width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Set bit `rank` of bitmap `i`; ranks ≥ width are ignored.
    #[inline]
    pub fn set(&mut self, i: usize, rank: u32) {
        if rank < self.width {
            self.maps[i] |= 1u64 << rank;
        }
    }

    /// Whether bit `rank` of bitmap `i` is set.
    #[inline]
    pub fn get(&self, i: usize, rank: u32) -> bool {
        rank < self.width && (self.maps[i] >> rank) & 1 == 1
    }

    /// Raw bitmap `i`.
    #[inline]
    pub fn raw(&self, i: usize) -> u64 {
        self.maps[i]
    }

    /// Position of the lowest 0-bit of bitmap `i` (PCSA's `M⟨i⟩`), capped
    /// at the width.
    #[inline]
    pub fn lowest_zero(&self, i: usize) -> u32 {
        (self.maps[i].trailing_ones()).min(self.width)
    }

    /// OR every bitmap of `other` into `self`. Panics if shapes differ
    /// (callers validate first and surface a `MergeError`).
    pub fn union_in_place(&mut self, other: &Self) {
        assert_eq!(self.maps.len(), other.maps.len());
        assert_eq!(self.width, other.width);
        for (a, b) in self.maps.iter_mut().zip(&other.maps) {
            *a |= b;
        }
    }

    /// True iff every bitmap is zero.
    pub fn all_zero(&self) -> bool {
        self.maps.iter().all(|&v| v == 0)
    }
}

/// An array of `m` max-rank registers.
///
/// Register `i` holds the maximum *1-based* rank observed for bucket `i`
/// (`0` means the bucket never received an item) — the `M^{(i)}` of
/// Durand–Flajolet and of HyperLogLog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxRegisters {
    regs: Vec<u8>,
}

impl MaxRegisters {
    /// Create `m` zeroed registers.
    pub fn new(m: usize) -> Self {
        MaxRegisters { regs: vec![0; m] }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when there are no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Record a 1-based rank for bucket `i` (keeps the max).
    #[inline]
    pub fn observe(&mut self, i: usize, rank: u8) {
        if rank > self.regs[i] {
            self.regs[i] = rank;
        }
    }

    /// Current value of register `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        self.regs[i]
    }

    /// Iterate over register values.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        self.regs.iter().copied()
    }

    /// Element-wise max of `other` into `self`.
    pub fn union_in_place(&mut self, other: &Self) {
        assert_eq!(self.regs.len(), other.regs.len());
        for (a, &b) in self.regs.iter_mut().zip(&other.regs) {
            *a = (*a).max(b);
        }
    }

    /// True iff every register is zero.
    pub fn all_zero(&self) -> bool {
        self.regs.iter().all(|&r| r == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_roundtrip() {
        let mut b = BitmapArray::new(4, 24);
        b.set(0, 0);
        b.set(0, 5);
        b.set(3, 23);
        assert!(b.get(0, 0));
        assert!(b.get(0, 5));
        assert!(!b.get(0, 1));
        assert!(b.get(3, 23));
        assert!(!b.get(1, 0));
    }

    #[test]
    fn bitmap_ignores_out_of_width_ranks() {
        let mut b = BitmapArray::new(1, 8);
        b.set(0, 8);
        b.set(0, 63);
        assert!(b.all_zero());
        assert!(!b.get(0, 8));
    }

    #[test]
    fn lowest_zero_semantics() {
        let mut b = BitmapArray::new(1, 16);
        assert_eq!(b.lowest_zero(0), 0);
        b.set(0, 0);
        b.set(0, 1);
        b.set(0, 3);
        assert_eq!(b.lowest_zero(0), 2);
        for r in 0..16 {
            b.set(0, r);
        }
        assert_eq!(b.lowest_zero(0), 16, "full bitmap caps at width");
    }

    #[test]
    fn bitmap_union_is_or() {
        let mut a = BitmapArray::new(2, 24);
        let mut b = BitmapArray::new(2, 24);
        a.set(0, 1);
        b.set(0, 2);
        b.set(1, 7);
        a.union_in_place(&b);
        assert!(a.get(0, 1) && a.get(0, 2) && a.get(1, 7));
    }

    #[test]
    fn registers_keep_max() {
        let mut r = MaxRegisters::new(2);
        r.observe(0, 3);
        r.observe(0, 2);
        assert_eq!(r.get(0), 3);
        r.observe(0, 9);
        assert_eq!(r.get(0), 9);
        assert_eq!(r.get(1), 0);
    }

    #[test]
    fn register_union_is_elementwise_max() {
        let mut a = MaxRegisters::new(3);
        let mut b = MaxRegisters::new(3);
        a.observe(0, 5);
        b.observe(0, 3);
        b.observe(2, 8);
        a.union_in_place(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(1), 0);
        assert_eq!(a.get(2), 8);
    }
}
