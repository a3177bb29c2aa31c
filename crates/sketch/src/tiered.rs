//! Tiered (compressed) max-rank register storage.
//!
//! A store holding millions of sketches (one per user/bucket metric, the
//! paper's §4.2 histogram use) cannot afford a byte per register: most
//! metrics are small, so most registers are zero. [`TieredRegisters`]
//! keeps one logical `m`-register max-rank sketch in whichever of three
//! representations is cheapest for its current fill, promoting as
//! registers fill (the HyperLogLogLog-style compression lever of
//! Karppa & Pagh, PAPERS.md):
//!
//! * **Sparse** — a sorted `(index, rank)` entry list. An empty sketch
//!   costs nothing; a sketch with `e` nonzero registers costs
//!   `e · 4` bytes. The tier of the long tail.
//! * **Packed** — 6 bits per register ([`PackedRegisters`]), `~0.75·m`
//!   bytes regardless of fill. Entered when the sparse list would cost
//!   more than packing everything.
//! * **Dense** — one byte per register ([`MaxRegisters`]), entered when
//!   nearly every register is nonzero: at that point the sketch is
//!   clearly hot, the 33% size premium over packed is bounded, and reads
//!   and writes become single byte accesses.
//!
//! All three tiers describe the same logical register array; conversions
//! are lossless (ranks are clamped to [`MAX_PACKED`] *on observation*,
//! in every tier, so no promotion or demotion can change a value — see
//! [`TieredRegisters::observe`]). Promotion points are pure functions of
//! the observation stream, which keeps any store built on this type
//! deterministic.

use crate::packed::{PackedRegisters, MAX_PACKED};
use crate::registers::MaxRegisters;
use crate::wire::DecodeError;

/// Magic byte of the tiered wire format (`0xD5` is the fixed-layout
/// sketch format in [`crate::wire`]).
pub const TIERED_MAGIC: u8 = 0xD6;

/// Header bytes of the tiered wire format (magic, tier tag, u32 `m`).
pub const TIERED_HEADER: usize = 6;

/// Bytes of the 6-bit packed register stream for `m` registers.
fn packed_stream_bytes(m: usize) -> usize {
    (m * 6).div_ceil(8)
}

/// Which representation a [`TieredRegisters`] currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Sorted `(index, rank)` entry list.
    Sparse,
    /// 6-bit packed registers.
    Packed,
    /// Byte-per-register.
    Dense,
}

/// Bytes one sparse entry occupies (a `(u16, u8)` pair, padded).
pub const SPARSE_ENTRY_BYTES: usize = std::mem::size_of::<(u16, u8)>();

/// Dense promotion point: promote packed → dense when more than
/// `DENSE_FILL_NUM / DENSE_FILL_DEN` of the registers are nonzero.
pub const DENSE_FILL_NUM: usize = 7;
/// See [`DENSE_FILL_NUM`].
pub const DENSE_FILL_DEN: usize = 8;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Sparse(Vec<(u16, u8)>),
    Packed(PackedRegisters),
    Dense(MaxRegisters),
}

/// One logical array of `m` max-rank registers, stored in the cheapest
/// of the three tiers for its current fill. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredRegisters {
    len: usize,
    nonzero: usize,
    repr: Repr,
}

impl TieredRegisters {
    /// An empty (all-zero) sketch of `m` registers, in the sparse tier.
    ///
    /// `m` must fit the sparse index width (`m ≤ 65536`, the same bound
    /// the DHS vector id carries on the wire).
    pub fn new(m: usize) -> Self {
        assert!(m <= 1 << 16, "m {m} exceeds the u16 index space");
        TieredRegisters {
            len: m,
            nonzero: 0,
            repr: Repr::Sparse(Vec::new()),
        }
    }

    /// Number of logical registers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `m == 0`.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of nonzero registers.
    pub fn nonzero(&self) -> usize {
        self.nonzero
    }

    /// The current representation tier.
    pub fn tier(&self) -> Tier {
        match self.repr {
            Repr::Sparse(_) => Tier::Sparse,
            Repr::Packed(_) => Tier::Packed,
            Repr::Dense(_) => Tier::Dense,
        }
    }

    /// Bytes the register payload occupies in the current tier (the
    /// quantity a memory-budgeted store accounts and evicts against).
    pub fn payload_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sparse(entries) => entries.len() * SPARSE_ENTRY_BYTES,
            Repr::Packed(p) => p.payload_bytes(),
            Repr::Dense(d) => d.len(),
        }
    }

    /// Current value of register `i` (0 = never observed).
    pub fn get(&self, i: usize) -> u8 {
        assert!(i < self.len, "register {i} out of range");
        match &self.repr {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`i < self.len ≤ 65536` checked above"
            )]
            Repr::Sparse(entries) => match entries.binary_search_by_key(&(i as u16), |e| e.0) {
                Ok(pos) => entries[pos].1,
                Err(_) => 0,
            },
            Repr::Packed(p) => p.get(i),
            Repr::Dense(d) => d.get(i),
        }
    }

    /// Record a (1-based) rank observation for register `i`, keeping the
    /// max. Ranks clamp at [`MAX_PACKED`] in **every** tier, so the value
    /// stored is independent of the representation and promotions are
    /// lossless. Returns the tier promoted *into*, if this observation
    /// triggered one.
    pub fn observe(&mut self, i: usize, rank: u8) -> Option<Tier> {
        assert!(i < self.len, "register {i} out of range");
        let rank = rank.min(MAX_PACKED);
        if rank == 0 {
            return None;
        }
        let grew = match &mut self.repr {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`i < self.len ≤ 65536` checked above"
            )]
            Repr::Sparse(entries) => match entries.binary_search_by_key(&(i as u16), |e| e.0) {
                Ok(pos) => {
                    if rank > entries[pos].1 {
                        entries[pos].1 = rank;
                    }
                    false
                }
                Err(pos) => {
                    entries.insert(pos, (i as u16, rank));
                    true
                }
            },
            Repr::Packed(p) => {
                let grew = p.get(i) == 0;
                p.observe(i, rank);
                grew
            }
            Repr::Dense(d) => {
                let grew = d.get(i) == 0;
                d.observe(i, rank);
                grew
            }
        };
        if grew {
            self.nonzero += 1;
        }
        self.maybe_promote()
    }

    /// Promote when the current tier stopped being the right one:
    /// sparse → packed once the entry list costs at least as much as
    /// packing all `m` registers, packed → dense once register fill
    /// crosses [`DENSE_FILL_NUM`]/[`DENSE_FILL_DEN`].
    fn maybe_promote(&mut self) -> Option<Tier> {
        match &self.repr {
            Repr::Sparse(entries) => {
                let packed_cost = PackedRegisters::new(self.len).payload_bytes();
                if entries.len() * SPARSE_ENTRY_BYTES >= packed_cost && packed_cost > 0 {
                    let mut packed = PackedRegisters::new(self.len);
                    for &(idx, rank) in entries {
                        packed.set(usize::from(idx), rank);
                    }
                    self.repr = Repr::Packed(packed);
                    return Some(Tier::Packed);
                }
                None
            }
            Repr::Packed(p) => {
                if self.nonzero * DENSE_FILL_DEN >= self.len * DENSE_FILL_NUM {
                    self.repr = Repr::Dense(p.unpack());
                    return Some(Tier::Dense);
                }
                None
            }
            Repr::Dense(_) => None,
        }
    }

    /// Re-encode into the smallest tier for the current fill (sparse if
    /// the entry list is strictly cheaper than packing, else packed).
    /// Lossless; used before spilling to a cold tier or wire-encoding.
    /// Returns the tier chosen.
    pub fn compress(&mut self) -> Tier {
        let packed_cost = PackedRegisters::new(self.len).payload_bytes();
        if self.nonzero * SPARSE_ENTRY_BYTES < packed_cost {
            if self.tier() != Tier::Sparse {
                let mut entries = Vec::with_capacity(self.nonzero);
                for i in 0..self.len {
                    let v = self.get(i);
                    if v > 0 {
                        #[expect(clippy::cast_possible_truncation, reason = "i < len ≤ 65536")]
                        entries.push((i as u16, v));
                    }
                }
                self.repr = Repr::Sparse(entries);
            }
            Tier::Sparse
        } else {
            if self.tier() != Tier::Packed {
                let mut packed = PackedRegisters::new(self.len);
                for i in 0..self.len {
                    let v = self.get(i);
                    if v > 0 {
                        packed.set(i, v);
                    }
                }
                self.repr = Repr::Packed(packed);
            }
            Tier::Packed
        }
    }

    /// The register values as a byte-per-register vector — the form the
    /// estimator functions
    /// ([`crate::superloglog_estimate_from_registers`],
    /// [`crate::hyperloglog_estimate_from_registers`]) consume.
    pub fn register_vec(&self) -> Vec<u8> {
        match &self.repr {
            Repr::Sparse(entries) => {
                let mut out = vec![0u8; self.len];
                for &(idx, rank) in entries {
                    out[usize::from(idx)] = rank;
                }
                out
            }
            Repr::Packed(p) => (0..self.len).map(|i| p.get(i)).collect(),
            Repr::Dense(d) => d.iter().collect(),
        }
    }

    /// Unpack into [`MaxRegisters`] (the estimator-side form).
    pub fn unpack(&self) -> MaxRegisters {
        let mut regs = MaxRegisters::new(self.len);
        for (i, v) in self.register_vec().into_iter().enumerate() {
            if v > 0 {
                regs.observe(i, v);
            }
        }
        regs
    }

    /// Element-wise max of `other` into `self` (sketch union). Panics if
    /// lengths differ (callers validate shapes first, as with
    /// [`MaxRegisters::union_in_place`]). Returns the last promotion the
    /// merge triggered, if any.
    pub fn union_in_place(&mut self, other: &Self) -> Option<Tier> {
        assert_eq!(self.len, other.len);
        let mut promoted = None;
        match &other.repr {
            Repr::Sparse(entries) => {
                for &(idx, rank) in entries {
                    promoted = self.observe(usize::from(idx), rank).or(promoted);
                }
            }
            _ => {
                for i in 0..other.len {
                    let v = other.get(i);
                    if v > 0 {
                        promoted = self.observe(i, v).or(promoted);
                    }
                }
            }
        }
        promoted
    }

    /// Exact wire size of the current representation (header + payload).
    pub fn wire_size(&self) -> usize {
        TIERED_HEADER
            + match &self.repr {
                Repr::Sparse(entries) => 4 + entries.len() * 3,
                Repr::Packed(_) => packed_stream_bytes(self.len),
                Repr::Dense(_) => self.len,
            }
    }

    /// Encode to the tiered wire format (magic `0xD6`):
    ///
    /// ```text
    /// byte 0      magic 0xD6
    /// byte 1      tier (1 = sparse, 2 = packed, 3 = dense)
    /// bytes 2..6  m as u32 LE
    /// payload     sparse: u32 LE entry count, then count × (u16 LE index,
    ///             u8 rank), indexes strictly increasing;
    ///             packed: ⌈6m/8⌉ bytes, register i at bit offset 6·i;
    ///             dense:  m × u8 registers
    /// ```
    ///
    /// The encoding preserves the tier, so a spilled-and-recovered sketch
    /// is byte-for-byte the struct that was spilled.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        out.push(TIERED_MAGIC);
        out.push(match self.repr {
            Repr::Sparse(_) => 1,
            Repr::Packed(_) => 2,
            Repr::Dense(_) => 3,
        });
        #[expect(clippy::cast_possible_truncation, reason = "m ≤ 65536 by construction")]
        out.extend_from_slice(&(self.len as u32).to_le_bytes());
        match &self.repr {
            Repr::Sparse(entries) => {
                #[expect(clippy::cast_possible_truncation, reason = "entries.len() ≤ m ≤ 65536")]
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for &(idx, rank) in entries {
                    out.extend_from_slice(&idx.to_le_bytes());
                    out.push(rank);
                }
            }
            Repr::Packed(p) => {
                // Re-derive the 6-bit stream from register values so the
                // encoding is independent of the in-memory word layout.
                let mut acc = 0u32;
                let mut bits = 0u32;
                for i in 0..self.len {
                    acc |= u32::from(p.get(i)) << bits;
                    bits += 6;
                    while bits >= 8 {
                        out.push((acc & 0xFF) as u8);
                        acc >>= 8;
                        bits -= 8;
                    }
                }
                if bits > 0 {
                    out.push((acc & 0xFF) as u8);
                }
            }
            Repr::Dense(d) => out.extend(d.iter()),
        }
        out
    }

    /// Decode the tiered wire format, validating the header, entry order,
    /// rank range, and payload length. The decoded value reproduces the
    /// encoded tier exactly.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < TIERED_HEADER {
            return Err(DecodeError::TooShort);
        }
        if bytes[0] != TIERED_MAGIC {
            return Err(DecodeError::BadMagic(bytes[0]));
        }
        let tier = bytes[1];
        let m_raw = u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]);
        if m_raw > 1 << 16 {
            return Err(DecodeError::InvalidParams);
        }
        let m = m_raw as usize;
        let payload = &bytes[TIERED_HEADER..];
        let (repr, nonzero) = match tier {
            1 => {
                if payload.len() < 4 {
                    return Err(DecodeError::TooShort);
                }
                let count = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
                let count = count as usize;
                let body = &payload[4..];
                if body.len() != count * 3 {
                    return Err(DecodeError::LengthMismatch {
                        expected: count * 3,
                        found: body.len(),
                    });
                }
                let mut entries = Vec::with_capacity(count);
                let mut prev: Option<u16> = None;
                for chunk in body.chunks_exact(3) {
                    let idx = u16::from_le_bytes([chunk[0], chunk[1]]);
                    let rank = chunk[2];
                    let in_order = prev.is_none_or(|p| idx > p);
                    if usize::from(idx) >= m || rank == 0 || rank > MAX_PACKED || !in_order {
                        return Err(DecodeError::InvalidParams);
                    }
                    prev = Some(idx);
                    entries.push((idx, rank));
                }
                let nz = entries.len();
                (Repr::Sparse(entries), nz)
            }
            2 => {
                let expected = packed_stream_bytes(m);
                if payload.len() != expected {
                    return Err(DecodeError::LengthMismatch {
                        expected,
                        found: payload.len(),
                    });
                }
                let mut packed = PackedRegisters::new(m);
                let mut nz = 0usize;
                let mut acc = 0u32;
                let mut bits = 0u32;
                let mut next = payload.iter();
                for i in 0..m {
                    while bits < 6 {
                        // Length check above guarantees enough bytes.
                        let b = next.next().copied().unwrap_or(0);
                        acc |= u32::from(b) << bits;
                        bits += 8;
                    }
                    let v = (acc & 0x3F) as u8;
                    acc >>= 6;
                    bits -= 6;
                    if v > 0 {
                        packed.set(i, v);
                        nz += 1;
                    }
                }
                (Repr::Packed(packed), nz)
            }
            3 => {
                if payload.len() != m {
                    return Err(DecodeError::LengthMismatch {
                        expected: m,
                        found: payload.len(),
                    });
                }
                let mut dense = MaxRegisters::new(m);
                let mut nz = 0usize;
                for (i, &v) in payload.iter().enumerate() {
                    if v > MAX_PACKED {
                        return Err(DecodeError::InvalidParams);
                    }
                    if v > 0 {
                        dense.observe(i, v);
                        nz += 1;
                    }
                }
                (Repr::Dense(dense), nz)
            }
            t => return Err(DecodeError::UnknownKind(t)),
        };
        Ok(TieredRegisters {
            len: m,
            nonzero,
            repr,
        })
    }
}

#[cfg(test)]
#[expect(
    clippy::cast_possible_truncation,
    reason = "test data has known ranges"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference model: a plain dense register array with the same
    /// clamping rule.
    fn reference(m: usize, stream: &[(usize, u8)]) -> MaxRegisters {
        let mut regs = MaxRegisters::new(m);
        for &(i, rank) in stream {
            regs.observe(i, rank.min(MAX_PACKED));
        }
        regs
    }

    #[test]
    fn starts_sparse_and_empty() {
        let t = TieredRegisters::new(64);
        assert_eq!(t.tier(), Tier::Sparse);
        assert_eq!(t.payload_bytes(), 0);
        assert_eq!(t.nonzero(), 0);
        assert_eq!(t.register_vec(), vec![0u8; 64]);
    }

    #[test]
    fn matches_reference_through_all_tiers() {
        let m = 128;
        let mut rng = StdRng::seed_from_u64(7);
        let stream: Vec<(usize, u8)> = (0..2_000)
            .map(|_| (rng.gen_range(0..m), rng.gen_range(0..70u32) as u8))
            .collect();
        let mut tiered = TieredRegisters::new(m);
        for &(i, rank) in &stream {
            tiered.observe(i, rank);
        }
        // Dense by now (every register hit with high probability).
        assert_eq!(tiered.tier(), Tier::Dense);
        let reference = reference(m, &stream);
        for i in 0..m {
            assert_eq!(tiered.get(i), reference.get(i), "register {i}");
        }
        assert_eq!(tiered.unpack(), reference);
    }

    #[test]
    fn promotion_points_are_exact() {
        let m = 64; // packed payload = 48 bytes → promote at 12 entries
        let mut t = TieredRegisters::new(m);
        let packed_cost = PackedRegisters::new(m).payload_bytes();
        let promote_at = packed_cost / SPARSE_ENTRY_BYTES;
        for e in 0..promote_at {
            let promoted = t.observe(e, 1);
            if e + 1 < promote_at {
                assert_eq!(promoted, None, "early promotion at entry {e}");
                assert_eq!(t.tier(), Tier::Sparse);
            } else {
                assert_eq!(promoted, Some(Tier::Packed));
            }
        }
        assert_eq!(t.tier(), Tier::Packed);
        // Fill to 7/8 of m → dense.
        let mut promoted = None;
        for i in 0..m {
            promoted = t.observe(i, 2).or(promoted);
        }
        assert_eq!(promoted, Some(Tier::Dense));
        assert_eq!(t.tier(), Tier::Dense);
        assert_eq!(t.payload_bytes(), m);
    }

    #[test]
    fn ranks_clamp_identically_in_every_tier() {
        // The clamp happens on observation, so a value can never change
        // across a promotion.
        let mut t = TieredRegisters::new(16);
        t.observe(3, 200);
        assert_eq!(t.get(3), MAX_PACKED);
        for i in 0..16 {
            t.observe(i, 255);
        }
        assert_eq!(t.tier(), Tier::Dense);
        assert_eq!(t.get(3), MAX_PACKED);
        assert_eq!(t.get(15), MAX_PACKED);
    }

    #[test]
    fn compress_picks_smallest_lossless() {
        let m = 256;
        let mut t = TieredRegisters::new(m);
        for i in 0..m {
            t.observe(i, 3);
        }
        assert_eq!(t.tier(), Tier::Dense);
        let before = t.register_vec();
        let tier = t.compress();
        assert_eq!(tier, Tier::Packed, "full sketch packs");
        assert_eq!(t.register_vec(), before);

        let mut small = TieredRegisters::new(m);
        small.observe(7, 9);
        // Force it dense, then compress back down.
        for i in 0..m {
            small.observe(i, 1);
        }
        // Rebuild a genuinely sparse sketch via union into a fresh one.
        let mut sparse = TieredRegisters::new(m);
        sparse.observe(7, 9);
        sparse.observe(100, 2);
        let before = sparse.register_vec();
        assert_eq!(sparse.compress(), Tier::Sparse);
        assert_eq!(sparse.register_vec(), before);
    }

    #[test]
    fn union_matches_elementwise_max() {
        let m = 64;
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = TieredRegisters::new(m);
        let mut b = TieredRegisters::new(m);
        let mut ra = MaxRegisters::new(m);
        let mut rb = MaxRegisters::new(m);
        for _ in 0..300 {
            let (i, v) = (rng.gen_range(0..m), rng.gen_range(1..60u32) as u8);
            a.observe(i, v);
            ra.observe(i, v);
            let (i, v) = (rng.gen_range(0..m), rng.gen_range(1..60u32) as u8);
            b.observe(i, v);
            rb.observe(i, v);
        }
        a.union_in_place(&b);
        ra.union_in_place(&rb);
        assert_eq!(a.unpack(), ra);
    }

    #[test]
    fn wire_roundtrip_every_tier() {
        let m = 64;
        let mut t = TieredRegisters::new(m);
        t.observe(5, 3);
        t.observe(40, 9);
        // Fill plans that land each tier: 2 entries (sparse), a quarter
        // of the registers (packed), all of them (dense).
        for (expected_tier, fill_to) in [(Tier::Sparse, 16), (Tier::Packed, m), (Tier::Dense, m)] {
            assert_eq!(t.tier(), expected_tier);
            let bytes = t.to_wire();
            assert_eq!(bytes.len(), t.wire_size());
            let back = TieredRegisters::from_wire(&bytes).unwrap();
            assert_eq!(back, t, "tier {expected_tier:?}");
            assert_eq!(back.tier(), expected_tier);
            for i in 0..fill_to {
                t.observe(i, 2);
            }
        }
    }

    #[test]
    fn wire_rejects_malformed_input() {
        let t = TieredRegisters::new(16);
        assert_eq!(TieredRegisters::from_wire(&[]), Err(DecodeError::TooShort));
        assert_eq!(
            TieredRegisters::from_wire(&[0xD5, 1, 16, 0, 0, 0, 0, 0, 0, 0]),
            Err(DecodeError::BadMagic(0xD5))
        );
        let mut bytes = t.to_wire();
        bytes[1] = 7;
        assert_eq!(
            TieredRegisters::from_wire(&bytes),
            Err(DecodeError::UnknownKind(7))
        );
        // Out-of-order sparse entries are rejected.
        let mut two = TieredRegisters::new(16);
        two.observe(3, 1);
        two.observe(9, 2);
        let mut bytes = two.to_wire();
        bytes[TIERED_HEADER + 4..].rotate_left(3);
        assert_eq!(
            TieredRegisters::from_wire(&bytes),
            Err(DecodeError::InvalidParams)
        );
        // Truncated packed payload.
        let mut packed = TieredRegisters::new(64);
        for i in 0..16 {
            packed.observe(i, 1);
        }
        assert_eq!(packed.tier(), Tier::Packed);
        let mut bytes = packed.to_wire();
        bytes.pop();
        assert!(matches!(
            TieredRegisters::from_wire(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
        // Dense rank above the packed clamp is rejected.
        let mut dense = TieredRegisters::new(16);
        for i in 0..16 {
            dense.observe(i, 5);
        }
        assert_eq!(dense.tier(), Tier::Dense);
        let mut bytes = dense.to_wire();
        bytes[TIERED_HEADER] = 64;
        assert_eq!(
            TieredRegisters::from_wire(&bytes),
            Err(DecodeError::InvalidParams)
        );
    }

    #[test]
    fn estimate_from_tiered_matches_superloglog() {
        use crate::hash::{ItemHasher, SplitMix64};
        use crate::CardinalityEstimator;
        let m = 128;
        let hasher = SplitMix64::default();
        let mut sll = crate::SuperLogLog::new(m).unwrap();
        let mut tiered = TieredRegisters::new(m);
        for i in 0..40_000u64 {
            let h = hasher.hash_u64(i);
            sll.insert_hash(h);
            let bucket = (h & (m as u64 - 1)) as usize;
            let rank = (crate::rho(h >> m.trailing_zeros()) + 1).min(255) as u8;
            tiered.observe(bucket, rank);
        }
        // Ranks above MAX_PACKED need ~2^63 items to occur; at this scale
        // the tiered registers are bit-equal to the u8 sketch.
        assert_eq!(
            crate::superloglog_estimate_from_registers(&tiered.register_vec()),
            sll.estimate()
        );
    }
}
