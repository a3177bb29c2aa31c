//! Property-based tests for the sketch crate's core invariants.

use dhs_sketch::tiered::TIERED_MAGIC;
use dhs_sketch::{
    rho, rho_capped, superloglog_estimate_from_registers, CardinalityEstimator, HyperLogLog,
    ItemHasher, Pcsa, SplitMix64, SuperLogLog, TieredRegisters, WireSketch,
};
use proptest::prelude::*;

/// Magic byte of the fixed-layout sketch format (`dhs_sketch::wire`).
const MAGIC: u8 = 0xD5;

/// Decode `bytes` as every sketch type. Each decode is either `Err` or a
/// value that survives a re-encode. The bytes themselves need not match:
/// PCSA bits above the width and packed-tier padding decode to a
/// canonical form. Kind byte 2 is reserved and decodes as nothing.
fn check_decoders_total(bytes: &[u8]) {
    if let Ok(s) = Pcsa::from_bytes(bytes) {
        assert_eq!(Pcsa::from_bytes(&s.to_bytes()), Ok(s));
    }
    if let Ok(s) = SuperLogLog::from_bytes(bytes) {
        let regs: Vec<u8> = (0..s.buckets()).map(|i| s.register(i)).collect();
        assert_eq!(s.estimate(), superloglog_estimate_from_registers(&regs));
        assert_eq!(SuperLogLog::from_bytes(&s.to_bytes()), Ok(s));
    }
    if let Ok(s) = HyperLogLog::from_bytes(bytes) {
        assert_eq!(HyperLogLog::from_bytes(&s.to_bytes()), Ok(s));
    }
    if let Ok(t) = TieredRegisters::from_wire(bytes) {
        assert_eq!(TieredRegisters::from_wire(&t.to_wire()), Ok(t));
    }
    if bytes.starts_with(&[MAGIC, 2]) {
        assert!(Pcsa::from_bytes(bytes).is_err());
        assert!(SuperLogLog::from_bytes(bytes).is_err());
        assert!(HyperLogLog::from_bytes(bytes).is_err());
        assert!(TieredRegisters::from_wire(bytes).is_err());
    }
}

/// Byte `i` of a pseudo-random payload; `small` keeps it a legal
/// 6-bit register value.
fn payload_byte(seed: u64, i: usize, small: bool) -> u8 {
    let b = (SplitMix64::mix(seed ^ i as u64) >> 56) as u8;
    if small {
        b & 0x3F
    } else {
        b
    }
}

proptest! {
    /// ρ really is the least-significant-one position.
    #[test]
    fn rho_reconstructs_value_shape(y in 1u64..) {
        let r = rho(y);
        prop_assert!(r < 64);
        prop_assert_eq!(y & ((1u64 << r).wrapping_sub(1)), 0, "low bits below rho are zero");
        prop_assert_eq!((y >> r) & 1, 1, "bit at rho is one");
    }

    /// rho_capped never exceeds its width and agrees with rho below it.
    #[test]
    fn rho_capped_bounds(y in any::<u64>(), width in 1u32..=64) {
        let r = rho_capped(y, width);
        prop_assert!(r <= width);
        if y != 0 && rho(y) < width {
            prop_assert_eq!(r, rho(y));
        }
    }

    /// The hasher is deterministic.
    #[test]
    fn hashers_deterministic(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let sm = SplitMix64::default();
        prop_assert_eq!(sm.hash_bytes(&data), sm.hash_bytes(&data));
    }

    /// Insertion order never matters for any sketch.
    #[test]
    fn insertion_order_irrelevant(mut items in prop::collection::vec(any::<u64>(), 0..300)) {
        let forward = {
            let mut s = Pcsa::new(32).unwrap();
            for &x in &items {
                s.insert_hash(x);
            }
            s
        };
        items.reverse();
        let backward = {
            let mut s = Pcsa::new(32).unwrap();
            for &x in &items {
                s.insert_hash(x);
            }
            s
        };
        prop_assert_eq!(forward, backward);
    }

    /// Every sketch family reports is_empty exactly when nothing was
    /// inserted.
    #[test]
    fn emptiness_is_exact(items in prop::collection::vec(any::<u64>(), 0..20)) {
        macro_rules! check {
            ($s:expr) => {{
                let mut s = $s;
                prop_assert!(s.is_empty());
                for &x in &items {
                    s.insert_hash(x);
                }
                prop_assert_eq!(s.is_empty(), items.is_empty());
            }};
        }
        check!(Pcsa::new(16).unwrap());
        check!(SuperLogLog::new(16).unwrap());
        check!(HyperLogLog::new(16).unwrap());
    }

    /// Merging an empty sketch is the identity.
    #[test]
    fn merge_with_empty_is_identity(items in prop::collection::vec(any::<u64>(), 0..200)) {
        let mut s = SuperLogLog::new(64).unwrap();
        for &x in &items {
            s.insert_hash(x);
        }
        let before = s.clone();
        let empty = SuperLogLog::new(64).unwrap();
        s.merge(&empty).unwrap();
        prop_assert_eq!(s, before);
    }

    /// HyperLogLog linear counting: for tiny exact-distinct streams the
    /// estimate is close to the true distinct count.
    #[test]
    fn hll_small_range_accuracy(distinct in 1u64..30) {
        let hasher = SplitMix64::default();
        let mut s = HyperLogLog::new(1024).unwrap();
        for i in 0..distinct {
            s.insert_hash(hasher.hash_u64(i));
            s.insert_hash(hasher.hash_u64(i));
        }
        let err = (s.estimate() - distinct as f64).abs();
        prop_assert!(err <= (distinct as f64 * 0.3).max(2.0), "est {} vs {distinct}", s.estimate());
    }

    /// Every wire decoder is total on arbitrary bytes, some of which
    /// carry one of the two magic bytes so that they reach the header
    /// checks.
    #[test]
    fn wire_decoders_are_total_on_arbitrary_bytes(
        mut bytes in prop::collection::vec(any::<u8>(), 0..300),
        tag in 0u8..3,
    ) {
        if let Some(first) = bytes.first_mut() {
            match tag {
                0 => {}
                1 => *first = MAGIC,
                _ => *first = TIERED_MAGIC,
            }
        }
        check_decoders_total(&bytes);
    }

    /// Every wire decoder is total on blobs with a well-formed header
    /// and a payload of the exact, one-longer or one-shorter length.
    #[test]
    fn wire_decoders_are_total_on_shaped_blobs(
        seed in any::<u64>(),
        log_m in 0u8..12,
        width in 0u8..70,
        len_mode in 0u8..4,
    ) {
        // A third of the cases have one bucket, which super-LogLog must
        // refuse: its register-level estimator needs m ≥ 2.
        let log_m = if log_m > 8 { 0 } else { log_m };
        let m = 1usize << log_m;
        let sized = |exact: usize| match len_mode {
            0 | 1 => exact,
            2 => exact + 1,
            _ => exact.saturating_sub(1),
        };
        for kind in 0u8..=5 {
            let len = sized(if kind == 1 { m * 8 } else { m });
            let mut blob = vec![MAGIC, kind, log_m, width];
            blob.extend((0..len).map(|i| payload_byte(seed, i, len_mode == 1)));
            check_decoders_total(&blob);
        }
        for tier in 0u8..=4 {
            let len = sized(match tier {
                1 => 4,
                2 => (m * 6).div_ceil(8),
                _ => m,
            });
            let mut blob = vec![TIERED_MAGIC, tier];
            blob.extend(u32::try_from(m).unwrap().to_le_bytes());
            blob.extend((0..len).map(|i| payload_byte(seed, i, len_mode == 1)));
            check_decoders_total(&blob);
        }
    }

    /// Every wire decoder is total on valid blobs of each type with one
    /// byte flipped, and then cut short at that byte or grown by one.
    #[test]
    fn wire_decoders_are_total_on_mutated_blobs(
        hashes in prop::collection::vec(any::<u64>(), 0..200),
        log_m in 0u8..7,
        width in 1u32..=64,
        at in any::<usize>(),
        xor in any::<u8>(),
        cut in 0u8..4,
    ) {
        let m = 1usize << log_m;
        let mut pcsa = Pcsa::with_width(m, width).unwrap();
        let mut hll = HyperLogLog::new(m.max(16)).unwrap();
        let mut tiered = TieredRegisters::new(m);
        let mut sll = SuperLogLog::new(m).ok();
        for &h in &hashes {
            pcsa.insert_hash(h);
            hll.insert_hash(h);
            if let Some(s) = sll.as_mut() {
                s.insert_hash(h);
            }
            let i = usize::try_from(h % m as u64).unwrap();
            tiered.observe(i, u8::try_from(rho(h | 1 << 63) + 1).unwrap());
        }
        let mut blobs = vec![pcsa.to_bytes(), hll.to_bytes(), tiered.to_wire()];
        blobs.extend(sll.map(|s| s.to_bytes()));
        for mut blob in blobs {
            check_decoders_total(&blob);
            let i = at % blob.len();
            blob[i] ^= xor;
            match cut {
                0 => blob.truncate(i),
                1 => blob.push(xor),
                _ => {}
            }
            check_decoders_total(&blob);
        }
    }
}
