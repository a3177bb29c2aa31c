//! Property-based tests (proptest) over the public API: invariants that
//! must hold for *arbitrary* inputs, not just the evaluation workloads.

use counting_at_large::dhs::intervals::{interval_for_rank, rank_of_id};
use counting_at_large::dhs::{Dhs, DhsConfig};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::dht::{cw_contains, cw_distance};
use counting_at_large::sketch::{
    CardinalityEstimator, HyperLogLog, ItemHasher, Pcsa, SplitMix64, SuperLogLog,
};
use proptest::prelude::*;

proptest! {
    /// Sketch merge is exactly the sketch of the concatenated streams,
    /// for arbitrary streams and any power-of-two m.
    #[test]
    fn merge_is_union(
        left in prop::collection::vec(any::<u64>(), 0..300),
        right in prop::collection::vec(any::<u64>(), 0..300),
        c in 2u32..8,
    ) {
        let m = 1usize << c;
        let hasher = SplitMix64::default();
        macro_rules! check {
            ($ty:ty, $new:expr) => {{
                let mut a: $ty = $new;
                let mut b: $ty = $new;
                let mut union: $ty = $new;
                for &x in &left {
                    a.insert_hash(hasher.hash_u64(x));
                    union.insert_hash(hasher.hash_u64(x));
                }
                for &x in &right {
                    b.insert_hash(hasher.hash_u64(x));
                    union.insert_hash(hasher.hash_u64(x));
                }
                a.merge(&b).unwrap();
                prop_assert_eq!(a, union);
            }};
        }
        check!(Pcsa, Pcsa::new(m).unwrap());
        check!(SuperLogLog, SuperLogLog::new(m).unwrap());
        if m >= 16 {
            check!(HyperLogLog, HyperLogLog::new(m).unwrap());
        }
    }

    /// Inserting a multiset yields the identical sketch as inserting its
    /// distinct support (duplicate insensitivity, exactly).
    #[test]
    fn duplicates_never_change_a_sketch(
        items in prop::collection::vec(0u64..500, 1..400),
    ) {
        let hasher = SplitMix64::default();
        let mut with_dups = SuperLogLog::new(32).unwrap();
        for &x in &items {
            with_dups.insert_hash(hasher.hash_u64(x));
        }
        let mut support: Vec<u64> = items.clone();
        support.sort_unstable();
        support.dedup();
        let mut distinct_only = SuperLogLog::new(32).unwrap();
        for &x in &support {
            distinct_only.insert_hash(hasher.hash_u64(x));
        }
        prop_assert_eq!(with_dups, distinct_only);
    }

    /// Merge is commutative and idempotent.
    #[test]
    fn merge_commutative_idempotent(
        xs in prop::collection::vec(any::<u64>(), 0..200),
        ys in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mk = |items: &[u64]| {
            let mut s = SuperLogLog::new(64).unwrap();
            for &x in items {
                s.insert_hash(x);
            }
            s
        };
        let a = mk(&xs);
        let b = mk(&ys);
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);
        let mut abb = ab.clone();
        abb.merge(&b).unwrap();
        prop_assert_eq!(abb, ab);
    }

    /// Ring-circle arithmetic: cw_contains agrees with distance math for
    /// arbitrary points.
    #[test]
    fn cw_contains_consistent_with_distance(from in any::<u64>(), to in any::<u64>(), x in any::<u64>()) {
        prop_assume!(from != to);
        let inside = cw_contains(from, to, x);
        let by_distance = x != from && cw_distance(from, x) <= cw_distance(from, to);
        prop_assert_eq!(inside, by_distance);
    }

    /// Chord ownership: successor(key) is the unique alive node whose
    /// (pred, self] arc contains the key.
    #[test]
    fn successor_owns_its_arc(seed in any::<u64>(), key in any::<u64>(), n in 2usize..64) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let ring = Ring::build(n, RingConfig::default(), &mut rng);
        let owner = ring.successor(key);
        let pred = ring.pred_of(owner);
        prop_assert!(cw_contains(pred, owner, key));
        // And routing from anywhere agrees.
        let from = ring.random_alive(&mut rng);
        let mut ledger = CostLedger::new();
        prop_assert_eq!(ring.route(from, key, &mut ledger), owner);
    }

    /// Interval mapping: every identifier belongs to exactly the interval
    /// of its rank, for arbitrary valid configs.
    #[test]
    fn interval_rank_bijection(id in any::<u64>(), c in 0u32..10, shift in 0u32..4) {
        let cfg = DhsConfig {
            k: 24,
            m: 1usize << c,
            bit_shift: shift,
            ..DhsConfig::default()
        };
        prop_assume!(cfg.validate().is_ok());
        let rank = rank_of_id(&cfg, id);
        let interval = interval_for_rank(&cfg, rank);
        prop_assert!(interval.contains(id), "id {id} rank {rank}");
        // And no other interval contains it.
        for r in cfg.bit_shift..cfg.k {
            if r != rank {
                prop_assert!(!interval_for_rank(&cfg, r).contains(id));
            }
        }
    }

    /// classify() is a pure function of the low k bits: items differing
    /// only above bit k classify identically.
    #[test]
    fn classify_depends_only_on_low_bits(low in any::<u64>(), hi1 in any::<u64>(), hi2 in any::<u64>()) {
        let cfg = DhsConfig { k: 24, m: 64, ..DhsConfig::default() };
        let dhs = Dhs::new(cfg).unwrap();
        let mask = (1u64 << 24) - 1;
        let a = (hi1 << 24) | (low & mask);
        let b = (hi2 << 24) | (low & mask);
        prop_assert_eq!(dhs.classify(a), dhs.classify(b));
    }

    /// Bulk insertion is observationally equivalent to item-by-item
    /// insertion: same distinct stored tuples, bit-equal exhaustive
    /// estimate — and strictly fewer messages (duplicates collapse and
    /// same-owner rank groups share one store message).
    #[test]
    fn bulk_insert_equivalent_to_item_by_item(seed in any::<u64>(), n in 8u64..400, domain in 2u64..64) {
        use rand::SeedableRng;
        use std::collections::BTreeSet;
        let nodes = 16;
        let cfg = DhsConfig { m: 16, k: 20, ..DhsConfig::default() };
        let dhs = Dhs::new(cfg).unwrap();
        let hasher = SplitMix64::default();
        // Small key domain: the stream is guaranteed to contain duplicates.
        let keys: Vec<u64> = (0..n).map(|i| hasher.hash_u64(i % domain)).collect();

        let live_set = |ring: &Ring| -> BTreeSet<u64> {
            let now = ring.now();
            ring.alive_ids()
                .iter()
                .flat_map(|&node| ring.store_of(node).unwrap().iter())
                .filter(|(_, rec)| rec.expires_at > now)
                .map(|(k, _)| k)
                .collect()
        };

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut item_ring = Ring::build(nodes, RingConfig::default(), &mut rng);
        let origin = item_ring.alive_ids()[0];
        let mut item_ledger = CostLedger::new();
        for &k in &keys {
            dhs.insert(&mut item_ring, 1, k, origin, &mut rng, &mut item_ledger);
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut bulk_ring = Ring::build(nodes, RingConfig::default(), &mut rng);
        let mut bulk_ledger = CostLedger::new();
        dhs.bulk_insert(&mut bulk_ring, 1, &keys, origin, &mut rng, &mut bulk_ledger);

        prop_assert_eq!(live_set(&item_ring), live_set(&bulk_ring));
        prop_assert!(bulk_ledger.messages() < item_ledger.messages(),
            "bulk {} vs item {}", bulk_ledger.messages(), item_ledger.messages());

        // Exhaustive probing (lim = node count covers every node) makes
        // the registers a pure function of the stored set: bit-equal.
        let lim = u32::try_from(nodes).unwrap();
        let exhaustive = Dhs::new(DhsConfig { lim, ..cfg }).unwrap();
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
        let a = exhaustive.count(&item_ring, 1, origin, &mut rng_a, &mut CostLedger::new());
        let b = exhaustive.count(&bulk_ring, 1, origin, &mut rng_b, &mut CostLedger::new());
        prop_assert_eq!(a.registers, b.registers);
        prop_assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }

    /// Counting never panics and returns a finite non-negative estimate
    /// for arbitrary small populations (including empty).
    #[test]
    fn count_total_function(seed in any::<u64>(), n in 0u64..2_000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ring = Ring::build(16, RingConfig::default(), &mut rng);
        let dhs = Dhs::new(DhsConfig { m: 16, ..DhsConfig::default() }).unwrap();
        let hasher = SplitMix64::default();
        let keys: Vec<u64> = (0..n).map(|i| hasher.hash_u64(i)).collect();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        dhs.bulk_insert(&mut ring, 1, &keys, origin, &mut rng, &mut ledger);
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut ledger);
        prop_assert!(result.estimate.is_finite());
        prop_assert!(result.estimate >= 0.0);
        if n == 0 {
            prop_assert!(result.registers.iter().all(|&r| r == 0));
        }
    }
}
