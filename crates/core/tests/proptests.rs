#![allow(clippy::cast_possible_truncation)] // test data has known ranges
//! Property-based tests for the DHS core protocol.

use dhs_core::retry::{hit_probability, prob_t_empty_probes, required_lim};
use dhs_core::tuple::DhsTuple;
use dhs_core::{Dhs, DhsConfig, EpochCache, EstimatorKind};
use dhs_dht::cost::CostLedger;
use dhs_dht::ring::{Ring, RingConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A seeded RNG that counts its primitive draws, so "same stream" can be
/// asserted draw for draw rather than inferred from equal outputs.
struct Counted {
    inner: StdRng,
    draws: u64,
}

impl Counted {
    fn new(seed: u64) -> Self {
        Counted {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for Counted {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Every stored cell of the ring, placement and expiry included.
fn ring_state(ring: &Ring) -> Vec<(u64, u64, u64, u64)> {
    let mut cells = Vec::new();
    for &node in ring.alive_ids() {
        for (app_key, rec) in ring.store_of(node).unwrap().iter() {
            cells.push((node, app_key, rec.routing_key, rec.expires_at));
        }
    }
    cells.sort_unstable();
    cells
}

fn totals(ledger: &CostLedger) -> (u64, u64, u64, usize) {
    (
        ledger.hops(),
        ledger.messages(),
        ledger.bytes(),
        ledger.nodes_visited(),
    )
}

/// A small ring plus a handle whose `bit_shift` elides some items.
fn n1_world(seed: u64, bit_shift: u32) -> (Ring, Dhs, u64) {
    let ring = Ring::build(16, RingConfig::default(), &mut StdRng::seed_from_u64(seed));
    let cfg = DhsConfig {
        k: 20,
        m: 16,
        bit_shift,
        ..DhsConfig::default()
    };
    let origin = ring.alive_ids()[0];
    (ring, Dhs::new(cfg).unwrap(), origin)
}

/// A cache sized for a smaller `DhsConfig` than the `Dhs` it is handed to
/// degrades to the uncached path for the cells it cannot hold: a fresh
/// one stores exactly what `bulk_insert` stores, and a primed one keeps
/// re-shipping the tuples outside its geometry.
#[test]
fn cache_sized_for_smaller_m_degrades_to_uncached() {
    use dhs_sketch::ItemHasher;
    let small = DhsConfig {
        k: 20,
        m: 16,
        ..DhsConfig::default()
    };
    let dhs = Dhs::new(DhsConfig { m: 64, ..small }).unwrap();
    let hasher = dhs_sketch::SplitMix64::default();
    let keys: Vec<u64> = (0..3_000u64).map(|i| hasher.hash_u64(i)).collect();

    let mut plain_ring = Ring::build(32, RingConfig::default(), &mut StdRng::seed_from_u64(5));
    let mut cached_ring = plain_ring.clone();
    let origin = plain_ring.alive_ids()[0];
    let (mut plain_rng, mut cached_rng) = (StdRng::seed_from_u64(6), StdRng::seed_from_u64(6));
    let (mut plain_ledger, mut cached_ledger) = (CostLedger::new(), CostLedger::new());

    let plain = dhs.bulk_insert(
        &mut plain_ring,
        1,
        &keys,
        origin,
        &mut plain_rng,
        &mut plain_ledger,
    );
    let mut cache = EpochCache::new(&small);
    let mut cached_round = |ring: &mut Ring, ledger: &mut CostLedger| {
        dhs.bulk_insert_cached(ring, &mut cache, 1, &keys, origin, &mut cached_rng, ledger)
    };
    let cached = cached_round(&mut cached_ring, &mut cached_ledger);
    assert_eq!(cached, plain, "a fresh cache elides nothing");
    assert_eq!(ring_state(&cached_ring), ring_state(&plain_ring));
    assert_eq!(totals(&cached_ledger), totals(&plain_ledger));

    // Second round: the cells the cache holds are elided; the tuples
    // outside its geometry (vector ≥ 16) ship again.
    let mut outside: Vec<(u16, u32)> = keys
        .iter()
        .map(|&k| dhs.classify(k))
        .filter(|&(vector, _)| usize::from(vector) >= small.m)
        .collect();
    outside.sort_unstable();
    outside.dedup();
    assert!(!outside.is_empty() && outside.len() < plain);
    assert_eq!(
        cached_round(&mut cached_ring, &mut cached_ledger),
        outside.len()
    );
}

proptest! {
    /// Tuple app-key packing is injective over its full field ranges.
    #[test]
    fn tuple_key_roundtrip(metric in any::<u32>(), vector in any::<u16>(), bit in any::<u8>()) {
        let t = DhsTuple { metric, vector, bit };
        prop_assert_eq!(DhsTuple::from_app_key(t.app_key()), t);
    }

    /// classify() respects the sketch insertion rule for any valid m.
    #[test]
    fn classify_rule(item in any::<u64>(), c in 0u32..12) {
        let cfg = DhsConfig { k: 24, m: 1usize << c, ..DhsConfig::default() };
        prop_assume!(cfg.validate().is_ok());
        let dhs = Dhs::new(cfg).unwrap();
        let (vector, rank) = dhs.classify(item);
        let low = item & ((1u64 << 24) - 1);
        prop_assert_eq!(u64::from(vector), low % (1u64 << c));
        prop_assert!(rank < cfg.rank_bits());
        let rest = low >> c;
        if rest != 0 && rest.trailing_zeros() < cfg.rank_bits() - 1 {
            prop_assert_eq!(rank, rest.trailing_zeros());
        }
    }

    /// Eq. 5 is a valid probability, decreasing in t and in items.
    #[test]
    fn eq5_is_probability(items in 0u64..10_000, nodes in 1u64..1_000, t in 0u64..1_000) {
        let p = prob_t_empty_probes(items, nodes, t);
        prop_assert!((0.0..=1.0).contains(&p));
        if t < nodes {
            prop_assert!(prob_t_empty_probes(items, nodes, t + 1) <= p + 1e-12);
        }
        prop_assert!(prob_t_empty_probes(items + 100, nodes, t) <= p + 1e-12);
    }

    /// required_lim is the minimal budget achieving its target.
    #[test]
    fn required_lim_minimal(
        items in 1u64..100_000,
        nodes in 1u64..2_000,
        c in 0usize..10,
        replication in 1u32..8,
    ) {
        let m = 1usize << c;
        let p = 0.95;
        let lim = required_lim(p, items, nodes, m, replication);
        prop_assert!(lim >= 1);
        let achieved = hit_probability(lim, items, nodes, m, replication);
        // The forward model matches (up to the ceil).
        if u64::from(lim) < nodes {
            prop_assert!(achieved >= p - 1e-9, "lim {lim} achieves only {achieved}");
        }
        prop_assert!(hit_probability(lim + 1, items, nodes, m, replication) >= achieved - 1e-12);
    }

    /// Insertion followed by exhaustive counting recovers exactly the
    /// local sketch registers, for arbitrary item sets — the end-to-end
    /// correctness property of the whole protocol.
    #[test]
    fn exhaustive_count_equals_local_sketch(
        items in prop::collection::vec(any::<u64>(), 0..150),
        seed in any::<u64>(),
    ) {
        let nodes = 12usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring = Ring::build(nodes, RingConfig::default(), &mut rng);
        let cfg = DhsConfig {
            k: 20,
            m: 8,
            lim: 2 * nodes as u32, // exhaustive
            estimator: EstimatorKind::SuperLogLog,
            ..DhsConfig::default()
        };
        let dhs = Dhs::new(cfg).unwrap();
        let origin = ring.alive_ids()[0];
        let mut ledger = CostLedger::new();
        let mut local = dhs_sketch::SuperLogLog::new(8).unwrap();
        for &item in &items {
            dhs.insert(&mut ring, 1, item, origin, &mut rng, &mut ledger);
            let (v, r) = dhs.classify(item);
            local.observe(v as usize, r as u8 + 1);
        }
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut CostLedger::new());
        for v in 0..8 {
            prop_assert_eq!(
                result.registers[v],
                u32::from(local.register(v)),
                "vector {} of {:?}", v, result.registers
            );
        }
    }

    /// Counting cost bounds always hold: probes ≤ intervals × lim,
    /// lookups == intervals, hops ≥ walk steps.
    #[test]
    fn count_stats_invariants(
        n_items in 0u64..3_000,
        seed in any::<u64>(),
        estimator_sll in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring = Ring::build(32, RingConfig::default(), &mut rng);
        let cfg = DhsConfig {
            k: 20,
            m: 16,
            estimator: if estimator_sll {
                EstimatorKind::SuperLogLog
            } else {
                EstimatorKind::Pcsa
            },
            ..DhsConfig::default()
        };
        let dhs = Dhs::new(cfg).unwrap();
        use dhs_sketch::ItemHasher;
        let hasher = dhs_sketch::SplitMix64::default();
        let keys: Vec<u64> = (0..n_items).map(|i| hasher.hash_u64(i)).collect();
        let origin = ring.alive_ids()[0];
        dhs.bulk_insert(&mut ring, 1, &keys, origin, &mut rng, &mut CostLedger::new());
        let result = dhs.count(&ring, 1, origin, &mut rng, &mut CostLedger::new());
        let s = result.stats;
        prop_assert_eq!(s.lookups, u64::from(s.intervals_scanned));
        prop_assert!(s.intervals_scanned <= cfg.num_intervals());
        prop_assert!(s.probes >= s.lookups);
        prop_assert!(s.probes <= s.lookups * u64::from(cfg.lim));
        prop_assert!(s.hops >= s.probes - s.lookups, "walk steps are hops");
    }

    /// Bit-shift never stores ranks below b and intervals stay disjoint.
    #[test]
    fn bit_shift_elision(item in any::<u64>(), b in 0u32..6) {
        let cfg = DhsConfig {
            k: 20,
            m: 16,
            bit_shift: b,
            ..DhsConfig::default()
        };
        prop_assume!(cfg.validate().is_ok());
        let dhs = Dhs::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ring = Ring::build(8, RingConfig::default(), &mut rng);
        let origin = ring.alive_ids()[0];
        let stored = dhs.insert(&mut ring, 1, item, origin, &mut rng, &mut CostLedger::new());
        let (_, rank) = dhs.classify(item);
        prop_assert_eq!(stored, rank >= b);
        prop_assert_eq!(ring.total_live_bytes() > 0, rank >= b);
    }

    /// Single is the n = 1 case of bulk: from the same seed on cloned
    /// rings, `bulk_insert(&[k])` and `insert(k)` leave identical ring
    /// state, ledger totals and RNG draw counts.
    #[test]
    fn bulk_insert_of_one_is_insert(item in any::<u64>(), seed in any::<u64>(), b in 0u32..4) {
        let (mut single_ring, dhs, origin) = n1_world(seed, b);
        let mut bulk_ring = single_ring.clone();
        let (mut single_rng, mut bulk_rng) = (Counted::new(seed), Counted::new(seed));
        let (mut single_ledger, mut bulk_ledger) = (CostLedger::new(), CostLedger::new());

        let stored =
            dhs.insert(&mut single_ring, 1, item, origin, &mut single_rng, &mut single_ledger);
        let shipped =
            dhs.bulk_insert(&mut bulk_ring, 1, &[item], origin, &mut bulk_rng, &mut bulk_ledger);

        prop_assert_eq!(usize::from(stored), shipped);
        prop_assert_eq!(ring_state(&bulk_ring), ring_state(&single_ring));
        prop_assert_eq!(totals(&bulk_ledger), totals(&single_ledger));
        prop_assert_eq!(bulk_rng.draws, single_rng.draws);
    }

    /// The same with an `EpochCache` on both sides, over a first (miss)
    /// and a repeated (hit) call: state, ledger, draws and the cache's
    /// own hit/miss accounting all agree.
    #[test]
    fn bulk_insert_cached_of_one_is_insert_cached(
        item in any::<u64>(),
        seed in any::<u64>(),
        b in 0u32..4,
    ) {
        let (mut single_ring, dhs, origin) = n1_world(seed, b);
        let mut bulk_ring = single_ring.clone();
        let (mut single_rng, mut bulk_rng) = (Counted::new(seed), Counted::new(seed));
        let (mut single_ledger, mut bulk_ledger) = (CostLedger::new(), CostLedger::new());
        let mut single_cache = EpochCache::new(dhs.config());
        let mut bulk_cache = EpochCache::new(dhs.config());

        for round in 0..2 {
            let recorded = dhs.insert_cached(
                &mut single_ring, &mut single_cache, 1, item, origin,
                &mut single_rng, &mut single_ledger,
            );
            let shipped = dhs.bulk_insert_cached(
                &mut bulk_ring, &mut bulk_cache, 1, &[item], origin,
                &mut bulk_rng, &mut bulk_ledger,
            );
            // `insert_cached` answers "is the bit recorded"; only the
            // first round actually ships it.
            prop_assert_eq!(usize::from(recorded && round == 0), shipped);
            prop_assert_eq!(ring_state(&bulk_ring), ring_state(&single_ring));
            prop_assert_eq!(totals(&bulk_ledger), totals(&single_ledger));
            prop_assert_eq!(bulk_rng.draws, single_rng.draws);
            prop_assert_eq!(
                (bulk_cache.hits(), bulk_cache.misses()),
                (single_cache.hits(), single_cache.misses())
            );
        }
    }

    /// Single is the n = 1 case of multi: `count_multi(&[m])[0]` equals
    /// `count(m)` bit for bit — estimate, registers, stats — at equal
    /// ledger totals and draw counts, on every estimator.
    #[test]
    fn count_multi_of_one_is_count(
        n_items in 0u64..2_000,
        seed in any::<u64>(),
        estimator in 0usize..3,
    ) {
        let estimator = [
            EstimatorKind::SuperLogLog,
            EstimatorKind::HyperLogLog,
            EstimatorKind::Pcsa,
        ][estimator];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring = Ring::build(24, RingConfig::default(), &mut rng);
        let dhs = Dhs::new(DhsConfig { k: 20, m: 16, estimator, ..DhsConfig::default() }).unwrap();
        use dhs_sketch::ItemHasher;
        let hasher = dhs_sketch::SplitMix64::default();
        let keys: Vec<u64> = (0..n_items).map(|i| hasher.hash_u64(i)).collect();
        let origin = ring.alive_ids()[0];
        dhs.bulk_insert(&mut ring, 1, &keys, origin, &mut rng, &mut CostLedger::new());

        let (mut single_rng, mut multi_rng) = (Counted::new(seed), Counted::new(seed));
        let (mut single_ledger, mut multi_ledger) = (CostLedger::new(), CostLedger::new());
        let single = dhs.count(&ring, 1, origin, &mut single_rng, &mut single_ledger);
        let multi = dhs.count_multi(&ring, &[1], origin, &mut multi_rng, &mut multi_ledger);

        prop_assert_eq!(multi.len(), 1);
        prop_assert_eq!(multi[0].estimate.to_bits(), single.estimate.to_bits());
        prop_assert_eq!(&multi[0], &single);
        prop_assert_eq!(totals(&multi_ledger), totals(&single_ledger));
        prop_assert_eq!(multi_rng.draws, single_rng.draws);
    }
}
