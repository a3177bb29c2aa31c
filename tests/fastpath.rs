//! dhs-fast equivalence suite: every fast-path layer (duplicate-elision
//! cache, overlay route cache, batched stores, hinted scans) must leave
//! the stored-tuple set and the estimates **exactly** as the slow path
//! does — same seeds, byte-identical.
//!
//! The equivalence arguments:
//! * the distinct live `app_key` set is placement-independent, so it must
//!   match even though cached paths consume different RNG draws;
//! * with `lim = node count` the Alg. 1 walk (successors through the
//!   interval, then predecessors around the ring) probes every alive
//!   node, making registers a pure function of that app-key set — so
//!   exhaustive counts with a shared fresh seed must be bit-equal;
//! * a hinted scan preserves the probe RNG stream (skipped ranks draw and
//!   discard their interval key), so over the reliable default transport
//!   the *same-seed* hinted and full scans are bit-equal directly.

use std::collections::BTreeSet;

use counting_at_large::dhs::maintenance::{refresh_round, refresh_round_cached};
use counting_at_large::dhs::{Dhs, DhsConfig, EpochCache, ScanHint};
use counting_at_large::dht::cost::CostLedger;
use counting_at_large::dht::ring::{Ring, RingConfig};
use counting_at_large::dht::route_cache::CachedOverlay;
use counting_at_large::sketch::{ItemHasher, SplitMix64};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const NODES: usize = 48;
const METRIC: u32 = 7;

fn small_config() -> DhsConfig {
    DhsConfig {
        m: 32,
        k: 20,
        ..DhsConfig::default()
    }
}

fn build_ring(seed: u64) -> Ring {
    let mut rng = StdRng::seed_from_u64(seed);
    Ring::build(NODES, RingConfig::default(), &mut rng)
}

/// Workload with plenty of duplicates (each key appears ~4 times).
fn keys(n: u64) -> Vec<u64> {
    let hasher = SplitMix64::default();
    (0..n)
        .map(|i| hasher.hash_u64(i % (n / 4).max(1)))
        .collect()
}

fn live_app_keys(ring: &Ring) -> BTreeSet<u64> {
    let now = ring.now();
    let mut set = BTreeSet::new();
    for &node in ring.alive_ids() {
        if let Some(store) = ring.store_of(node) {
            for (app_key, rec) in store.iter() {
                if rec.expires_at > now {
                    set.insert(app_key);
                }
            }
        }
    }
    set
}

/// Exhaustive (`lim` = node count) count with a fixed fresh seed: a pure
/// function of the live app-key set.
fn exhaustive_estimate(cfg: &DhsConfig, ring: &Ring) -> (Vec<u32>, f64) {
    let dhs = Dhs::new(DhsConfig {
        lim: u32::try_from(NODES).unwrap(),
        ..*cfg
    })
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let origin = ring.alive_ids()[0];
    let r = dhs.count(ring, METRIC, origin, &mut rng, &mut CostLedger::new());
    (r.registers, r.estimate)
}

#[test]
fn elision_cache_is_invisible_to_state_and_estimate() {
    let dhs = Dhs::new(small_config()).unwrap();
    let keys = keys(2_000);

    let mut plain_ring = build_ring(11);
    let origin = plain_ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(22);
    let mut plain_ledger = CostLedger::new();
    for &k in &keys {
        dhs.insert(
            &mut plain_ring,
            METRIC,
            k,
            origin,
            &mut rng,
            &mut plain_ledger,
        );
    }

    let mut cached_ring = build_ring(11);
    let mut rng = StdRng::seed_from_u64(22);
    let mut cached_ledger = CostLedger::new();
    let mut cache = EpochCache::new(dhs.config());
    // Two epochs: the rollover mid-stream re-ships live tuples once.
    for (i, &k) in keys.iter().enumerate() {
        if i == keys.len() / 2 {
            cache.roll_epoch();
        }
        dhs.insert_cached(
            &mut cached_ring,
            &mut cache,
            METRIC,
            k,
            origin,
            &mut rng,
            &mut cached_ledger,
        );
    }

    assert_eq!(live_app_keys(&plain_ring), live_app_keys(&cached_ring));
    let (regs_a, est_a) = exhaustive_estimate(dhs.config(), &plain_ring);
    let (regs_b, est_b) = exhaustive_estimate(dhs.config(), &cached_ring);
    assert_eq!(regs_a, regs_b);
    assert_eq!(est_a.to_bits(), est_b.to_bits());
    // And it is actually a fast path: ~3/4 of the inserts are duplicates.
    assert!(cache.hits() > 0);
    assert!(
        cached_ledger.messages() < plain_ledger.messages() / 2,
        "cached {} vs plain {}",
        cached_ledger.messages(),
        plain_ledger.messages()
    );
}

#[test]
fn route_cache_is_invisible_to_placement_and_estimate() {
    let dhs = Dhs::new(small_config()).unwrap();
    let keys = keys(1_200);

    let mut plain_ring = build_ring(31);
    let origin = plain_ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(32);
    let mut ledger = CostLedger::new();
    for &k in &keys {
        dhs.insert(&mut plain_ring, METRIC, k, origin, &mut rng, &mut ledger);
    }

    let mut overlay = CachedOverlay::new(build_ring(31));
    let mut rng = StdRng::seed_from_u64(32);
    let mut cached_ledger = CostLedger::new();
    for &k in &keys {
        dhs.insert(
            &mut overlay,
            METRIC,
            k,
            origin,
            &mut rng,
            &mut cached_ledger,
        );
    }
    let stats = overlay.cache_stats();
    let (cached_ring, _) = overlay.into_parts();

    // The route cache only short-circuits lookups; same RNG stream, same
    // placements — node-for-node identical stores, fewer hops.
    for &node in plain_ring.alive_ids() {
        let a: BTreeSet<u64> = plain_ring
            .store_of(node)
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        let b: BTreeSet<u64> = cached_ring
            .store_of(node)
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(a, b, "store of node {node}");
    }
    let (regs_a, est_a) = exhaustive_estimate(dhs.config(), &plain_ring);
    let (regs_b, est_b) = exhaustive_estimate(dhs.config(), &cached_ring);
    assert_eq!(regs_a, regs_b);
    assert_eq!(est_a.to_bits(), est_b.to_bits());
    assert!(stats.hits > 0);
    assert!(cached_ledger.hops() < ledger.hops());
}

#[test]
fn batched_bulk_insert_cached_matches_item_by_item() {
    let dhs = Dhs::new(small_config()).unwrap();
    let keys = keys(1_600);

    let mut item_ring = build_ring(51);
    let origin = item_ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(52);
    let mut item_ledger = CostLedger::new();
    for &k in &keys {
        dhs.insert(
            &mut item_ring,
            METRIC,
            k,
            origin,
            &mut rng,
            &mut item_ledger,
        );
    }

    let mut bulk_ring = build_ring(51);
    let mut rng = StdRng::seed_from_u64(52);
    let mut bulk_ledger = CostLedger::new();
    let mut cache = EpochCache::new(dhs.config());
    for chunk in keys.chunks(200) {
        dhs.bulk_insert_cached(
            &mut bulk_ring,
            &mut cache,
            METRIC,
            chunk,
            origin,
            &mut rng,
            &mut bulk_ledger,
        );
    }

    assert_eq!(live_app_keys(&item_ring), live_app_keys(&bulk_ring));
    let (regs_a, est_a) = exhaustive_estimate(dhs.config(), &item_ring);
    let (regs_b, est_b) = exhaustive_estimate(dhs.config(), &bulk_ring);
    assert_eq!(regs_a, regs_b);
    assert_eq!(est_a.to_bits(), est_b.to_bits());
    assert!(
        bulk_ledger.messages() < item_ledger.messages() / 2,
        "bulk {} vs item {}",
        bulk_ledger.messages(),
        item_ledger.messages()
    );
}

#[test]
fn hinted_count_is_byte_identical_to_full_count() {
    let dhs = Dhs::new(small_config()).unwrap();
    let mut ring = build_ring(71);
    let origin = ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(72);
    let mut ledger = CostLedger::new();
    let hasher = SplitMix64::default();
    for i in 0..3_000u64 {
        dhs.insert(
            &mut ring,
            METRIC,
            hasher.hash_u64(i),
            origin,
            &mut rng,
            &mut ledger,
        );
    }

    let mut hint = ScanHint::new();
    for seed in [1u64, 2, 3, 4, 5] {
        let mut full_rng = StdRng::seed_from_u64(seed);
        let full = dhs.count(&ring, METRIC, origin, &mut full_rng, &mut CostLedger::new());
        hint.record(METRIC, full.estimate);

        let mut hinted_rng = StdRng::seed_from_u64(seed);
        let mut hinted_ledger = CostLedger::new();
        let hinted = dhs.count_hinted(
            &ring,
            &mut hint,
            METRIC,
            origin,
            &mut hinted_rng,
            &mut hinted_ledger,
        );
        assert_eq!(full.registers, hinted.registers, "seed {seed}");
        assert_eq!(
            full.estimate.to_bits(),
            hinted.estimate.to_bits(),
            "seed {seed}"
        );
        // The warm scan does strictly less work.
        assert!(hinted.stats.intervals_skipped > 0, "seed {seed}");
        assert!(
            hinted.stats.intervals_scanned < full.stats.intervals_scanned,
            "seed {seed}"
        );
        assert!(hinted.stats.probes < full.stats.probes, "seed {seed}");
    }
}

/// An RNG that counts every draw and fingerprints the drawn values, so a
/// test can assert two code paths consume *exactly* the same stream.
struct CountingRng {
    inner: StdRng,
    draws: u64,
    digest: u64,
}

impl CountingRng {
    fn new(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn absorb(&mut self, v: u64) {
        self.draws += 1;
        for b in v.to_le_bytes() {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x100_0000_01B3);
        }
    }
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        let v = self.inner.next_u32();
        self.absorb(u64::from(v));
        v
    }

    fn next_u64(&mut self) -> u64 {
        let v = self.inner.next_u64();
        self.absorb(v);
        v
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
        for &b in dest.iter() {
            self.absorb(u64::from(b));
        }
    }
}

/// The hinted scan's byte-identity rests on one discipline: a skipped
/// rank still draws (and discards) its interval key, so the probe RNG
/// stream stays aligned with the full scan's. This pins that invariant
/// directly — same seed ⇒ the two paths consume the same *number* of
/// draws and the same *values*, not merely end at equal registers.
#[test]
fn hinted_scan_consumes_identical_rng_draws() {
    let dhs = Dhs::new(small_config()).unwrap();
    let mut ring = build_ring(61);
    let origin = ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(62);
    let mut ledger = CostLedger::new();
    let hasher = SplitMix64::default();
    for i in 0..3_000u64 {
        dhs.insert(
            &mut ring,
            METRIC,
            hasher.hash_u64(i),
            origin,
            &mut rng,
            &mut ledger,
        );
    }

    let mut hint = ScanHint::new();
    for seed in [101u64, 202, 303] {
        let mut full_rng = CountingRng::new(seed);
        let full = dhs.count(&ring, METRIC, origin, &mut full_rng, &mut CostLedger::new());
        hint.record(METRIC, full.estimate);

        let mut hinted_rng = CountingRng::new(seed);
        let hinted = dhs.count_hinted(
            &ring,
            &mut hint,
            METRIC,
            origin,
            &mut hinted_rng,
            &mut CostLedger::new(),
        );

        // The hint is live (ranks really were skipped) …
        assert!(hinted.stats.intervals_skipped > 0, "seed {seed}");
        // … yet the RNG streams are in lock-step: same draw count, same
        // drawn values.
        assert_eq!(full_rng.draws, hinted_rng.draws, "seed {seed}");
        assert_eq!(full_rng.digest, hinted_rng.digest, "seed {seed}");
        assert_eq!(full.registers, hinted.registers, "seed {seed}");
        assert_eq!(
            full.estimate.to_bits(),
            hinted.estimate.to_bits(),
            "seed {seed}"
        );
    }
}

#[test]
fn wildly_wrong_priors_never_change_the_answer() {
    let dhs = Dhs::new(small_config()).unwrap();
    let mut ring = build_ring(81);
    let origin = ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(82);
    let mut ledger = CostLedger::new();
    let hasher = SplitMix64::default();
    for i in 0..2_000u64 {
        dhs.insert(
            &mut ring,
            METRIC,
            hasher.hash_u64(i),
            origin,
            &mut rng,
            &mut ledger,
        );
    }

    // Priors off by orders of magnitude in both directions: the hint may
    // only take the two exact shortcuts, so the answer cannot move.
    for prior in [1.0, 20.0, 2_000.0, 1e9, 1e15] {
        let mut hint = ScanHint::new();
        hint.record(METRIC, prior);
        let mut full_rng = StdRng::seed_from_u64(99);
        let full = dhs.count(&ring, METRIC, origin, &mut full_rng, &mut CostLedger::new());
        let mut hinted_rng = StdRng::seed_from_u64(99);
        let hinted = dhs.count_hinted(
            &ring,
            &mut hint,
            METRIC,
            origin,
            &mut hinted_rng,
            &mut CostLedger::new(),
        );
        assert_eq!(full.registers, hinted.registers, "prior {prior}");
        assert_eq!(
            full.estimate.to_bits(),
            hinted.estimate.to_bits(),
            "prior {prior}"
        );
    }
}

#[test]
fn cached_refresh_keeps_soft_state_alive() {
    let cfg = DhsConfig {
        ttl: 1_000,
        ..small_config()
    };
    let dhs = Dhs::new(cfg).unwrap();
    let hasher = SplitMix64::default();
    let items: Vec<u64> = (0..500u64).map(|i| hasher.hash_u64(i)).collect();

    // Reference: plain refresh rounds.
    let mut plain_ring = build_ring(91);
    let origin = plain_ring.alive_ids()[0];
    let mut rng = StdRng::seed_from_u64(92);
    let mut ledger = CostLedger::new();
    refresh_round(
        &dhs,
        &mut plain_ring,
        METRIC,
        &items,
        origin,
        &mut rng,
        &mut ledger,
    );

    // Cached: duplicate app-level inserts between refreshes are elided,
    // but each epoch's refresh re-ships everything (the cache rolls), so
    // soft state survives any number of TTL periods.
    let mut ring = build_ring(91);
    let mut rng = StdRng::seed_from_u64(92);
    let mut ledger = CostLedger::new();
    let mut cache = EpochCache::new(dhs.config());
    refresh_round_cached(
        &dhs,
        &mut ring,
        &mut cache,
        METRIC,
        &items,
        origin,
        &mut rng,
        &mut ledger,
    );
    assert_eq!(live_app_keys(&plain_ring), live_app_keys(&ring));

    for _ in 0..3 {
        // App-level duplicate traffic inside the epoch: all elided.
        let before = ledger.messages();
        for &k in items.iter().take(100) {
            dhs.insert_cached(
                &mut ring,
                &mut cache,
                METRIC,
                k,
                origin,
                &mut rng,
                &mut ledger,
            );
        }
        assert_eq!(ledger.messages(), before, "in-epoch duplicates must elide");

        // Advance most of a TTL, then refresh before expiry.
        ring.advance_time(900);
        refresh_round_cached(
            &dhs,
            &mut ring,
            &mut cache,
            METRIC,
            &items,
            origin,
            &mut rng,
            &mut ledger,
        );
        assert_eq!(
            live_app_keys(&ring).len(),
            live_app_keys(&plain_ring).len(),
            "soft state must survive the refresh cycle"
        );
    }
}
