//! A cold tier is outside the store's control: whatever bytes it hands
//! back, the store must keep running. Under a tier that returns
//! arbitrary, truncated and mutated copies of real spills — and valid
//! spills of another register count — `observe`, `flush` and `estimate`
//! never panic, the byte accounting stays exact, and every recovered
//! blob is either installed or counted as refused.

use dhs_obs::NoopRecorder;
use dhs_shard::{ColdTier, FlushBatch, ShardConfig, ShardedStore, SketchKey};
use dhs_sketch::tiered::TieredRegisters;
use dhs_sketch::{ItemHasher, SplitMix64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Keeps every spill, and on recovery hands back a real spill, random
/// bytes, a truncated or byte-flipped spill, or a valid sketch of
/// another register count — chosen by its own seeded stream.
struct HostileCold {
    held: Vec<(u64, Vec<u8>)>,
    rng: StdRng,
    handed_out: u64,
}

impl HostileCold {
    fn new(seed: u64) -> Self {
        HostileCold {
            held: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            handed_out: 0,
        }
    }

    fn corrupt(&mut self, mut wire: Vec<u8>) -> Vec<u8> {
        match self.rng.gen_range(0..5u32) {
            0 => wire,
            1 => {
                let len = self.rng.gen_range(0..48usize);
                (0..len).map(|_| self.rng.gen::<u8>()).collect()
            }
            2 => {
                let keep = self.rng.gen_range(0..wire.len().max(1));
                wire.truncate(keep);
                wire
            }
            3 => {
                for _ in 0..self.rng.gen_range(1..4u32) {
                    let i = self.rng.gen_range(0..wire.len().max(1));
                    if let Some(b) = wire.get_mut(i) {
                        *b ^= self.rng.gen_range(1..=255u8);
                    }
                }
                wire
            }
            _ => {
                let m = 1usize << self.rng.gen_range(1..=10u32);
                let mut foreign = TieredRegisters::new(m);
                for _ in 0..self.rng.gen_range(0..2 * m) {
                    let i = self.rng.gen_range(0..m);
                    foreign.observe(i, self.rng.gen_range(1..40u8));
                }
                foreign.to_wire()
            }
        }
    }
}

impl ColdTier for HostileCold {
    fn spill(&mut self, key: SketchKey, wire: Vec<u8>) {
        self.held.retain(|(k, _)| *k != key.packed());
        self.held.push((key.packed(), wire));
    }

    fn recover(&mut self, key: SketchKey) -> Option<Vec<u8>> {
        let pos = self.held.iter().position(|(k, _)| *k == key.packed())?;
        let (_, wire) = self.held.remove(pos);
        self.handed_out += 1;
        Some(self.corrupt(wire))
    }
}

proptest! {
    #[test]
    fn hostile_cold_tiers_never_hurt_the_store(
        seed in any::<u64>(),
        shards in 1usize..4,
        log2m in 4u32..8,
        metrics in 2u16..24,
    ) {
        let m = 1usize << log2m;
        // A budget of a few sketches per shard keeps spills and
        // recoveries frequent.
        let budget = 3 * (128 + m as u64);
        let cfg = ShardConfig::new(shards, m).with_budget(budget);
        let mut store = ShardedStore::with_cold_tier(cfg, HostileCold::new(seed)).unwrap();
        let mut rec = NoopRecorder;
        let hasher = SplitMix64::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut batch = FlushBatch::new();
        for i in 0..600u64 {
            let key = SketchKey::new(0, rng.gen_range(0..metrics));
            let hash = hasher.hash_u64(i ^ (seed << 20));
            match rng.gen_range(0..4u32) {
                0 => {
                    let (bucket, rank) = dhs_shard::classify_hash(hash, m);
                    batch.push(key, bucket, rank);
                }
                1 => {
                    store.flush(&mut batch, &mut rec);
                }
                2 => {
                    let _estimate = store.estimate(key, &mut rec);
                }
                _ => store.observe_item(key, hash, &mut rec),
            }
        }
        store.flush(&mut batch, &mut rec);
        for metric in 0..metrics {
            let _estimate = store.estimate(SketchKey::new(0, metric), &mut rec);
        }
        let stats = store.stats();
        prop_assert_eq!(store.total_bytes(), stats.iter().map(|s| s.bytes).sum::<u64>());
        let settled: u64 = stats.iter().map(|s| s.recoveries + s.failed_recoveries).sum();
        prop_assert_eq!(settled, store.cold().handed_out);
    }
}
