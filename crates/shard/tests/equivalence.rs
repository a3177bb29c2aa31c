#![allow(clippy::cast_possible_truncation)] // test data has known ranges
//! Property tests for the sharded store's load-bearing invariants:
//!
//! * **Shard-count transparency** — routing a stream across N shards
//!   produces byte-identical registers and bit-identical estimates to a
//!   single-shard store fed the same stream. Sharding is placement, not
//!   semantics.
//! * **Eviction determinism** — two identical budgeted runs evict the
//!   same sketches in the same order (equal eviction digests) and leave
//!   identical resident state.
//! * **Lossless spill** — with a lossless cold tier, a budgeted store's
//!   estimates equal an unbudgeted store's: eviction + recovery is
//!   invisible to readers.

use dhs_obs::NoopRecorder;
use dhs_shard::{classify_hash, MemoryColdTier, ShardConfig, ShardedStore, SketchKey};
use dhs_sketch::{ItemHasher, SplitMix64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic update stream: `n` items spread over `metrics`
/// tenant-scoped sketches.
fn stream(seed: u64, n: usize, tenants: u16, metrics: u16) -> Vec<(SketchKey, u64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hasher = SplitMix64::default();
    (0..n)
        .map(|i| {
            let tenant = rng.gen_range(0..tenants);
            let metric = rng.gen_range(0..metrics);
            (
                SketchKey::new(tenant, metric),
                hasher.hash_u64(i as u64 ^ (seed << 32)),
            )
        })
        .collect()
}

proptest! {
    /// Sharded estimates are byte-identical to single-shard estimates.
    #[test]
    fn sharding_is_transparent(
        seed in any::<u64>(),
        shards in 2usize..9,
        log2m in 4u32..9,
        tenants in 1u16..5,
        metrics in 1u16..33,
    ) {
        let m = 1usize << log2m;
        let updates = stream(seed, 400, tenants, metrics);
        let mut rec = NoopRecorder;
        let mut single = ShardedStore::new(ShardConfig::new(1, m)).unwrap();
        let mut sharded = ShardedStore::new(ShardConfig::new(shards, m)).unwrap();
        for &(key, hash) in &updates {
            single.observe_item(key, hash, &mut rec);
            sharded.observe_item(key, hash, &mut rec);
        }
        for t in 0..tenants {
            for mt in 0..metrics {
                let key = SketchKey::new(t, mt);
                prop_assert_eq!(single.register_vec(key), sharded.register_vec(key));
                match (single.estimate(key, &mut rec), sharded.estimate(key, &mut rec)) {
                    (Some(a), Some(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                    (a, b) => prop_assert_eq!(a, b),
                }
            }
        }
        prop_assert_eq!(single.resident(), sharded.resident());
    }

    /// Flushing a batch equals observing its updates one at a time, for
    /// any shard count.
    #[test]
    fn batched_flush_is_transparent(
        seed in any::<u64>(),
        shards in 1usize..9,
        metrics in 1u16..33,
    ) {
        let m = 64usize;
        let updates = stream(seed, 300, 2, metrics);
        let mut rec = NoopRecorder;
        let mut direct = ShardedStore::new(ShardConfig::new(shards, m)).unwrap();
        let mut batched = ShardedStore::new(ShardConfig::new(shards, m)).unwrap();
        let mut batch = dhs_shard::FlushBatch::new();
        for &(key, hash) in &updates {
            let (bucket, rank) = classify_hash(hash, m);
            direct.observe(key, bucket, rank, &mut rec);
            batch.push(key, bucket, rank);
        }
        batched.flush(&mut batch, &mut rec);
        for t in 0..2 {
            for mt in 0..metrics {
                let key = SketchKey::new(t, mt);
                prop_assert_eq!(direct.register_vec(key), batched.register_vec(key));
            }
        }
    }

    /// Two identical budgeted runs evict identically: equal digests,
    /// equal resident sets, equal stats.
    #[test]
    fn eviction_order_is_deterministic(
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let cfg = ShardConfig::new(shards, 64).with_budget(600);
        let updates = stream(seed, 500, 3, 64);
        let run = || {
            let mut store = ShardedStore::new(cfg).unwrap();
            let mut rec = NoopRecorder;
            for &(key, hash) in &updates {
                store.observe_item(key, hash, &mut rec);
            }
            store
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.eviction_digest(), b.eviction_digest());
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.total_bytes(), b.total_bytes());
        for t in 0..3 {
            for mt in 0..64 {
                let key = SketchKey::new(t, mt);
                prop_assert_eq!(a.contains(key), b.contains(key));
                prop_assert_eq!(a.register_vec(key), b.register_vec(key));
            }
        }
        // The budget held: every shard is at or under it.
        for s in a.stats() {
            prop_assert!(s.bytes <= 600);
        }
    }

    /// With a lossless cold tier, budgeted estimates equal unbudgeted
    /// ones bit-for-bit — spill + recover is invisible.
    #[test]
    fn lossless_cold_tier_preserves_estimates(
        seed in any::<u64>(),
        shards in 1usize..5,
    ) {
        let updates = stream(seed, 400, 2, 48);
        let mut rec = NoopRecorder;
        let mut unbudgeted = ShardedStore::new(ShardConfig::new(shards, 64)).unwrap();
        let cfg = ShardConfig::new(shards, 64).with_budget(500);
        let mut budgeted =
            ShardedStore::with_cold_tier(cfg, MemoryColdTier::new()).unwrap();
        for &(key, hash) in &updates {
            unbudgeted.observe_item(key, hash, &mut rec);
            budgeted.observe_item(key, hash, &mut rec);
        }
        for t in 0..2 {
            for mt in 0..48 {
                let key = SketchKey::new(t, mt);
                let a = unbudgeted.estimate(key, &mut rec);
                let b = budgeted.estimate(key, &mut rec);
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert_eq!(x.to_bits(), y.to_bits()),
                    (x, y) => prop_assert_eq!(x, y),
                }
            }
        }
    }
}
