//! Deterministic shard routing and cross-shard flush batching.
//!
//! The router generalizes the owner-batched store path of `dhs-core`
//! (the two-pass `Dhs::store_groups_via`): callers append register updates to
//! a [`FlushBatch`] in whatever order they arrive, and the batch drains
//! *grouped by destination shard* — one contiguous run of updates per
//! shard, shards in ascending order, arrival order preserved within each
//! shard. Grouping is pure bookkeeping: it never reorders the effect of
//! two updates to the same sketch (register writes are max-merges, and
//! within a shard arrival order is kept), so a batched flush is
//! observationally identical to applying updates one at a time.

use dhs_sketch::hash::SplitMix64;
use std::collections::BTreeMap;

use crate::tenant::SketchKey;

/// Salt folded into the shard-placement hash so shard routing is not
/// correlated with any other use of the item hash.
const ROUTE_SALT: u64 = 0x5bd1_e995_9d1b_ac27;

/// Deterministic key → shard placement.
///
/// Placement is `mix(packed_key ⊕ salt) mod shards` — stable across runs,
/// processes, and platforms, so the same key always lands on the same
/// shard and two same-seed runs batch identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: u64,
}

impl ShardRouter {
    /// A router over `shards ≥ 1` shards.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardRouter {
            shards: shards as u64,
        }
    }

    /// The shard owning `key`.
    pub fn shard_of(&self, key: SketchKey) -> usize {
        #[allow(clippy::cast_possible_truncation)]
        {
            // dhs-lint: allow(lossy_cast) — reduced mod the shard count ≤ usize.
            (SplitMix64::mix(key.packed() ^ ROUTE_SALT) % self.shards) as usize
        }
    }
}

/// One buffered register update: `(sketch, bucket, rank)`, with `rank`
/// 0-based (the DHS tuple's `bit`; the stored register value is
/// `rank + 1`).
pub type FlushUpdate = (SketchKey, u16, u8);

/// A buffer of register updates awaiting a grouped flush.
///
/// Appends are O(1); [`FlushBatch::drain_grouped`] hands back the whole
/// buffer grouped per shard.
#[derive(Debug, Clone, Default)]
pub struct FlushBatch {
    updates: Vec<FlushUpdate>,
}

impl FlushBatch {
    /// An empty batch.
    pub fn new() -> Self {
        FlushBatch::default()
    }

    /// Append one `(sketch, bucket, rank)` update.
    pub fn push(&mut self, key: SketchKey, bucket: u16, rank: u8) {
        self.updates.push((key, bucket, rank));
    }

    /// Buffered update count.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The buffered updates, in arrival order.
    pub fn updates(&self) -> &[FlushUpdate] {
        &self.updates
    }

    /// Drop every buffered update, keeping the allocation.
    pub fn clear(&mut self) {
        self.updates.clear();
    }

    /// Drain the batch grouped by shard: ascending shard index, arrival
    /// order within each shard. The batch is empty afterwards.
    pub fn drain_grouped(&mut self, router: &ShardRouter) -> Vec<(usize, Vec<FlushUpdate>)> {
        let mut groups: BTreeMap<usize, Vec<FlushUpdate>> = BTreeMap::new();
        for upd in self.updates.drain(..) {
            groups.entry(router.shard_of(upd.0)).or_default().push(upd);
        }
        groups.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_stable_and_in_range() {
        let router = ShardRouter::new(8);
        for t in 0..32u16 {
            for m in 0..32u16 {
                let key = SketchKey::new(t, m);
                let s = router.shard_of(key);
                assert!(s < 8);
                assert_eq!(s, router.shard_of(key), "routing must be stable");
            }
        }
    }

    #[test]
    fn routing_spreads_keys() {
        let router = ShardRouter::new(8);
        let mut counts = [0u32; 8];
        for m in 0..4096u16 {
            counts[router.shard_of(SketchKey::new(1, m))] += 1;
        }
        // 4096 keys over 8 shards: each shard should be within 2x of fair.
        for (s, &c) in counts.iter().enumerate() {
            assert!((256..=1024).contains(&c), "shard {s} got {c} of 4096");
        }
    }

    #[test]
    fn drain_groups_by_shard_preserving_arrival_order() {
        let router = ShardRouter::new(4);
        let mut batch = FlushBatch::new();
        let keys: Vec<SketchKey> = (0..100u16).map(|m| SketchKey::new(0, m)).collect();
        for (i, &k) in keys.iter().enumerate() {
            // dhs-lint: allow(lossy_cast) — test data below 256.
            #[allow(clippy::cast_possible_truncation)]
            batch.push(k, i as u16, (i % 50) as u8);
        }
        let groups = batch.drain_grouped(&router);
        assert!(batch.is_empty());
        assert_eq!(groups.iter().map(|(_, g)| g.len()).sum::<usize>(), 100);
        let mut prev_shard = None;
        for (shard, group) in &groups {
            assert!(prev_shard < Some(*shard), "shards ascend");
            prev_shard = Some(*shard);
            // Within a shard, bucket values (arrival stamps) ascend.
            for w in group.windows(2) {
                assert!(w[0].1 < w[1].1, "arrival order preserved");
            }
            for upd in group {
                assert_eq!(router.shard_of(upd.0), *shard);
            }
        }
    }

    #[test]
    fn single_shard_drain_is_arrival_order() {
        let router = ShardRouter::new(1);
        let mut batch = FlushBatch::new();
        for m in [9u16, 3, 7, 3] {
            batch.push(SketchKey::new(2, m), m, 1);
        }
        let groups = batch.drain_grouped(&router);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 0);
        let buckets: Vec<u16> = groups[0].1.iter().map(|u| u.1).collect();
        assert_eq!(buckets, vec![9, 3, 7, 3]);
    }
}
