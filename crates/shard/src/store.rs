//! The sharded, memory-budgeted sketch store.
//!
//! N independent shards, each an arena of [`TieredRegisters`] sketches
//! keyed by [`SketchKey`], with byte-exact memory accounting and
//! deterministic eviction:
//!
//! * **Arena** — sketches live in a slab (`Vec<Option<Slot>>` + free
//!   list) per shard; a `BTreeMap` keys them. No pointers, no hashing,
//!   no iteration-order nondeterminism.
//! * **Accounting** — every slot is charged
//!   [`SLOT_OVERHEAD`]` + payload_bytes()`; the charge moves in lockstep
//!   with tier promotions and sparse growth, so `bytes()` is exact at
//!   every step, and `peak_bytes` records the high-water mark.
//! * **Eviction** — when a shard exceeds its byte budget, victims are
//!   chosen from a totally ordered candidate index (least recently
//!   accessed first on a logical clock, ties broken by sketch key),
//!   compressed, wire-encoded, and offered to the [`ColdTier`].
//!   Identical inputs produce the identical eviction sequence —
//!   [`ShardedStore::eviction_digest`] folds the sequence into one `u64`
//!   two runs can compare.
//! * **Recovery** — any access (read *or* write) to a non-resident key
//!   first asks the cold tier; a recovered sketch decodes to exactly the
//!   bytes that were spilled. With a lossless cold tier
//!   ([`MemoryColdTier`]) a budgeted store therefore estimates
//!   identically to an unbudgeted one; with [`DiscardCold`] eviction is
//!   deliberate data loss (soft-state semantics, like DHT tuple expiry).

use std::collections::{BTreeMap, BTreeSet};

use dhs_obs::{names, Fnv1a, Recorder};
use dhs_sketch::superloglog_estimate_from_registers;
use dhs_sketch::tiered::{Tier, TieredRegisters};

use crate::router::{FlushBatch, ShardRouter};
use crate::tenant::{classify_hash, SketchKey};

/// Fixed per-sketch byte charge on top of the register payload: the
/// arena slot, the key-index entry, and the victim-index entry.
pub const SLOT_OVERHEAD: u64 = 64;

/// Configuration of a [`ShardedStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Registers per sketch; a power of two in `2..=65536`.
    pub m: usize,
    /// Per-shard byte budget; `None` disables eviction.
    pub budget_bytes: Option<u64>,
}

impl ShardConfig {
    /// A store of `shards` shards with `m`-register sketches, unlimited
    /// memory.
    pub fn new(shards: usize, m: usize) -> Self {
        ShardConfig {
            shards,
            m,
            budget_bytes: None,
        }
    }

    /// Same store, with a per-shard byte budget.
    pub fn with_budget(mut self, bytes: u64) -> Self {
        self.budget_bytes = Some(bytes);
        self
    }
}

/// Rejected [`ShardConfig`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfigError {
    /// `shards` was zero.
    ZeroShards,
    /// `m` was not a power of two in `2..=65536`.
    BadBuckets(usize),
}

impl std::fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardConfigError::ZeroShards => write!(f, "shard count must be at least 1"),
            ShardConfigError::BadBuckets(m) => {
                write!(f, "m = {m} must be a power of two in 2..=65536")
            }
        }
    }
}

impl std::error::Error for ShardConfigError {}

/// Spill destination for evicted sketches.
///
/// `spill` receives the victim's wire encoding
/// ([`TieredRegisters::to_wire`] after [`TieredRegisters::compress`]);
/// `recover` yields it back (and forgets it) when the key is accessed
/// again. Implementations must be deterministic.
pub trait ColdTier {
    /// Accept an evicted sketch.
    fn spill(&mut self, key: SketchKey, wire: Vec<u8>);
    /// Yield (and remove) a spilled sketch, if held.
    fn recover(&mut self, key: SketchKey) -> Option<Vec<u8>>;
}

/// A cold tier that drops every spill: eviction is data loss (soft-state
/// semantics). The default.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardCold;

impl ColdTier for DiscardCold {
    fn spill(&mut self, _key: SketchKey, _wire: Vec<u8>) {}
    fn recover(&mut self, _key: SketchKey) -> Option<Vec<u8>> {
        None
    }
}

/// An in-memory lossless cold tier (tests, benches, and a stand-in for a
/// disk or remote tier).
#[derive(Debug, Clone, Default)]
pub struct MemoryColdTier {
    held: BTreeMap<u64, Vec<u8>>,
    bytes: u64,
}

impl MemoryColdTier {
    /// An empty cold tier.
    pub fn new() -> Self {
        MemoryColdTier::default()
    }

    /// Number of spilled sketches currently held.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// True when nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Total wire bytes currently held.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl ColdTier for MemoryColdTier {
    fn spill(&mut self, key: SketchKey, wire: Vec<u8>) {
        self.bytes += wire.len() as u64;
        if let Some(old) = self.held.insert(key.packed(), wire) {
            self.bytes -= old.len() as u64;
        }
    }

    fn recover(&mut self, key: SketchKey) -> Option<Vec<u8>> {
        let wire = self.held.remove(&key.packed())?;
        self.bytes -= wire.len() as u64;
        Some(wire)
    }
}

/// One resident sketch.
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    regs: TieredRegisters,
    last_access: u64,
}

/// One shard: arena + key index + victim index + accounting.
#[derive(Debug, Clone, Default)]
struct Shard {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    index: BTreeMap<u64, u32>,
    victims: BTreeSet<(u64, u64)>,
    bytes: u64,
    peak_bytes: u64,
    inserts: u64,
    evictions: u64,
    spilled_bytes: u64,
    recoveries: u64,
    failed_recoveries: u64,
    promotions_packed: u64,
    promotions_dense: u64,
}

/// A point-in-time summary of one shard, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Resident sketch count.
    pub resident: usize,
    /// Accounted bytes now.
    pub bytes: u64,
    /// Accounted-byte high-water mark.
    pub peak_bytes: u64,
    /// Register updates applied.
    pub inserts: u64,
    /// Sketches evicted.
    pub evictions: u64,
    /// Wire bytes spilled to the cold tier.
    pub spilled_bytes: u64,
    /// Sketches recovered from the cold tier.
    pub recoveries: u64,
    /// Cold-tier blobs refused: undecodable, or not `m` registers.
    pub failed_recoveries: u64,
    /// Sparse → packed promotions.
    pub promotions_packed: u64,
    /// Packed → dense promotions.
    pub promotions_dense: u64,
}

/// The sharded multi-tenant sketch store. See the module docs.
#[derive(Debug, Clone)]
pub struct ShardedStore<C: ColdTier = DiscardCold> {
    cfg: ShardConfig,
    router: ShardRouter,
    shards: Vec<Shard>,
    cold: C,
    ticks: u64,
    eviction_digest: Fnv1a,
}

impl ShardedStore<DiscardCold> {
    /// A store whose evictions discard data (no cold tier).
    pub fn new(cfg: ShardConfig) -> Result<Self, ShardConfigError> {
        Self::with_cold_tier(cfg, DiscardCold)
    }
}

impl<C: ColdTier> ShardedStore<C> {
    /// A store spilling evictions to `cold`.
    pub fn with_cold_tier(cfg: ShardConfig, cold: C) -> Result<Self, ShardConfigError> {
        if cfg.shards == 0 {
            return Err(ShardConfigError::ZeroShards);
        }
        if !cfg.m.is_power_of_two() || cfg.m < 2 || cfg.m > 1 << 16 {
            return Err(ShardConfigError::BadBuckets(cfg.m));
        }
        Ok(ShardedStore {
            cfg,
            router: ShardRouter::new(cfg.shards),
            shards: (0..cfg.shards).map(|_| Shard::default()).collect(),
            cold,
            ticks: 0,
            eviction_digest: Fnv1a::new(),
        })
    }

    /// The configuration the store was built with.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The router assigning keys to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The cold tier.
    pub fn cold(&self) -> &C {
        &self.cold
    }

    /// Classify one item hash and apply it to `key`'s sketch.
    pub fn observe_item(&mut self, key: SketchKey, item_hash: u64, rec: &mut dyn Recorder) {
        let (bucket, rank) = classify_hash(item_hash, self.cfg.m);
        self.observe(key, bucket, rank, rec);
    }

    /// Apply one `(bucket, rank)` update (rank 0-based, the DHS `bit`)
    /// to `key`'s sketch.
    pub fn observe(&mut self, key: SketchKey, bucket: u16, rank: u8, rec: &mut dyn Recorder) {
        let shard = self.router.shard_of(key);
        self.apply(shard, key, bucket, rank, rec);
        self.enforce_budget(shard, Some(key), rec);
    }

    /// Drain `batch` into the store, grouped per shard (ascending shard
    /// index, arrival order within a shard). Returns the per-shard
    /// update counts.
    pub fn flush(&mut self, batch: &mut FlushBatch, rec: &mut dyn Recorder) -> Vec<(usize, u64)> {
        let groups = batch.drain_grouped(&self.router);
        let mut report = Vec::with_capacity(groups.len());
        for (shard, updates) in groups {
            rec.observe(names::SHARD_FLUSH_BATCH, updates.len() as u64);
            for (key, bucket, rank) in &updates {
                self.apply(shard, *key, *bucket, *rank, rec);
            }
            // One budget pass per shard batch (evictions cannot starve
            // keys the batch itself just wrote — they are the newest).
            self.enforce_budget(shard, None, rec);
            report.push((shard, updates.len() as u64));
        }
        rec.incr(names::SHARD_FLUSH, 1);
        report
    }

    /// Super-LogLog estimate of `key`'s sketch, recovering it from
    /// the cold tier if spilled. `None` if the store has never seen the
    /// key (or eviction discarded it).
    pub fn estimate(&mut self, key: SketchKey, rec: &mut dyn Recorder) -> Option<f64> {
        let shard = self.router.shard_of(key);
        self.touch(shard, key, rec)?;
        let regs = {
            let sh = &self.shards[shard];
            let slot_idx = *sh.index.get(&key.packed())?;
            let slot = sh.slots[slot_pos(slot_idx)].as_ref()?;
            slot.regs.register_vec()
        };
        let est = superloglog_estimate_from_registers(&regs);
        self.enforce_budget(shard, Some(key), rec);
        Some(est)
    }

    /// The raw register values of `key`'s sketch, if resident. Reads do
    /// not touch the LRU state or the cold tier.
    pub fn register_vec(&self, key: SketchKey) -> Option<Vec<u8>> {
        let sh = &self.shards[self.router.shard_of(key)];
        let slot_idx = *sh.index.get(&key.packed())?;
        Some(sh.slots[slot_pos(slot_idx)].as_ref()?.regs.register_vec())
    }

    /// True when `key` is resident (not spilled, not discarded).
    pub fn contains(&self, key: SketchKey) -> bool {
        self.shards[self.router.shard_of(key)]
            .index
            .contains_key(&key.packed())
    }

    /// Total resident sketches across shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    /// Total accounted bytes across shards.
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes).sum()
    }

    /// Point-in-time per-shard summaries, shard order.
    pub fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                resident: s.index.len(),
                bytes: s.bytes,
                peak_bytes: s.peak_bytes,
                inserts: s.inserts,
                evictions: s.evictions,
                spilled_bytes: s.spilled_bytes,
                recoveries: s.recoveries,
                failed_recoveries: s.failed_recoveries,
                promotions_packed: s.promotions_packed,
                promotions_dense: s.promotions_dense,
            })
            .collect()
    }

    /// Fold of the eviction sequence (shard, key, freed bytes, tick) —
    /// equal across two runs iff they evicted the same sketches in the
    /// same order at the same logical times.
    pub fn eviction_digest(&self) -> u64 {
        self.eviction_digest.finish()
    }

    /// Bump the logical clock and refresh `key`'s recency (recovering it
    /// from the cold tier if needed). `None` when the key is neither
    /// resident nor recoverable. A recovered blob is installed only if
    /// it decodes to a sketch of `m` registers; any other blob is
    /// counted and dropped, and the key restarts empty.
    fn touch(&mut self, shard: usize, key: SketchKey, rec: &mut dyn Recorder) -> Option<()> {
        self.ticks += 1;
        let now = self.ticks;
        if !self.shards[shard].index.contains_key(&key.packed()) {
            let wire = self.cold.recover(key)?;
            let Some(regs) = TieredRegisters::from_wire(&wire)
                .ok()
                .filter(|regs| regs.len() == self.cfg.m)
            else {
                rec.incr(names::SHARD_RECOVER_FAILED, 1);
                self.shards[shard].failed_recoveries += 1;
                return None;
            };
            rec.incr(names::SHARD_RECOVER, 1);
            self.shards[shard].recoveries += 1;
            self.install(shard, key, regs, now);
            return Some(());
        }
        let sh = &mut self.shards[shard];
        let slot_idx = *sh.index.get(&key.packed())?;
        let slot = sh.slots[slot_pos(slot_idx)].as_mut()?;
        sh.victims.remove(&(slot.last_access, key.packed()));
        slot.last_access = now;
        sh.victims.insert((now, key.packed()));
        Some(())
    }

    /// Apply one update to `shard` (creating or recovering the sketch as
    /// needed), keeping accounting exact.
    fn apply(
        &mut self,
        shard: usize,
        key: SketchKey,
        bucket: u16,
        rank: u8,
        rec: &mut dyn Recorder,
    ) {
        debug_assert!(usize::from(bucket) < self.cfg.m);
        if self.touch(shard, key, rec).is_none() {
            // Never seen (or discarded): a fresh empty sketch.
            self.ticks += 1;
            let now = self.ticks;
            self.install(shard, key, TieredRegisters::new(self.cfg.m), now);
        }
        let sh = &mut self.shards[shard];
        // The slot exists after touch/install; treat a miss as a no-op.
        let Some(&slot_idx) = sh.index.get(&key.packed()) else {
            return;
        };
        let Some(slot) = sh.slots[slot_pos(slot_idx)].as_mut() else {
            return;
        };
        let old_payload = slot.regs.payload_bytes() as u64;
        let promoted = slot
            .regs
            .observe(usize::from(bucket), rank.saturating_add(1));
        let new_payload = slot.regs.payload_bytes() as u64;
        sh.bytes = sh.bytes + new_payload - old_payload;
        sh.peak_bytes = sh.peak_bytes.max(sh.bytes);
        sh.inserts += 1;
        match promoted {
            Some(Tier::Packed) => {
                sh.promotions_packed += 1;
                rec.incr(names::SHARD_PROMOTE_PACKED, 1);
            }
            Some(Tier::Dense) => {
                sh.promotions_dense += 1;
                rec.incr(names::SHARD_PROMOTE_DENSE, 1);
            }
            _ => {}
        }
        rec.incr(names::SHARD_OBSERVE, 1);
    }

    /// Put `regs` into `shard` under `key`, charging its bytes.
    fn install(&mut self, shard: usize, key: SketchKey, regs: TieredRegisters, now: u64) {
        let sh = &mut self.shards[shard];
        let slot = Slot {
            key: key.packed(),
            regs,
            last_access: now,
        };
        let cost = SLOT_OVERHEAD + slot.regs.payload_bytes() as u64;
        sh.victims.insert((now, slot.key));
        let idx = match sh.free.pop() {
            Some(idx) => {
                sh.slots[slot_pos(idx)] = Some(slot);
                idx
            }
            None => {
                sh.slots.push(Some(slot));
                slot_id(sh.slots.len() - 1)
            }
        };
        sh.index.insert(key.packed(), idx);
        sh.bytes += cost;
        sh.peak_bytes = sh.peak_bytes.max(sh.bytes);
    }

    /// Evict until `shard` is within budget. `protect` (the key the
    /// current operation touched) is never chosen while any other
    /// resident sketch remains.
    fn enforce_budget(&mut self, shard: usize, protect: Option<SketchKey>, rec: &mut dyn Recorder) {
        let Some(budget) = self.cfg.budget_bytes else {
            return;
        };
        let protect = protect.map(SketchKey::packed);
        while self.shards[shard].bytes > budget {
            let victim = {
                let sh = &self.shards[shard];
                sh.victims
                    .iter()
                    .find(|&&(_, key)| Some(key) != protect || sh.index.len() == 1)
                    .copied()
            };
            let Some(entry) = victim else {
                return;
            };
            self.evict(shard, entry, rec);
            if Some(entry.1) == protect {
                // The protected key was the only resident sketch and
                // still exceeded the budget alone; nothing else to free.
                return;
            }
        }
    }

    /// Evict the slot named by `entry` from `shard`: uncharge, compress,
    /// spill, digest.
    fn evict(&mut self, shard: usize, entry: (u64, u64), rec: &mut dyn Recorder) {
        let key = entry.1;
        let sh = &mut self.shards[shard];
        sh.victims.remove(&entry);
        let Some(slot_idx) = sh.index.remove(&key) else {
            return;
        };
        let Some(mut slot) = sh.slots[slot_pos(slot_idx)].take() else {
            return;
        };
        sh.free.push(slot_idx);
        let freed = SLOT_OVERHEAD + slot.regs.payload_bytes() as u64;
        sh.bytes -= freed;
        sh.evictions += 1;
        slot.regs.compress();
        let wire = slot.regs.to_wire();
        sh.spilled_bytes += wire.len() as u64;
        rec.incr(names::SHARD_EVICT, 1);
        rec.observe(names::SHARD_SKETCH_BYTES, slot.regs.payload_bytes() as u64);
        rec.incr(names::SHARD_SPILL_BYTES, wire.len() as u64);
        self.eviction_digest.update(&slot_id(shard).to_le_bytes());
        self.eviction_digest.update(&key.to_le_bytes());
        self.eviction_digest.update(&freed.to_le_bytes());
        self.eviction_digest.update(&self.ticks.to_le_bytes());
        // Packed keys carry 32 bits by construction, so this narrowing
        // cannot fail.
        self.cold
            .spill(SketchKey::from_metric_id(dhs_core::checked_cast(key)), wire);
    }
}

/// Widen a slab index for `Vec` access.
fn slot_pos(v: u32) -> usize {
    v as usize
}

/// Narrow a slab position to its stored index.
#[expect(
    clippy::cast_possible_truncation,
    reason = "slab length is bounded by the resident sketch count, far below u32::MAX"
)]
fn slot_id(v: usize) -> u32 {
    v as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhs_obs::NoopRecorder;
    use dhs_sketch::{ItemHasher, SplitMix64};

    fn key(metric: u16) -> SketchKey {
        SketchKey::new(1, metric)
    }

    #[test]
    fn config_validation() {
        assert_eq!(
            ShardedStore::new(ShardConfig::new(0, 64)).err(),
            Some(ShardConfigError::ZeroShards)
        );
        assert_eq!(
            ShardedStore::new(ShardConfig::new(2, 48)).err(),
            Some(ShardConfigError::BadBuckets(48))
        );
        assert_eq!(
            ShardedStore::new(ShardConfig::new(2, 1 << 17)).err(),
            Some(ShardConfigError::BadBuckets(1 << 17))
        );
        assert!(ShardedStore::new(ShardConfig::new(2, 64)).is_ok());
    }

    #[test]
    fn accounting_is_exact_at_every_step() {
        let mut store = ShardedStore::new(ShardConfig::new(4, 64)).unwrap();
        let mut rec = NoopRecorder;
        let hasher = SplitMix64::default();
        for i in 0..500u64 {
            store.observe_item(key((i % 16) as u16), hasher.hash_u64(i), &mut rec);
            let recomputed: u64 = (0..16u16)
                .filter_map(|m| {
                    let k = key(m);
                    if store.contains(k) {
                        let shard = store.router().shard_of(k);
                        let sh = &store.shards[shard];
                        let idx = sh.index[&k.packed()];
                        sh.slots[slot_pos(idx)]
                            .as_ref()
                            .map(|s| SLOT_OVERHEAD + s.regs.payload_bytes() as u64)
                    } else {
                        None
                    }
                })
                .sum();
            assert_eq!(store.total_bytes(), recomputed, "after item {i}");
        }
        let stats = store.stats();
        assert_eq!(stats.iter().map(|s| s.resident).sum::<usize>(), 16);
        assert_eq!(stats.iter().map(|s| s.inserts).sum::<u64>(), 500);
        for s in &stats {
            assert!(s.peak_bytes >= s.bytes);
        }
    }

    #[test]
    fn lru_evicts_oldest_first_deterministically() {
        // One shard so recency order is global; budget fits two sketches.
        let budget = 2 * (SLOT_OVERHEAD + 16);
        let cfg = ShardConfig::new(1, 64).with_budget(budget);
        let mut store = ShardedStore::new(cfg).unwrap();
        let mut rec = NoopRecorder;
        // Each observe creates a sketch with 1 sparse entry (4 bytes).
        store.observe(key(0), 0, 1, &mut rec);
        store.observe(key(1), 0, 1, &mut rec);
        store.observe(key(2), 0, 1, &mut rec); // over budget → evict key(0)
        assert!(!store.contains(key(0)), "oldest evicted");
        assert!(store.contains(key(1)));
        assert!(store.contains(key(2)));
        // Touch key(1), then add key(3): key(2) is now oldest.
        store.observe(key(1), 1, 1, &mut rec);
        store.observe(key(3), 0, 1, &mut rec);
        assert!(!store.contains(key(2)));
        assert!(store.contains(key(1)));
        let stats = store.stats();
        assert_eq!(stats[0].evictions, 2);
        assert!(store.eviction_digest() != Fnv1a::new().finish());
    }

    #[test]
    fn spill_and_recover_roundtrip_preserves_estimates() {
        let budget = 2 * (SLOT_OVERHEAD + 200);
        let cfg = ShardConfig::new(1, 64).with_budget(budget);
        let mut store = ShardedStore::with_cold_tier(cfg, MemoryColdTier::new()).unwrap();
        let mut rec = NoopRecorder;
        let hasher = SplitMix64::default();
        // Build a well-filled sketch for key(9), then flood other keys to
        // evict it.
        for i in 0..5_000u64 {
            store.observe_item(key(9), hasher.hash_u64(i), &mut rec);
        }
        let before = store.estimate(key(9), &mut rec).unwrap();
        let regs_before = store.register_vec(key(9)).unwrap();
        for m in 10..30u16 {
            for i in 0..200u64 {
                store.observe_item(key(m), hasher.hash_u64(u64::from(m) << 32 | i), &mut rec);
            }
        }
        assert!(!store.contains(key(9)), "flooded out");
        assert!(!store.cold().is_empty());
        // Re-access recovers from the cold tier, bit-identically.
        let after = store.estimate(key(9), &mut rec).unwrap();
        assert_eq!(after.to_bits(), before.to_bits());
        assert_eq!(store.register_vec(key(9)).unwrap(), regs_before);
        let stats = store.stats();
        assert!(stats[0].recoveries >= 1);
        assert!(stats[0].spilled_bytes > 0);
    }

    /// A cold tier that hands back one fixed blob for whatever key asks.
    struct FixedCold(Option<Vec<u8>>);

    impl ColdTier for FixedCold {
        fn spill(&mut self, _key: SketchKey, _wire: Vec<u8>) {}
        fn recover(&mut self, _key: SketchKey) -> Option<Vec<u8>> {
            self.0.take()
        }
    }

    #[test]
    fn foreign_spill_of_another_m_is_refused_not_installed() {
        let mut foreign = TieredRegisters::new(16);
        foreign.observe(3, 5);
        let cold = FixedCold(Some(foreign.to_wire()));
        let mut store = ShardedStore::with_cold_tier(ShardConfig::new(1, 64), cold).unwrap();
        let mut rec = dhs_obs::Observer::new(1);
        // Register 40 exists at m = 64 but not in the 16-register blob.
        store.observe(key(7), 40, 2, &mut rec);
        let regs = store.register_vec(key(7)).unwrap();
        assert_eq!(regs.len(), 64);
        assert_eq!(
            (regs[3], regs[40]),
            (0, 3),
            "a fresh sketch took the update"
        );
        assert_eq!(store.stats()[0].failed_recoveries, 1);
        assert_eq!(store.stats()[0].recoveries, 0);
        assert_eq!(rec.metrics.counter(names::SHARD_RECOVER_FAILED), 1);
    }

    #[test]
    fn corrupt_spill_is_counted_not_silently_dropped() {
        let cold = FixedCold(Some(vec![0xFF, 1, 2]));
        let mut store = ShardedStore::with_cold_tier(ShardConfig::new(1, 64), cold).unwrap();
        let mut rec = dhs_obs::Observer::new(1);
        assert_eq!(store.estimate(key(7), &mut rec), None);
        assert_eq!(store.stats()[0].failed_recoveries, 1);
        assert_eq!(rec.metrics.counter(names::SHARD_RECOVER_FAILED), 1);
        // The store keeps running: the key restarts from an empty sketch.
        store.observe(key(7), 1, 0, &mut rec);
        assert!(store.estimate(key(7), &mut rec).is_some());
        assert_eq!(store.stats()[0].failed_recoveries, 1);
    }

    #[test]
    fn discard_cold_loses_evicted_sketches() {
        let cfg = ShardConfig::new(1, 64).with_budget(SLOT_OVERHEAD + 16);
        let mut store = ShardedStore::new(cfg).unwrap();
        let mut rec = NoopRecorder;
        store.observe(key(0), 0, 1, &mut rec);
        store.observe(key(1), 0, 1, &mut rec);
        assert!(!store.contains(key(0)));
        assert_eq!(store.estimate(key(0), &mut rec), None);
    }

    #[test]
    fn flush_equals_individual_observes() {
        let mut direct = ShardedStore::new(ShardConfig::new(4, 64)).unwrap();
        let mut batched = ShardedStore::new(ShardConfig::new(4, 64)).unwrap();
        let mut rec = NoopRecorder;
        let hasher = SplitMix64::default();
        let mut batch = FlushBatch::new();
        for i in 0..2_000u64 {
            let k = key((i % 32) as u16);
            let (bucket, rank) = classify_hash(hasher.hash_u64(i), 64);
            direct.observe(k, bucket, rank, &mut rec);
            batch.push(k, bucket, rank);
        }
        let report = batched.flush(&mut batch, &mut rec);
        assert_eq!(report.iter().map(|&(_, n)| n).sum::<u64>(), 2_000);
        for m in 0..32u16 {
            assert_eq!(
                direct.register_vec(key(m)),
                batched.register_vec(key(m)),
                "metric {m}"
            );
            let a = direct.estimate(key(m), &mut rec).unwrap();
            let b = batched.estimate(key(m), &mut rec).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
