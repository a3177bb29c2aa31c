//! The multi-threaded sharded ingest driver.
//!
//! One OS worker thread per shard set (worker `w` owns every shard `s`
//! with `s % threads == w`), fed over bounded single-producer
//! single-consumer channels. The producer routes each update with the
//! same [`ShardRouter`] hash every worker's store uses, so a key's
//! whole update stream lands on exactly one worker — which is what
//! makes the fan-in deterministic:
//!
//! * each worker's recordings are per-item or per-key and commutative
//!   (counter adds, histogram merges), so absorbing worker registries
//!   yields the same [`MetricsRegistry`] digest under any partition;
//! * each *shard's* state digest is computed by its one owning worker
//!   over its full key set in key order, and shard digests fold in
//!   shard order — so the state digest is bit-identical at any thread
//!   count;
//! * each worker shuffles every received chunk with its own seeded RNG
//!   before applying it, deliberately stressing the register layer's
//!   order-insensitivity (max/bit-presence merges commute).
//!
//! Wall-clock speedup is *accounted*, not measured, in here: workers
//! tally virtual busy ticks (one per update applied, one per key
//! estimated), and the report derives serial/parallel critical paths
//! from them. That keeps this crate free of wall clocks (it replays
//! deterministically); the bench layer times the real run and combines
//! both views.

use dhs_obs::fnv::Fnv1a;
use dhs_obs::{names, MetricsRegistry, Observer};
use dhs_shard::{ShardConfig, ShardRouter, ShardedStore, SketchKey};
use dhs_sketch::hash::ItemHasher;
use dhs_sketch::SplitMix64;
use dhs_workload::TenantWorkload;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

/// Per-worker SPSC queue depth (chunks, not items).
const QUEUE_DEPTH: usize = 4;

/// Updates per SPSC chunk.
const CHUNK: usize = 1024;

/// Seed salt separating per-worker RNG streams from the workload's.
const WORKER_SALT: u64 = 0x5AAD_0006_D21A_7E01;

/// Configuration of one saturation run.
#[derive(Debug, Clone, Copy)]
pub struct SatConfig {
    /// Worker threads (≥ 1).
    pub threads: usize,
    /// Shards per store (each owned by exactly one worker).
    pub shards: usize,
    /// Registers per sketch.
    pub m: usize,
    /// Base seed for the per-worker chunk-shuffle RNGs.
    pub seed: u64,
}

impl SatConfig {
    /// The standard N6 geometry: 8 shards of 64-register sketches.
    pub fn new(threads: usize, seed: u64) -> Self {
        SatConfig {
            threads: threads.max(1),
            shards: 8,
            m: 64,
            seed,
        }
    }
}

/// One worker's contribution to the run.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Updates applied.
    pub items: u64,
    /// Distinct keys owned (and estimated in the digest pass).
    pub keys: u64,
    /// Chunks received over the SPSC queue.
    pub chunks: u64,
    /// Virtual busy ticks: one per update, one per key estimated.
    pub busy_ticks: u64,
}

/// The deterministic outcome of one saturation run.
#[derive(Debug, Clone)]
pub struct SatReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Total updates ingested.
    pub items: u64,
    /// Total distinct keys across all shards.
    pub keys: u64,
    /// Total chunks shipped over SPSC queues.
    pub chunks: u64,
    /// Shard-ordered fold of per-shard estimate digests. Bit-identical
    /// for the same seed at any thread count.
    pub state_digest: u64,
    /// Virtual ticks of the single-threaded fan-in merge.
    pub merge_ticks: u64,
    /// Virtual critical path of a 1-thread execution.
    pub serial_ticks: u64,
    /// Virtual critical path of this execution (slowest worker + merge).
    pub parallel_ticks: u64,
    /// Per-worker breakdown, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Fan-in merge of every worker's metric registry (plus `par.items`).
    pub registry: MetricsRegistry,
}

impl SatReport {
    /// Virtual speedup of this run over the 1-thread critical path.
    pub fn speedup(&self) -> f64 {
        if self.parallel_ticks == 0 {
            return 1.0;
        }
        self.serial_ticks as f64 / self.parallel_ticks as f64
    }

    /// Per-thread efficiency in percent (`speedup / threads × 100`).
    pub fn efficiency_pct(&self) -> f64 {
        self.speedup() / self.threads as f64 * 100.0
    }

    /// Fan-in merge share of the parallel critical path, in percent.
    pub fn merge_overhead_pct(&self) -> f64 {
        if self.parallel_ticks == 0 {
            return 0.0;
        }
        self.merge_ticks as f64 / self.parallel_ticks as f64 * 100.0
    }

    /// Digest of the merged metric registry.
    pub fn metrics_digest(&self) -> u64 {
        self.registry.digest()
    }
}

/// What one worker thread returns at join time.
struct WorkerOut {
    stats: WorkerStats,
    /// `(shard, digest, keys)` per owned shard, ascending shard order.
    shard_digests: Vec<(usize, u64, u64)>,
    registry: MetricsRegistry,
}

/// Ingest `workload` into a sharded store using `cfg.threads` workers
/// and return the deterministic fan-in report. `rng` drives the
/// workload stream itself (item choice), exactly as in the
/// single-threaded shard experiments; per-worker shuffle RNGs are
/// seeded from `cfg.seed`. A geometry no store accepts (`shards: 0`, an
/// `m` that is not a power of two) is an `Err`, not a panic.
pub fn run_saturation(
    cfg: &SatConfig,
    workload: &TenantWorkload,
    rng: &mut impl Rng,
) -> Result<SatReport, String> {
    // Checked here, on the caller's thread: `ShardRouter::new` asserts on
    // zero shards before any worker could report its own bad config.
    ShardedStore::new(ShardConfig::new(cfg.shards, cfg.m))
        .map_err(|e| format!("bad shard config: {e}"))?;
    let threads = cfg.threads.max(1);
    let router = ShardRouter::new(cfg.shards);
    let hasher = SplitMix64::default();
    let outs: Result<Vec<WorkerOut>, String> = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            let (tx, rx) = mpsc::sync_channel::<Vec<(SketchKey, u64)>>(QUEUE_DEPTH);
            senders.push(tx);
            let wcfg = *cfg;
            let mut shuffle_rng = StdRng::seed_from_u64(cfg.seed ^ WORKER_SALT ^ worker as u64);
            handles.push(scope.spawn(move || worker_loop(worker, &wcfg, &rx, &mut shuffle_rng)));
        }
        let mut bufs: Vec<Vec<(SketchKey, u64)>> =
            (0..threads).map(|_| Vec::with_capacity(CHUNK)).collect();
        let mut chunks = 0u64;
        workload.visit(rng, |u| {
            let key = SketchKey::new(u.tenant, u.metric);
            let worker = router.shard_of(key) % threads;
            bufs[worker].push((key, hasher.hash_u64(u.item)));
            if bufs[worker].len() >= CHUNK {
                chunks += 1;
                // A send only fails when the worker hung up; that
                // surfaces as the panic at join below.
                let _ = senders[worker].send(std::mem::take(&mut bufs[worker]));
            }
        });
        for (worker, buf) in bufs.into_iter().enumerate() {
            if !buf.is_empty() {
                chunks += 1;
                let _ = senders[worker].send(buf);
            }
        }
        drop(senders);
        let mut outs = Vec::with_capacity(threads);
        for handle in handles {
            let joined = handle
                .join()
                .map_err(|_| "saturation worker panicked".to_string())?;
            outs.push(joined?);
        }
        debug_assert_eq!(chunks, outs.iter().map(|o| o.stats.chunks).sum::<u64>());
        Ok(outs)
    });
    let outs = outs?;
    fan_in(cfg, threads, outs)
}

/// One worker: apply every received chunk (shuffled with the worker's
/// seeded RNG), then digest each owned shard in key order.
fn worker_loop(
    worker: usize,
    cfg: &SatConfig,
    rx: &mpsc::Receiver<Vec<(SketchKey, u64)>>,
    shuffle_rng: &mut impl Rng,
) -> Result<WorkerOut, String> {
    let mut store = ShardedStore::new(ShardConfig::new(cfg.shards, cfg.m))
        .map_err(|e| format!("worker {worker}: bad shard config: {e:?}"))?;
    let mut obs = Observer::new(1);
    let mut keys: BTreeMap<usize, BTreeSet<SketchKey>> = BTreeMap::new();
    let mut items = 0u64;
    let mut chunks = 0u64;
    loop {
        let received = rx.recv();
        let Ok(mut batch) = received else {
            break;
        };
        chunks += 1;
        // Apply the chunk in a seeded-random order: register merges
        // commute, so the final state must not depend on it.
        for i in (1..batch.len()).rev() {
            let j = shuffle_rng.gen_range(0..=i);
            batch.swap(i, j);
        }
        for (key, item_hash) in batch {
            let shard = store.router().shard_of(key);
            keys.entry(shard).or_default().insert(key);
            store.observe_item(key, item_hash, &mut obs);
            items += 1;
        }
    }
    let mut shard_digests = Vec::with_capacity(keys.len());
    let mut key_count = 0u64;
    for (&shard, set) in &keys {
        let mut h = Fnv1a::new();
        for &key in set {
            let estimate = store.estimate(key, &mut obs).unwrap_or(0.0);
            h.update(&key.packed().to_le_bytes());
            h.update(&estimate.to_bits().to_le_bytes());
            key_count += 1;
        }
        shard_digests.push((shard, h.finish(), set.len() as u64));
    }
    let busy_ticks = items + key_count;
    Ok(WorkerOut {
        stats: WorkerStats {
            worker,
            items,
            keys: key_count,
            chunks,
            busy_ticks,
        },
        shard_digests,
        registry: obs.metrics,
    })
}

/// Merge worker outputs deterministically: registries absorb in worker
/// order (commutative anyway), shard digests fold in shard order.
fn fan_in(cfg: &SatConfig, threads: usize, outs: Vec<WorkerOut>) -> Result<SatReport, String> {
    let mut registry = MetricsRegistry::new();
    let mut by_shard: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut workers = Vec::with_capacity(outs.len());
    for out in outs {
        registry.absorb(&out.registry);
        for (shard, digest, shard_keys) in out.shard_digests {
            if by_shard.insert(shard, (digest, shard_keys)).is_some() {
                return Err(format!("shard {shard} digested by two workers"));
            }
        }
        workers.push(out.stats);
    }
    let mut state = Fnv1a::new();
    for (&shard, &(digest, _)) in &by_shard {
        state.update(&(shard as u64).to_le_bytes());
        state.update(&digest.to_le_bytes());
    }
    let items: u64 = workers.iter().map(|w| w.items).sum();
    let keys: u64 = workers.iter().map(|w| w.keys).sum();
    let chunks: u64 = workers.iter().map(|w| w.chunks).sum();
    let max_busy = workers.iter().map(|w| w.busy_ticks).max().unwrap_or(0);
    let merge_ticks = cfg.shards as u64 + threads as u64;
    let serial_ticks = items + keys + cfg.shards as u64 + 1;
    let parallel_ticks = max_busy + merge_ticks;
    registry.incr(names::PAR_ITEMS, items);
    Ok(SatReport {
        threads,
        items,
        keys,
        chunks,
        state_digest: state.finish(),
        merge_ticks,
        serial_ticks,
        parallel_ticks,
        workers,
        registry,
    })
}
