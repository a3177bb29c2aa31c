//! N4 — the `dhs-shard` subsystem: a million tenant-scoped sketches in
//! one process, on tiered registers, under a memory budget.
//!
//! The paper's §4.2 histogram construction puts one sketch behind every
//! (user, bucket) pair; at Internet scale that is millions of concurrent
//! metrics, most nearly empty (Zipf tails) and a few dense. This
//! experiment drives the multi-tenant workload through the sharded store
//! and measures what the tiered register arena buys:
//!
//! * **compression** — mean payload bytes per resident sketch vs the
//!   dense `m`-byte baseline, plus the tier census the Zipf mix settles
//!   into (sparse tails, packed middle, dense head);
//! * **transparency** — the 8-shard store's registers and estimates must
//!   be byte-identical to a single-shard store fed the same stream;
//! * **eviction determinism** — under a budget of half the unbudgeted
//!   peak, two same-seed runs must produce equal eviction digests, and a
//!   lossless cold tier must leave every estimate bit-identical to the
//!   unbudgeted run.
//!
//! It ends with a state digest folding routing, tier promotions, every
//! estimate and the eviction order. `--scale` sizes the run: metrics =
//! scale × 10⁷ (0.1 ⇒ the paper-scale 10⁶-metric run).

use dhs_obs::{Fnv1a, NoopRecorder};
use dhs_shard::{MemoryColdTier, ShardConfig, ShardStats, ShardedStore, SketchKey, SLOT_OVERHEAD};
use dhs_sketch::{ItemHasher, SplitMix64};
use dhs_workload::TenantWorkload;

use crate::env::ExpConfig;
use crate::table::{f, Table};

/// Shards in the store under test.
const SHARDS: usize = 8;
/// Registers per sketch (64 keeps a million sketches in memory while the
/// dense baseline — one byte per register — is still meaningfully large).
const M: usize = 64;

/// The workload shape for `metrics` total metrics (clamped to ≥ 64).
/// Metrics land on tenants 1 000 at a time.
fn shard_workload_sized(metrics: u64) -> TenantWorkload {
    let goal = metrics.max(64);
    let (tenants, metrics_per_tenant) = if goal >= 1_000 {
        ((goal / 1_000).min(1 << 16) as u32, 1_000u32)
    } else {
        (1u32, goal as u32)
    };
    let total = u64::from(tenants) * u64::from(metrics_per_tenant);
    TenantWorkload {
        tenants,
        metrics_per_tenant,
        theta: 0.7,
        extra_updates: 3 * total,
    }
}

/// The workload: `scale × 10⁷` metrics, so the default `--scale 0.1` is
/// the full 10⁶-metric run. An explicit `metrics` (from an ablation plan
/// parameter) takes precedence. (Shared with N6, which saturates the
/// same workload through the threaded driver.)
pub(crate) fn shard_workload(exp: &ExpConfig, metrics: Option<u64>) -> TenantWorkload {
    shard_workload_sized(metrics.unwrap_or_else(|| (exp.scale * 1e7).round() as u64))
}

/// One pass of the workload through a store (any budget/cold-tier
/// configuration).
fn run_stream<C: dhs_shard::ColdTier>(
    w: &TenantWorkload,
    exp: &ExpConfig,
    mut store: ShardedStore<C>,
) -> ShardedStore<C> {
    let hasher = SplitMix64::default();
    let mut rec = NoopRecorder;
    w.visit(&mut exp.rng(0x5AAD_0002), |u| {
        store.observe_item(
            SketchKey::new(u.tenant, u.metric),
            hasher.hash_u64(u.item),
            &mut rec,
        );
    });
    store
}

/// Aggregates over per-shard stats.
struct Totals {
    resident: u64,
    bytes: u64,
    peak_bytes: u64,
    inserts: u64,
    evictions: u64,
    spilled_bytes: u64,
    recoveries: u64,
    promotions_packed: u64,
    promotions_dense: u64,
}

fn totals(stats: &[ShardStats]) -> Totals {
    let mut t = Totals {
        resident: 0,
        bytes: 0,
        peak_bytes: 0,
        inserts: 0,
        evictions: 0,
        spilled_bytes: 0,
        recoveries: 0,
        promotions_packed: 0,
        promotions_dense: 0,
    };
    for s in stats {
        t.resident += s.resident as u64;
        t.bytes += s.bytes;
        t.peak_bytes += s.peak_bytes;
        t.inserts += s.inserts;
        t.evictions += s.evictions;
        t.spilled_bytes += s.spilled_bytes;
        t.recoveries += s.recoveries;
        t.promotions_packed += s.promotions_packed;
        t.promotions_dense += s.promotions_dense;
    }
    t
}

/// Everything both the table view and the KPI view report.
struct ShardReport {
    workload: TenantWorkload,
    sharded_stats: Vec<ShardStats>,
    /// Registers and estimates identical to a single-shard store.
    transparent: bool,
    /// Budget used in the eviction phase (bytes, per shard).
    budget: u64,
    evict_stats: Vec<ShardStats>,
    evict_digest: u64,
    /// Two same-seed budgeted runs evicted identically.
    evict_deterministic: bool,
    /// Budgeted + lossless cold tier estimates == unbudgeted estimates.
    spill_lossless: bool,
    /// Fingerprint of the whole run: per-shard stats, every estimate
    /// and the eviction order.
    state_digest: u64,
}

/// Run every phase once; both views render from this. `metrics` (when
/// given, e.g. from an ablation-plan factor) overrides the workload size
/// `--scale` sets.
fn run_report(exp: &ExpConfig, metrics: Option<u64>) -> ShardReport {
    let w = shard_workload(exp, metrics);
    let mut rec = NoopRecorder;

    // Phase A: the sharded store, unlimited budget.
    let mut sharded = run_stream(
        &w,
        exp,
        ShardedStore::new(ShardConfig::new(SHARDS, M)).expect("valid config"),
    );
    let sharded_stats = sharded.stats();

    // Phase B: single-shard reference — sharding must be placement only.
    let mut single = run_stream(
        &w,
        exp,
        ShardedStore::new(ShardConfig::new(1, M)).expect("valid config"),
    );
    let mut transparent = true;
    let mut est_digest = Fnv1a::new();
    for tenant in 0..w.tenants {
        for metric in 0..w.metrics_per_tenant {
            let key = SketchKey::new(tenant as u16, metric as u16);
            transparent &= sharded.register_vec(key) == single.register_vec(key);
            let a = sharded.estimate(key, &mut rec);
            let b = single.estimate(key, &mut rec);
            transparent &= a.map(f64::to_bits) == b.map(f64::to_bits);
            est_digest.update(&key.packed().to_le_bytes());
            est_digest.update(&a.map_or(0, f64::to_bits).to_le_bytes());
        }
    }
    drop(single);

    // Phase C: budget = half the unbudgeted per-shard peak, lossless
    // cold tier. Run twice: digests must match; estimates must equal the
    // unbudgeted store's bit-for-bit (spill + recover is invisible).
    let peak_per_shard = sharded_stats
        .iter()
        .map(|s| s.peak_bytes)
        .max()
        .unwrap_or(0);
    let budget = (peak_per_shard / 2).max(4 * SLOT_OVERHEAD);
    let cfg = ShardConfig::new(SHARDS, M).with_budget(budget);
    let mut budgeted_a = run_stream(
        &w,
        exp,
        ShardedStore::with_cold_tier(cfg, MemoryColdTier::new()).unwrap(),
    );
    let budgeted_b = run_stream(
        &w,
        exp,
        ShardedStore::with_cold_tier(cfg, MemoryColdTier::new()).unwrap(),
    );
    let evict_deterministic = budgeted_a.eviction_digest() == budgeted_b.eviction_digest()
        && budgeted_a.stats() == budgeted_b.stats();
    drop(budgeted_b);
    let mut spill_lossless = true;
    for tenant in 0..w.tenants {
        for metric in 0..w.metrics_per_tenant {
            let key = SketchKey::new(tenant as u16, metric as u16);
            let a = sharded.estimate(key, &mut rec).map(f64::to_bits);
            let b = budgeted_a.estimate(key, &mut rec).map(f64::to_bits);
            spill_lossless &= a == b;
        }
    }
    let evict_stats = budgeted_a.stats();
    let evict_digest = budgeted_a.eviction_digest();

    // One fingerprint of everything above, printed for cross-run diffs.
    let mut state = Fnv1a::new();
    for s in &sharded_stats {
        state.update(&(s.resident as u64).to_le_bytes());
        state.update(&s.bytes.to_le_bytes());
        state.update(&s.peak_bytes.to_le_bytes());
        state.update(&s.inserts.to_le_bytes());
        state.update(&s.promotions_packed.to_le_bytes());
        state.update(&s.promotions_dense.to_le_bytes());
    }
    state.update(&est_digest.finish().to_le_bytes());
    state.update(&evict_digest.to_le_bytes());

    ShardReport {
        workload: w,
        sharded_stats,
        transparent,
        budget,
        evict_stats,
        evict_digest,
        evict_deterministic,
        spill_lossless,
        state_digest: state.finish(),
    }
}

/// N4's deterministic KPIs as `ablation.shard.*` metrics for the
/// dhs-traj harness: resident/insert/eviction/recovery totals as
/// counters and gauges, the fractional payload-bytes-per-sketch as a
/// fixed-point milli-unit gauge, and the three equivalence verdicts as
/// 0/1 gauges.
pub fn shard_kpi_metrics(exp: &ExpConfig, metrics: Option<u64>) -> dhs_obs::MetricsRegistry {
    use dhs_obs::names;
    let r = run_report(exp, metrics);
    let t = totals(&r.sharded_stats);
    let te = totals(&r.evict_stats);
    let milli = |x: f64| (x.max(0.0) * 1000.0).round() as u64;
    let mut m = dhs_obs::MetricsRegistry::new();
    m.gauge_set(names::ABL_SHARD_RESIDENT, t.resident);
    m.gauge_set(
        names::ABL_SHARD_PAYLOAD_BYTES,
        milli(payload_per_sketch(&t)),
    );
    m.incr(names::ABL_SHARD_INSERTS, t.inserts);
    m.incr(names::ABL_SHARD_EVICTIONS, te.evictions);
    m.incr(names::ABL_SHARD_RECOVERIES, te.recoveries);
    m.gauge_set(names::ABL_SHARD_TRANSPARENT, u64::from(r.transparent));
    m.gauge_set(names::ABL_SHARD_SPILL_LOSSLESS, u64::from(r.spill_lossless));
    m.gauge_set(
        names::ABL_SHARD_EVICT_DETERMINISTIC,
        u64::from(r.evict_deterministic),
    );
    m
}

/// Mean payload (register) bytes per resident sketch: accounted bytes
/// minus the fixed per-slot overhead, over the resident count.
fn payload_per_sketch(t: &Totals) -> f64 {
    if t.resident == 0 {
        return 0.0;
    }
    (t.bytes - t.resident * SLOT_OVERHEAD) as f64 / t.resident as f64
}

/// N4 — sharded multi-tenant store: compression, per-shard load, and
/// transparency/eviction equivalence checks.
pub fn shard(exp: &ExpConfig) -> String {
    let r = run_report(exp, None);
    let w = &r.workload;
    let t = totals(&r.sharded_stats);
    let te = totals(&r.evict_stats);
    let mut out = String::new();
    out.push_str(&format!(
        "N4 dhs-shard — {} metrics ({} tenants × {}), {} updates, {} shards, m = {}\n\
         tiered registers: sparse → packed (6-bit) → dense; budgeted phase evicts to a \
         lossless cold tier at half the unbudgeted peak\n\n",
        w.total_metrics(),
        w.tenants,
        w.metrics_per_tenant,
        w.total_updates(),
        SHARDS,
        M,
    ));

    let mut table = Table::new(&[
        "shard",
        "resident",
        "KB",
        "peak KB",
        "inserts",
        "→packed",
        "→dense",
    ]);
    for (i, s) in r.sharded_stats.iter().enumerate() {
        table.row(vec![
            i.to_string(),
            s.resident.to_string(),
            f(s.bytes as f64 / 1024.0, 1),
            f(s.peak_bytes as f64 / 1024.0, 1),
            s.inserts.to_string(),
            s.promotions_packed.to_string(),
            s.promotions_dense.to_string(),
        ]);
    }
    out.push_str(&format!("per shard (unbudgeted):\n{}\n", table.render()));

    // No evictions in the unbudgeted phase, so promotion counters are an
    // exact tier census: each sketch promotes at most once per tier.
    let dense = t.promotions_dense;
    let packed = t.promotions_packed - dense;
    let sparse = t.resident - t.promotions_packed;
    out.push_str(&format!(
        "tier census: {sparse} sparse, {packed} packed, {dense} dense of {} resident\n\
         memory: {:.1} payload B/sketch vs {M} B dense baseline ({:.1}% of dense), \
         {:.2} MB total (peak {:.2} MB incl. {}-B slot overhead)\n\n",
        t.resident,
        payload_per_sketch(&t),
        100.0 * payload_per_sketch(&t) / M as f64,
        t.bytes as f64 / (1024.0 * 1024.0),
        t.peak_bytes as f64 / (1024.0 * 1024.0),
        SLOT_OVERHEAD,
    ));

    out.push_str(&format!(
        "budgeted ({} B/shard, lossless cold tier): {} evictions, {:.2} MB spilled, \
         {} recoveries, eviction digest {:#018x}\n\n\
         state digest {:#018x} (per-shard stats, every estimate, eviction order)\n\n",
        r.budget,
        te.evictions,
        te.spilled_bytes as f64 / (1024.0 * 1024.0),
        te.recoveries,
        r.evict_digest,
        r.state_digest,
    ));

    out.push_str(&format!(
        "acceptance: payload bytes/sketch below the {M}-B dense baseline: {}\n\
         acceptance: sharded registers + estimates == single-shard (bit-identical): {}\n\
         acceptance: two budgeted runs evict identically (digest + stats): {}\n\
         acceptance: budgeted + lossless cold tier estimates == unbudgeted: {}\n",
        if payload_per_sketch(&t) < M as f64 {
            "PASS"
        } else {
            "FAIL"
        },
        if r.transparent { "PASS" } else { "FAIL" },
        if r.evict_deterministic {
            "PASS"
        } else {
            "FAIL"
        },
        if r.spill_lossless { "PASS" } else { "FAIL" },
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No clock reaches the report: two runs print the same text, every
    /// acceptance line passes, and the state digest is there to diff.
    #[test]
    fn report_is_reproducible_and_passes() {
        let exp = ExpConfig {
            scale: 0.0001, // 1 000 metrics
            ..ExpConfig::default()
        };
        let a = shard(&exp);
        assert_eq!(a, shard(&exp));
        assert!(!a.contains("FAIL"), "{a}");
        assert!(a.contains("\nstate digest 0x"), "{a}");
    }
}
