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
//! * **throughput** — sustained inserts per second, total and per shard;
//! * **transparency** — the 8-shard store's registers and estimates must
//!   be byte-identical to a single-shard store fed the same stream;
//! * **eviction determinism** — under a budget of half the unbudgeted
//!   peak, two same-seed runs must produce equal eviction digests, and a
//!   lossless cold tier must leave every estimate bit-identical to the
//!   unbudgeted run.
//!
//! `DHS_SHARD_METRICS` overrides the metric count so CI can run the same
//! code paths at a fraction of the scale; the default derives from
//! `--scale` (0.1 ⇒ the paper-scale 10⁶-metric run).

use std::time::Instant;

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
/// Metrics land on tenants 1 000 at a time. (Shared with N6, which
/// saturates the same workload through the threaded driver.)
pub(crate) fn shard_workload_sized(metrics: u64) -> TenantWorkload {
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

/// The default workload: `DHS_SHARD_METRICS` (env) pins the metric
/// count; otherwise `scale × 10⁷`, so the default `--scale 0.1` is the
/// full 10⁶-metric run. An explicit `metrics` (from an ablation plan
/// parameter) takes precedence over both.
#[allow(clippy::cast_possible_truncation)]
fn shard_workload(exp: &ExpConfig, metrics: Option<u64>) -> TenantWorkload {
    let goal = metrics
        .or_else(|| {
            std::env::var("DHS_SHARD_METRICS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or_else(|| (exp.scale * 1e7).round() as u64);
    shard_workload_sized(goal)
}

/// One pass of the workload through a store (any budget/cold-tier
/// configuration), with wall-clock timing.
fn run_stream<C: dhs_shard::ColdTier>(
    w: &TenantWorkload,
    exp: &ExpConfig,
    mut store: ShardedStore<C>,
) -> (ShardedStore<C>, f64) {
    let hasher = SplitMix64::default();
    let mut rec = NoopRecorder;
    let start = Instant::now();
    w.visit(&mut exp.rng(0x5AAD_0002), |u| {
        store.observe_item(
            SketchKey::new(u.tenant, u.metric),
            hasher.hash_u64(u.item),
            &mut rec,
        );
    });
    let wall_s = start.elapsed().as_secs_f64();
    (store, wall_s)
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

/// Everything both the table view and the JSON view report.
struct ShardReport {
    workload: TenantWorkload,
    sharded_stats: Vec<ShardStats>,
    wall_s: f64,
    /// Registers and estimates identical to a single-shard store.
    transparent: bool,
    /// FNV over every (key, estimate-bits) pair of the sharded store.
    estimate_digest: u64,
    /// Budget used in the eviction phase (bytes, per shard).
    budget: u64,
    evict_stats: Vec<ShardStats>,
    evict_digest: u64,
    /// Two same-seed budgeted runs evicted identically.
    evict_deterministic: bool,
    /// Budgeted + lossless cold tier estimates == unbudgeted estimates.
    spill_lossless: bool,
    /// Deterministic fingerprint of the whole run (no wall-clock).
    state_digest: u64,
}

/// Run every phase once; both output formats render from this. `metrics`
/// (when given, e.g. from an ablation-plan factor) overrides the
/// workload size ahead of `DHS_SHARD_METRICS` and `--scale`.
fn run_report(exp: &ExpConfig, metrics: Option<u64>) -> ShardReport {
    let w = shard_workload(exp, metrics);
    let mut rec = NoopRecorder;

    // Phase A: the sharded store, unlimited budget.
    let (mut sharded, wall_s) = run_stream(
        &w,
        exp,
        ShardedStore::new(ShardConfig::new(SHARDS, M)).expect("valid config"),
    );
    let sharded_stats = sharded.stats();

    // Phase B: single-shard reference — sharding must be placement only.
    let (mut single, _) = run_stream(
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
    let (mut budgeted_a, _) = run_stream(
        &w,
        exp,
        ShardedStore::with_cold_tier(cfg, MemoryColdTier::new()).unwrap(),
    );
    let (budgeted_b, _) = run_stream(
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

    // A wall-clock-free fingerprint check.sh compares across two runs.
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
        wall_s,
        transparent,
        estimate_digest: est_digest.finish(),
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
/// 0/1 gauges. Throughput (wall-clock) is deliberately absent.
#[allow(clippy::cast_possible_truncation)]
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

/// N4 — sharded multi-tenant store: compression, throughput, and
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
        "ins/s",
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
            f(s.inserts as f64 / r.wall_s.max(1e-9), 0),
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
         {:.2} MB total (peak {:.2} MB incl. {}-B slot overhead)\n\
         throughput: {:.0} inserts/s total, {:.0} per shard ({:.2} s wall)\n\n",
        t.resident,
        payload_per_sketch(&t),
        100.0 * payload_per_sketch(&t) / M as f64,
        t.bytes as f64 / (1024.0 * 1024.0),
        t.peak_bytes as f64 / (1024.0 * 1024.0),
        SLOT_OVERHEAD,
        t.inserts as f64 / r.wall_s.max(1e-9),
        t.inserts as f64 / r.wall_s.max(1e-9) / SHARDS as f64,
        r.wall_s,
    ));

    out.push_str(&format!(
        "budgeted ({} B/shard, lossless cold tier): {} evictions, {:.2} MB spilled, \
         {} recoveries, eviction digest {:#018x}\n\n",
        r.budget,
        te.evictions,
        te.spilled_bytes as f64 / (1024.0 * 1024.0),
        te.recoveries,
        r.evict_digest,
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

/// The `repro bench-shard` payload: headline memory/throughput numbers as
/// a JSON object (written to `BENCH_shard.json` so future PRs can diff;
/// `state_digest` is wall-clock-free, so two same-seed runs emit files
/// that differ only in timing fields).
pub fn shard_bench_json(exp: &ExpConfig) -> String {
    let r = run_report(exp, None);
    let w = &r.workload;
    let t = totals(&r.sharded_stats);
    let te = totals(&r.evict_stats);
    let per_shard: Vec<String> = r
        .sharded_stats
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "    {{\"shard\": {i}, \"resident\": {}, \"bytes\": {}, \"peak_bytes\": {}, \
                 \"inserts\": {}, \"inserts_per_s\": {:.0}}}",
                s.resident,
                s.bytes,
                s.peak_bytes,
                s.inserts,
                s.inserts as f64 / r.wall_s.max(1e-9),
            )
        })
        .collect();
    let dense = t.promotions_dense;
    let packed = t.promotions_packed - dense;
    let sparse = t.resident - t.promotions_packed;
    let config_digest = crate::provenance::config_digest(&[
        ("experiment", "n4-shard".to_string()),
        ("metrics", w.total_metrics().to_string()),
        ("tenants", w.tenants.to_string()),
        ("metrics_per_tenant", w.metrics_per_tenant.to_string()),
        ("updates", w.total_updates().to_string()),
        ("shards", SHARDS.to_string()),
        ("m", M.to_string()),
        ("theta", w.theta.to_string()),
        ("seed", exp.seed.to_string()),
    ]);
    format!(
        "{{\n  \"experiment\": \"dhs-shard N4 (multi-tenant tiered store)\",\n  \
         \"config\": {{\n    \"metrics\": {},\n    \"tenants\": {},\n    \
         \"metrics_per_tenant\": {},\n    \"updates\": {},\n    \"shards\": {SHARDS},\n    \
         \"m\": {M},\n    \"theta\": {},\n    \"seed\": {}\n  }},\n  \
         \"provenance\": {},\n  \
         \"memory\": {{\n    \"resident_sketches\": {},\n    \
         \"payload_bytes_per_sketch\": {:.2},\n    \"dense_baseline_bytes_per_sketch\": {M},\n    \
         \"payload_vs_dense_pct\": {:.1},\n    \"total_bytes\": {},\n    \
         \"peak_bytes\": {},\n    \"slot_overhead_bytes\": {SLOT_OVERHEAD},\n    \
         \"tier_census\": {{\"sparse\": {sparse}, \"packed\": {packed}, \"dense\": {dense}}}\n  }},\n  \
         \"throughput\": {{\n    \"wall_s\": {:.3},\n    \"inserts_per_s\": {:.0},\n    \
         \"per_shard_inserts_per_s\": {:.0}\n  }},\n  \
         \"per_shard\": [\n{}\n  ],\n  \
         \"eviction\": {{\n    \"budget_bytes_per_shard\": {},\n    \"evictions\": {},\n    \
         \"spilled_bytes\": {},\n    \"recoveries\": {},\n    \
         \"digest\": \"{:#018x}\",\n    \"two_runs_identical\": {}\n  }},\n  \
         \"sharded_equals_single_shard\": {},\n  \
         \"lossless_spill_preserves_estimates\": {},\n  \
         \"estimate_digest\": \"{:#018x}\",\n  \"state_digest\": \"{:#018x}\"\n}}\n",
        w.total_metrics(),
        w.tenants,
        w.metrics_per_tenant,
        w.total_updates(),
        w.theta,
        exp.seed,
        crate::provenance::provenance_json(exp.seed, &config_digest),
        t.resident,
        payload_per_sketch(&t),
        100.0 * payload_per_sketch(&t) / M as f64,
        t.bytes,
        t.peak_bytes,
        r.wall_s,
        t.inserts as f64 / r.wall_s.max(1e-9),
        t.inserts as f64 / r.wall_s.max(1e-9) / SHARDS as f64,
        per_shard.join(",\n"),
        r.budget,
        te.evictions,
        te.spilled_bytes,
        te.recoveries,
        r.evict_digest,
        r.evict_deterministic,
        r.transparent,
        r.spill_lossless,
        r.estimate_digest,
        r.state_digest,
    )
}
