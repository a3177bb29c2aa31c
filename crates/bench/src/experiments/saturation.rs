//! N6 — the `dhs-par` threaded driver: inserts/sec saturation across
//! worker counts.
//!
//! The driver's determinism contract (state and metric digests identical
//! at any thread count — see DESIGN.md §dhs-par) means the *work* of a
//! saturation sweep is fixed; only its distribution across workers
//! varies. This experiment drives the N4 multi-tenant workload through
//! `dhs_par::run_saturation` at 1/2/4/8 workers and reports two views of
//! throughput, clearly labeled:
//!
//! * **measured** — wall-clock inserts/sec of each run on this machine.
//!   On a single-core CI box the threaded runs measure *slower* than
//!   W = 1 (the threads time-slice one core and pay queue overhead);
//!   these numbers are honest but machine-bound.
//! * **simulated-parallel** — the driver's virtual-tick accounting: each
//!   worker tallies one tick per update applied and per key digested,
//!   the fan-in merge tallies its own ticks, and speedup is the serial
//!   critical path over the parallel one. The headline "aggregate
//!   inserts/sec at W workers" is the measured W = 1 rate × the virtual
//!   speedup — what the same partition achieves with W real cores,
//!   because workers share no state until the deterministic fan-in.
//!
//! `DHS_SAT_METRICS` overrides the metric count the same way
//! `DHS_SHARD_METRICS` does for N4; the default derives from `--scale`
//! (0.1 ⇒ the paper-scale 10⁶-metric workload).

use std::time::Instant;

use dhs_obs::MetricsRegistry;
use dhs_par::{run_saturation, SatConfig, SatReport};
use dhs_workload::TenantWorkload;

use crate::env::ExpConfig;
use crate::table::{f, Table};

/// The thread counts the sweep visits.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// RNG stream label for the workload item stream (distinct from N4's so
/// the two experiments draw independent streams from one master seed).
const STREAM: u64 = 0x5AAD_0006;

/// The N6 workload: `DHS_SAT_METRICS` (env) pins the metric count;
/// otherwise `scale × 10⁷`. An explicit `metrics` (from an ablation-plan
/// parameter) takes precedence over both.
#[allow(clippy::cast_possible_truncation)]
fn sat_workload(exp: &ExpConfig, metrics: Option<u64>) -> TenantWorkload {
    let goal = metrics
        .or_else(|| {
            std::env::var("DHS_SAT_METRICS")
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .unwrap_or_else(|| (exp.scale * 1e7).round() as u64);
    super::shard_exp::shard_workload_sized(goal)
}

/// One timed driver run at `threads` workers.
fn run_once(exp: &ExpConfig, w: &TenantWorkload, threads: usize) -> (SatReport, f64) {
    let cfg = SatConfig::new(threads, exp.seed);
    let start = Instant::now();
    let report =
        run_saturation(&cfg, w, &mut exp.rng(STREAM)).expect("saturation driver must not fail");
    (report, start.elapsed().as_secs_f64())
}

/// N6's deterministic KPIs as `ablation.sat.*` metrics for the dhs-traj
/// harness: the insert total as a counter, thread count and the three
/// derived ratios as (fixed-point milli) gauges, and the digest-
/// invariance verdict — state *and* metric digests at `threads` workers
/// equal to the 1-worker run's — as a 0/1 gauge. Wall-clock throughput
/// is deliberately absent: registry rows must be machine-independent.
#[allow(clippy::cast_possible_truncation)]
pub fn saturation_kpi_metrics(
    exp: &ExpConfig,
    threads: usize,
    metrics: Option<u64>,
) -> MetricsRegistry {
    use dhs_obs::names;
    let w = sat_workload(exp, metrics);
    let cfg = SatConfig::new(threads, exp.seed);
    let report =
        run_saturation(&cfg, &w, &mut exp.rng(STREAM)).expect("saturation driver must not fail");
    let invariant = if threads == 1 {
        true
    } else {
        let base = run_saturation(&SatConfig::new(1, exp.seed), &w, &mut exp.rng(STREAM))
            .expect("saturation driver must not fail");
        base.state_digest == report.state_digest && base.metrics_digest() == report.metrics_digest()
    };
    let milli = |x: f64| (x.max(0.0) * 1000.0).round() as u64;
    let mut m = MetricsRegistry::new();
    m.incr(names::ABL_SAT_INSERTS, report.items);
    m.gauge_set(names::ABL_SAT_THREADS, report.threads as u64);
    m.gauge_set(names::ABL_SAT_SPEEDUP, milli(report.speedup()));
    m.gauge_set(
        names::ABL_SAT_EFFICIENCY_PCT,
        milli(report.efficiency_pct()),
    );
    m.gauge_set(
        names::ABL_SAT_MERGE_OVERHEAD_PCT,
        milli(report.merge_overhead_pct()),
    );
    m.gauge_set(names::ABL_SAT_DIGEST_INVARIANT, u64::from(invariant));
    m
}

/// Everything both output formats report about one sweep.
struct SweepReport {
    workload: TenantWorkload,
    /// `(report, wall_s)` per thread count, in [`SWEEP`] order.
    runs: Vec<(SatReport, f64)>,
    /// State and metric digests identical across every thread count.
    digests_invariant: bool,
}

/// Run the full thread sweep once.
fn run_sweep(exp: &ExpConfig, metrics: Option<u64>) -> SweepReport {
    let workload = sat_workload(exp, metrics);
    let runs: Vec<(SatReport, f64)> = SWEEP
        .iter()
        .map(|&threads| run_once(exp, &workload, threads))
        .collect();
    let (base, _) = &runs[0];
    let digests_invariant = runs.iter().all(|(r, _)| {
        r.state_digest == base.state_digest && r.metrics_digest() == base.metrics_digest()
    });
    SweepReport {
        workload,
        runs,
        digests_invariant,
    }
}

/// N6 — threaded-driver saturation sweep: measured and
/// simulated-parallel inserts/sec at 1/2/4/8 workers.
pub fn saturation(exp: &ExpConfig) -> String {
    let s = run_sweep(exp, None);
    let w = &s.workload;
    let base_rate = {
        let (r, wall) = &s.runs[0];
        r.items as f64 / wall.max(1e-9)
    };
    let mut out = String::new();
    out.push_str(&format!(
        "N6 dhs-par — {} metrics ({} tenants × {}), {} updates through the \
         threaded sharded driver\n\
         measured = wall clock on this machine; simulated-parallel = measured \
         W=1 rate × virtual-tick speedup (workers share no state until the \
         deterministic fan-in)\n\n",
        w.total_metrics(),
        w.tenants,
        w.metrics_per_tenant,
        w.total_updates(),
    ));
    let mut table = Table::new(&[
        "threads",
        "items",
        "chunks",
        "wall s",
        "measured ins/s",
        "speedup",
        "eff %",
        "merge %",
        "sim-par ins/s",
    ]);
    for (r, wall) in &s.runs {
        table.row(vec![
            r.threads.to_string(),
            r.items.to_string(),
            r.chunks.to_string(),
            f(*wall, 2),
            f(r.items as f64 / wall.max(1e-9), 0),
            f(r.speedup(), 2),
            f(r.efficiency_pct(), 1),
            f(r.merge_overhead_pct(), 2),
            f(base_rate * r.speedup(), 0),
        ]);
    }
    out.push_str(&table.render());
    let (base, _) = &s.runs[0];
    let speedup4 = s
        .runs
        .iter()
        .find(|(r, _)| r.threads == 4)
        .map_or(0.0, |(r, _)| r.speedup());
    out.push_str(&format!(
        "\nstate digest {:#018x}, metric digest {:#018x} (each identical at \
         every thread count: {})\n\n\
         acceptance: simulated-parallel aggregate at 4 workers ≥ 3× the W=1 \
         rate ({:.2}×): {}\n\
         acceptance: state + metric digests invariant across thread counts: {}\n",
        base.state_digest,
        base.metrics_digest(),
        s.digests_invariant,
        speedup4,
        if speedup4 >= 3.0 { "PASS" } else { "FAIL" },
        if s.digests_invariant { "PASS" } else { "FAIL" },
    ));
    out
}

/// The `repro bench-sat` payload: the saturation sweep as a JSON object
/// (written to `BENCH_sat.json` so future PRs can diff). Both throughput
/// views are emitted under explicit names; `state_digest` and the
/// per-run virtual-tick fields are wall-clock-free, so two same-seed
/// runs emit files that differ only in timing fields.
pub fn saturation_bench_json(exp: &ExpConfig) -> String {
    let s = run_sweep(exp, None);
    let w = &s.workload;
    let base_rate = {
        let (r, wall) = &s.runs[0];
        r.items as f64 / wall.max(1e-9)
    };
    let cfg = SatConfig::new(1, exp.seed);
    let per_run: Vec<String> = s
        .runs
        .iter()
        .map(|(r, wall)| {
            format!(
                "    {{\"threads\": {}, \"items\": {}, \"chunks\": {}, \
                 \"wall_s\": {:.3}, \"measured_inserts_per_s\": {:.0}, \
                 \"serial_ticks\": {}, \"parallel_ticks\": {}, \
                 \"merge_ticks\": {}, \"virtual_speedup\": {:.4}, \
                 \"efficiency_pct\": {:.2}, \"merge_overhead_pct\": {:.3}, \
                 \"simulated_parallel_inserts_per_s\": {:.0}}}",
                r.threads,
                r.items,
                r.chunks,
                wall,
                r.items as f64 / wall.max(1e-9),
                r.serial_ticks,
                r.parallel_ticks,
                r.merge_ticks,
                r.speedup(),
                r.efficiency_pct(),
                r.merge_overhead_pct(),
                base_rate * r.speedup(),
            )
        })
        .collect();
    let speedup4 = s
        .runs
        .iter()
        .find(|(r, _)| r.threads == 4)
        .map_or(0.0, |(r, _)| r.speedup());
    let (base, _) = &s.runs[0];
    let config_digest = crate::provenance::config_digest(&[
        ("experiment", "n6-saturation".to_string()),
        ("metrics", w.total_metrics().to_string()),
        ("tenants", w.tenants.to_string()),
        ("metrics_per_tenant", w.metrics_per_tenant.to_string()),
        ("updates", w.total_updates().to_string()),
        ("shards", cfg.shards.to_string()),
        ("m", cfg.m.to_string()),
        ("chunk", cfg.chunk.to_string()),
        ("theta", w.theta.to_string()),
        ("seed", exp.seed.to_string()),
    ]);
    format!(
        "{{\n  \"experiment\": \"dhs-par N6 (threaded driver saturation)\",\n  \
         \"methodology\": \"simulated-parallel: virtual-tick speedup over the \
         measured single-worker wall rate; measured rates are also emitted \
         per run\",\n  \
         \"config\": {{\n    \"metrics\": {},\n    \"tenants\": {},\n    \
         \"metrics_per_tenant\": {},\n    \"updates\": {},\n    \
         \"shards\": {},\n    \"m\": {},\n    \"chunk\": {},\n    \
         \"theta\": {},\n    \"seed\": {}\n  }},\n  \
         \"provenance\": {},\n  \
         \"runs\": [\n{}\n  ],\n  \
         \"headline\": {{\n    \"measured_w1_inserts_per_s\": {:.0},\n    \
         \"virtual_speedup_at_4\": {:.4},\n    \
         \"aggregate_inserts_per_s_at_4\": {:.0},\n    \
         \"speedup_at_4_at_least_3x\": {}\n  }},\n  \
         \"digests_invariant_across_threads\": {},\n  \
         \"metric_digest\": \"{:#018x}\",\n  \"state_digest\": \"{:#018x}\"\n}}\n",
        w.total_metrics(),
        w.tenants,
        w.metrics_per_tenant,
        w.total_updates(),
        cfg.shards,
        cfg.m,
        cfg.chunk,
        w.theta,
        exp.seed,
        crate::provenance::provenance_json(exp.seed, &config_digest),
        per_run.join(",\n"),
        base_rate,
        speedup4,
        base_rate * speedup4,
        speedup4 >= 3.0,
        s.digests_invariant,
        base.metrics_digest(),
        base.state_digest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.0001, // 1 000 metrics
            ..ExpConfig::default()
        }
    }

    /// The KPI registry is deterministic and carries the invariance flag.
    #[test]
    fn kpi_metrics_are_deterministic_and_invariant() {
        use dhs_obs::names;
        let exp = tiny();
        let a = saturation_kpi_metrics(&exp, 4, Some(1_000));
        let b = saturation_kpi_metrics(&exp, 4, Some(1_000));
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.gauge(names::ABL_SAT_DIGEST_INVARIANT), Some(1));
        assert_eq!(a.gauge(names::ABL_SAT_THREADS), Some(4));
        assert!(a.counter(names::ABL_SAT_INSERTS) > 0);
        // Virtual speedup at 4 workers beats 2× even at this tiny scale.
        assert!(a.gauge(names::ABL_SAT_SPEEDUP).unwrap_or(0) > 2_000);
    }

    /// The BENCH JSON and the table agree on the acceptance verdicts.
    #[test]
    fn bench_json_reports_invariant_digests() {
        let exp = tiny();
        let json = saturation_bench_json(&exp);
        assert!(json.contains("\"digests_invariant_across_threads\": true"));
        assert!(json.contains("\"speedup_at_4_at_least_3x\": true"));
    }
}
