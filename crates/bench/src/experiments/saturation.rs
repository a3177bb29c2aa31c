//! N6 — the `dhs-par` threaded driver: saturation across worker counts.
//!
//! The driver's determinism contract (state and metric digests identical
//! at any thread count — see DESIGN.md §dhs-par) means the *work* of a
//! saturation sweep is fixed; only its distribution across workers
//! varies. This experiment drives the N4 multi-tenant workload through
//! `dhs_par::run_saturation` at 1/2/4/8 workers and reports the driver's
//! virtual-tick accounting: each worker tallies one tick per update
//! applied and per key digested, the fan-in merge tallies its own ticks,
//! and speedup is the serial critical path over the parallel one. That
//! speedup is a model output; the driver's wall-clock rate is measured
//! by the `benchmark/` crate, not here.
//!
//! `--scale` sizes the workload as it does for N4: metrics = scale × 10⁷
//! (0.1 ⇒ the paper-scale 10⁶-metric workload).

use dhs_obs::MetricsRegistry;
use dhs_par::{run_saturation, SatConfig, SatReport};
use dhs_workload::TenantWorkload;

use super::shard_exp::shard_workload;
use crate::env::ExpConfig;
use crate::table::{f, Table};

/// The thread counts the sweep visits.
const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// RNG stream label for the workload item stream (distinct from N4's so
/// the two experiments draw independent streams from one master seed).
const STREAM: u64 = 0x5AAD_0006;

/// One driver run at `threads` workers.
fn run_once(exp: &ExpConfig, w: &TenantWorkload, threads: usize) -> SatReport {
    run_saturation(&SatConfig::new(threads, exp.seed), w, &mut exp.rng(STREAM))
        .expect("saturation driver must not fail")
}

/// N6's deterministic KPIs as `ablation.sat.*` metrics for the dhs-traj
/// harness: the insert total as a counter, thread count and the three
/// derived ratios as (fixed-point milli) gauges, and the digest-
/// invariance verdict — state *and* metric digests at `threads` workers
/// equal to the 1-worker run's — as a 0/1 gauge. Wall-clock throughput
/// is deliberately absent: registry rows must be machine-independent.
pub fn saturation_kpi_metrics(
    exp: &ExpConfig,
    threads: usize,
    metrics: Option<u64>,
) -> MetricsRegistry {
    use dhs_obs::names;
    let w = shard_workload(exp, metrics);
    let report = run_once(exp, &w, threads);
    let invariant = if threads == 1 {
        true
    } else {
        let base = run_once(exp, &w, 1);
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

/// N6 — threaded-driver saturation sweep: virtual-tick speedup,
/// efficiency and merge overhead at 1/2/4/8 workers, with the
/// thread-count digest-invariance check.
pub fn saturation(exp: &ExpConfig) -> String {
    let w = shard_workload(exp, None);
    let runs: Vec<SatReport> = SWEEP
        .iter()
        .map(|&threads| run_once(exp, &w, threads))
        .collect();
    let base = &runs[0];
    let digests_invariant = runs.iter().all(|r| {
        r.state_digest == base.state_digest && r.metrics_digest() == base.metrics_digest()
    });
    let mut out = String::new();
    out.push_str(&format!(
        "N6 dhs-par — {} metrics ({} tenants × {}), {} updates through the \
         threaded sharded driver\n\
         speedup = virtual-tick serial / parallel critical path (workers share \
         no state until the deterministic fan-in)\n\n",
        w.total_metrics(),
        w.tenants,
        w.metrics_per_tenant,
        w.total_updates(),
    ));
    let mut table = Table::new(&["threads", "items", "chunks", "speedup", "eff %", "merge %"]);
    for r in &runs {
        table.row(vec![
            r.threads.to_string(),
            r.items.to_string(),
            r.chunks.to_string(),
            f(r.speedup(), 2),
            f(r.efficiency_pct(), 1),
            f(r.merge_overhead_pct(), 2),
        ]);
    }
    out.push_str(&table.render());
    let speedup4 = runs
        .iter()
        .find(|r| r.threads == 4)
        .map_or(0.0, SatReport::speedup);
    out.push_str(&format!(
        "\nstate digest {:#018x}, metric digest {:#018x} (each identical at \
         every thread count: {})\n\n\
         acceptance: virtual speedup at 4 workers ≥ 3× ({:.2}×): {}\n\
         acceptance: state + metric digests invariant across thread counts: {}\n",
        base.state_digest,
        base.metrics_digest(),
        digests_invariant,
        speedup4,
        if speedup4 >= 3.0 { "PASS" } else { "FAIL" },
        if digests_invariant { "PASS" } else { "FAIL" },
    ));
    out
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

    /// No clock reaches the report: two runs print the same text, and
    /// every acceptance line passes at this scale.
    #[test]
    fn report_is_reproducible_and_passes() {
        let exp = tiny();
        let a = saturation(&exp);
        assert_eq!(a, saturation(&exp));
        assert!(!a.contains("FAIL"), "{a}");
    }
}
