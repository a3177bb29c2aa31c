//! N5 — the dhs-traj ablation harness wired to the workspace benches.
//!
//! This module is the bridge between `dhs-traj`'s abstract plans and the
//! concrete N3/N4 measurements: a [`BenchRunner`] that applies a job's
//! parameters onto the CLI's [`ExpConfig`] and returns the measurement's
//! `ablation.*` metric registry, plus the four committed plans —
//! `n3-fastpath` and `n4-shard` (the full configurations, run by
//! `scripts/bench.sh` and appended to `registry/traj.csv`) and their
//! `smoke-*` counterparts (minutes-to-milliseconds scaled, run twice by
//! `scripts/check.sh` for the byte-identity and KPI-gate checks).
//!
//! The m = 512 job of `n3-fastpath` and the metrics = 10⁶ job of
//! `n4-shard` are exactly the default configurations of `repro
//! fastpath` / `repro shard`, so the registry rows and those tables are
//! two views of one measurement.

use dhs_obs::{MetricsRegistry, Observer};
use dhs_traj::{
    registry_query, run_ablation, AblationPlan, FactorValue, JobParams, JobRunner, KpiSource,
    Registry, Tolerance,
};

use crate::env::ExpConfig;
use crate::provenance;

/// Which bench measurement a plan drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunnerKind {
    /// N3 — the dhs-fast layer stack (`fastpath_kpi_metrics`).
    Fastpath,
    /// N4 — the sharded multi-tenant store (`shard_kpi_metrics`).
    Shard,
    /// N6 — the threaded saturation driver (`saturation_kpi_metrics`).
    Saturation,
}

/// [`JobRunner`] adapter: overlays a job's parameters onto a base
/// [`ExpConfig`] (the CLI's), pins the master seed, and runs the bench
/// measurement for [`RunnerKind`].
pub struct BenchRunner {
    /// CLI-level configuration the job parameters overlay.
    pub base: ExpConfig,
    /// Which measurement to run.
    pub kind: RunnerKind,
}

/// Overlay recognized job parameters (`m`, `k`, `nodes`, `trials`,
/// `scale`) onto `base`; the master seed always wins over the CLI seed
/// so every job of a run shares common random numbers.
#[allow(clippy::cast_possible_truncation)]
fn apply(base: &ExpConfig, params: &JobParams, seed: u64) -> ExpConfig {
    let mut e = *base;
    e.seed = seed;
    let int = |name: &str| params.get(name).and_then(|v| v.as_i64());
    if let Some(v) = int("m") {
        e.m = v.max(1) as usize;
    }
    if let Some(v) = int("k") {
        e.k = v.clamp(1, 64) as u32;
    }
    if let Some(v) = int("nodes") {
        e.nodes = v.max(1) as usize;
    }
    if let Some(v) = int("trials") {
        e.trials = v.max(1) as usize;
    }
    if let Some(v) = params.get("scale") {
        e.scale = v.as_f64().max(0.0);
    }
    e
}

impl JobRunner for BenchRunner {
    #[allow(clippy::cast_possible_truncation)]
    fn run(&mut self, params: &JobParams, seed: u64) -> Result<MetricsRegistry, String> {
        let exp = apply(&self.base, params, seed);
        match self.kind {
            RunnerKind::Fastpath => Ok(super::fastpath::fastpath_kpi_metrics(&exp)),
            RunnerKind::Shard => {
                let metrics = params
                    .get("metrics")
                    .and_then(|v| v.as_i64())
                    .map(|v| v.max(64) as u64);
                Ok(super::shard_exp::shard_kpi_metrics(&exp, metrics))
            }
            RunnerKind::Saturation => {
                let metrics = params
                    .get("metrics")
                    .and_then(|v| v.as_i64())
                    .map(|v| v.max(64) as u64);
                let threads = params
                    .get("threads")
                    .and_then(|v| v.as_i64())
                    .map_or(1, |v| v.clamp(1, 64) as usize);
                Ok(super::saturation::saturation_kpi_metrics(
                    &exp, threads, metrics,
                ))
            }
        }
    }
}

/// Exact-match gate: the measurements are deterministic, so any drift vs
/// the committed baseline is a real change (abs 1e-9 absorbs only float
/// re-association noise).
fn tight() -> Tolerance {
    Tolerance::default().with_rel(0.0)
}

/// A 0/1 invariant that must be exactly 1.
fn flag() -> Tolerance {
    tight().with_min(1.0).with_max(1.0).with_abs(0.0)
}

/// Attach the N3 KPI set to `plan`. `min_reduction` is the acceptance
/// floor on both reduction percentages (the full config clears 90; the
/// smoke config is given more room).
fn with_fastpath_kpis(plan: AblationPlan, min_reduction: f64) -> AblationPlan {
    use dhs_obs::names as n;
    plan.kpi(
        "hops_per_insert",
        KpiSource::PerUnit {
            num: n::ABL_HOPS_BASELINE.to_string(),
            den: n::ABL_ACCESSES.to_string(),
        },
        tight().with_min(0.5).with_max(64.0),
    )
    .kpi(
        "messages_per_epoch_baseline",
        KpiSource::PerUnit {
            num: n::ABL_MESSAGES_BASELINE.to_string(),
            den: n::ABL_EPOCHS.to_string(),
        },
        tight().with_min(1.0),
    )
    .kpi(
        "messages_per_epoch_optimized",
        KpiSource::PerUnit {
            num: n::ABL_MESSAGES_OPTIMIZED.to_string(),
            den: n::ABL_EPOCHS.to_string(),
        },
        tight().with_min(1.0),
    )
    .kpi(
        "message_reduction_pct",
        KpiSource::ReductionPct {
            base: n::ABL_MESSAGES_BASELINE.to_string(),
            opt: n::ABL_MESSAGES_OPTIMIZED.to_string(),
        },
        tight().with_min(min_reduction).with_max(100.0),
    )
    .kpi(
        "hop_reduction_pct",
        KpiSource::ReductionPct {
            base: n::ABL_HOPS_BASELINE.to_string(),
            opt: n::ABL_HOPS_OPTIMIZED.to_string(),
        },
        tight().with_min(min_reduction).with_max(100.0),
    )
    .kpi(
        "bytes_per_count_hinted",
        KpiSource::ScaledGauge {
            name: n::ABL_COUNT_BYTES_HINTED.to_string(),
            scale: 1000.0,
        },
        tight().with_min(1.0),
    )
    .kpi(
        "intervals_hinted",
        KpiSource::ScaledGauge {
            name: n::ABL_INTERVALS_HINTED.to_string(),
            scale: 1000.0,
        },
        tight().with_min(1.0),
    )
    .kpi(
        "equivalent",
        KpiSource::Gauge(n::ABL_EQUIVALENT.to_string()),
        flag(),
    )
}

/// Attach the N4 KPI set to `plan`.
fn with_shard_kpis(plan: AblationPlan) -> AblationPlan {
    use dhs_obs::names as n;
    plan.kpi(
        "payload_bytes_per_sketch",
        KpiSource::ScaledGauge {
            name: n::ABL_SHARD_PAYLOAD_BYTES.to_string(),
            scale: 1000.0,
        },
        tight().with_min(0.1).with_max(64.0),
    )
    .kpi(
        "resident",
        KpiSource::Gauge(n::ABL_SHARD_RESIDENT.to_string()),
        tight().with_min(1.0),
    )
    .kpi(
        "inserts",
        KpiSource::Counter(n::ABL_SHARD_INSERTS.to_string()),
        tight().with_min(1.0),
    )
    .kpi(
        "evictions",
        KpiSource::Counter(n::ABL_SHARD_EVICTIONS.to_string()),
        tight(),
    )
    .kpi(
        "recoveries",
        KpiSource::Counter(n::ABL_SHARD_RECOVERIES.to_string()),
        tight(),
    )
    .kpi(
        "transparent",
        KpiSource::Gauge(n::ABL_SHARD_TRANSPARENT.to_string()),
        flag(),
    )
    .kpi(
        "spill_lossless",
        KpiSource::Gauge(n::ABL_SHARD_SPILL_LOSSLESS.to_string()),
        flag(),
    )
    .kpi(
        "evict_deterministic",
        KpiSource::Gauge(n::ABL_SHARD_EVICT_DETERMINISTIC.to_string()),
        flag(),
    )
}

/// Attach the N6 KPI set to `plan`. `min_efficiency` is the acceptance
/// floor on per-thread efficiency (the sweep's worst thread count must
/// clear it; W = 1 is exactly 100).
fn with_saturation_kpis(plan: AblationPlan, min_efficiency: f64) -> AblationPlan {
    use dhs_obs::names as n;
    plan.kpi(
        "inserts",
        KpiSource::Counter(n::ABL_SAT_INSERTS.to_string()),
        tight().with_min(1.0),
    )
    .kpi(
        "threads",
        KpiSource::Gauge(n::ABL_SAT_THREADS.to_string()),
        tight().with_min(1.0).with_max(64.0),
    )
    .kpi(
        "virtual_speedup",
        KpiSource::ScaledGauge {
            name: n::ABL_SAT_SPEEDUP.to_string(),
            scale: 1000.0,
        },
        tight().with_min(1.0).with_max(64.0),
    )
    .kpi(
        "efficiency_pct",
        KpiSource::ScaledGauge {
            name: n::ABL_SAT_EFFICIENCY_PCT.to_string(),
            scale: 1000.0,
        },
        tight().with_min(min_efficiency).with_max(100.5),
    )
    .kpi(
        "merge_overhead_pct",
        KpiSource::ScaledGauge {
            name: n::ABL_SAT_MERGE_OVERHEAD_PCT.to_string(),
            scale: 1000.0,
        },
        tight().with_max(50.0),
    )
    .kpi(
        "digest_invariant",
        KpiSource::Gauge(n::ABL_SAT_DIGEST_INVARIANT.to_string()),
        flag(),
    )
}

/// The full N3 plan: bitmap-count sweep at the default configuration.
/// The m = 512 job is the `repro fastpath` measurement.
pub fn n3_fastpath_plan() -> AblationPlan {
    with_fastpath_kpis(
        AblationPlan::grid("n3-fastpath")
            .factor("m", vec![FactorValue::Int(256), FactorValue::Int(512)])
            .fix("k", FactorValue::Int(28))
            .fix("nodes", FactorValue::Int(256))
            .fix("scale", FactorValue::Float(0.1))
            .fix("trials", FactorValue::Int(10)),
        90.0,
    )
}

/// The full N4 plan: workload-size sweep. The metrics = 10⁶ job is the
/// `repro shard` measurement.
pub fn n4_shard_plan() -> AblationPlan {
    with_shard_kpis(AblationPlan::grid("n4-shard").factor(
        "metrics",
        vec![FactorValue::Int(100_000), FactorValue::Int(1_000_000)],
    ))
}

/// The full N6 plan: thread-count sweep over the N4 million-metric
/// workload: the four jobs are the four rows of `repro saturation`.
pub fn n6_saturation_plan() -> AblationPlan {
    with_saturation_kpis(
        AblationPlan::grid("n6-saturation")
            .factor(
                "threads",
                vec![
                    FactorValue::Int(1),
                    FactorValue::Int(2),
                    FactorValue::Int(4),
                    FactorValue::Int(8),
                ],
            )
            .fix("metrics", FactorValue::Int(1_000_000)),
        70.0,
    )
}

/// CI-scale N3 plan (sub-second jobs) for check.sh's two-run and gate
/// checks.
pub fn smoke_fastpath_plan() -> AblationPlan {
    with_fastpath_kpis(
        AblationPlan::grid("smoke-fastpath")
            .factor("m", vec![FactorValue::Int(32), FactorValue::Int(64)])
            .fix("k", FactorValue::Int(20))
            .fix("nodes", FactorValue::Int(32))
            .fix("scale", FactorValue::Float(0.01))
            .fix("trials", FactorValue::Int(2)),
        50.0,
    )
}

/// CI-scale N4 plan.
pub fn smoke_shard_plan() -> AblationPlan {
    with_shard_kpis(AblationPlan::grid("smoke-shard").factor(
        "metrics",
        vec![FactorValue::Int(2_000), FactorValue::Int(8_000)],
    ))
}

/// CI-scale N6 plan. The efficiency floor is looser than the full
/// plan's: at 2 000 metrics the fixed merge ticks weigh more.
pub fn smoke_saturation_plan() -> AblationPlan {
    with_saturation_kpis(
        AblationPlan::grid("smoke-saturation")
            .factor("threads", vec![FactorValue::Int(1), FactorValue::Int(2)])
            .fix("metrics", FactorValue::Int(2_000)),
        50.0,
    )
}

/// Plan names `repro ablate` accepts (`smoke` bundles both smoke plans).
pub const PLAN_NAMES: &[&str] = &[
    "n3-fastpath",
    "n4-shard",
    "n6-saturation",
    "smoke-fastpath",
    "smoke-shard",
    "smoke-saturation",
    "smoke",
];

/// Resolve a plan name to the plans it runs (with their runner kinds).
pub fn ablation_plans(which: &str) -> Option<Vec<(AblationPlan, RunnerKind)>> {
    match which {
        "n3-fastpath" => Some(vec![(n3_fastpath_plan(), RunnerKind::Fastpath)]),
        "n4-shard" => Some(vec![(n4_shard_plan(), RunnerKind::Shard)]),
        "n6-saturation" => Some(vec![(n6_saturation_plan(), RunnerKind::Saturation)]),
        "smoke-fastpath" => Some(vec![(smoke_fastpath_plan(), RunnerKind::Fastpath)]),
        "smoke-shard" => Some(vec![(smoke_shard_plan(), RunnerKind::Shard)]),
        "smoke-saturation" => Some(vec![(smoke_saturation_plan(), RunnerKind::Saturation)]),
        "smoke" => Some(vec![
            (smoke_fastpath_plan(), RunnerKind::Fastpath),
            (smoke_shard_plan(), RunnerKind::Shard),
        ]),
        _ => None,
    }
}

/// N5 — the ablation harness exercising itself at smoke scale: run both
/// smoke plans, list every KPI verdict, and render the trajectory table
/// the registry would accumulate.
pub fn trajectory(exp: &ExpConfig) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "N5 dhs-traj — smoke ablation plans through the bench runners, \
         master seed {} (common random numbers across jobs)\n\n",
        exp.seed
    ));
    let mut reg = Registry::new();
    let mut all_pass = true;
    for (plan, kind) in ablation_plans("smoke").expect("smoke is a known plan") {
        let mut runner = BenchRunner { base: *exp, kind };
        let mut obs = Observer::new(1);
        let report = match run_ablation(
            &plan,
            exp.seed,
            &mut runner,
            &provenance::commit(),
            &provenance::tool(),
            &mut obs,
        ) {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!("plan {}: INVALID ({e})\n", plan.name));
                all_pass = false;
                continue;
            }
        };
        all_pass &= report.all_pass();
        out.push_str(&format!(
            "plan {} (hash {}): {} jobs, {} KPI pass, {} fail — traj.job={} kpi.pass={}\n",
            plan.name,
            plan.plan_hash(),
            report.jobs.len(),
            report.kpis_passed(),
            report.failures(),
            obs.metrics.counter(dhs_obs::names::TRAJ_JOB),
            obs.metrics.counter(dhs_obs::names::TRAJ_KPI_PASS),
        ));
        reg.append_report(&report);
    }
    out.push('\n');
    out.push_str(&registry_query(&reg, None, None));
    out.push_str(&format!(
        "\nacceptance: every job of every smoke plan passes every declared KPI: {}\n",
        if all_pass { "PASS" } else { "FAIL" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry rows and `repro fastpath` must be two views of one
    /// measurement: the KPI counters equal the Zipf table's baseline and
    /// fully-stacked message/hop columns, and the equivalence gauge
    /// matches the printed verdict.
    #[test]
    fn kpi_metrics_agree_with_fastpath_table() {
        use dhs_obs::names;
        let exp = ExpConfig {
            nodes: 32,
            scale: 0.01,
            trials: 2,
            m: 32,
            k: 20,
            ..ExpConfig::default()
        };
        let table = super::super::fastpath::fastpath(&exp);
        let metrics = super::super::fastpath::fastpath_kpi_metrics(&exp);
        // First Zipf-table row whose layer name is `layer`: its
        // (messages, hops) columns.
        let row = |layer: &str| -> (u64, u64) {
            let cols: Vec<&str> = table
                .lines()
                .map(str::split_whitespace)
                .map(Iterator::collect)
                .find(|c: &Vec<&str>| c.first() == Some(&layer))
                .expect(layer);
            (cols[1].parse().unwrap(), cols[3].parse().unwrap())
        };
        let (base_msgs, base_hops) = row("baseline");
        let (opt_msgs, opt_hops) = row("+batching");
        assert_eq!(metrics.counter(names::ABL_MESSAGES_BASELINE), base_msgs);
        assert_eq!(metrics.counter(names::ABL_HOPS_BASELINE), base_hops);
        assert_eq!(metrics.counter(names::ABL_MESSAGES_OPTIMIZED), opt_msgs);
        assert_eq!(metrics.counter(names::ABL_HOPS_OPTIMIZED), opt_hops);
        let equivalent = table.contains("across all layers and hinted scans: PASS");
        assert_eq!(
            metrics.gauge(names::ABL_EQUIVALENT),
            Some(u64::from(equivalent))
        );
    }

    /// Every plan the CLI can name validates, expands, and hashes
    /// deterministically.
    #[test]
    fn named_plans_are_well_formed() {
        for name in PLAN_NAMES {
            for (plan, _) in ablation_plans(name).unwrap() {
                plan.validate().unwrap();
                let jobs = plan.expand().unwrap();
                assert!(!jobs.is_empty(), "{name} expands to no jobs");
                assert_eq!(plan.plan_hash(), plan.plan_hash());
            }
        }
        assert!(ablation_plans("nope").is_none());
    }

    /// The smoke plans really run end to end, pass their KPI envelopes,
    /// and append byte-identical registry rows across two executions —
    /// the property check.sh's two-run cmp enforces at script level.
    #[test]
    fn smoke_plans_pass_and_are_byte_stable() {
        let run = || {
            let mut out = String::new();
            for (plan, kind) in ablation_plans("smoke").unwrap() {
                let mut runner = BenchRunner {
                    base: ExpConfig::default(),
                    kind,
                };
                let report = run_ablation(
                    &plan,
                    7,
                    &mut runner,
                    "test",
                    "t",
                    &mut dhs_obs::NoopRecorder,
                )
                .unwrap();
                assert!(
                    report.all_pass(),
                    "{} failed: {}",
                    plan.name,
                    report.to_json()
                );
                out.push_str(&Registry::append_csv(&report));
            }
            out
        };
        assert_eq!(run(), run());
    }
}
