//! End-to-end determinism: two independent executions of the same plan
//! produce byte-identical registry artifacts — the property the
//! committed trajectory CSV and the check.sh two-run `cmp` rely on.
#![expect(clippy::unwrap_used, reason = "test helpers fail loudly")]

use dhs_obs::{names, MetricsRegistry, NoopRecorder, Observer};
use dhs_traj::{
    registry_query, run_ablation, AblationPlan, FactorValue, JobParams, JobRunner, KpiSource,
    Registry, Tolerance,
};

/// A deterministic toy workload: counters and gauges derived from the
/// params and seed by pure arithmetic, including a fractional KPI via a
/// milli-unit gauge so float formatting is exercised.
struct Toy;

impl JobRunner for Toy {
    fn run(&mut self, params: &JobParams, seed: u64) -> Result<MetricsRegistry, String> {
        let m_factor = params["m"].as_i64().unwrap() as u64;
        let nodes = params["nodes"].as_i64().unwrap() as u64;
        let mut m = MetricsRegistry::new();
        m.incr(names::ABL_MESSAGES_BASELINE, m_factor * nodes + seed % 7);
        m.incr(names::ABL_MESSAGES_OPTIMIZED, m_factor + seed % 7);
        m.incr(names::ABL_ACCESSES, m_factor * 3);
        m.gauge_set(names::ABL_INTERVALS_HINTED, nodes * 1375);
        Ok(m)
    }
}

fn plan() -> AblationPlan {
    AblationPlan::grid("toy-grid")
        .factor("m", vec![FactorValue::Int(64), FactorValue::Int(512)])
        .factor("nodes", vec![FactorValue::Int(16), FactorValue::Int(256)])
        .fix("scale", FactorValue::Float(0.1))
        .kpi(
            "messages",
            KpiSource::Counter(names::ABL_MESSAGES_BASELINE.to_string()),
            Tolerance::default().with_min(1.0),
        )
        .kpi(
            "reduction_pct",
            KpiSource::ReductionPct {
                base: names::ABL_MESSAGES_BASELINE.to_string(),
                opt: names::ABL_MESSAGES_OPTIMIZED.to_string(),
            },
            Tolerance::default(),
        )
        .kpi(
            "intervals",
            KpiSource::ScaledGauge {
                name: names::ABL_INTERVALS_HINTED.to_string(),
                scale: 1000.0,
            },
            Tolerance::default(),
        )
}

/// One full execution: report JSON, append fragment, full CSV, query table.
fn run_once() -> (String, String, String, String) {
    let mut obs = Observer::new(1);
    let report =
        run_ablation(&plan(), 42, &mut Toy, "deadbeef", "traj-test-0.1", &mut obs).unwrap();
    assert!(report.all_pass());
    let append = Registry::append_csv(&report);
    let mut reg = Registry::new();
    reg.append_report(&report);
    reg.append_report(&report);
    let table = registry_query(&reg, Some("toy-grid"), None);
    (report.to_json(), append, reg.to_csv(), table)
}

#[test]
fn two_runs_are_byte_identical() {
    let (json_a, append_a, csv_a, table_a) = run_once();
    let (json_b, append_b, csv_b, table_b) = run_once();
    assert_eq!(json_a, json_b);
    assert_eq!(append_a, append_b);
    assert_eq!(csv_a, csv_b);
    assert_eq!(table_a, table_b);
    // The fragment really is an append: file + fragment reparses cleanly
    // and the parse→render roundtrip is byte-stable.
    let reparsed = Registry::parse(&csv_a).unwrap();
    assert_eq!(reparsed.to_csv(), csv_a);
    // Fractional KPI survives the CSV roundtrip exactly.
    assert!(csv_a.contains(",22,") || csv_a.contains(",22.")); // intervals 22 for nodes=16
    assert!(append_a.lines().all(|l| l.split(',').count() == 12));
}

#[test]
fn gate_detects_perturbation_against_committed_baseline() {
    // Build the committed baseline from one run...
    let report = run_ablation(&plan(), 42, &mut Toy, "deadbeef", "t", &mut NoopRecorder).unwrap();
    let mut reg = Registry::new();
    reg.append_report(&report);
    let csv = reg.to_csv();
    // ...then perturb one value the way a silent regression would and
    // check the gate catches it while the clean report passes.
    let committed = Registry::parse(&csv).unwrap();
    assert!(committed.gate(&plan(), &report).is_empty());
    let mut drifted = report.clone();
    if let Some(k) = drifted.jobs[0].kpis.get_mut("messages") {
        k.value *= 1.01; // 1% drift > rel 1e-3
    }
    let violations = committed.gate(&plan(), &drifted);
    assert_eq!(violations.len(), 1);
    assert_eq!(violations[0].kpi, "messages");
}
