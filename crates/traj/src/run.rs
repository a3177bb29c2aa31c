//! Plan execution: run every job, extract KPIs, attach verdicts.
//!
//! The harness is deliberately ignorant of what a job *does* — callers
//! hand it a [`JobRunner`] that maps `(params, seed)` to a finished
//! [`MetricsRegistry`], and everything downstream (KPI extraction,
//! tolerance verdicts, registry rows) works off that registry and its
//! FNV digest. Every job receives the same master seed (common random
//! numbers), so KPI differences between jobs measure the factors, not
//! the draw.

use std::collections::BTreeMap;

use dhs_obs::{names, MetricsRegistry, Recorder};

use crate::plan::{params_string, AblationPlan, JobParams, KpiSource, PlanError};

/// Execute one ablation job: produce the metric registry the KPIs are
/// extracted from, or a textual error.
pub trait JobRunner {
    /// Run the job described by `params` with the master `seed`.
    fn run(&mut self, params: &JobParams, seed: u64) -> Result<MetricsRegistry, String>;
}

/// Outcome of one KPI check within one job.
#[derive(Debug, Clone, PartialEq)]
pub enum KpiVerdict {
    /// Value extracted and inside the plan's `[min, max]` envelope.
    Pass,
    /// Value extracted but outside the envelope.
    OutOfBounds,
    /// Extraction or comparison failed (missing metric, NaN, …).
    Invalid(String),
}

/// One KPI's extracted value and verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct KpiResult {
    /// Extracted value (0.0 when the verdict is `Invalid`).
    pub value: f64,
    /// Pass / out-of-bounds / invalid.
    pub verdict: KpiVerdict,
}

/// One executed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's full parameter assignment (factors overlaid on fixed).
    pub params: JobParams,
    /// KPI results in name order.
    pub kpis: BTreeMap<String, KpiResult>,
    /// FNV digest of the job's metric snapshot — the job's provenance.
    pub digest: u64,
    /// Runner error, if the job never produced a registry.
    pub error: Option<String>,
}

impl JobReport {
    /// Did every KPI pass (and the runner succeed)?
    pub fn passed(&self) -> bool {
        self.error.is_none() && self.kpis.values().all(|k| k.verdict == KpiVerdict::Pass)
    }
}

/// Who/what produced a report — everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// FNV-1a hash of the canonical plan, 16 hex digits.
    pub plan_hash: String,
    /// Master seed shared by every job.
    pub seed: u64,
    /// FNV-1a digest of plan canonical + seed, 16 hex digits.
    pub config_digest: String,
    /// VCS commit id (callers usually read `DHS_COMMIT`), or `unknown`.
    pub commit: String,
    /// Version of the producing tool.
    pub tool: String,
}

impl Provenance {
    /// Provenance for `plan` run with `seed`, stamped with `commit` and
    /// `tool`. Empty strings collapse to `unknown`; commas and newlines
    /// are squashed so the fields embed safely in CSV rows.
    pub fn new(plan: &AblationPlan, seed: u64, commit: &str, tool: &str) -> Self {
        let clean = |s: &str| {
            let s: String = s
                .chars()
                .map(|c| {
                    if c == ',' || c == '\n' || c == '\r' {
                        '_'
                    } else {
                        c
                    }
                })
                .collect();
            if s.is_empty() {
                "unknown".to_string()
            } else {
                s
            }
        };
        let mut h = dhs_obs::Fnv1a::new();
        h.update(plan.canonical().as_bytes());
        h.update(&seed.to_le_bytes());
        Provenance {
            plan_hash: plan.plan_hash(),
            seed,
            config_digest: format!("{:016x}", h.finish()),
            commit: clean(commit),
            tool: clean(tool),
        }
    }
}

/// The full result of executing a plan.
#[derive(Debug, Clone)]
pub struct AblationReport {
    /// Plan name.
    pub plan: String,
    /// Reproduction stamp.
    pub provenance: Provenance,
    /// One entry per expanded job, in expansion order.
    pub jobs: Vec<JobReport>,
}

impl AblationReport {
    /// Did every job pass every KPI?
    pub fn all_pass(&self) -> bool {
        self.jobs.iter().all(JobReport::passed)
    }

    /// Number of (job, KPI) pairs that passed.
    pub fn kpis_passed(&self) -> usize {
        self.jobs
            .iter()
            .flat_map(|j| j.kpis.values())
            .filter(|k| k.verdict == KpiVerdict::Pass)
            .count()
    }

    /// Number of (job, KPI) pairs that did not pass, plus failed jobs.
    pub fn failures(&self) -> usize {
        let kpi_fails = self
            .jobs
            .iter()
            .flat_map(|j| j.kpis.values())
            .filter(|k| k.verdict != KpiVerdict::Pass)
            .count();
        let job_fails = self.jobs.iter().filter(|j| j.error.is_some()).count();
        kpi_fails + job_fails
    }

    /// Deterministic JSON rendering (stable key order, `{}` floats).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"plan\": \"{}\",\n", self.plan));
        out.push_str(&format!(
            "  \"provenance\": {{\"plan_hash\": \"{}\", \"seed\": {}, \"config_digest\": \"{}\", \"commit\": \"{}\", \"tool\": \"{}\"}},\n",
            self.provenance.plan_hash,
            self.provenance.seed,
            self.provenance.config_digest,
            self.provenance.commit,
            self.provenance.tool
        ));
        out.push_str("  \"jobs\": [\n");
        for (i, job) in self.jobs.iter().enumerate() {
            let sep = if i + 1 == self.jobs.len() { "" } else { "," };
            let mut kpis = String::new();
            for (j, (name, k)) in job.kpis.iter().enumerate() {
                let ksep = if j + 1 == job.kpis.len() { "" } else { ", " };
                let verdict = match &k.verdict {
                    KpiVerdict::Pass => "pass".to_string(),
                    KpiVerdict::OutOfBounds => "out_of_bounds".to_string(),
                    KpiVerdict::Invalid(e) => format!("invalid: {e}"),
                };
                kpis.push_str(&format!(
                    "{{\"kpi\": \"{name}\", \"value\": {}, \"verdict\": \"{verdict}\"}}{ksep}",
                    k.value
                ));
            }
            match &job.error {
                Some(e) => out.push_str(&format!(
                    "    {{\"params\": \"{}\", \"error\": \"{e}\"}}{sep}\n",
                    params_string(&job.params)
                )),
                None => out.push_str(&format!(
                    "    {{\"params\": \"{}\", \"digest\": \"{:016x}\", \"kpis\": [{kpis}]}}{sep}\n",
                    params_string(&job.params),
                    job.digest
                )),
            }
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A named series: counter takes precedence, then gauge.
fn series(m: &MetricsRegistry, name: &str) -> Result<f64, String> {
    if let Some(&v) = m.counters().get(name) {
        return Ok(v as f64);
    }
    if let Some(v) = m.gauge(name) {
        return Ok(v as f64);
    }
    Err(format!("metric {name:?} not recorded"))
}

/// Extract one KPI value from a job's metric registry.
pub fn extract_kpi(m: &MetricsRegistry, source: &KpiSource) -> Result<f64, String> {
    match source {
        KpiSource::Counter(n) => m
            .counters()
            .get(n.as_str())
            .map(|&v| v as f64)
            .ok_or_else(|| format!("counter {n:?} not recorded")),
        KpiSource::Gauge(n) => m
            .gauge(n)
            .map(|v| v as f64)
            .ok_or_else(|| format!("gauge {n:?} not recorded")),
        KpiSource::ScaledGauge { name, scale } => {
            if *scale == 0.0 {
                return Err(format!("scaled gauge {name:?} has zero scale"));
            }
            Ok(series(m, name)? / scale)
        }
        KpiSource::HistogramMean(n) => m
            .histogram(n)
            .map(|h| h.mean())
            .ok_or_else(|| format!("histogram {n:?} not recorded")),
        KpiSource::ReductionPct { base, opt } => {
            let b = series(m, base)?;
            let o = series(m, opt)?;
            if b == 0.0 {
                return Err(format!("reduction baseline {base:?} is zero"));
            }
            Ok(100.0 * (b - o) / b)
        }
        KpiSource::PerUnit { num, den } => {
            let n = series(m, num)?;
            let d = series(m, den)?;
            if d == 0.0 {
                return Err(format!("per-unit denominator {den:?} is zero"));
            }
            Ok(n / d)
        }
    }
}

/// Execute `plan`: expand it, run every job through `runner` with the
/// shared master `seed`, extract and judge every declared KPI, and record
/// `traj.*` bookkeeping into `rec`.
///
/// A runner error fails that job but not the run; the report carries the
/// error text. `commit` and `tool` stamp the provenance (callers usually
/// pass `DHS_COMMIT` and their crate version).
pub fn run_ablation(
    plan: &AblationPlan,
    seed: u64,
    runner: &mut dyn JobRunner,
    commit: &str,
    tool: &str,
    rec: &mut dyn Recorder,
) -> Result<AblationReport, PlanError> {
    let job_params = plan.expand()?;
    let mut jobs = Vec::with_capacity(job_params.len());
    for params in job_params {
        rec.incr(names::TRAJ_JOB, 1);
        let mut job = JobReport {
            params,
            kpis: BTreeMap::new(),
            digest: 0,
            error: None,
        };
        match runner.run(&job.params, seed) {
            Err(e) => {
                rec.incr(names::TRAJ_JOB_FAILED, 1);
                job.error = Some(e);
            }
            Ok(metrics) => {
                job.digest = metrics.digest();
                for (name, spec) in &plan.kpis {
                    let result = match extract_kpi(&metrics, &spec.source) {
                        Err(e) => KpiResult {
                            value: 0.0,
                            verdict: KpiVerdict::Invalid(e),
                        },
                        Ok(value) => match spec.tolerance.bounds_ok(value) {
                            Err(e) => KpiResult {
                                value,
                                verdict: KpiVerdict::Invalid(e.to_string()),
                            },
                            Ok(true) => KpiResult {
                                value,
                                verdict: KpiVerdict::Pass,
                            },
                            Ok(false) => KpiResult {
                                value,
                                verdict: KpiVerdict::OutOfBounds,
                            },
                        },
                    };
                    let ok = result.verdict == KpiVerdict::Pass;
                    rec.incr(
                        if ok {
                            names::TRAJ_KPI_PASS
                        } else {
                            names::TRAJ_KPI_FAIL
                        },
                        1,
                    );
                    job.kpis.insert(name.clone(), result);
                }
            }
        }
        jobs.push(job);
    }
    Ok(AblationReport {
        plan: plan.name.clone(),
        provenance: Provenance::new(plan, seed, commit, tool),
        jobs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FactorValue;
    use crate::tolerance::Tolerance;
    use dhs_obs::NoopRecorder;

    /// Runner that records `n * 10` into a counter and `n * 500` into a
    /// milli-gauge, and fails when `n == 13`.
    struct Toy;

    impl JobRunner for Toy {
        fn run(&mut self, params: &JobParams, _seed: u64) -> Result<MetricsRegistry, String> {
            let n = params["n"].as_i64().unwrap() as u64;
            if n == 13 {
                return Err("unlucky".to_string());
            }
            let mut m = MetricsRegistry::new();
            m.incr(names::ABL_ACCESSES, n * 10);
            m.gauge_set(names::ABL_INTERVALS_HINTED, n * 500);
            m.incr(names::ABL_MESSAGES_BASELINE, 100);
            m.incr(names::ABL_MESSAGES_OPTIMIZED, 25);
            Ok(m)
        }
    }

    fn plan() -> AblationPlan {
        AblationPlan::grid("toy")
            .factor(
                "n",
                vec![
                    FactorValue::Int(1),
                    FactorValue::Int(2),
                    FactorValue::Int(13),
                ],
            )
            .kpi(
                "accesses",
                KpiSource::Counter(names::ABL_ACCESSES.to_string()),
                Tolerance::default().with_min(10.0).with_max(20.0),
            )
            .kpi(
                "intervals",
                KpiSource::ScaledGauge {
                    name: names::ABL_INTERVALS_HINTED.to_string(),
                    scale: 1000.0,
                },
                Tolerance::default(),
            )
            .kpi(
                "reduction",
                KpiSource::ReductionPct {
                    base: names::ABL_MESSAGES_BASELINE.to_string(),
                    opt: names::ABL_MESSAGES_OPTIMIZED.to_string(),
                },
                Tolerance::default(),
            )
    }

    #[test]
    fn runs_jobs_and_judges_kpis() {
        let mut rec = NoopRecorder;
        let report = run_ablation(&plan(), 42, &mut Toy, "c0ffee", "t-1", &mut rec).unwrap();
        assert_eq!(report.jobs.len(), 3);
        // n=1: accesses 10 in [10, 20] → pass; intervals 0.5; reduction 75%.
        let j0 = &report.jobs[0];
        assert!(j0.passed());
        assert_eq!(j0.kpis["accesses"].value, 10.0);
        assert_eq!(j0.kpis["intervals"].value, 0.5);
        assert_eq!(j0.kpis["reduction"].value, 75.0);
        assert_ne!(j0.digest, 0);
        // n=2: accesses 20 still in bounds.
        assert!(report.jobs[1].passed());
        // n=13: runner error recorded, no KPI entries.
        let j2 = &report.jobs[2];
        assert_eq!(j2.error.as_deref(), Some("unlucky"));
        assert!(!j2.passed());
        assert!(!report.all_pass());
        assert_eq!(report.kpis_passed(), 6);
        assert_eq!(report.failures(), 1);
        assert_eq!(report.provenance.commit, "c0ffee");
        assert_eq!(report.provenance.plan_hash, plan().plan_hash());
    }

    #[test]
    fn out_of_bounds_kpi_fails_but_carries_value() {
        let p = plan().factor("n", vec![FactorValue::Int(3)]);
        let report = run_ablation(&p, 42, &mut Toy, "", "", &mut NoopRecorder).unwrap();
        let j = &report.jobs[0];
        assert_eq!(j.kpis["accesses"].value, 30.0);
        assert_eq!(j.kpis["accesses"].verdict, KpiVerdict::OutOfBounds);
        assert!(!j.passed());
        // Empty provenance fields collapse to "unknown".
        assert_eq!(report.provenance.commit, "unknown");
    }

    #[test]
    fn missing_metric_is_invalid_not_zero() {
        let p = AblationPlan::grid("m")
            .factor("n", vec![FactorValue::Int(1)])
            .kpi(
                "ghost",
                KpiSource::Counter("no.such.metric".to_string()),
                Tolerance::default(),
            );
        let report = run_ablation(&p, 42, &mut Toy, "c", "t", &mut NoopRecorder).unwrap();
        match &report.jobs[0].kpis["ghost"].verdict {
            KpiVerdict::Invalid(e) => assert!(e.contains("no.such.metric")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn bookkeeping_lands_in_recorder() {
        let mut obs = dhs_obs::Observer::new(1);
        run_ablation(&plan(), 42, &mut Toy, "c", "t", &mut obs).unwrap();
        assert_eq!(obs.metrics.counter(names::TRAJ_JOB), 3);
        assert_eq!(obs.metrics.counter(names::TRAJ_JOB_FAILED), 1);
        assert_eq!(obs.metrics.counter(names::TRAJ_KPI_PASS), 6);
        assert_eq!(obs.metrics.counter(names::TRAJ_KPI_FAIL), 0);
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let a = run_ablation(&plan(), 42, &mut Toy, "c", "t", &mut NoopRecorder).unwrap();
        let b = run_ablation(&plan(), 42, &mut Toy, "c", "t", &mut NoopRecorder).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"verdict\": \"pass\""));
        assert!(a.to_json().contains("\"error\": \"unlucky\""));
    }
}
