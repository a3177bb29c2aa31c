//! Ablation plans: ordered factor sweeps with declared KPIs.
//!
//! A plan is pure data — factor grids in a `BTreeMap`, fixed parameters,
//! and the KPI extraction/tolerance declarations — so two processes
//! holding the same plan expand the same job list in the same order and
//! agree on its [`plan_hash`]. Nothing in here reads a clock or OS
//! entropy.
//!
//! [`plan_hash`]: AblationPlan::plan_hash

use std::collections::BTreeMap;
use std::fmt;

use dhs_obs::Fnv1a;

use crate::tolerance::Tolerance;

/// Hard cap on the number of jobs one plan may expand to; guards against
/// accidental cartesian blow-ups.
pub const MAX_JOBS: usize = 4096;

/// One factor (or fixed-parameter) value. Integers and floats render
/// differently in params strings and job reports, so the distinction is
/// kept rather than collapsing everything to `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FactorValue {
    /// An integer-valued parameter (m, k, nodes, shard count, …).
    Int(i64),
    /// A real-valued parameter (scale, loss rate, Zipf theta, …).
    Float(f64),
}

impl FactorValue {
    /// The value as an `f64` (exact for integers up to 2^53).
    pub fn as_f64(self) -> f64 {
        match self {
            FactorValue::Int(v) => v as f64,
            FactorValue::Float(v) => v,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(self) -> Option<i64> {
        match self {
            FactorValue::Int(v) => Some(v),
            FactorValue::Float(_) => None,
        }
    }
}

impl fmt::Display for FactorValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // `{}` on f64 is shortest-roundtrip and therefore stable.
            FactorValue::Int(v) => write!(f, "{v}"),
            FactorValue::Float(v) => write!(f, "{v}"),
        }
    }
}

/// Where one KPI's value comes from in a job's metric registry.
#[derive(Debug, Clone, PartialEq)]
pub enum KpiSource {
    /// A counter's value.
    Counter(String),
    /// A gauge's value.
    Gauge(String),
    /// A gauge (or counter) divided by `scale` — for fixed-point
    /// encodings of fractional measurements (e.g. milli-units).
    ScaledGauge {
        /// Metric name.
        name: String,
        /// Divisor applied to the raw value.
        scale: f64,
    },
    /// Mean of a histogram's recorded values.
    HistogramMean(String),
    /// `100 × (base − opt) / base` over two counters/gauges.
    ReductionPct {
        /// The baseline series.
        base: String,
        /// The optimized series.
        opt: String,
    },
    /// `num / den` over two counters/gauges.
    PerUnit {
        /// Numerator series.
        num: String,
        /// Denominator series.
        den: String,
    },
}

impl KpiSource {
    fn canonical(&self) -> String {
        match self {
            KpiSource::Counter(n) => format!("counter:{n}"),
            KpiSource::Gauge(n) => format!("gauge:{n}"),
            KpiSource::ScaledGauge { name, scale } => format!("scaled:{name}/{scale}"),
            KpiSource::HistogramMean(n) => format!("hist_mean:{n}"),
            KpiSource::ReductionPct { base, opt } => format!("reduction_pct:{base}:{opt}"),
            KpiSource::PerUnit { num, den } => format!("per_unit:{num}:{den}"),
        }
    }
}

/// One declared KPI: its extraction source and tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct KpiSpec {
    /// Where the value comes from.
    pub source: KpiSource,
    /// In-plan bounds plus baseline-comparison tolerances.
    pub tolerance: Tolerance,
}

/// Parameters of one expanded job: fixed parameters overlaid with this
/// job's factor assignment, in name order.
pub type JobParams = BTreeMap<String, FactorValue>;

/// Render job params as the canonical `k=v;k=v` string used in registry
/// rows and hashes.
pub fn params_string(params: &JobParams) -> String {
    let parts: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(";")
}

/// Why a plan failed validation or expansion.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The plan has no name.
    EmptyName,
    /// A factor has no values.
    BadFactor(String),
    /// A factor or fixed value is NaN or infinite.
    NonFiniteValue(String),
    /// A name appears in both `factors` and `fixed`.
    Overlap(String),
    /// Expansion would exceed [`MAX_JOBS`].
    TooManyJobs(usize),
    /// The plan declares no KPIs.
    NoKpis,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyName => write!(f, "plan name is empty"),
            PlanError::BadFactor(n) => write!(f, "factor {n:?} has an invalid value list"),
            PlanError::NonFiniteValue(n) => write!(f, "parameter {n:?} has a non-finite value"),
            PlanError::Overlap(n) => write!(f, "{n:?} is both a factor and a fixed parameter"),
            PlanError::TooManyJobs(n) => write!(f, "plan expands to {n} jobs (max {MAX_JOBS})"),
            PlanError::NoKpis => write!(f, "plan declares no KPIs"),
        }
    }
}

/// A deterministic ablation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPlan {
    /// Unique plan identifier (registry rows carry it).
    pub name: String,
    /// Ordered factors to sweep, each with its value list.
    pub factors: BTreeMap<String, Vec<FactorValue>>,
    /// Parameters held constant across every job.
    pub fixed: BTreeMap<String, FactorValue>,
    /// Declared KPIs: extraction source + tolerance, by KPI name.
    pub kpis: BTreeMap<String, KpiSpec>,
}

impl AblationPlan {
    /// An empty grid plan named `name`.
    pub fn grid(name: &str) -> Self {
        AblationPlan {
            name: name.to_string(),
            factors: BTreeMap::new(),
            fixed: BTreeMap::new(),
            kpis: BTreeMap::new(),
        }
    }

    /// Add a factor with its value list.
    pub fn factor(mut self, name: &str, values: Vec<FactorValue>) -> Self {
        self.factors.insert(name.to_string(), values);
        self
    }

    /// Add a fixed parameter.
    pub fn fix(mut self, name: &str, value: FactorValue) -> Self {
        self.fixed.insert(name.to_string(), value);
        self
    }

    /// Declare a KPI.
    pub fn kpi(mut self, name: &str, source: KpiSource, tolerance: Tolerance) -> Self {
        self.kpis
            .insert(name.to_string(), KpiSpec { source, tolerance });
        self
    }

    /// Validate the plan's shape (names, value lists, finiteness).
    pub fn validate(&self) -> Result<(), PlanError> {
        if self.name.is_empty() {
            return Err(PlanError::EmptyName);
        }
        if self.kpis.is_empty() {
            return Err(PlanError::NoKpis);
        }
        for (name, values) in &self.factors {
            if self.fixed.contains_key(name) {
                return Err(PlanError::Overlap(name.clone()));
            }
            if values.is_empty() {
                return Err(PlanError::BadFactor(name.clone()));
            }
            for v in values {
                if !v.as_f64().is_finite() {
                    return Err(PlanError::NonFiniteValue(name.clone()));
                }
            }
        }
        for (name, v) in &self.fixed {
            if !v.as_f64().is_finite() {
                return Err(PlanError::NonFiniteValue(name.clone()));
            }
        }
        Ok(())
    }

    /// Canonical textual form of the whole plan — the hash input, and a
    /// stable fingerprint for humans diffing two plans.
    pub fn canonical(&self) -> String {
        // Every plan is a grid; the line keeps plan hashes stable.
        let mut s = format!("plan:{}\nmode:grid\n", self.name);
        for (name, values) in &self.factors {
            let vs: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            s.push_str(&format!("factor:{name}=[{}]\n", vs.join(",")));
        }
        for (name, v) in &self.fixed {
            s.push_str(&format!("fixed:{name}={v}\n"));
        }
        for (name, spec) in &self.kpis {
            s.push_str(&format!(
                "kpi:{name}:{}:{}\n",
                spec.source.canonical(),
                spec.tolerance.canonical()
            ));
        }
        s
    }

    /// Stable FNV-1a hash of the canonical plan, as 16 hex digits.
    pub fn plan_hash(&self) -> String {
        let mut h = Fnv1a::new();
        h.update(self.canonical().as_bytes());
        format!("{:016x}", h.finish())
    }

    /// Expand the plan into its job list: the cartesian product of the
    /// factors in factor-name order (last factor varies fastest).
    pub fn expand(&self) -> Result<Vec<JobParams>, PlanError> {
        self.validate()?;
        let names: Vec<&String> = self.factors.keys().collect();
        let lists: Vec<&Vec<FactorValue>> = self.factors.values().collect();
        let mut total: usize = 1;
        for l in &lists {
            total = total.saturating_mul(l.len());
        }
        if total > MAX_JOBS {
            return Err(PlanError::TooManyJobs(total));
        }
        let mut jobs = Vec::with_capacity(total);
        let mut idx = vec![0usize; names.len()];
        loop {
            let mut params = self.fixed.clone();
            for (f, &i) in idx.iter().enumerate() {
                params.insert(names[f].clone(), lists[f][i]);
            }
            jobs.push(params);
            // Odometer increment, last factor fastest.
            let mut carry = true;
            for f in (0..idx.len()).rev() {
                idx[f] += 1;
                if idx[f] < lists[f].len() {
                    carry = false;
                    break;
                }
                idx[f] = 0;
            }
            if carry {
                break;
            }
        }
        Ok(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> AblationPlan {
        AblationPlan::grid("t")
            .factor("a", vec![FactorValue::Int(1), FactorValue::Int(2)])
            .factor("b", vec![FactorValue::Float(0.5)])
            .fix("c", FactorValue::Int(7))
            .kpi("k", KpiSource::Counter("x".into()), Tolerance::default())
    }

    #[test]
    fn grid_expands_in_name_order_last_factor_fastest() {
        let jobs = plan().expand().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(params_string(&jobs[0]), "a=1;b=0.5;c=7");
        assert_eq!(params_string(&jobs[1]), "a=2;b=0.5;c=7");
    }

    #[test]
    fn plan_hash_is_stable_and_sensitive() {
        let p = plan();
        assert_eq!(p.plan_hash(), p.clone().plan_hash());
        let q = plan().fix("d", FactorValue::Int(1));
        assert_ne!(p.plan_hash(), q.plan_hash());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let p = AblationPlan::grid("g").factor("a", vec![]).kpi(
            "k",
            KpiSource::Counter("c".into()),
            Tolerance::default(),
        );
        assert_eq!(p.validate(), Err(PlanError::BadFactor("a".into())));
        let p = AblationPlan::grid("g")
            .factor("a", vec![FactorValue::Float(f64::NAN)])
            .kpi("k", KpiSource::Counter("c".into()), Tolerance::default());
        assert_eq!(p.validate(), Err(PlanError::NonFiniteValue("a".into())));
        let p = AblationPlan::grid("g")
            .factor("a", vec![FactorValue::Int(1)])
            .fix("a", FactorValue::Int(2))
            .kpi("k", KpiSource::Counter("c".into()), Tolerance::default());
        assert_eq!(p.validate(), Err(PlanError::Overlap("a".into())));
        let p = AblationPlan::grid("g").factor("a", vec![FactorValue::Int(1)]);
        assert_eq!(p.validate(), Err(PlanError::NoKpis));
    }
}
