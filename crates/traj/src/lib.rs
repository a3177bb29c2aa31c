//! dhs-traj: deterministic ablation harness + perf-trajectory registry.
//!
//! The experiments in this workspace (N1–N4) each print a table and emit
//! a BENCH JSON, but nothing connects *runs over time*: there was no way
//! to sweep a factor grid reproducibly, no declared tolerance on a KPI,
//! and no committed record that would catch a silent perf regression.
//! This crate closes that loop:
//!
//! - [`AblationPlan`] — pure-data factor grids with fixed parameters and
//!   declared KPIs, expanded deterministically and fingerprinted by an
//!   FNV [`plan_hash`].
//! - [`run_ablation`] — executes a plan through a caller-supplied
//!   [`JobRunner`], extracts each KPI from the job's
//!   `dhs_obs::MetricsRegistry` ([`KpiSource`]), judges it against its
//!   [`Tolerance`] envelope, and stamps the report with [`Provenance`]
//!   (plan hash, seed, config digest, commit, tool — never a clock).
//! - [`Registry`] — the append-only CSV trajectory file. Reports append
//!   byte-identical rows across reruns; [`Registry::gate`] compares a
//!   fresh report against the latest committed baseline per
//!   `(plan, params, kpi)` and reports tolerance violations, which
//!   `scripts/check.sh` turns into a hard failure.
//! - [`registry_query`] — sorted, aligned trajectory tables for humans.
//!
//! Determinism discipline matches the rest of the workspace: `BTreeMap`
//! everywhere, no wall clocks or OS entropy, and every job
//! shares one master seed (common random numbers) so KPI deltas measure
//! factors, not draws.
//!
//! [`plan_hash`]: AblationPlan::plan_hash
//! [`JobRunner`]: run::JobRunner

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod registry;
pub mod run;
pub mod tolerance;

pub use plan::{
    params_string, AblationPlan, FactorValue, JobParams, KpiSource, KpiSpec, PlanError, MAX_JOBS,
};
pub use registry::{registry_query, GateViolation, ParseError, Registry, Row, HEADER};
pub use run::{
    extract_kpi, run_ablation, AblationReport, JobReport, JobRunner, KpiResult, KpiVerdict,
    Provenance,
};
pub use tolerance::{NonFinite, Tolerance, DEFAULT_ABS, DEFAULT_REL};
