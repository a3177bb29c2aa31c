//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment|all> [--scale F] [--nodes N] [--seed S] [--trials T]
//!       [--m M] [--k K] [--quick]
//! ```
//!
//! Experiments: insertion, table2, scalability, accuracy, table3,
//! hist-accuracy, queryopt, ablation-lim, ablation-failures,
//! ablation-bitshift, ablation-ttl, baselines, saturation, all.
//!
//! Ablation-harness subcommands (see DESIGN.md §dhs-traj):
//!
//! ```text
//! repro ablate <plan>... [--gate] [--append] [--registry FILE]
//! repro traj [--plan NAME] [--kpi SUBSTR] [--registry FILE]
//! ```

use std::env;
use std::io::Write as _;
use std::process::ExitCode;

use dhs_bench::experiments;
use dhs_bench::provenance;
use dhs_bench::ExpConfig;
use dhs_obs::Recorder as _;
use dhs_traj::{run_ablation, Registry};

type Experiment = (&'static str, fn(&ExpConfig) -> String);

const EXPERIMENTS: &[Experiment] = &[
    ("insertion", experiments::insertion),
    ("table2", experiments::table2),
    ("scalability", experiments::scalability),
    ("accuracy", experiments::accuracy),
    ("table3", experiments::table3),
    ("hist-accuracy", experiments::hist_accuracy),
    ("queryopt", experiments::queryopt),
    ("ablation-lim", experiments::ablation_lim),
    ("ablation-failures", experiments::ablation_failures),
    ("ablation-bitshift", experiments::ablation_bitshift),
    ("ablation-ttl", experiments::ablation_ttl),
    ("ablation-churn", experiments::ablation_churn),
    ("ablation-dynamics", experiments::ablation_dynamics),
    ("baselines", experiments::baselines),
    ("geometry", experiments::geometry),
    ("network", experiments::network),
    ("loadbalance", experiments::load_balance),
    ("fastpath", experiments::fastpath),
    ("shard", experiments::shard),
    ("saturation", experiments::saturation),
    ("trajectory", experiments::trajectory),
];

/// Default location of the committed perf-trajectory registry.
const DEFAULT_REGISTRY: &str = "registry/traj.csv";

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: repro <experiment|all> [--scale F] [--nodes N] \
         [--seed S] [--trials T] [--m M] [--k K] [--quick]\n\
         \x20      repro ablate <plan>... [--gate] [--append] [--registry FILE]\n\
         \x20      repro traj [--plan NAME] [--kpi SUBSTR] [--registry FILE]\n\
         ablate: run ablation plans, print the deterministic report JSON; \
         --gate fails on KPI drift vs the registry baseline, --append records \
         rows into the registry (default {DEFAULT_REGISTRY})\n\
         traj: render the registry as a sorted trajectory table\n\
         plans: {}\n\
         experiments: {}",
        experiments::PLAN_NAMES.join(", "),
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let which = args[0].clone();
    let mut exp = ExpConfig::default();
    let mut quick = false;
    let mut pos: Vec<String> = Vec::new();
    let mut registry_path = DEFAULT_REGISTRY.to_string();
    let mut append = false;
    let mut gate = false;
    let mut plan_filter: Option<String> = None;
    let mut kpi_filter: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let next = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match flag {
            "--quick" => quick = true,
            "--scale" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.scale = v,
                None => return fail("--scale needs a float"),
            },
            "--nodes" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.nodes = v,
                None => return fail("--nodes needs an integer"),
            },
            "--seed" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.seed = v,
                None => return fail("--seed needs an integer"),
            },
            "--trials" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.trials = v,
                None => return fail("--trials needs an integer"),
            },
            "--m" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.m = v,
                None => return fail("--m needs an integer"),
            },
            "--k" => match next(&mut i).and_then(|v| v.parse().ok()) {
                Some(v) => exp.k = v,
                None => return fail("--k needs an integer"),
            },
            "--registry" => match next(&mut i) {
                Some(v) => registry_path = v,
                None => return fail("--registry needs a path"),
            },
            "--append" => append = true,
            "--gate" => gate = true,
            "--plan" => match next(&mut i) {
                Some(v) => plan_filter = Some(v),
                None => return fail("--plan needs a plan name"),
            },
            "--kpi" => match next(&mut i) {
                Some(v) => kpi_filter = Some(v),
                None => return fail("--kpi needs a substring"),
            },
            other if !other.starts_with("--") => pos.push(other.to_string()),
            other => return fail(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if quick {
        exp = exp.quick();
    }

    if which == "ablate" {
        return ablate(&exp, &pos, &registry_path, gate, append);
    }
    if which == "traj" {
        return traj(
            &registry_path,
            plan_filter.as_deref(),
            kpi_filter.as_deref(),
        );
    }

    let selected: Vec<&Experiment> = if which == "all" {
        EXPERIMENTS.iter().collect()
    } else {
        match EXPERIMENTS.iter().find(|(n, _)| *n == which) {
            Some(e) => vec![e],
            None => {
                eprintln!("unknown experiment '{which}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    };

    for (name, run) in selected {
        println!("=== {name} ===");
        println!("{}\n", run(&exp));
    }
    ExitCode::SUCCESS
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{}", usage());
    ExitCode::FAILURE
}

/// `repro ablate`: run the named plans through the bench runners, print
/// each deterministic report JSON to stdout, optionally gate the KPIs
/// against the committed registry and append the new rows to it.
///
/// Exit is FAILURE if any job errors, any KPI leaves its declared
/// envelope, or (`--gate`) any KPI drifts from the registry baseline
/// beyond its tolerance. `--append` only writes when everything passed,
/// so a red run can never pollute the committed trajectory.
fn ablate(
    exp: &ExpConfig,
    pos: &[String],
    registry_path: &str,
    gate: bool,
    append: bool,
) -> ExitCode {
    if pos.is_empty() {
        return fail("ablate needs at least one plan name");
    }
    let committed = match std::fs::read_to_string(registry_path) {
        Ok(csv) => match Registry::parse(&csv) {
            Ok(reg) => Some(reg),
            Err(e) => {
                eprintln!("corrupt registry {registry_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => None,
    };
    let commit = provenance::commit();
    let tool = provenance::tool();
    let mut ok = true;
    let mut fragments = String::new();
    for name in pos {
        let Some(plans) = experiments::ablation_plans(name) else {
            return fail(&format!(
                "unknown plan '{name}' (known: {})",
                experiments::PLAN_NAMES.join(", ")
            ));
        };
        for (plan, kind) in plans {
            let mut runner = experiments::BenchRunner { base: *exp, kind };
            let mut obs = dhs_obs::Observer::new(1);
            let report = match run_ablation(&plan, exp.seed, &mut runner, &commit, &tool, &mut obs)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("plan {}: invalid: {e}", plan.name);
                    return ExitCode::FAILURE;
                }
            };
            println!("{}", report.to_json());
            if !report.all_pass() {
                eprintln!(
                    "plan {}: {} of {} KPI checks failed",
                    plan.name,
                    report.failures(),
                    report.failures() + report.kpis_passed()
                );
                ok = false;
            }
            if gate {
                match &committed {
                    Some(reg) => {
                        let violations = reg.gate(&plan, &report);
                        for v in &violations {
                            obs.incr(dhs_obs::names::TRAJ_GATE_VIOLATION, 1);
                            eprintln!("GATE VIOLATION {v}");
                        }
                        if !violations.is_empty() {
                            ok = false;
                        }
                    }
                    None => {
                        eprintln!("--gate: no registry at {registry_path}, nothing to gate against")
                    }
                }
            }
            fragments.push_str(&Registry::append_csv(&report));
        }
    }
    if append {
        if !ok {
            eprintln!("not appending to {registry_path}: run had failures");
        } else if let Err(e) = append_rows(registry_path, &fragments) {
            eprintln!("could not append to {registry_path}: {e}");
            return ExitCode::FAILURE;
        } else {
            eprintln!(
                "appended {} rows to {registry_path}",
                fragments.lines().count()
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Append headerless CSV rows to the registry file, creating it (with
/// header, and parent directories) on first use.
fn append_rows(path: &str, fragments: &str) -> std::io::Result<()> {
    let p = std::path::Path::new(path);
    if let Some(parent) = p.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let need_header = !p.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(p)?;
    if need_header {
        writeln!(f, "{}", dhs_traj::HEADER)?;
    }
    f.write_all(fragments.as_bytes())
}

/// `repro traj`: render the committed registry as the sorted trajectory
/// table, optionally filtered by exact plan name and KPI substring.
fn traj(registry_path: &str, plan: Option<&str>, kpi: Option<&str>) -> ExitCode {
    let csv = match std::fs::read_to_string(registry_path) {
        Ok(csv) => csv,
        Err(e) => {
            eprintln!("cannot read registry {registry_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match Registry::parse(&csv) {
        Ok(reg) => {
            print!("{}", dhs_traj::registry_query(&reg, plan, kpi));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("corrupt registry {registry_path}: {e}");
            ExitCode::FAILURE
        }
    }
}
