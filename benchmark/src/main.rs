//! `dhs-benchmark`: the repository's wall-clock benchmark.
//!
//! ```text
//! dhs-benchmark run [--workload W] [--seed S] [--seconds T]
//!                   [--trace 0|1|both | --traced] [--quick] [--out F]
//!                   [--note key=value]...
//! dhs-benchmark compare A.json B.json
//! ```
//!
//! `run` prints every metric by name with its unit, checks the
//! program's outputs, ends with the one-line JSON result and exits
//! non-zero when a check failed. See `README.md`.

mod adapter;
mod compare;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use json::Json;
use workloads::Group;

/// Default of `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;

struct RunArgs {
    workloads: Vec<Group>,
    seed: u64,
    seconds: f64,
    modes: Vec<bool>,
    quick: bool,
    out: Option<String>,
    notes: Vec<(String, Json)>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Group::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        modes: vec![false],
        quick: false,
        out: None,
        notes: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let group = Group::of(name).ok_or_else(|| {
                    format!(
                        "unknown workload {name}; one of {:?}",
                        Group::ALL.map(Group::workload)
                    )
                })?;
                parsed.workloads = vec![group];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.modes = match value()?.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    other => return Err(format!("--trace takes 0, 1 or both, not {other}")),
                }
            }
            "--traced" => parsed.modes = vec![true],
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            "--note" => {
                let note = value()?;
                let (k, v) = note.split_once('=').ok_or("--note takes key=value")?;
                parsed.notes.push((k.to_string(), Json::str(v)));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let mut all_correct = true;
    let mut runs = Vec::new();
    for &focus in &args.workloads {
        for &traced in &args.modes {
            let outcome = run::run(run::Options {
                focus,
                seed: args.seed,
                seconds: args.seconds,
                traced,
                quick: args.quick,
            });
            print!("{}", outcome.render());
            // Also where a caller that keeps only stderr will find them.
            for p in &outcome.problems {
                eprintln!("dhs-benchmark: CHECK FAILED: {p}");
            }
            println!("{}", outcome.result_line());
            all_correct &= outcome.correct;
            runs.push(outcome.to_json());
        }
    }
    if let Some(path) = &args.out {
        let mut provenance = args.notes;
        provenance.push(("seed".to_string(), Json::Num(args.seed as f64)));
        provenance.push(("seconds".to_string(), Json::Num(args.seconds)));
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        provenance.push(("nproc".to_string(), Json::Num(nproc as f64)));
        provenance.push((
            "sizes".to_string(),
            Json::obj(vec![
                ("own", Json::str(&format!("{:?}", workloads::FULL))),
                ("background", Json::str(&format!("{:?}", workloads::SMALL))),
            ]),
        ));
        let file = Json::obj(vec![
            ("provenance", Json::Obj(provenance)),
            ("runs", Json::Arr(runs)),
        ]);
        std::fs::write(path, file.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        _ => Err(
            "usage: dhs-benchmark run [--workload W] [--seed S] [--seconds T] \
                  [--trace 0|1|both] [--quick] [--out F] [--note k=v]... \
                  | compare A.json B.json"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("dhs-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
