//! One benchmark run: a workload's own rounds at full shape for the
//! time asked, a short background pass of the other three groups at
//! small shape, the aggregation into named metrics, and the report.
//!
//! Why the background pass: every run reports every metric of the
//! benchmark. A workload's own phases give the numbers it was chosen
//! for; the other groups' metrics are read from a small-shape reference
//! pass (small rings, small streams — the working set that fits the
//! caches), so each metric is seen at two sizes and none is ever absent.
//! The reference pass has fixed inputs: it replays one round, from a
//! seed of its own, a few times and reports each metric's median replay,
//! so its numbers move when the code or the machine moves and not with
//! `--seed` or with a stall of the host.

use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, END_TO_END, LAYERS};
use crate::stats::{median, mix64, percentile_sorted};
use crate::workloads::{round, Group, Round, Shapes, FULL, SMALL};

/// Replays of each background group's round in an untraced run. A
/// small-shape phase lasts 50 to 100 ms and reads ± 10 % from replay to
/// replay on a shared host, evenly to both sides: the median of eight
/// holds a third of that, where the best of four held two thirds.
const BACKGROUND_REPLAYS: usize = 8;
/// The background pass does not follow `--seed` (see the module docs).
const BACKGROUND_SEED: u64 = 0xD45_BACC;
/// What `trace.*_overhead_pct` should stay under (reported, not enforced).
const TRACE_OVERHEAD_TARGET_PCT: f64 = 25.0;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub focus: Group,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: small shapes everywhere, one round. Not for numbers.
    pub quick: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub rounds: usize,
    /// `own` (the workload's phases at full shape: median over rounds)
    /// or `background` (the reference pass: median over replays).
    pub source: &'static str,
}

pub struct Outcome {
    pub options: Options,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Readings worth a look that do not make the run incorrect.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Share tables of the focus group's first traced round.
    pub tables: Vec<String>,
    pub own_rounds: usize,
    pub wall_s: f64,
}

fn sub_seed(seed: u64, group: Group, index: usize) -> u64 {
    mix64(mix64(seed ^ ((group as u64 + 1) << 56)).wrapping_add(index as u64))
}

/// Rounds of one group: untraced ones, and for a traced run the traced
/// twin of each.
#[derive(Default)]
struct Rounds {
    plain: Vec<Round>,
    traced: Vec<Round>,
}

impl Rounds {
    fn run_one(&mut self, group: Group, shapes: &Shapes, seed: u64, index: usize, traced: bool) {
        let plain = round(group, shapes, seed, index, None);
        if traced {
            self.traced
                .push(round(group, shapes, seed, index, Some(&plain)));
        }
        self.plain.push(plain);
    }

    fn all(&self) -> impl Iterator<Item = &Round> {
        self.plain.iter().chain(&self.traced)
    }
}

pub fn run(options: Options) -> Outcome {
    let own_shapes = if options.quick { SMALL } else { FULL };
    run_with(options, &own_shapes, &SMALL)
}

fn run_with(options: Options, own_shapes: &Shapes, small: &Shapes) -> Outcome {
    let start = Instant::now();
    let mut groups: Vec<(Group, Rounds)> = Group::ALL
        .into_iter()
        .map(|g| (g, Rounds::default()))
        .collect();

    // The workload's own rounds, as many as fit the time asked, with one
    // replay of the background pass after each of the first few: the
    // replays then sample different moments of a host whose speed
    // wanders by the second.
    let replays = if options.traced || options.quick {
        1
    } else {
        BACKGROUND_REPLAYS
    };
    let mut own_secs = 0.0;
    let mut own_rounds = 0;
    loop {
        let round_start = Instant::now();
        let seed = sub_seed(options.seed, options.focus, own_rounds);
        groups[options.focus as usize].1.run_one(
            options.focus,
            own_shapes,
            seed,
            own_rounds,
            options.traced,
        );
        own_secs += round_start.elapsed().as_secs_f64();
        own_rounds += 1;
        let out_of_time =
            options.quick || own_secs + own_secs / own_rounds as f64 > options.seconds;
        for (group, rounds) in &mut groups {
            let due = if out_of_time {
                replays
            } else {
                own_rounds.min(replays)
            };
            while *group != options.focus && rounds.plain.len() < due {
                let seed = sub_seed(BACKGROUND_SEED, *group, 0);
                rounds.run_one(*group, small, seed, 0, options.traced);
            }
        }
        if out_of_time {
            break;
        }
    }

    // The background's replays must agree on every exact output (ring,
    // ledger, telemetry, estimates, digests).
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    for (group, rounds) in &groups {
        let diverged = rounds
            .plain
            .iter()
            .any(|r| r.model != rounds.plain[0].model);
        if *group != options.focus && diverged {
            problems.push(format!(
                "{}: same-seed replays disagree on the model outputs",
                group.workload()
            ));
        }
    }

    let (mut attempted, mut failed) = (0, 0);
    for (_, rounds) in &groups {
        for r in rounds.all() {
            attempted += r.attempted;
            failed += r.failed;
            problems.extend(r.problems.iter().cloned());
        }
    }

    let mut metrics = Vec::new();
    if options.traced {
        for (group, rounds) in &groups {
            layer_metrics(*group == options.focus, &rounds.traced, &mut metrics);
        }
        // Catalogue order.
        metrics.sort_by_key(|m: &Metric| LAYERS.iter().position(|l| l.name == m.name));
        // Tracing is meant to cost the decorated phases no more than a
        // quarter. That is a reading of the clock, not an output of the
        // program: on a shared host one stall moves it by more than that,
        // so it is reported and never fails a run.
        for m in &metrics {
            if m.name.starts_with("trace.") && m.value > TRACE_OVERHEAD_TARGET_PCT {
                notes.push(format!(
                    "{} = {:.1} % is above the {TRACE_OVERHEAD_TARGET_PCT} % target",
                    m.name, m.value
                ));
            }
        }
    } else {
        for spec in &END_TO_END {
            let group = Group::of(spec.home).unwrap_or(options.focus);
            let rounds = &groups[group as usize].1.plain;
            metrics.push(end_to_end_metric(spec, rounds, group == options.focus));
        }
    }

    let tables = groups[options.focus as usize]
        .1
        .traced
        .first()
        .map(|r| r.tables.iter().map(|t| t.render()).collect())
        .unwrap_or_default();
    Outcome {
        options,
        correct: problems.is_empty(),
        attempted,
        failed,
        problems,
        notes,
        metrics,
        tables,
        own_rounds,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// One metric from its per-round values: their median. An exact value
/// is the first round's: it must not depend on how many rounds the clock
/// allowed.
fn summarise(
    name: &'static str,
    unit: &'static str,
    exact: bool,
    values: &[f64],
    own: bool,
) -> Metric {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let value = if exact { values[0] } else { median(values) };
    Metric {
        name,
        unit,
        value,
        min,
        max,
        rounds: values.len(),
        source: if own { "own" } else { "background" },
    }
}

fn p99_us(mut lat_ns: Vec<u64>) -> f64 {
    lat_ns.sort_unstable();
    percentile_sorted(&lat_ns, 99.0) as f64 / 1e3
}

fn end_to_end_metric(spec: &'static metrics::EndToEnd, rounds: &[Round], own: bool) -> Metric {
    let values: Vec<f64> = match spec.name {
        "setup_s" => rounds.iter().map(|r| r.setup_s).collect(),
        // Each sample is already one op's median over its replays. Own
        // rounds hold different ops and are pooled; background replays
        // hold the same ops, so each gives a p99 of its own.
        "count_p99_us" if own => {
            vec![p99_us(
                rounds.iter().flat_map(|r| r.count_lat_ns.clone()).collect(),
            )]
        }
        "count_p99_us" => rounds
            .iter()
            .map(|r| p99_us(r.count_lat_ns.clone()))
            .collect(),
        name => rounds
            .iter()
            .filter_map(|r| {
                r.end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
            })
            .collect(),
    };
    if values.is_empty() {
        // A phase that errored has no rate; the run is already incorrect.
        return summarise(spec.name, spec.unit, true, &[f64::NAN], own);
    }
    summarise(spec.name, spec.unit, spec.exact, &values, own)
}

fn layer_metrics(own: bool, traced: &[Round], out: &mut Vec<Metric>) {
    let Some(first) = traced.first() else {
        return;
    };
    for &(name, _) in &first.layers {
        let spec = metrics::layer(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        out.push(summarise(spec.name, spec.unit, spec.exact, &values, own));
    }
}

impl Outcome {
    /// The table a person reads.
    pub fn render(&self) -> String {
        let o = &self.options;
        let mut out = format!(
            "# {} seed {} — {} own round(s) in {:.1} s, {}{}\n",
            o.focus.workload(),
            o.seed,
            self.own_rounds,
            self.wall_s,
            if o.traced { "traced" } else { "untraced" },
            if o.quick {
                ", QUICK: not for numbers"
            } else {
                ""
            },
        );
        out.push_str(&format!(
            "{:<34} {:>16} {:<12} {:>14} {:>14} {:>3}  {:<10}  {}\n",
            "metric",
            "value",
            "unit",
            "min",
            "max",
            "n",
            "from",
            if o.traced {
                "home workload: should move"
            } else {
                ""
            }
        ));
        for m in &self.metrics {
            let moves = metrics::layer(m.name)
                .map(|l| {
                    format!(
                        "{}: {}",
                        l.home,
                        if l.moves.is_empty() { "-" } else { l.moves }
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!(
                "{:<34} {:>16.4} {:<12} {:>14.4} {:>14.4} {:>3}  {:<10}  {}\n",
                m.name, m.value, m.unit, m.min, m.max, m.rounds, m.source, moves
            ));
        }
        out.push_str(&format!(
            "ops_attempted {}  ops_failed {}\n",
            self.attempted, self.failed
        ));
        for table in &self.tables {
            out.push_str("share of phase time (self):\n");
            out.push_str(table);
        }
        for n in &self.notes {
            out.push_str(&format!("NOTE: {n}\n"));
        }
        for p in &self.problems {
            out.push_str(&format!("CHECK FAILED: {p}\n"));
        }
        out
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    /// The run as it is kept in a result file.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("min", Json::Num(m.min)),
                        ("max", Json::Num(m.max)),
                        ("rounds", Json::Num(m.rounds as f64)),
                        ("from", Json::str(m.source)),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.options.focus.workload())),
            ("traced", Json::Bool(self.options.traced)),
            ("quick", Json::Bool(self.options.quick)),
            ("seed", Json::Num(self.options.seed as f64)),
            ("seconds", Json::Num(self.options.seconds)),
            ("own_rounds", Json::Num(self.own_rounds as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("correct", Json::Bool(self.correct)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::str(p)).collect()),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
            (
                "share_tables",
                Json::Arr(self.tables.iter().map(|t| Json::str(t)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::TINY;
    use std::collections::BTreeSet;

    fn names_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn tiny_run(focus: Group, traced: bool) -> Outcome {
        let options = Options {
            focus,
            seed: 7,
            seconds: 0.0,
            traced,
            quick: true,
        };
        run_with(options, &TINY, &TINY)
    }

    /// `run` prints exactly the catalogue's names, whatever the
    /// workload: the end-to-end ones untraced, the layer ones traced.
    #[test]
    fn run_prints_every_catalogue_name_and_no_other() {
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let layers: Vec<&str> = LAYERS.iter().map(|m| m.name).collect();
        for focus in [Group::Write, Group::Tenant] {
            let plain = tiny_run(focus, false);
            assert!(plain.correct, "{:?}", plain.problems);
            assert!(plain.attempted > 0);
            let printed: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, end_to_end);
            assert!(plain
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));
            let own: Vec<&str> = plain
                .metrics
                .iter()
                .filter(|m| m.source == "own")
                .map(|m| m.name)
                .collect();
            assert!(own.contains(&"setup_s") && own.len() > 1 && own.len() < 8);
        }
        for focus in [Group::Read, Group::Net] {
            let traced = tiny_run(focus, true);
            assert!(traced.correct, "{:?}", traced.problems);
            let printed: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, layers);
            assert!(!traced.tables.is_empty());
            let line = Json::parse(&traced.result_line()).unwrap();
            assert_eq!(line.get("metrics").unwrap().entries().len(), layers.len());
        }
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics, with
    /// the same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = manifest.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();

        let workloads: Vec<String> = manifest
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, Group::ALL.map(Group::workload));

        let listed: Vec<(String, String, String, f64)> = manifest
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let catalogue: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(listed, catalogue);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));

        let listed: Vec<(String, String, String)> = manifest
            .get("per_layer")
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let catalogue: Vec<(String, String, String)> = LAYERS
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(listed, catalogue);

        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
            .chain(Group::ALL.map(Group::workload))
            .collect();
        assert!(
            all.iter().all(|n| names_ok(n)),
            "a name breaks [A-Za-z0-9_.-]+"
        );
        assert_eq!(
            all.iter().collect::<BTreeSet<_>>().len(),
            all.len(),
            "a name is used twice"
        );
        assert!(LAYERS.len() <= 128);
        for m in LAYERS {
            assert!(Group::of(m.home).is_some(), "{}", m.name);
            for moved in m.moves.split_whitespace() {
                assert!(
                    metrics::end_to_end(moved).is_some(),
                    "{} moves {moved}?",
                    m.name
                );
            }
        }
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
