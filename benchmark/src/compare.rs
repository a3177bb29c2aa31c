//! `compare A.json B.json`: one row per (workload, end-to-end metric)
//! of two result files, judged by the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::END_TO_END;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// A side's min–max range over its rounds is wider than the bound:
    /// the two medians cannot be told apart at this bound.
    Unresolved,
}

/// One side of a row.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// From the workload's own rounds (seconds-long phases, whose range
    /// is their noise) and not from the background pass (50 ms phases,
    /// whose range holds the stalls its median drops).
    pub own: bool,
}

impl Side {
    fn range(&self) -> f64 {
        (self.max - self.min) / self.value.abs()
    }
}

/// Judge `b` against `a`. "Worse" is by the reported value alone; on a
/// workload's own metrics a wide range demotes "ok" to "unresolved"
/// unless every round of `b` beat every round of `a`.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let worsening = if higher_is_better {
        (a.value - b.value) / a.value
    } else {
        (b.value - a.value) / a.value
    };
    if !worsening.is_finite() || worsening > bound {
        return Verdict::Worse;
    }
    let b_beats_a = if higher_is_better {
        b.min > a.max
    } else {
        b.max < a.min
    };
    if a.own && (a.range() > bound || b.range() > bound) && !b_beats_a {
        return Verdict::Unresolved;
    }
    Verdict::Ok
}

fn untraced_runs(file: &Json) -> Vec<&Json> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        min: m.get("min")?.as_f64()?,
        max: m.get("max")?.as_f64()?,
        own: m.get("from")?.as_str()? == "own",
    })
}

/// Print the table; `Ok(false)` when any row is worse.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<14} {:<24} {:>14} {:>27} {:>14} {:>27} {:>6}  verdict",
        "workload", "metric", "A median", "A min–max", "B median", "B min–max", "bound"
    );
    let (mut worse, mut unresolved, mut rows) = (0, 0, 0);
    for run_a in untraced_runs(&a) {
        let workload = run_a.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(run_b) = untraced_runs(&b)
            .into_iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            return Err(format!("{path_b} has no untraced run of {workload}"));
        };
        for spec in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(run_a, spec.name), side(run_b, spec.name)) else {
                return Err(format!("{workload}: {} missing from a file", spec.name));
            };
            let verdict = judge(sa, sb, spec.better == "higher", spec.bound);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            rows += 1;
            println!(
                "{:<14} {:<24} {:>14.4} {:>13.4}–{:<13.4} {:>14.4} {:>13.4}–{:<13.4} {:>5.1}%  {}",
                workload,
                spec.name,
                sa.value,
                sa.min,
                sa.max,
                sb.value,
                sb.min,
                sb.max,
                100.0 * spec.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("{rows} rows: {worse} worse, {unresolved} unresolved");
    if rows == 0 {
        return Err("no untraced runs to compare".to_string());
    }
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(value: f64, min: f64, max: f64) -> Side {
        Side {
            value,
            min,
            max,
            own: true,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_range() {
        let a = side(100.0, 98.0, 102.0);
        // Higher is better: 8 % lower is inside a 10 % bound, 12 % is not.
        assert_eq!(judge(a, side(92.0, 91.0, 93.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(a, side(88.0, 87.0, 89.0), true, 0.10), Verdict::Worse);
        // Lower is better: the same numbers read the other way.
        assert_eq!(
            judge(a, side(108.0, 107.0, 109.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(a, side(112.0, 111.0, 113.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(a, side(60.0, 59.0, 61.0), false, 0.10), Verdict::Ok);
        // A range wider than the bound cannot confirm "unchanged" …
        assert_eq!(
            judge(a, side(99.0, 90.0, 104.0), true, 0.10),
            Verdict::Unresolved
        );
        // … unless every round of B beats every round of A.
        assert_eq!(judge(a, side(130.0, 110.0, 140.0), true, 0.10), Verdict::Ok);
        // A background row's range holds stalls: it does not count.
        let background = Side { own: false, ..a };
        assert_eq!(
            judge(background, side(99.0, 60.0, 104.0), true, 0.10),
            Verdict::Ok
        );
        // A missing value is never ok.
        assert_eq!(
            judge(a, side(f64::NAN, 0.0, 0.0), true, 0.10),
            Verdict::Worse
        );
    }
}
