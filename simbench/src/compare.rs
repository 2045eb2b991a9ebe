//! `simbench compare PARENT_DIR CHANGE_DIR`: the A/B rule.
//!
//! Each directory holds one subdirectory per workload, and in it one
//! `.json` file per run whose last non-empty line is that run's result
//! object (a run's stdout, saved as is). Runs pair by file name, so name them by seed and
//! make the two sides' runs alternately. For every workload and end-to-end
//! metric of the spec (`BENCHMARK.json`), the verdict is:
//!
//! - **regressed**: the change's median is worse than the parent's by more
//!   than the metric's bound;
//! - **improved**: the change wins at least 9 of every 10 pairs (ties count
//!   for neither) and the medians differ by more than the parent's
//!   interquartile range;
//! - **unresolved**: either side's interquartile range is wider than the
//!   bound, unless every change run reads better than every parent run;
//! - **unchanged**: otherwise.
//!
//! A rise in the failed share of pairs is flagged on its own. Exit codes
//! follow the repository's gate contract: 0 clean, 1 regression or more
//! failures, 2 usage, 3 missing input.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfmon::json::{self, Value};

use crate::stats::{median, quartiles};

/// One end-to-end metric of the spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One saved run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub attempted: f64,
    pub failed: f64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunResult {
    pub fn fail_frac(&self) -> f64 {
        if self.attempted > 0.0 {
            self.failed / self.attempted
        } else {
            1.0
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// The verdict on one metric from the parent's and the change's values;
/// `pairs` are the (parent, change) values of runs with the same name.
pub fn verdict(parent: &[f64], change: &[f64], pairs: &[(f64, f64)], spec: &Spec) -> Verdict {
    // Signed so that a positive difference is an improvement.
    let sign = if spec.lower_is_better { -1.0 } else { 1.0 };
    let better = |c: f64, p: f64| sign * (c - p) > 0.0;
    let (mp, mc) = (median(parent), median(change));
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    let parent_iqr = spread(parent);
    if sign * (mp - mc) > spec.bound * mp.abs() {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|(p, c)| better(*c, *p)).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && sign * (mc - mp) > parent_iqr {
        return Verdict::Improved;
    }
    let wide = parent_iqr > spec.bound * mp.abs() || spread(change) > spec.bound * mc.abs();
    let separated = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if wide && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Reads the end-to-end metrics of a `BENCHMARK.json`.
///
/// # Errors
///
/// A message naming what is missing or malformed.
pub fn read_spec(text: &str) -> Result<Vec<Spec>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("end_to_end entry without '{key}'"))
            };
            Ok(Spec {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without 'bound'")?,
            })
        })
        .collect()
}

/// Parses a run's saved stdout: its last non-empty line.
///
/// # Errors
///
/// A message when that line is not a result object.
pub fn read_run(text: &str) -> Result<RunResult, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty result")?;
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("result without '{key}'"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without 'metrics'")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Every run under `dir`, by workload then file name.
fn read_side(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, RunResult>>, String> {
    let mut side = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for workload in entries.flatten().filter(|e| e.path().is_dir()) {
        let mut runs = BTreeMap::new();
        let files = std::fs::read_dir(workload.path()).map_err(|e| e.to_string())?;
        for file in files
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        {
            let path = file.path();
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let run = read_run(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            runs.insert(file.file_name().to_string_lossy().into_owned(), run);
        }
        side.insert(workload.file_name().to_string_lossy().into_owned(), runs);
    }
    Ok(side)
}

/// One report row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub text: String,
    pub verdict: Verdict,
}

/// Compares two sides metric by metric; the second value lists the
/// workloads whose failed share rose.
pub fn compare_sides(
    parent: &BTreeMap<String, BTreeMap<String, RunResult>>,
    change: &BTreeMap<String, BTreeMap<String, RunResult>>,
    specs: &[Spec],
) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut fail_rises = Vec::new();
    for (workload, p_runs) in parent {
        let Some(c_runs) = change.get(workload) else {
            continue;
        };
        let worst = |runs: &BTreeMap<String, RunResult>| {
            runs.values().map(RunResult::fail_frac).fold(0.0, f64::max)
        };
        if worst(c_runs) > worst(p_runs) {
            fail_rises.push(workload.clone());
        }
        for spec in specs {
            let values = |runs: &BTreeMap<String, RunResult>| -> Vec<f64> {
                runs.values()
                    .filter_map(|r| r.metrics.get(&spec.name).copied())
                    .collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = p_runs
                .iter()
                .filter_map(|(name, pr)| {
                    Some((
                        *pr.metrics.get(&spec.name)?,
                        *c_runs.get(name)?.metrics.get(&spec.name)?,
                    ))
                })
                .collect();
            let v = verdict(&p, &c, &pairs, spec);
            let sign = if spec.lower_is_better { -1.0 } else { 1.0 };
            let wins = pairs.iter().filter(|(a, b)| sign * (b - a) > 0.0).count();
            let summary = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}] n={}", median(v), v.len())
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: format!("{} ({})", spec.name, spec.unit),
                text: format!(
                    "{} | {} | {:+.2}% | won {wins}/{} | bound {:.0}%",
                    summary(&p),
                    summary(&c),
                    100.0 * (median(&c) / median(&p) - 1.0),
                    pairs.len(),
                    100.0 * spec.bound
                ),
                verdict: v,
            });
        }
    }
    (rows, fail_rises)
}

pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(p) => spec_path = PathBuf::from(p),
                None => return usage("--spec needs a value"),
            },
            a if a.starts_with("--") => return usage(&format!("unknown argument '{a}'")),
            dir => dirs.push(PathBuf::from(dir)),
        }
    }
    let [parent_dir, change_dir] = &dirs[..] else {
        return usage("compare takes PARENT_DIR and CHANGE_DIR");
    };
    let loaded = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("{}: {e}", spec_path.display()))
        .and_then(|t| read_spec(&t))
        .and_then(|specs| Ok((specs, read_side(parent_dir)?, read_side(change_dir)?)));
    let (specs, parent, change) = match loaded {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let (rows, fail_rises) = compare_sides(&parent, &change, &specs);
    println!("workload / metric: parent median [q1, q3] | change median [q1, q3] | change | pairs won | bound -> verdict");
    for row in &rows {
        println!(
            "{:<15} {:<15} {} -> {}",
            row.workload,
            row.metric,
            row.text,
            row.verdict.label()
        );
    }
    for w in &fail_rises {
        println!("{w}: FAILED SHARE ROSE");
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    println!(
        "{} rows: {regressed} regressed, {} improved, {} unresolved; failed share rose on {} workload(s)",
        rows.len(),
        rows.iter().filter(|r| r.verdict == Verdict::Improved).count(),
        rows.iter().filter(|r| r.verdict == Verdict::Unresolved).count(),
        fail_rises.len()
    );
    if regressed > 0 || !fail_rises.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(what: &str) -> ExitCode {
    eprintln!("error: {what}\n{}", crate::USAGE);
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Spec {
        Spec {
            name: "pass_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    fn paired(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    fn judge(p: &[f64], c: &[f64], spec: &Spec) -> Verdict {
        verdict(p, c, &paired(p, c), spec)
    }

    const PARENT: [f64; 10] = [2.00, 2.02, 1.98, 2.01, 1.99, 2.03, 1.97, 2.00, 2.01, 1.99];

    #[test]
    fn a_clear_gain_is_improved() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&PARENT, &change, &lower(0.1)), Verdict::Improved);
        let higher = Spec {
            lower_is_better: false,
            ..lower(0.1)
        };
        let faster: Vec<f64> = PARENT.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&PARENT, &faster, &higher), Verdict::Improved);
    }

    #[test]
    fn a_gain_that_loses_pairs_is_not_improved() {
        // The medians move, but only 7 of 10 pairs are won.
        let mut change: Vec<f64> = PARENT.iter().map(|v| v * 0.97).collect();
        for c in change.iter_mut().take(3) {
            *c = 2.2;
        }
        assert_eq!(judge(&PARENT, &change, &lower(0.2)), Verdict::Unchanged);
    }

    #[test]
    fn a_gain_inside_the_parent_spread_is_not_improved() {
        // Every pair won, but by less than the parent's quartile spread.
        let change: Vec<f64> = PARENT.iter().map(|v| v - 0.001).collect();
        assert_eq!(judge(&PARENT, &change, &lower(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn a_loss_past_the_bound_is_regressed() {
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.15).collect();
        assert_eq!(judge(&PARENT, &change, &lower(0.1)), Verdict::Regressed);
        // Within the bound it is not.
        let change: Vec<f64> = PARENT.iter().map(|v| v * 1.05).collect();
        assert_eq!(judge(&PARENT, &change, &lower(0.1)), Verdict::Unchanged);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 1.8, 2.2, 2.0];
        assert_eq!(judge(&PARENT, &noisy, &lower(0.1)), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &noisy, &lower(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_fully_separated_is_not_unresolved() {
        let parent = [3.0, 4.0, 5.0, 6.0, 7.0];
        let change = [0.5, 1.0, 1.5, 1.8, 2.0];
        assert_eq!(judge(&parent, &change, &lower(0.1)), Verdict::Improved);
        let change = [2.0, 2.2, 2.4, 2.6, 2.9];
        // Separated but inside the parent's spread: not a gain, not unresolved.
        let parent_wide = [3.0, 3.1, 6.0, 9.0, 9.5];
        assert_eq!(
            judge(&parent_wide, &change, &lower(0.1)),
            Verdict::Unchanged
        );
    }

    #[test]
    fn identical_sides_are_unchanged() {
        assert_eq!(judge(&PARENT, &PARENT, &lower(0.1)), Verdict::Unchanged);
    }

    fn run(attempted: f64, failed: f64, pass_s: f64) -> RunResult {
        RunResult {
            attempted,
            failed,
            metrics: [("pass_s".to_string(), pass_s)].into_iter().collect(),
        }
    }

    #[test]
    fn sides_compare_by_workload_and_flag_more_failures() {
        let side = |failed: f64, scale: f64| {
            let runs: BTreeMap<String, RunResult> = PARENT
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("{i}.json"), run(100.0, failed, v * scale)))
                .collect();
            [("quick-cold".to_string(), runs)]
                .into_iter()
                .collect::<BTreeMap<_, _>>()
        };
        let (rows, rises) = compare_sides(&side(0.0, 1.0), &side(0.0, 1.5), &[lower(0.1)]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(rises.is_empty());
        let (rows, rises) = compare_sides(&side(0.0, 1.0), &side(3.0, 1.0), &[lower(0.1)]);
        assert_eq!(rows[0].verdict, Verdict::Unchanged);
        assert_eq!(rises, ["quick-cold"]);
    }

    #[test]
    fn results_and_spec_parse() {
        let run = read_run(
            "noise\n{\"correct\": true, \"attempted\": 223, \"failed\": 0, \"metrics\": \
             {\"pass_s\": {\"value\": 2.5, \"unit\": \"s\"}}}\n\n",
        )
        .unwrap();
        assert_eq!(run.metrics["pass_s"], 2.5);
        assert_eq!(run.fail_frac(), 0.0);
        assert!(read_run("{\"metrics\": {}}").is_err());
        let specs = read_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(specs
            .iter()
            .any(|s| s.name == "setup_s" && s.lower_is_better));
        assert!(specs.iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    }
}
