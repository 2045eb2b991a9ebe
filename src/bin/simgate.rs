//! The workspace's one gate binary: five subcommands that render a run
//! artifact and, given a baseline or a bar, gate on it.
//!
//! ```text
//! simgate trace [--top N] <run.trace>
//! simgate trace --diff <old.trace> <new.trace> [--top N] [--threshold-pct P] [--abs-ms MS]
//! simgate prof <run.prof>
//! simgate prof --diff <old.prof> <new.prof> [--threshold-pct P] [--min-weight N]
//! simgate dash [--results DIR] [--run ID] [--out FILE] [--baseline-prof FILE]
//! simgate dash --diff <baseline-manifest.json> [--results DIR] [--run ID] [--max-wall-pct P]
//! simgate bench --baseline FILE --current FILE [--max-regression FRACTION] [--write]
//! simgate simpoint [--dir DIR] [--markdown] [--json] [--max-error PCT] [--min-speedup X]
//! ```
//!
//! Every subcommand also takes `--allow-missing` and `--help`. They parse
//! their flags in one loop over [`workchar::cli::ArgStream`] and end
//! through one exit-code mapping (DESIGN.md §16):
//!
//! - 0: clean, or `--help` (usage on stdout);
//! - 1: a gate was crossed;
//! - 2: a usage error, an I/O error, or an artifact that does not decode;
//! - 3: nothing to compare against: a missing baseline, baseline entries
//!   the current artifact lacks, or an empty simpoint store.
//!   `--allow-missing` turns 3 into 0 and notes it on stderr.
//!
//! The analyses live in their libraries: `simtrace::analyze`,
//! `simprof::analyze`, `simdash`, `bench_suite::harness` and
//! `workchar::simpoints`.

use std::path::PathBuf;
use std::process::ExitCode;

use bench_suite::harness::{compare, merge_entries, read_results, write_results};
use simdash::html::{render, ReportOptions};
use simdash::manifest::{latest, load_manifest, RUNS_DIR};
use simpoint::SimpointRecord;
use workchar::cli::ArgStream;
use workchar::error::Error;
use workchar::simpoints::summary_table;

/// A gate that ran to a verdict.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Exit 0.
    Clean,
    /// Exit 1; the report names what crossed the gate.
    Regressed,
}

/// A gate that stopped short of a verdict.
#[derive(Debug)]
enum Stop {
    /// `--help`: usage on stdout, exit 0.
    Help,
    /// A bad flag or argument: exit 2.
    Usage(String),
    /// An artifact that cannot be read or does not decode: exit 2.
    Broken(String),
    /// Nothing to compare against: exit 3, or 0 with `--allow-missing`.
    Missing(String),
}

impl From<Error> for Stop {
    fn from(e: Error) -> Stop {
        match e {
            Error::Usage(message) => Stop::Usage(message),
            other => Stop::Broken(other.to_string()),
        }
    }
}

/// One subcommand's arguments and the flag every subcommand shares.
struct Invocation {
    args: ArgStream,
    allow_missing: bool,
}

impl Invocation {
    /// The one flag loop. `--help`/`-h` and `--allow-missing` mean the
    /// same to every subcommand; `own` takes the subcommand's flags and
    /// positional arguments, and returns `Ok(false)` for one it does not
    /// know.
    fn parse(
        &mut self,
        mut own: impl FnMut(&str, &mut ArgStream) -> Result<bool, Error>,
    ) -> Result<(), Stop> {
        while let Some(arg) = self.args.next() {
            match arg.as_str() {
                "--help" | "-h" => return Err(Stop::Help),
                "--allow-missing" => self.allow_missing = true,
                _ => {
                    if !own(&arg, &mut self.args)? {
                        return Err(Stop::Usage(format!("unknown argument '{arg}'")));
                    }
                }
            }
        }
        Ok(())
    }
}

type Gate = fn(&mut Invocation) -> Result<Verdict, Stop>;

/// `(name, usage, gate)` for every subcommand.
const SUBCOMMANDS: [(&str, &str, Gate); 5] = [
    (
        "trace",
        "usage: simgate trace [--top N] <run.trace>\n       \
         simgate trace --diff <old.trace> <new.trace> [--top N] [--threshold-pct P] \
         [--abs-ms MS] [--allow-missing]",
        trace,
    ),
    (
        "prof",
        "usage: simgate prof <run.prof>\n       \
         simgate prof --diff <old.prof> <new.prof> [--threshold-pct P] [--min-weight N] \
         [--allow-missing]",
        prof,
    ),
    (
        "dash",
        "usage: simgate dash [--results DIR] [--run ID] [--out FILE] [--baseline-prof FILE]\n       \
         simgate dash --diff <baseline-manifest.json> [--results DIR] [--run ID] \
         [--max-wall-pct P] [--allow-missing]",
        dash,
    ),
    (
        "bench",
        "usage: simgate bench --baseline FILE --current FILE \
         [--max-regression FRACTION] [--allow-missing] [--write]",
        bench,
    ),
    (
        "simpoint",
        "usage: simgate simpoint [--dir DIR] [--markdown] [--json] \
         [--max-error PCT] [--min-speedup X] [--allow-missing]\n  \
         --dir DIR        simpoint store directory (default results/simpoints)\n  \
         --markdown       render the table as markdown instead of ASCII\n  \
         --json           render the table as CSV on stdout\n  \
         --max-error PCT  fail if any pair's headline error exceeds PCT percent\n  \
         --min-speedup X  fail if any pair's speedup falls below X\n  \
         --allow-missing  exit 0 instead of 3 when the store holds no records",
        simpoint,
    ),
];

fn main() -> ExitCode {
    let mut args = ArgStream::from_env();
    let name = args.next().unwrap_or_default();
    let Some(&(name, usage, gate)) = SUBCOMMANDS.iter().find(|(n, ..)| *n == name) else {
        let all: Vec<&str> = SUBCOMMANDS.iter().map(|(_, usage, _)| *usage).collect();
        let all = all.join("\n");
        if matches!(name.as_str(), "--help" | "-h") {
            println!("{all}");
            return ExitCode::SUCCESS;
        }
        eprintln!("simgate: unknown subcommand '{name}'\n{all}");
        return ExitCode::from(2);
    };
    let mut invocation = Invocation {
        args,
        allow_missing: false,
    };
    match gate(&mut invocation) {
        Ok(Verdict::Clean) => ExitCode::SUCCESS,
        Ok(Verdict::Regressed) => ExitCode::FAILURE,
        Err(Stop::Help) => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Err(Stop::Usage(message)) => {
            eprintln!("simgate {name}: {message}\n{usage}");
            ExitCode::from(2)
        }
        Err(Stop::Broken(message)) => {
            eprintln!("simgate {name}: error: {message}");
            ExitCode::from(2)
        }
        Err(Stop::Missing(message)) if invocation.allow_missing => {
            eprintln!("simgate {name}: {message} (tolerated: --allow-missing)");
            ExitCode::SUCCESS
        }
        Err(Stop::Missing(message)) => {
            eprintln!("simgate {name}: {message}; pass --allow-missing to tolerate this");
            ExitCode::from(3)
        }
    }
}

/// Parses the `[--diff] <file>...` shape `trace` and `prof` share; `own`
/// takes the subcommand's numeric flags. Returns the diff flag and the
/// one or two paths it asks for.
fn diff_paths(
    invocation: &mut Invocation,
    what: &str,
    mut own: impl FnMut(&str, &mut ArgStream) -> Result<bool, Error>,
) -> Result<(bool, Vec<PathBuf>), Stop> {
    let mut diff = false;
    let mut paths = Vec::new();
    invocation.parse(|arg, args| {
        match arg {
            "--diff" => diff = true,
            path if !path.starts_with('-') => paths.push(PathBuf::from(path)),
            _ => return own(arg, args),
        }
        Ok(true)
    })?;
    let expected = if diff { 2 } else { 1 };
    if paths.len() != expected {
        return Err(Stop::Usage(format!(
            "expected {expected} {what} file(s), got {}",
            paths.len()
        )));
    }
    Ok((diff, paths))
}

/// Self-time, critical path and utilization of one trace, or a gated
/// diff of two.
fn trace(invocation: &mut Invocation) -> Result<Verdict, Stop> {
    use simtrace::analyze;
    let (mut top, mut threshold_pct, mut abs_ms) = (15usize, 10.0f64, 1.0f64);
    let (diff, paths) = diff_paths(invocation, "trace", |arg, args| {
        match arg {
            "--top" => top = args.number(arg, "a count")?,
            "--threshold-pct" => threshold_pct = args.number(arg, "a percentage")?,
            "--abs-ms" => abs_ms = args.number(arg, "milliseconds")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if diff && !paths[0].exists() {
        return Err(Stop::Missing(format!(
            "baseline trace {} does not exist",
            paths[0].display()
        )));
    }
    let load = |i: usize| {
        simtrace::load(&paths[i]).map_err(|e| Stop::Broken(format!("{}: {e}", paths[i].display())))
    };
    if !diff {
        let spans = load(0)?;
        println!(
            "trace {} — {} spans\n\nself time (top {top}):",
            paths[0].display(),
            spans.len(),
        );
        print!(
            "{}",
            analyze::render_self_time(&analyze::self_time(&spans), top)
        );
        println!("\ncritical path:");
        print!(
            "{}",
            analyze::render_critical_path(&analyze::critical_path(&spans))
        );
        match analyze::utilization(&spans) {
            Some(u) => {
                println!("\nscheduler utilization:");
                print!("{}", analyze::render_utilization(&u));
            }
            None => println!("\nscheduler utilization: no sched/batch spans in this trace"),
        }
        return Ok(Verdict::Clean);
    }
    let (old, new) = (load(0)?, load(1)?);
    let report = analyze::diff(
        &old,
        &new,
        analyze::DiffOptions {
            threshold_pct,
            min_delta_ns: (abs_ms * 1e6) as u64,
        },
    );
    println!(
        "diff {} -> {} (gate: +{threshold_pct}% and +{abs_ms} ms)\n",
        paths[0].display(),
        paths[1].display(),
    );
    print!("{}", analyze::render_diff(&report, top));
    let regressions = report.regressions().count();
    if regressions > 0 {
        eprintln!("\n{regressions} span key(s) regressed past the gate");
        return Ok(Verdict::Regressed);
    }
    println!("\nno regressions past the gate");
    Ok(Verdict::Clean)
}

/// Self/total attribution of one profile, or a gated diff of two.
fn prof(invocation: &mut Invocation) -> Result<Verdict, Stop> {
    use simprof::analyze;
    let (mut threshold_pct, mut min_weight) = (25.0f64, 1000u64);
    let (diff, paths) = diff_paths(invocation, "profile", |arg, args| {
        match arg {
            "--threshold-pct" => threshold_pct = args.number(arg, "a percentage")?,
            "--min-weight" => min_weight = args.number(arg, "an op count")?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if diff && !paths[0].exists() {
        return Err(Stop::Missing(format!(
            "baseline profile {} does not exist",
            paths[0].display()
        )));
    }
    let load = |i: usize| simprof::load(&paths[i]).map_err(|e| Stop::Broken(e.to_string()));
    if !diff {
        let title = paths[0].display().to_string();
        print!("{}", analyze::render_report(&title, &load(0)?));
        return Ok(Verdict::Clean);
    }
    let (old, new) = (load(0)?, load(1)?);
    let report = analyze::diff(
        &old,
        &new,
        analyze::DiffOptions {
            threshold_pct,
            min_weight,
        },
    );
    println!(
        "diff {} -> {} (gate: +{threshold_pct}% and +{min_weight} ops of self weight)\n",
        paths[0].display(),
        paths[1].display(),
    );
    print!("{}", analyze::render_diff(&old, &new, &report));
    let regressions = report.regressions().len();
    if regressions > 0 {
        eprintln!("\n{regressions} frame(s) regressed past the gate");
        return Ok(Verdict::Regressed);
    }
    if !report.missing.is_empty() {
        return Err(Stop::Missing(format!(
            "{} baseline frame(s) missing from the current profile",
            report.missing.len()
        )));
    }
    println!("\nno regressions past the gate");
    Ok(Verdict::Clean)
}

/// Renders the selected run manifest as one HTML dashboard, or gates it
/// against a baseline manifest.
fn dash(invocation: &mut Invocation) -> Result<Verdict, Stop> {
    let mut results = PathBuf::from("results");
    let (mut run, mut out, mut baseline_prof, mut diff) = (None, None, None, None);
    let mut max_wall_pct: Option<f64> = None;
    invocation.parse(|arg, args| {
        match arg {
            "--results" => results = args.path(arg, "a directory")?,
            "--run" => run = Some(args.value(arg, "a run id")?),
            "--out" => out = Some(args.path(arg, "a file path")?),
            "--baseline-prof" => baseline_prof = Some(args.path(arg, "a file path")?),
            "--diff" => diff = Some(args.path(arg, "a manifest path")?),
            "--max-wall-pct" => max_wall_pct = Some(args.number(arg, "a percentage")?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if let Some(baseline) = &diff {
        if !baseline.exists() {
            return Err(Stop::Missing(format!(
                "baseline manifest {} does not exist",
                baseline.display()
            )));
        }
    }
    let cannot_load = |path: &PathBuf, e: &dyn std::fmt::Display| {
        Stop::Broken(format!("cannot load {}: {e}", path.display()))
    };
    let manifest = match &run {
        Some(id) => {
            let path = results.join(RUNS_DIR).join(format!("{id}.json"));
            load_manifest(&path).map_err(|e| cannot_load(&path, &e))?
        }
        None => {
            let latest = latest(&results).map_err(|e| Stop::Broken(e.to_string()))?;
            let Some((_, manifest)) = latest else {
                return Err(Stop::Broken(format!(
                    "no run manifests under {}; run reproduce/extensions first",
                    results.join(RUNS_DIR).display()
                )));
            };
            manifest
        }
    };
    let Some(baseline) = &diff else {
        let html = render(&manifest, &results, &ReportOptions { baseline_prof })
            .map_err(|e| Stop::Broken(e.to_string()))?;
        let out = out.unwrap_or_else(|| {
            results
                .join(RUNS_DIR)
                .join(format!("{}.html", manifest.run_id))
        });
        if let Some(parent) = out.parent() {
            std::fs::create_dir_all(parent).map_err(|e| Stop::Broken(e.to_string()))?;
        }
        std::fs::write(&out, html).map_err(|e| Stop::Broken(e.to_string()))?;
        println!(
            "dashboard for run {} ({} pairs, {} artifacts) -> {}",
            manifest.run_id,
            manifest.pairs.len(),
            manifest.artifacts.len(),
            out.display()
        );
        return Ok(Verdict::Clean);
    };
    let base = load_manifest(baseline).map_err(|e| cannot_load(baseline, &e))?;
    let current = manifest;
    println!(
        "diff {} ({} pairs) -> {} ({} pairs)",
        base.run_id,
        base.pairs.len(),
        current.run_id,
        current.pairs.len()
    );
    let mut regressions = Vec::new();
    if current.ok_count() < base.ok_count() {
        regressions.push(format!(
            "pairs ok shrank: {} -> {}",
            base.ok_count(),
            current.ok_count()
        ));
    }
    if current.failed_count() > base.failed_count() {
        regressions.push(format!(
            "pair failures grew: {} -> {}",
            base.failed_count(),
            current.failed_count()
        ));
    }
    let (base_ms, cur_ms) = (base.wall_ms(), current.wall_ms());
    match max_wall_pct {
        Some(pct) => {
            if cur_ms as f64 > base_ms as f64 * (1.0 + pct / 100.0) {
                regressions.push(format!(
                    "wall time grew past +{pct}%: {base_ms} ms -> {cur_ms} ms"
                ));
            }
            println!("wall: {base_ms} ms -> {cur_ms} ms (gate +{pct}%)");
        }
        None => {
            println!("wall: {base_ms} ms -> {cur_ms} ms (not gated; pass --max-wall-pct to gate)")
        }
    }
    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("regression: {r}");
        }
        return Ok(Verdict::Regressed);
    }
    println!("no manifest-level regressions");
    Ok(Verdict::Clean)
}

/// `simgate bench`'s flags.
#[derive(Debug)]
struct BenchOptions {
    baseline: PathBuf,
    current: PathBuf,
    max_regression: f64,
    write: bool,
}

fn bench_options(invocation: &mut Invocation) -> Result<BenchOptions, Stop> {
    let (mut baseline, mut current) = (None, None);
    let (mut max_regression, mut write) = (0.10f64, false);
    invocation.parse(|arg, args| {
        match arg {
            "--baseline" => baseline = Some(args.path(arg, "a file path")?),
            "--current" => current = Some(args.path(arg, "a file path")?),
            "--max-regression" => max_regression = args.number(arg, "a fraction")?,
            "--write" => write = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if !(0.0..10.0).contains(&max_regression) {
        return Err(Stop::Usage(format!(
            "--max-regression: {max_regression} not in [0, 10)"
        )));
    }
    let required = |flag: &str| Stop::Usage(format!("{flag} is required"));
    Ok(BenchOptions {
        baseline: baseline.ok_or_else(|| required("--baseline"))?,
        current: current.ok_or_else(|| required("--current"))?,
        max_regression,
        write,
    })
}

/// Gates `BENCH_results.json` medians against a baseline: a benchmark
/// regresses when its median slowed by more than `--max-regression`.
/// `--write` merges the current medians over the baseline afterwards, and
/// with `--allow-missing` seeds a missing baseline from them.
fn bench(invocation: &mut Invocation) -> Result<Verdict, Stop> {
    let opts = bench_options(invocation)?;
    let read = |path: &PathBuf| {
        read_results(path).map_err(|e| Stop::Broken(format!("{}: {e}", path.display())))
    };
    let write = |path: &PathBuf, entries| {
        write_results(path, entries).map_err(|e| Stop::Broken(format!("{}: {e}", path.display())))
    };
    if !opts.baseline.exists() {
        let message = format!("baseline {} does not exist", opts.baseline.display());
        if invocation.allow_missing && opts.write {
            write(&opts.baseline, &read(&opts.current)?)?;
            eprintln!("{message}; seeded it from the current run (--allow-missing --write)");
            return Ok(Verdict::Clean);
        }
        return Err(Stop::Missing(message));
    }
    let baseline = read(&opts.baseline)?;
    let current = read(&opts.current)?;
    let outcome = compare(&baseline, &current, opts.max_regression);
    print!("{}", outcome.report);
    if opts.write {
        let mut merged = baseline;
        merge_entries(&mut merged, &current);
        write(&opts.baseline, &merged)?;
        println!("merged current medians into {}", opts.baseline.display());
    }
    if !outcome.regressed.is_empty() {
        eprintln!("{} benchmark(s) regressed:", outcome.regressed.len());
        for name in &outcome.regressed {
            eprintln!("  {name}");
        }
        return Ok(Verdict::Regressed);
    }
    if !outcome.missing.is_empty() {
        return Err(Stop::Missing(format!(
            "{} baseline benchmark(s) missing from the current run \
             (renamed or dropped?): {}",
            outcome.missing.len(),
            outcome.missing.join(", ")
        )));
    }
    Ok(Verdict::Clean)
}

/// Renders the simpoint store's per-pair speedup-vs-error table and gates
/// on `--max-error` and `--min-speedup`.
fn simpoint(invocation: &mut Invocation) -> Result<Verdict, Stop> {
    let mut dir = PathBuf::from("results/simpoints");
    let (mut markdown, mut json) = (false, false);
    let (mut max_error_pct, mut min_speedup): (Option<f64>, Option<f64>) = (None, None);
    invocation.parse(|arg, args| {
        match arg {
            "--dir" => dir = args.path(arg, "a directory")?,
            "--markdown" => markdown = true,
            "--json" => json = true,
            "--max-error" => max_error_pct = Some(args.number(arg, "a percentage")?),
            "--min-speedup" => min_speedup = Some(args.number(arg, "a factor")?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let store =
        simstore::Store::open(&dir).map_err(|e| Stop::Broken(format!("{}: {e}", dir.display())))?;
    let mut records = Vec::new();
    let mut undecodable = 0usize;
    for key in store.keys() {
        let Some(payload) = store.get(key) else {
            continue;
        };
        match SimpointRecord::decode(&payload) {
            Ok(record) => records.push(record),
            Err(e) => {
                eprintln!("error: record {key} does not decode: {e}");
                undecodable += 1;
            }
        }
    }
    if undecodable > 0 {
        return Err(Stop::Broken(format!(
            "{undecodable} record(s) under {} do not decode",
            dir.display()
        )));
    }
    if records.is_empty() {
        return Err(Stop::Missing(format!(
            "no simpoint records under {} (run `reproduce --simpoint` first)",
            dir.display()
        )));
    }
    records.sort_by(|a, b| a.id.cmp(&b.id));
    let table = summary_table(&records);
    if json {
        println!("{}", table.render_csv());
    } else if markdown {
        println!("{}", table.render_markdown());
    } else {
        println!("{}", table.render_ascii());
    }

    let mut clean = true;
    if let Some(max_pct) = max_error_pct {
        for r in &records {
            let pct = r.max_headline_error() * 100.0;
            if pct > max_pct {
                eprintln!(
                    "gate: {} headline error {pct:.2}% exceeds --max-error {max_pct}%",
                    r.id
                );
                clean = false;
            }
        }
    }
    if let Some(min) = min_speedup {
        for r in &records {
            let speedup = r.speedup();
            if speedup < min {
                eprintln!(
                    "gate: {} speedup {speedup:.1}x below --min-speedup {min}x",
                    r.id
                );
                clean = false;
            }
        }
    }
    if !clean {
        return Ok(Verdict::Regressed);
    }
    let worst_err = records
        .iter()
        .map(|r| r.max_headline_error())
        .fold(0.0f64, f64::max);
    let worst_speedup = records
        .iter()
        .map(|r| r.speedup())
        .fold(f64::INFINITY, f64::min);
    eprintln!(
        "{} pair(s): worst headline error {:.2}%, worst speedup {:.1}x",
        records.len(),
        worst_err * 100.0,
        worst_speedup
    );
    Ok(Verdict::Clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invocation(args: &[&str]) -> Invocation {
        Invocation {
            args: ArgStream::from_args(args.iter().copied()),
            allow_missing: false,
        }
    }

    #[test]
    fn bench_flags_parse_and_validate() {
        let mut inv = invocation(&[
            "--baseline",
            "a.json",
            "--current",
            "b.json",
            "--max-regression",
            "0.25",
            "--allow-missing",
            "--write",
        ]);
        let opts = bench_options(&mut inv).expect("valid flags");
        assert_eq!(opts.baseline, PathBuf::from("a.json"));
        assert_eq!(opts.current, PathBuf::from("b.json"));
        assert!((opts.max_regression - 0.25).abs() < 1e-12);
        assert!(inv.allow_missing);
        assert!(opts.write);

        for bad in [
            &["--baseline", "a.json"][..],
            &["--frobnicate"],
            &[
                "--baseline",
                "a",
                "--current",
                "b",
                "--max-regression",
                "12",
            ],
        ] {
            let result = bench_options(&mut invocation(bad));
            assert!(matches!(result, Err(Stop::Usage(_))), "{bad:?}: {result:?}");
        }
        assert!(matches!(
            bench_options(&mut invocation(&["--help"])),
            Err(Stop::Help)
        ));
    }
}
