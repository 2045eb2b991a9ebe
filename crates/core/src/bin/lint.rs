//! Static model analysis: lints profiles, configs, cached results, and
//! run artifacts without running any simulation.
//!
//! ```text
//! lint [--all] [--profiles] [--config] [--cache-dir DIR]
//!      [--simpoint] [--simpoint-dir DIR] [--dash] [--runs-dir DIR]
//!      [--trace FILE]... [--prof FILE]... [--quick]
//!      [--json] [--deny-warnings] [--explain CODE]
//! ```
//!
//! `--all` lints the shipped CPU2017 + CPU2006 rosters and the Haswell
//! system configuration, and — when the default cache directory
//! (`results/cache`) exists — audits every
//! cached record's counter identities, plus any simpoint records under
//! `results/simpoints/`, trace artifacts under `results/traces/`,
//! profile artifacts under `results/profiles/`, and run manifests under
//! `results/runs/`.
//! Individual passes can be selected with `--profiles`, `--config`,
//! `--cache-dir DIR`, `--simpoint` (default store location) /
//! `--simpoint-dir DIR`, `--dash` (default manifest location) /
//! `--runs-dir DIR`, `--trace FILE`
//! (repeatable; either simtrace export format), and `--prof FILE`
//! (repeatable; simprof `.prof` artifacts).
//!
//! Every violation carries a stable rule code (`P...` profile, `C...`
//! config, `R...` result, `T...` trace,
//! `S...` simpoint, `F...` profiler, `D...` run manifest); `--explain CODE`
//! prints the catalog entry for one rule.
//! Exits 0 when clean, 1 when any error (or, under `--deny-warnings`,
//! any warning) was found, 2 on usage or I/O errors. The directory audits
//! only read: a `--cache-dir`, `--simpoint-dir` or `--runs-dir` that does
//! not exist or is not a directory is an I/O error, and no directory is
//! created.

use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simcheck::Report;
use workchar::characterize::RunConfig;
use workchar::error::{Error, Result};
use workchar::lint;
use workload_synth::{cpu2006, cpu2017};

struct Options {
    profiles: bool,
    config: bool,
    cache_dir: Option<PathBuf>,
    simpoint_dir: Option<PathBuf>,
    runs_dir: Option<PathBuf>,
    traces: Vec<PathBuf>,
    profs: Vec<PathBuf>,
    quick: bool,
    json: bool,
    deny_warnings: bool,
}

fn parse_args() -> Result<Option<Options>> {
    let mut opts = Options {
        profiles: false,
        config: false,
        cache_dir: None,
        simpoint_dir: None,
        runs_dir: None,
        traces: Vec::new(),
        profs: Vec::new(),
        quick: false,
        json: false,
        deny_warnings: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => {
                opts.profiles = true;
                opts.config = true;
                // Audit the default cache location only if a cache exists
                // there; a fresh checkout must still lint clean.
                let default_cache = PathBuf::from("results/cache");
                if opts.cache_dir.is_none() && default_cache.is_dir() {
                    opts.cache_dir = Some(default_cache);
                }
                // Simpoint records get the same opportunistic pick-up.
                let default_simpoints = PathBuf::from("results/simpoints");
                if opts.simpoint_dir.is_none() && default_simpoints.is_dir() {
                    opts.simpoint_dir = Some(default_simpoints);
                }
                // Run manifests too: audit whatever campaign runs have
                // recorded under the default results location.
                let default_runs = PathBuf::from("results/runs");
                if opts.runs_dir.is_none() && default_runs.is_dir() {
                    opts.runs_dir = Some(default_runs);
                }
                // Same opportunistic pick-up for trace artifacts: audit
                // whatever `reproduce --trace` has left behind, if anything.
                let default_traces = PathBuf::from("results/traces");
                if let Ok(entries) = std::fs::read_dir(&default_traces) {
                    let mut found: Vec<PathBuf> = entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|p| {
                            p.file_name()
                                .and_then(|n| n.to_str())
                                .is_some_and(|n| n.ends_with(".trace.json"))
                        })
                        .collect();
                    found.sort();
                    opts.traces.extend(found);
                }
                // And for profiler artifacts from `reproduce --profile`.
                let default_profiles = PathBuf::from("results/profiles");
                if let Ok(entries) = std::fs::read_dir(&default_profiles) {
                    let mut found: Vec<PathBuf> = entries
                        .flatten()
                        .map(|e| e.path())
                        .filter(|p| {
                            p.extension()
                                .and_then(|e| e.to_str())
                                .is_some_and(|e| e == "prof")
                        })
                        .collect();
                    found.sort();
                    opts.profs.extend(found);
                }
            }
            "--profiles" => opts.profiles = true,
            "--config" => opts.config = true,
            "--quick" => opts.quick = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--cache-dir" => {
                opts.cache_dir =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        Error::Usage("--cache-dir needs a directory".to_string())
                    })?));
            }
            "--simpoint" => {
                if opts.simpoint_dir.is_none() {
                    opts.simpoint_dir = Some(PathBuf::from("results/simpoints"));
                }
            }
            "--simpoint-dir" => {
                opts.simpoint_dir = Some(PathBuf::from(args.next().ok_or_else(|| {
                    Error::Usage("--simpoint-dir needs a directory".to_string())
                })?));
            }
            "--dash" => {
                if opts.runs_dir.is_none() {
                    opts.runs_dir = Some(PathBuf::from("results/runs"));
                }
            }
            "--runs-dir" => {
                opts.runs_dir =
                    Some(PathBuf::from(args.next().ok_or_else(|| {
                        Error::Usage("--runs-dir needs a directory".to_string())
                    })?));
            }
            "--trace" => {
                opts.traces
                    .push(PathBuf::from(args.next().ok_or_else(|| {
                        Error::Usage("--trace needs a file path".to_string())
                    })?));
            }
            "--prof" => {
                opts.profs
                    .push(PathBuf::from(args.next().ok_or_else(|| {
                        Error::Usage("--prof needs a file path".to_string())
                    })?));
            }
            "--explain" => {
                let code = args
                    .next()
                    .ok_or_else(|| Error::Usage("--explain needs a rule code".to_string()))?;
                match simcheck::explain(&code) {
                    Some(text) => {
                        println!("{text}");
                        return Ok(None);
                    }
                    None => {
                        let hint = match simcheck::suggest(&code) {
                            Some(s) => format!("; did you mean '{s}'?"),
                            None => String::new(),
                        };
                        return Err(Error::Usage(format!(
                            "unknown rule code '{code}' (codes are P/C/R/T/S/F/Dxxx; \
                             see DESIGN.md){hint}"
                        )));
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return Ok(None);
            }
            other => {
                return Err(Error::Usage(format!("unknown argument '{other}'")));
            }
        }
    }
    let selected_any = opts.profiles
        || opts.config
        || opts.cache_dir.is_some()
        || opts.simpoint_dir.is_some()
        || opts.runs_dir.is_some()
        || !opts.traces.is_empty()
        || !opts.profs.is_empty();
    if !selected_any {
        return Err(Error::Usage(
            "nothing to lint; pass --all or select passes (see --help)".to_string(),
        ));
    }
    Ok(Some(opts))
}

fn run(opts: &Options) -> Result<Report> {
    let config = if opts.quick {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    let mut report = Report::new();

    if opts.profiles || opts.config {
        let cpu17 = cpu2017::suite();
        let cpu06 = cpu2006::suite();
        if opts.profiles && opts.config {
            report.merge(lint::check_campaign(&[&cpu17, &cpu06], &config));
            eprintln!(
                "linted {} CPU2017 + {} CPU2006 profiles and config '{}'",
                cpu17.len(),
                cpu06.len(),
                config.system.name
            );
        } else if opts.config {
            report.merge(uarch_sim::lint::check_system(&config.system));
            eprintln!("linted config '{}'", config.system.name);
        } else {
            for apps in [&cpu17, &cpu06] {
                report.merge(workload_synth::lint::check_roster(
                    apps,
                    Some(&config.system),
                ));
            }
            eprintln!(
                "linted {} CPU2017 + {} CPU2006 profiles",
                cpu17.len(),
                cpu06.len()
            );
        }
    }

    if let Some(dir) = &opts.cache_dir {
        let store = open_store(dir)?;
        let (visited, audit) = lint::audit_cache(&store, Some(&config.system));
        eprintln!("audited {visited} cached records under {}", dir.display());
        report.merge(audit);
    }

    if let Some(dir) = &opts.simpoint_dir {
        let store = open_store(dir)?;
        let (visited, audit) = simpoint::lint::audit_store(&store);
        eprintln!("audited {visited} simpoint records under {}", dir.display());
        report.merge(audit);
    }

    if let Some(dir) = &opts.runs_dir {
        existing_dir(dir)?;
        let (manifests, audit) = simdash::lint::check_runs_dir(dir);
        eprintln!("audited {manifests} run manifests under {}", dir.display());
        report.merge(audit);
    }

    for path in &opts.traces {
        let spans = simtrace::load(path)?;
        eprintln!("audited {}: {} trace spans", path.display(), spans.len());
        report.merge(simtrace::lint::check_trace(
            &path.display().to_string(),
            &spans,
        ));
    }

    for path in &opts.profs {
        let text = std::fs::read_to_string(path)?;
        eprintln!(
            "audited {}: {} profile lines",
            path.display(),
            text.lines().count()
        );
        report.merge(simprof::lint::check_profile_text(
            &path.display().to_string(),
            &text,
        ));
    }

    Ok(report)
}

/// Opens the store at `dir` for an audit, creating nothing; the error
/// names the path.
fn open_store(dir: &Path) -> io::Result<simstore::Store> {
    existing_dir(dir)?;
    simstore::Store::open_existing(dir)
}

/// Checks that `dir` exists and is a directory, creating nothing; the
/// error names the path.
fn existing_dir(dir: &Path) -> io::Result<()> {
    std::fs::read_dir(dir)
        .map(drop)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", dir.display())))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.to_table());
    }
    if report.failed(opts.deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn print_usage() {
    println!(
        "usage: lint [--all] [--profiles] [--config] [--cache-dir DIR] \
         [--simpoint] [--simpoint-dir DIR] \
         [--dash] [--runs-dir DIR] \
         [--trace FILE]... [--prof FILE]... [--quick] [--json] \
         [--deny-warnings] [--explain CODE]"
    );
    println!(
        "  --all            lint shipped rosters + config \
         (+ results/cache, results/simpoints, results/traces, \
         results/profiles, and results/runs if present)"
    );
    println!("  --profiles       lint the CPU2017 and CPU2006 behavior profiles (P-rules)");
    println!("  --config         lint the system configuration (C-rules)");
    println!("  --cache-dir DIR  audit every cached record in DIR (R-rules)");
    println!("  --simpoint       audit simpoint records under results/simpoints (S-rules)");
    println!("  --simpoint-dir DIR  audit simpoint records in DIR (S-rules)");
    println!("  --dash           audit run manifests under results/runs (D-rules)");
    println!("  --runs-dir DIR   audit run manifests in DIR (D-rules)");
    println!(
        "  --trace FILE     audit a simtrace artifact, .trace.json or .trace.bin \
         (T-rules; repeatable)"
    );
    println!("  --prof FILE      audit a simprof .prof artifact (F-rules; repeatable)");
    println!("  --quick          use the reduced-fidelity run configuration");
    println!("  --json           machine-readable diagnostics document on stdout");
    println!("  --deny-warnings  exit nonzero on warnings, not just errors");
    println!("  --explain CODE   print the catalog entry for one rule and exit");
}
