//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [--quick] [--markdown] [--results DIR]
//!           [--no-cache] [--cache-dir DIR]
//!           [--timeline] [--simpoint] [--trace]
//!           [--profile] [--profile-interval N]
//!           [table1 .. fig10]
//! ```
//!
//! With no experiment arguments, all twenty artifacts are produced. Each is
//! printed to stdout and written as `<slug>.txt` / `<slug>.csv` under the
//! results directory (default `results/`). Characterization results are
//! memoized content-addressed under the cache directory (default
//! `results/cache`), so repeated runs replay from disk; `--no-cache` forces
//! full re-simulation and writes nothing.
//!
//! `--simpoint` additionally runs a representative-interval campaign over
//! the CPU2017 ref pairs: each pair is profiled in intervals, clustered,
//! sparsely replayed, and the per-pair speedup-vs-error record lands
//! content-addressed under `<results>/simpoints/` (rendered by
//! `simgate simpoint`, audited by `lint --simpoint`).
//!
//! Observability: `--timeline` records an interval-sampled counter timeline
//! per pair (written as CSV + SVG sparkline under `<results>/timelines/`;
//! sampled runs bypass the result cache). Every run records a causal span
//! tree: each stage is a span under the run root, and every per-pair job
//! nests under it across the scheduler's worker threads. At the end of the
//! run, failed or not, the root's direct children become a per-stage
//! summary table on stderr (wall time, peak RSS, throughput, cache
//! statistics). `--trace` also exports the tree as Perfetto-loadable
//! Chrome Trace Event JSON under `<results>/traces/` (feed it to
//! `simgate trace`). `--profile` records an op-clocked statistical profile
//! of the whole run — engine samples fold under the pipeline stage and
//! scheduler job frames — and writes the `.prof` artifact, folded stacks,
//! and a flamegraph SVG under `<results>/profiles/` (feed the `.prof` to
//! `simgate prof`; profiled runs bypass the result cache so there is always
//! engine work to sample). `<results>/metrics.json` is computed from the
//! run's spans when it ends, and a panic dumps the flight recorder's last
//! events to `<results>/flight-recorder.json`. Any
//! pipeline error renders on stderr and exits nonzero.

use std::process::ExitCode;
use std::time::Instant;

use simdash::manifest::kind as artifact_kind;
use uarch_sim::timeline::SamplerConfig;
use workchar::cache::CacheContext;
use workchar::characterize::RunConfig;
use workchar::cli::{ArgStream, PipelineFlags, Stdout};
use workchar::dataset::Dataset;
use workchar::error::{Error, Result};
use workchar::experiments::{self, correlation_notes, ExperimentId};
use workchar::observe::{rel_artifact, write_artifact, write_timeline_artifacts, Run, Stage};

struct Options {
    quick: bool,
    markdown: bool,
    shared: PipelineFlags,
    selected: Vec<ExperimentId>,
}

fn parse_args() -> Result<Option<Options>> {
    let mut opts = Options {
        quick: false,
        markdown: false,
        shared: PipelineFlags::new(),
        selected: Vec::new(),
    };
    let mut args = ArgStream::from_env();
    while let Some(arg) = args.next() {
        if opts.shared.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--markdown" => opts.markdown = true,
            "--help" | "-h" => {
                print_usage();
                return Ok(None);
            }
            flag if flag.starts_with('-') => {
                return Err(Error::Usage(format!("unknown argument '{flag}'")));
            }
            slug => match ExperimentId::from_slug(slug) {
                Some(id) => opts.selected.push(id),
                None => {
                    return Err(Error::Usage(format!("unknown experiment '{slug}'")));
                }
            },
        }
    }
    if opts.selected.is_empty() {
        opts.selected = ExperimentId::ALL.to_vec();
    }
    Ok(Some(opts))
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
    match real_main(opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(opts: Options) -> Result<()> {
    let mut stdout = Stdout::new();
    // The run opens its manifest and run-root span before any stage; every
    // write site below registers its artifact pointer with the manifest.
    let mut run = Run::start(
        "reproduce",
        if opts.quick { "quick" } else { "default" },
        &opts
            .shared
            .config_summary(&experiment_summary(&opts.selected)),
        &opts.shared,
    );
    run.arg("quick", opts.quick);

    // A cache-hit run executes no engine ops, leaving nothing to sample,
    // so profiled runs bypass the cache entirely.
    let cache = if opts.shared.no_cache || opts.shared.profile {
        None
    } else {
        match CacheContext::open(&opts.shared.cache_dir) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache at {}: {e}; running uncached",
                    opts.shared.cache_dir.display()
                );
                None
            }
        }
    };

    let mut config = if opts.quick {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    if opts.shared.timeline {
        config = config.with_sampler(SamplerConfig::default());
        if cache.is_some() {
            eprintln!("timeline sampling on: runs bypass the result cache");
        }
    }
    if opts.shared.lint {
        let cpu17 = workload_synth::cpu2017::suite();
        let cpu06 = workload_synth::cpu2006::suite();
        let report = workchar::lint::check_campaign(&[&cpu17, &cpu06], &config);
        if !report.is_empty() {
            eprint!("{}", report.to_table());
        }
        if report.failed(opts.shared.deny_warnings) {
            return Err(report.into());
        }
        eprintln!("lint: profiles and config — {}", report.summary());
    }
    eprintln!(
        "characterizing SPEC CPU2017 (194 pairs, 3 input sizes) and CPU2006 (29 apps) \
         on {} ...",
        config.system.name
    );
    let t0 = Instant::now();
    let mut stage = Stage::open("collect-dataset");
    let data = match Dataset::collect_with(config.clone(), cache.as_ref()) {
        Ok(data) => data,
        Err(e) => {
            // Even a failed campaign leaves a manifest and prints its
            // stage table: the per-pair failure details are exactly what
            // the --diff gate and the dashboard need to explain a
            // regression.
            drop(stage);
            return Err(run.fail(e));
        }
    };
    for r in data.cpu17.iter().chain(&data.cpu06) {
        run.manifest.pair_ok(&r.label());
    }
    let wall = t0.elapsed().as_secs_f64();
    let sim_ops: u64 = data
        .cpu17
        .iter()
        .chain(&data.cpu06)
        .map(|r| r.sim_ops)
        .sum();
    stage.arg("records_cpu17", data.cpu17.len());
    stage.arg("records_cpu06", data.cpu06.len());
    stage.arg("sim_ops", sim_ops);
    if wall > 0.0 {
        stage.arg("sim_ops_per_sec", sim_ops as f64 / wall);
    }
    if let Some(ctx) = &cache {
        let snap = ctx.stats.snapshot();
        stage.arg("cache_hits", snap.hits);
        stage.arg("cache_misses", snap.misses);
        stage.arg("cache_hit_rate", snap.hit_rate());
        stage.arg("cache_bytes_read", snap.bytes_read);
        stage.arg("cache_bytes_written", snap.bytes_written);
    }
    stage.finish();
    eprintln!(
        "collected {} CPU2017 and {} CPU2006 records in {wall:.1}s",
        data.cpu17.len(),
        data.cpu06.len(),
    );
    if let Some(ctx) = &cache {
        eprintln!("cache: {}", ctx.stats.snapshot());
    }

    std::fs::create_dir_all(&opts.shared.results_dir)?;
    // `REPORT.md` is assembled only when it is asked for.
    let mut report = opts.markdown.then(|| {
        String::from(
            "# SPEC CPU2017 characterization — regenerated artifacts\n\n         Produced by the `reproduce` binary; see EXPERIMENTS.md for the\n         paper-vs-measured discussion.\n\n",
        )
    });
    for id in &opts.selected {
        let id = *id;
        let mut stage = Stage::open("experiment");
        stage.arg("id", id.slug());
        let artifact = experiments::run(id, &data)?;
        stage.arg("tables", artifact.tables.len());
        stage.arg("figures", artifact.figures.len());
        let text = artifact.render();
        stdout.print(format_args!("{text}\n"));
        write_file(
            &opts.shared.results_dir,
            &format!("{}.txt", id.slug()),
            &text,
        );
        write_file(
            &opts.shared.results_dir,
            &format!("{}.csv", id.slug()),
            &artifact.render_csv(),
        );
        let mut svg_names = Vec::with_capacity(artifact.figures.len());
        for (i, figure) in artifact.figures.iter().enumerate() {
            let name = if artifact.figures.len() == 1 {
                format!("{}.svg", id.slug())
            } else {
                format!("{}_{}.svg", id.slug(), i + 1)
            };
            write_file(
                &opts.shared.results_dir,
                &name,
                &figure.render_svg(900, 420),
            );
            svg_names.push(name);
        }
        if let Some(report) = &mut report {
            report.push_str(&format!("## {id}\n\n"));
            for table in &artifact.tables {
                report.push_str(&table.render_markdown());
                report.push('\n');
            }
            for (figure, name) in artifact.figures.iter().zip(&svg_names) {
                report.push_str(&format!("![{}]({name})\n\n", figure.title()));
            }
            for (title, body) in &artifact.texts {
                report.push_str(&format!("**{title}**\n\n```text\n{body}```\n\n"));
            }
        }
        stage.finish();
    }
    if let Some(report) = &report {
        write_file(&opts.shared.results_dir, "REPORT.md", report);
        run.manifest.artifact(artifact_kind::REPORT, "REPORT.md");
    }

    if opts.shared.timeline {
        let mut stage = Stage::open("timeline-artifacts");
        let dir = opts.shared.results_dir.join("timelines");
        let mut records = data.cpu17.clone();
        records.extend(data.cpu06.iter().cloned());
        let written = write_timeline_artifacts(&records, &dir)?;
        run.manifest.artifact(
            artifact_kind::TIMELINES_DIR,
            rel_artifact(&opts.shared.results_dir, &dir),
        );
        stage.arg("pairs", written);
        stage.finish();
        eprintln!("wrote {written} pair timelines under {}", dir.display());
    }

    if opts.shared.simpoint {
        let mut stage = Stage::open("simpoint-campaign");
        let dir = opts.shared.results_dir.join("simpoints");
        let store = simstore::Store::open(&dir)?;
        let sp = simpoint::SimpointConfig::default();
        let apps = workload_synth::cpu2017::suite();
        eprintln!(
            "simpoint: representative-interval analysis of the CPU2017 ref pairs \
             (records under {})...",
            dir.display()
        );
        let records = workchar::simpoints::run_roster(
            &apps,
            workload_synth::profile::InputSize::Ref,
            &config,
            &sp,
            Some(&store),
        )?;
        stage.arg("pairs", records.len());
        let table = workchar::simpoints::summary_table(&records);
        let text = table.render_ascii();
        stdout.print(format_args!("{text}\n"));
        write_file(&opts.shared.results_dir, "simpoints.txt", &text);
        run.manifest.artifact(
            artifact_kind::SIMPOINTS_DIR,
            rel_artifact(&opts.shared.results_dir, &dir),
        );
        stage.finish();
    }

    // Full per-pair record dump — the machine-readable artifact downstream
    // analyses start from.
    write_file(
        &opts.shared.results_dir,
        "records_cpu2017.csv",
        &workchar::characterize::records_csv(&data.cpu17),
    );
    write_file(
        &opts.shared.results_dir,
        "records_cpu2006.csv",
        &workchar::characterize::records_csv(&data.cpu06),
    );
    run.manifest
        .artifact(artifact_kind::RECORDS_CSV, "records_cpu2017.csv");
    run.manifest
        .artifact(artifact_kind::RECORDS_CSV, "records_cpu2006.csv");

    stdout.print(format_args!(
        "==== inline correlations (Sections IV-C / IV-D) ====\n"
    ));
    for (name, c) in correlation_notes(&data) {
        stdout.print(format_args!("{name}: {c:+.3}\n"));
    }

    run.finish()
}

/// The experiments token of the manifest `config` field: `all` for a
/// full run, otherwise the selected slugs in order.
fn experiment_summary(selected: &[ExperimentId]) -> String {
    if selected == ExperimentId::ALL {
        "all".to_string()
    } else {
        selected
            .iter()
            .map(|id| id.slug())
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// Writes one artifact unless it already holds `contents`; a failed
/// write only warns.
fn write_file(dir: &std::path::Path, name: &str, contents: &str) {
    if let Err(e) = write_artifact(dir, name, contents.as_bytes()) {
        eprintln!("warning: cannot write {}: {e}", dir.join(name).display());
    }
}

fn print_usage() {
    let mut stdout = Stdout::new();
    stdout.print(format_args!(
        "usage: reproduce [--quick] [--markdown] [--results DIR] \
         [--no-cache] [--cache-dir DIR] [--lint] [--deny-warnings] \
         [--timeline] [--simpoint] [--trace] \
         [--profile] [--profile-interval N] [table1..table10 fig1..fig10]\n{}experiments:\n",
        PipelineFlags::usage_lines()
    ));
    for id in ExperimentId::ALL {
        stdout.print(format_args!("  {id}\n"));
    }
}
