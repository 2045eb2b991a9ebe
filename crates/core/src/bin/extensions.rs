//! Regenerates the beyond-the-paper artifacts: design-choice ablations and
//! the phase-behaviour analysis the paper proposes as future work.
//!
//! ```text
//! extensions [--results DIR] [--no-cache] [--cache-dir DIR]
//!            [--lint] [--deny-warnings] [--timeline] [--simpoint]
//!            [--trace] [--profile] [--profile-interval N]
//! ```
//!
//! `--lint` statically checks the rate-suite profiles and the system
//! configuration before any simulation starts (the `simcheck` rules);
//! `--deny-warnings` makes lint warnings refuse the run too.
//!
//! `--simpoint` additionally runs the representative-interval campaign over
//! the rate-suite ref pairs, persisting per-pair speedup-vs-error records
//! content-addressed under `<results>/simpoints/` (see `simgate simpoint`).
//!
//! Characterization-backed tables share the `reproduce` binary's result
//! cache (default `results/cache`): the rate-suite records feeding the
//! clustering ablations and the per-policy replacement rows replay from
//! the store when present. The sensitivity sweeps read neither records nor
//! the cache: each swept pair runs once on the base machine and every
//! DRAM-latency and issue-width point is priced from that run.
//!
//! Observability mirrors `reproduce`: `--timeline` samples per-pair counter
//! timelines for the rate-suite characterization (artifacts under
//! `<results>/timelines/`). Every run records its stages as spans under one
//! run root; at the end of the run the root's children become the
//! per-stage summary table on stderr. `--trace` also exports the span tree
//! under `<results>/traces/` (Perfetto-loadable JSON plus the binary
//! format `simgate trace` reads),
//! `--profile` records an op-clocked statistical profile (artifacts under
//! `<results>/profiles/`, cache bypassed so engine work exists to sample).
//! `<results>/metrics.json` is computed from the run's spans when it ends,
//! and a panic dumps the flight recorder to
//! `<results>/flight-recorder.json`. Errors render on stderr
//! and exit nonzero.

use std::process::ExitCode;

use simdash::manifest::kind as artifact_kind;
use simreport::fixed::Fixed;
use uarch_sim::engine::WorkloadHints;
use uarch_sim::timeline::SamplerConfig;
use workchar::ablation;
use workchar::cache::CacheContext;
use workchar::characterize::{characterize_suite_with, RunConfig};
use workchar::cli::{ArgStream, PipelineFlags, Stdout};
use workchar::error::{Error, Result};
use workchar::observe::{rel_artifact, write_artifact, write_timeline_artifacts, Run, Stage};
use workchar::phase::analyze_phases;
use workload_synth::cpu2017;
use workload_synth::phases::demo_three_phase;
use workload_synth::profile::InputSize;

fn parse_args() -> Result<PipelineFlags> {
    let mut opts = PipelineFlags::new();
    let mut args = ArgStream::from_env();
    while let Some(arg) = args.next() {
        if opts.accept(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--help" | "-h" => {
                Stdout::new().print(format_args!(
                    "usage: extensions [--results DIR] [--no-cache] [--cache-dir DIR] \
                     [--lint] [--deny-warnings] [--timeline] [--simpoint] \
                     [--trace] [--profile] \
                     [--profile-interval N]\n{}",
                    PipelineFlags::usage_lines()
                ));
                std::process::exit(0);
            }
            other => {
                return Err(Error::Usage(format!("unknown argument '{other}'")));
            }
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
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

fn real_main(opts: PipelineFlags) -> Result<()> {
    // The run opens its manifest and run-root span before any stage; every
    // write site below registers its artifact pointer with the manifest.
    let mut run = Run::start("extensions", "default", &opts.config_summary(""), &opts);
    let mut stdout = Stdout::new();
    std::fs::create_dir_all(&opts.results_dir)?;
    let mut all = String::new();
    let mut config = RunConfig::default();
    if opts.timeline {
        config = config.with_sampler(SamplerConfig::default());
    }
    // A cache-hit run executes no engine ops, leaving nothing to sample,
    // so profiled runs bypass the cache entirely.
    let cache = if opts.no_cache || opts.profile {
        None
    } else {
        match CacheContext::open(&opts.cache_dir) {
            Ok(ctx) => Some(ctx),
            Err(e) => {
                eprintln!(
                    "warning: cannot open cache at {}: {e}; running uncached",
                    opts.cache_dir.display()
                );
                None
            }
        }
    };

    eprintln!("characterizing CPU2017 rate ref pairs for clustering ablations...");
    let rate_apps: Vec<_> = cpu2017::suite()
        .into_iter()
        .filter(|a| !a.suite.is_speed())
        .collect();
    if opts.lint {
        let report = workchar::lint::check_campaign(&[&rate_apps], &config);
        if !report.is_empty() {
            eprint!("{}", report.to_table());
        }
        if report.failed(opts.deny_warnings) {
            return Err(report.into());
        }
        eprintln!("lint: profiles and config — {}", report.summary());
    }
    let mut stage = Stage::open("characterize-rate-ref");
    let records = match characterize_suite_with(&rate_apps, InputSize::Ref, &config, cache.as_ref())
    {
        Ok(records) => records,
        Err(e) => {
            // Even a failed campaign leaves a manifest with the per-pair
            // failure details the --diff gate and the dashboard explain,
            // and prints its stage table.
            drop(stage);
            return Err(run.fail(e));
        }
    };
    for r in &records {
        run.manifest.pair_ok(&r.label());
    }
    stage.arg("records", records.len());
    stage.finish();
    let refs: Vec<&workchar::characterize::CharRecord> = records.iter().collect();

    let mut stage = Stage::open("ablations");
    for table in [
        ablation::linkage_ablation(&refs),
        ablation::subsetter_ablation(&refs),
        ablation::predictor_ablation(&config.system, &config.scale),
        ablation::replacement_ablation_with(&config.scale, cache.as_ref()),
        ablation::prefetcher_ablation(),
        ablation::cpi_stack_table(&refs),
    ] {
        let text = table.render_ascii();
        stdout.print(format_args!("{text}\n"));
        all.push_str(&text);
        all.push('\n');
    }
    stage.arg("tables", 6u64);
    // The replacement ablation is the last cache user: the run's cache
    // statistics close with it, and this stage is the one that reports
    // them (`metrics.json` sums the cache args of every span).
    if let Some(ctx) = &cache {
        let snap = ctx.stats.snapshot();
        eprintln!("cache: {snap}");
        stage.arg("cache_hits", snap.hits);
        stage.arg("cache_misses", snap.misses);
        stage.arg("cache_hit_rate", snap.hit_rate());
        stage.arg("cache_bytes_read", snap.bytes_read);
        stage.arg("cache_bytes_written", snap.bytes_written);
    }
    stage.finish();

    eprintln!("sweeping DRAM latency and issue width...");
    let sweep_apps: Vec<_> = ["505.mcf_r", "549.fotonik3d_r", "525.x264_r", "557.xz_r"]
        .iter()
        .map(|n| cpu2017::app(n).expect("known app"))
        .collect();
    // Every point differs from the base machine in timing only, so each
    // sweep runs each app once and prices all four points from that run.
    let stage = Stage::open("sensitivity-sweeps");
    for sweep in [
        workchar::sensitivity::memory_latency_sweep(&sweep_apps, &config, &[120, 220, 320, 500]),
        workchar::sensitivity::issue_width_sweep(&sweep_apps, &config, &[1, 2, 4, 6]),
    ] {
        let text = sweep.table().render_ascii();
        stdout.print(format_args!("{text}\n"));
        all.push_str(&text);
        all.push('\n');
    }
    stage.finish();

    if opts.timeline {
        let mut stage = Stage::open("timeline-artifacts");
        let dir = opts.results_dir.join("timelines");
        let written = write_timeline_artifacts(&records, &dir)?;
        run.manifest.artifact(
            artifact_kind::TIMELINES_DIR,
            rel_artifact(&opts.results_dir, &dir),
        );
        stage.arg("pairs", written);
        stage.finish();
        eprintln!("wrote {written} pair timelines under {}", dir.display());
    }

    eprintln!("running phase analysis on the three-phase demo workload...");
    let workload = demo_three_phase();
    let trace: Vec<_> = workload.trace(&config.system, 42, 600_000).collect();
    let mut stage = Stage::open("phase-analysis");
    match analyze_phases(trace, &config.system, &WorkloadHints::default(), 40, 6) {
        Ok(analysis) => {
            stage.arg("phases", analysis.n_phases);
            let mut text = format!(
                "Phase analysis of '{}': {} phases (silhouette {:.3})\n",
                workload.name,
                analysis.n_phases,
                Fixed(analysis.silhouette)
            );
            for p in &analysis.points {
                text.push_str(&format!(
                    "  simulation point: window {} (phase {}, weight {:.2})\n",
                    p.window,
                    p.phase,
                    Fixed(p.weight)
                ));
            }
            text.push_str(&format!(
                "  full-run IPC {:.3} vs simulation-point estimate {:.3} \
                 using {:.0}% of the windows\n",
                Fixed(analysis.full_ipc()),
                Fixed(analysis.estimated_ipc()),
                Fixed(analysis.simulation_fraction() * 100.0)
            ));
            stdout.print(format_args!("{text}\n"));
            all.push_str(&text);
        }
        Err(e) => eprintln!("phase analysis failed: {e}"),
    }
    stage.finish();

    if opts.simpoint {
        let mut stage = Stage::open("simpoint-campaign");
        let dir = opts.results_dir.join("simpoints");
        let store = simstore::Store::open(&dir)?;
        let sp = simpoint::SimpointConfig::default();
        eprintln!(
            "simpoint: representative-interval analysis of the rate ref pairs \
             (records under {})...",
            dir.display()
        );
        let sp_records = workchar::simpoints::run_roster(
            &rate_apps,
            InputSize::Ref,
            &config,
            &sp,
            Some(&store),
        )?;
        stage.arg("pairs", sp_records.len());
        let text = workchar::simpoints::summary_table(&sp_records).render_ascii();
        stdout.print(format_args!("{text}\n"));
        all.push_str(&text);
        all.push('\n');
        run.manifest.artifact(
            artifact_kind::SIMPOINTS_DIR,
            rel_artifact(&opts.results_dir, &dir),
        );
        stage.finish();
    }

    let path = opts.results_dir.join("extensions.txt");
    match write_artifact(&opts.results_dir, "extensions.txt", all.as_bytes()) {
        Ok(true) => eprintln!("wrote {}", path.display()),
        Ok(false) => eprintln!("{} unchanged", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    run.manifest
        .artifact(artifact_kind::REPORT, "extensions.txt");
    run.finish()
}
