//! Per-pair characterization: run one application–input pair on the
//! simulated system and collect every metric the paper reports.

use std::fmt::Write as _;

use simreport::csv::Field;
use simreport::fixed::Fixed;
use simstore::{Progress, RunReport, Scheduler};
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::Engine;
use uarch_sim::exec::ExecPlan;
use uarch_sim::timeline::SamplerConfig;
use workload_synth::footprint::{GrowthCurve, MemoryMap, PsSampler};
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::{AppInputPair, AppProfile, InputSize, Suite};

use crate::cache::{characterize_pair_cached, CacheContext};
use crate::error::{Error, Result};

/// Configuration of a characterization campaign: which system to simulate
/// and how aggressively to scale traces down.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The simulated machine (defaults to the paper's Haswell, Table I).
    pub system: SystemConfig,
    /// Trace scaling (micro-ops per paper-scale billion instructions).
    pub scale: TraceScale,
    /// When set, every run also records an interval-sampled
    /// [`uarch_sim::timeline::CounterTimeline`] on its session
    /// (`--timeline` in the binaries). `None` — the default — keeps runs
    /// sampling-free and byte-identical to the unsampled pipeline.
    pub sampler: Option<SamplerConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            system: SystemConfig::haswell_e5_2650l_v3(),
            scale: TraceScale::default(),
            sampler: None,
        }
    }
}

impl RunConfig {
    /// A reduced-fidelity configuration for tests and demos.
    pub fn quick() -> Self {
        RunConfig {
            system: SystemConfig::haswell_e5_2650l_v3(),
            scale: TraceScale::quick(),
            sampler: None,
        }
    }

    /// The same configuration with interval sampling enabled.
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = Some(sampler);
        self
    }
}

/// Everything the paper measures for one application–input pair.
///
/// Microarchitecture-dependent values (IPC, mix, miss and mispredict
/// rates) are methods over the measured [`CharRecord::session`], so they
/// cannot disagree with its counters; footprints come from the `ps`-style
/// sampler; the paper-scale projections convert simulated quantities back
/// to the paper's units for side-by-side comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CharRecord {
    /// Pair id, e.g. `"603.bwaves_s-in2"`.
    pub id: String,
    /// Application name.
    pub app: String,
    /// Input name.
    pub input: String,
    /// Mini-suite.
    pub suite: Suite,
    /// Input size.
    pub size: InputSize,
    /// Raw counter file of the simulated run.
    pub session: PerfSession,
    /// Simulated micro-ops executed.
    pub sim_ops: u64,
    /// Paper-scale dynamic instructions, billions (profile-declared volume).
    pub instructions_billions: f64,
    /// Maximum RSS observed by the sampler, GiB.
    pub rss_gib: f64,
    /// Maximum VSZ observed by the sampler, GiB.
    pub vsz_gib: f64,
    /// CPI-stack components (cycles per instruction of the counted phase):
    /// issue/ILP-bound base cycles.
    pub cpi_base: f64,
    /// Branch-mispredict refill cycles per instruction.
    pub cpi_branch: f64,
    /// Data-cache stall cycles per instruction (after MLP overlap).
    pub cpi_memory: f64,
    /// Instruction-fetch stall cycles per instruction.
    pub cpi_frontend: f64,
    /// Simulated wall-clock seconds of the scaled trace.
    pub sim_seconds: f64,
    /// Projected paper-scale execution seconds:
    /// `instructions / (measured IPC × clock)`.
    pub projected_seconds: f64,
}

impl CharRecord {
    /// Measured instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.session.ipc()
    }

    /// Measured load micro-op percentage.
    pub fn load_pct(&self) -> f64 {
        self.session.load_fraction() * 100.0
    }

    /// Measured store micro-op percentage.
    pub fn store_pct(&self) -> f64 {
        self.session.store_fraction() * 100.0
    }

    /// Measured branch instruction percentage.
    pub fn branch_pct(&self) -> f64 {
        self.session.branch_fraction() * 100.0
    }

    /// Measured L1D load miss rate (percent).
    pub fn l1_miss_pct(&self) -> f64 {
        self.session.l1_miss_rate() * 100.0
    }

    /// Measured local L2 load miss rate (percent).
    pub fn l2_miss_pct(&self) -> f64 {
        self.session.l2_miss_rate() * 100.0
    }

    /// Measured local L3 load miss rate (percent).
    pub fn l3_miss_pct(&self) -> f64 {
        self.session.l3_miss_rate() * 100.0
    }

    /// Measured branch mispredict rate (percent).
    pub fn mispredict_pct(&self) -> f64 {
        self.session.mispredict_rate() * 100.0
    }

    /// Fraction of branches of one kind (measured), in `[0, 1]`.
    pub fn branch_kind_frac(&self, event: Event) -> f64 {
        let total = self.session.count(Event::BrInstExecAllBranches);
        if total == 0 {
            0.0
        } else {
            self.session.count(event) as f64 / total as f64
        }
    }

    /// Paper-scale count (billions) for a measured event, scaled by the
    /// event's per-instruction rate times the pair's instruction volume.
    pub fn projected_billions(&self, event: Event) -> f64 {
        let inst = self.session.count(Event::InstRetiredAny);
        if inst == 0 {
            return 0.0;
        }
        self.instructions_billions * self.session.count(event) as f64 / inst as f64
    }
}

impl CharRecord {
    /// The pair's id with its input size (`505.mcf_r/ref`), the label its
    /// scheduler job ran under: unique across a campaign's three sizes,
    /// where [`CharRecord::id`] is not.
    pub fn label(&self) -> String {
        format!("{}/{}", self.id, self.size.label())
    }

    /// Column names of [`records_csv`].
    pub const CSV_HEADER: [&'static str; 18] = [
        "id",
        "app",
        "input",
        "suite",
        "size",
        "sim_ops",
        "instructions_b",
        "ipc",
        "load_pct",
        "store_pct",
        "branch_pct",
        "l1_miss_pct",
        "l2_miss_pct",
        "l3_miss_pct",
        "mispredict_pct",
        "rss_gib",
        "vsz_gib",
        "projected_seconds",
    ];
}

/// Renders a record set as one CSV document: the header, then one row of
/// headline metrics per record (the full counter file stays in
/// [`CharRecord::session`]). Text fields are quoted as CSV requires.
pub fn records_csv(records: &[CharRecord]) -> String {
    let mut out = String::new();
    simreport::csv::line(&mut out, &CharRecord::CSV_HEADER);
    for r in records {
        // Writing into a `String` cannot fail.
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{:.3},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{:.3}",
            Field(&r.id),
            Field(&r.app),
            Field(&r.input),
            Field(r.suite.label()),
            Field(r.size.label()),
            r.sim_ops,
            Fixed(r.instructions_billions),
            Fixed(r.ipc()),
            Fixed(r.load_pct()),
            Fixed(r.store_pct()),
            Fixed(r.branch_pct()),
            Fixed(r.l1_miss_pct()),
            Fixed(r.l2_miss_pct()),
            Fixed(r.l3_miss_pct()),
            Fixed(r.mispredict_pct()),
            Fixed(r.rss_gib),
            Fixed(r.vsz_gib),
            Fixed(r.projected_seconds),
        );
    }
    out
}

/// The pair's id with its input size (`505.mcf_r/ref`): the label its
/// scheduler job runs under, unique across a campaign's three sizes.
pub fn pair_label(pair: &AppInputPair<'_>) -> String {
    format!("{}/{}", pair.id(), pair.size.label())
}

/// Builds the canonical (trace, hints) pair for one application–input pair:
/// the seeded generator at the configured scale, plus engine hints carrying
/// the generator's L2-bypass range. Every consumer of the simulator —
/// characterization, ablations, phase analysis — should start here so runs
/// are comparable.
///
/// # Errors
///
/// [`Error::Behavior`] when the pair's profile fails validation.
pub fn prepared_run(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
) -> Result<(TraceGenerator, uarch_sim::engine::WorkloadHints)> {
    let trace = TraceGenerator::from_pair(pair, &config.system, &config.scale)?;
    let mut hints = pair.input.behavior.hints(&config.system);
    hints.l2_bypass_range = Some(trace.l2_bypass_range());
    Ok((trace, hints))
}

/// Runs one pair through a fresh engine and derives every reported metric.
///
/// # Errors
///
/// [`Error::Behavior`] when the pair's profile fails validation, and
/// [`Error::Identity`] when the engine's counters break an identity
/// [`PerfSession::check`] holds them to.
pub fn characterize_pair(pair: &AppInputPair<'_>, config: &RunConfig) -> Result<CharRecord> {
    let behavior = &pair.input.behavior;
    let prepare = simtrace::span("stage/prepare");
    let (trace, hints) = prepared_run(pair, config)?;
    drop(prepare);
    let sim_ops = trace.remaining();

    // A third of the trace warms caches and predictor so steady-state
    // rates are measured, mirroring the paper's minutes-long executions.
    let warmup = sim_ops / 3;
    let mut plan = ExecPlan::new().hints(hints).warmup(warmup);
    plan.sampler = config.sampler;
    let mut engine = Engine::new(&config.system);
    let simulate = simtrace::span("stage/simulate");
    // The generator drives the engine's execution sink: each µop is
    // executed as it is drawn, with no buffer or iterator hand-off.
    let session = engine.execute(trace, &plan);
    drop(simulate);
    session.check().map_err(|error| Error::Identity {
        pair: pair_label(pair),
        error,
    })?;
    let sim_seconds = engine.seconds(&session);
    let counted = session.count(Event::InstRetiredAny).max(1) as f64;
    let breakdown = engine.last_breakdown().expect("run just completed");
    let per_inst = |cycles: f64| cycles / counted;

    // Footprint: the OS-model sampler observes the allocation plan the same
    // way `ps -o vsz,rss` observed the real binaries (1 Hz; maxima kept).
    let growth = if behavior.store_pct > 10.0 {
        GrowthCurve::Immediate // array/stencil codes touch everything early
    } else {
        GrowthCurve::Saturating
    };
    let footprint = simtrace::span("stage/footprint");
    let map = MemoryMap::from_behavior(behavior, growth);
    let mut sampler = PsSampler::new();
    sampler.sample_run(&map, 60);
    drop(footprint);

    let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    let ipc = session.ipc();
    let clock_hz = config.system.timing.clock_ghz * 1e9;
    // instructions / (IPC x clock) is total unhalted cycles / clock; with N
    // threads the unhalted reference cycles accumulate N-fold per second of
    // wall time, so wall-clock time divides by the thread count.
    let projected_seconds = if ipc > 0.0 {
        behavior.instructions_billions * 1e9 / (ipc * clock_hz * behavior.threads.max(1) as f64)
    } else {
        0.0
    };

    Ok(CharRecord {
        id: pair.id(),
        app: pair.app.name.clone(),
        input: pair.input.name.clone(),
        suite: pair.app.suite,
        size: pair.size,
        sim_ops,
        instructions_billions: behavior.instructions_billions,
        rss_gib: gib(sampler.max_rss_bytes()),
        vsz_gib: gib(sampler.max_vsz_bytes()),
        cpi_base: per_inst(breakdown.base),
        cpi_branch: per_inst(breakdown.branch),
        cpi_memory: per_inst(breakdown.memory),
        cpi_frontend: per_inst(breakdown.frontend),
        sim_seconds,
        projected_seconds,
        session,
    })
}

/// Characterizes every input of every application at `size`, in parallel.
///
/// # Errors
///
/// [`Error::Characterization`] listing every pair that still failed after
/// the scheduler's retry.
pub fn characterize_suite(
    apps: &[AppProfile],
    size: InputSize,
    config: &RunConfig,
) -> Result<Vec<CharRecord>> {
    characterize_suite_with(apps, size, config, None)
}

/// [`characterize_suite`] with an optional result cache.
///
/// # Errors
///
/// [`Error::Characterization`] listing every pair that still failed after
/// the scheduler's retry.
pub fn characterize_suite_with(
    apps: &[AppProfile],
    size: InputSize,
    config: &RunConfig,
    cache: Option<&CacheContext>,
) -> Result<Vec<CharRecord>> {
    let pairs: Vec<AppInputPair<'_>> = apps.iter().flat_map(|app| app.pairs(size)).collect();
    characterize_pairs_with(&pairs, config, cache)
}

/// Every pair of `apps` at every input size, sizes outermost (all test
/// pairs, then train, then ref): the one-batch form of calling
/// [`characterize_suite`] once per size.
pub fn pairs_at_every_size(apps: &[AppProfile]) -> Vec<AppInputPair<'_>> {
    InputSize::ALL
        .into_iter()
        .flat_map(|size| apps.iter().flat_map(move |app| app.pairs(size)))
        .collect()
}

/// Characterizes an explicit pair list in parallel, preserving order.
///
/// # Errors
///
/// [`Error::Characterization`] if any pair still fails after the
/// scheduler's retry, listing every failed pair. Callers that want partial
/// results instead use [`characterize_pairs_report`].
pub fn characterize_pairs(
    pairs: &[AppInputPair<'_>],
    config: &RunConfig,
) -> Result<Vec<CharRecord>> {
    characterize_pairs_with(pairs, config, None)
}

/// [`characterize_pairs`] with an optional result cache.
///
/// # Errors
///
/// [`Error::Characterization`] if any pair still fails after the
/// scheduler's retry.
pub fn characterize_pairs_with(
    pairs: &[AppInputPair<'_>],
    config: &RunConfig,
    cache: Option<&CacheContext>,
) -> Result<Vec<CharRecord>> {
    characterize_pairs_report(pairs, config, cache, |_| {})
        .into_results()
        .map_err(|failures| Error::Characterization {
            failures,
            total: pairs.len(),
        })
}

/// Fault-tolerant parallel characterization: every pair runs on the
/// [`Scheduler`] (panic-isolated, retried once), optionally cache-first, and
/// the full [`RunReport`] comes back — partial results survive individual
/// failures. `progress` fires after each pair settles (from worker threads).
///
/// Each job is labelled with the pair id and input size (`505.mcf_r/ref`),
/// so the test, train and ref runs of one pair stay apart in failure
/// reports, `sched/job` spans and profile frames; records keep the plain
/// id.
///
/// Per-pair errors are re-raised as panics inside the scheduler's workers so
/// its isolation and retry machinery applies uniformly; they come back as
/// [`simstore::JobFailure`] entries, not unwinds.
pub fn characterize_pairs_report<P: Fn(Progress) + Sync>(
    pairs: &[AppInputPair<'_>],
    config: &RunConfig,
    cache: Option<&CacheContext>,
    progress: P,
) -> RunReport<CharRecord> {
    Scheduler::available().run(
        pairs.len(),
        |i| pair_label(&pairs[i]),
        |i| {
            let run = match cache {
                Some(ctx) => characterize_pair_cached(&pairs[i], config, ctx),
                None => characterize_pair(&pairs[i], config),
            };
            run.unwrap_or_else(|e| panic!("{e}"))
        },
        progress,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use workload_synth::cpu2017;

    fn quick() -> RunConfig {
        RunConfig::quick()
    }

    #[test]
    fn record_fields_are_consistent() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let r = characterize_pair(pair, &quick()).unwrap();
        assert_eq!(r.id, "505.mcf_r");
        assert_eq!(r.session.check(), Ok(()));
        assert_eq!(r.suite, Suite::RateInt);
        assert!(r.ipc() > 0.0);
        assert!(r.sim_ops > 0);
        assert!(r.sim_seconds > 0.0);
        assert!(r.projected_seconds > 0.0);
        // Mix percentages should be near the profile.
        let b = &pair.input.behavior;
        assert!(
            (r.load_pct() - b.load_pct).abs() < 2.0,
            "loads {} vs {}",
            r.load_pct(),
            b.load_pct
        );
        assert!((r.branch_pct() - b.branch_pct).abs() < 2.0);
    }

    #[test]
    fn projected_seconds_are_the_volume_at_the_measured_rate() {
        // The one writer of `projected_seconds`: instructions retire at
        // IPC x clock on each of the pair's threads.
        let config = quick();
        let clock_hz = config.system.timing.clock_ghz * 1e9;
        for (name, threads) in [("657.xz_s", 4), ("505.mcf_r", 1)] {
            let app = cpu2017::app(name).unwrap();
            let pair = &app.pairs(InputSize::Ref)[0];
            assert_eq!(pair.input.behavior.threads, threads, "{name}");
            let r = characterize_pair(pair, &config).unwrap();
            let volume = r.instructions_billions * 1e9;
            let executed = r.projected_seconds * r.ipc() * clock_hz * threads as f64;
            assert!(
                (executed - volume).abs() <= 1e-9 * volume,
                "{name}: {executed} vs {volume}"
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let app = cpu2017::app("541.leela_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let a = characterize_pair(pair, &quick()).unwrap();
        let b = characterize_pair(pair, &quick()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn footprint_matches_profile_declaration() {
        let app = cpu2017::app("657.xz_s").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let r = characterize_pair(pair, &quick()).unwrap();
        let b = &pair.input.behavior;
        assert!((r.rss_gib - b.rss_gib).abs() / b.rss_gib < 0.02);
        assert!((r.vsz_gib - b.vsz_gib).abs() / b.vsz_gib < 0.02);
    }

    #[test]
    fn parallel_matches_serial_order() {
        let app = cpu2017::app("502.gcc_r").unwrap();
        let pairs = app.pairs(InputSize::Ref);
        let config = quick();
        let parallel = characterize_pairs(&pairs, &config).unwrap();
        assert_eq!(parallel.len(), 5);
        for (pair, record) in pairs.iter().zip(&parallel) {
            let serial = characterize_pair(pair, &config).unwrap();
            assert_eq!(&serial, record);
        }
    }

    /// A roster with one deliberately broken profile: the micro-op mix sums
    /// past 100%, which `TraceGenerator::new` rejects.
    pub(crate) fn poisoned_apps() -> Vec<workload_synth::profile::AppProfile> {
        use workload_synth::profile::{AppProfile, Behavior, InputProfile};
        let bad_behavior = Behavior {
            load_pct: 90.0,
            store_pct: 20.0,
            ..Default::default()
        };
        let bad_input = InputProfile {
            name: "impossible".into(),
            behavior: bad_behavior,
        };
        let bad = AppProfile {
            name: "999.broken_r".into(),
            suite: Suite::RateInt,
            test: vec![bad_input.clone()],
            train: vec![bad_input.clone()],
            reference: vec![bad_input],
        };
        vec![
            cpu2017::app("505.mcf_r").unwrap(),
            bad,
            cpu2017::app("541.leela_r").unwrap(),
        ]
    }

    #[test]
    fn panicking_pair_is_reported_and_rest_complete() {
        let apps = poisoned_apps();
        let pairs: Vec<AppInputPair<'_>> =
            apps.iter().flat_map(|a| a.pairs(InputSize::Ref)).collect();
        assert_eq!(pairs.len(), 3);
        let report = characterize_pairs_report(&pairs, &quick(), None, |_| {});
        assert_eq!(report.failures.len(), 1, "exactly the broken pair fails");
        assert_eq!(report.failures[0].index, 1);
        assert_eq!(report.failures[0].label, "999.broken_r/ref");
        assert!(report.results[1].is_none());
        let survivors: Vec<&CharRecord> = report.results.iter().flatten().collect();
        assert_eq!(survivors.len(), 2, "healthy pairs still produce records");
        assert_eq!(survivors[0].id, "505.mcf_r");
        assert_eq!(survivors[1].id, "541.leela_r");
    }

    #[test]
    fn strict_api_returns_failure_list() {
        let apps = poisoned_apps();
        let pairs: Vec<AppInputPair<'_>> =
            apps.iter().flat_map(|a| a.pairs(InputSize::Ref)).collect();
        let err = characterize_pairs(&pairs, &quick()).unwrap_err();
        match &err {
            Error::Characterization { failures, total } => {
                assert_eq!(*total, 3);
                assert_eq!(failures.len(), 1);
                assert_eq!(failures[0].label, "999.broken_r/ref");
            }
            other => panic!("expected Characterization, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("1 of 3 pair(s)"), "{text}");
        assert!(text.contains("999.broken_r"), "{text}");
    }

    #[test]
    fn failing_dataset_reports_every_failed_pair_at_once() {
        let apps = poisoned_apps();
        let err = crate::dataset::Dataset::collect_apps(quick(), &apps, &[]).unwrap_err();
        match &err {
            Error::Characterization { failures, total } => {
                // One batch for the whole dataset: the broken app fails at
                // every size, against all nine pairs.
                assert_eq!(*total, 9);
                let mut labels: Vec<&str> = failures.iter().map(|f| f.label.as_str()).collect();
                labels.sort_unstable();
                assert_eq!(
                    labels,
                    [
                        "999.broken_r/ref",
                        "999.broken_r/test",
                        "999.broken_r/train"
                    ]
                );
            }
            other => panic!("expected Characterization, got {other:?}"),
        }
    }

    #[test]
    fn sampler_attaches_timeline_without_changing_counts() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let plain = characterize_pair(pair, &quick()).unwrap();
        let sampled_config = quick().with_sampler(SamplerConfig::every(10_000));
        let mut sampled = characterize_pair(pair, &sampled_config).unwrap();
        let timeline = sampled.session.take_timeline().expect("timeline recorded");
        assert_eq!(timeline.total(), {
            let mut t = plain.session.clone();
            let _ = t.take_timeline();
            t
        });
        assert_eq!(plain, sampled, "sampling must not perturb the counters");
    }

    #[test]
    fn cached_pairs_match_uncached_pairs() {
        let root =
            std::env::temp_dir().join(format!("workchar-pairs-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::CacheContext::open(&root).unwrap();
        let app = cpu2017::app("525.x264_r").unwrap();
        let pairs = app.pairs(InputSize::Ref);
        let config = quick();
        let uncached = characterize_pairs(&pairs, &config).unwrap();
        let cold = characterize_pairs_with(&pairs, &config, Some(&cache)).unwrap();
        let warm = characterize_pairs_with(&pairs, &config, Some(&cache)).unwrap();
        assert_eq!(uncached, cold, "caching must not change results");
        assert_eq!(cold, warm);
        let snap = cache.stats.snapshot();
        assert_eq!(snap.misses, pairs.len() as u64);
        assert_eq!(snap.hits, pairs.len() as u64);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn suite_characterization_counts() {
        let apps = vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("525.x264_r").unwrap(),
        ];
        let records = characterize_suite(&apps, InputSize::Ref, &quick()).unwrap();
        assert_eq!(records.len(), 1 + 3);
    }

    #[test]
    fn x264_faster_than_mcf() {
        // The paper's headline int contrast (Fig. 1).
        let config = quick();
        let mcf = cpu2017::app("505.mcf_r").unwrap();
        let x264 = cpu2017::app("525.x264_r").unwrap();
        let r_mcf = characterize_pair(&mcf.pairs(InputSize::Ref)[0], &config).unwrap();
        let r_x264 = characterize_pair(&x264.pairs(InputSize::Ref)[0], &config).unwrap();
        assert!(
            r_x264.ipc() > 2.0 * r_mcf.ipc(),
            "x264 {} vs mcf {}",
            r_x264.ipc(),
            r_mcf.ipc()
        );
    }

    #[test]
    fn branch_kind_fracs_sum_to_one() {
        let app = cpu2017::app("500.perlbench_r").unwrap();
        let r = characterize_pair(&app.pairs(InputSize::Ref)[0], &quick()).unwrap();
        let sum: f64 = [
            Event::BrInstExecAllConditional,
            Event::BrInstExecAllDirectJmp,
            Event::BrInstExecAllDirectNearCall,
            Event::BrInstExecAllIndirectJumpNonCallRet,
            Event::BrInstExecAllIndirectNearReturn,
        ]
        .iter()
        .map(|&e| r.branch_kind_frac(e))
        .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn csv_export_is_rectangular() {
        let app = cpu2017::app("541.leela_r").unwrap();
        let r = characterize_pair(&app.pairs(InputSize::Ref)[0], &quick()).unwrap();
        let quoted = CharRecord {
            id: "odd,\"id\"".into(),
            ..r.clone()
        };
        let csv = records_csv(&[r, quoted]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "header and row must have the same arity"
        );
        assert_eq!(lines[0].split(',').count(), CharRecord::CSV_HEADER.len());
        assert!(lines[0].starts_with("id,app,input,suite,size"));
        // The quoted id holds one comma; the rest of the row is unchanged.
        assert_eq!(
            lines[2],
            format!("\"odd,\"\"id\"\"\"{}", &lines[1]["541.leela_r".len()..])
        );
    }

    #[test]
    fn projected_billions_tracks_mix() {
        let app = cpu2017::app("519.lbm_r").unwrap();
        let r = characterize_pair(&app.pairs(InputSize::Ref)[0], &quick()).unwrap();
        let loads_b = r.projected_billions(Event::MemUopsRetiredAllLoads);
        let expected = r.instructions_billions * r.load_pct() / 100.0;
        assert!((loads_b - expected).abs() / expected < 0.05);
    }
}
