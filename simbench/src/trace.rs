//! The traced run: per-layer times from spans the benchmark records around
//! its own calls into each layer.
//!
//! One traced run makes, in this order:
//!
//! - **A**, a scheduler pass whose job is exactly the pipeline's per-pair
//!   call, on `Scheduler::new(workers)` in the pipeline's batches, stamped
//!   only at job start and end: scheduler utilization and pair latencies;
//! - **C**, a drain of a clone of each pair's generator through
//!   `UopSource::fill`: trace generation on its own;
//! - **U**, one untraced pass, the same as an end-to-end pass: the baseline
//!   for the tracing overhead and the records every other pass must equal;
//! - **B**, the decomposition pass: the layers called one by one, each call
//!   timed, and the result checked bit for bit against U.
//!
//! `cache-replay` decomposes its set-up (the store fill) as well, since the
//! generation, engine and insert layers run only there, and averages its
//! short replay iterations over [`REPLAY_ITERS`] interleaved U/B pairs.
//! Timings stay in memory until the run prints them; everything runs in
//! this process on at most `available_parallelism` worker threads.

use std::collections::HashMap;
use std::hint::black_box;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use simpoint::{analyze, SimpointConfig, SimpointRecord};
use simstore::Scheduler;
use uarch_sim::counters::PerfSession;
use uarch_sim::engine::Engine;
use uarch_sim::exec::{ExecPlan, UopBatch, UopSource, DEFAULT_BATCH_OPS};
use workchar::cache::{characterize_pair_cached, pair_key, CacheContext};
use workchar::characterize::{characterize_pair, prepared_run, CharRecord, RunConfig};
use workchar::dataset::Dataset;
use workchar::experiments::{self, ExperimentId};
use workchar::simpoints::analyze_pair;
use workload_synth::footprint::{GrowthCurve, MemoryMap, PsSampler};
use workload_synth::generator::TraceGenerator;
use workload_synth::profile::{AppInputPair, Behavior};

use crate::outputs::{artifact_outputs, digest, records_outputs, total_bytes, write_all, Output};
use crate::stats::{ms, percentile};
use crate::workload::{simpoint_output, Bench, Pass, Records, Workload};
use crate::{BoxResult, Metric};

/// Interleaved untraced/traced replay iterations `cache-replay` averages.
pub const REPLAY_ITERS: u32 = 100;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `prepared_run`: generator and hints.
    Prepare,
    /// Draining a generator clone through `UopSource::fill`.
    Generate,
    /// `Engine::new`.
    EngineNew,
    /// `Engine::execute`, generation included.
    Execute,
    /// `MemoryMap` plus `PsSampler`.
    Footprint,
    /// `simpoint::analyze`.
    Analyze,
    /// `CacheContext::open`.
    StoreOpen,
    /// `pair_key` plus `CacheContext::lookup`.
    StoreLookup,
    /// `pair_key` plus `CacheContext::insert`.
    StoreInsert,
    /// `experiments::run`.
    Experiments,
    /// Rendering artifacts and record dumps to text.
    Render,
    /// Writing the rendered files.
    Write,
}

const LAYERS: usize = Layer::Write as usize + 1;

/// Busy time and call count per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    busy: [Duration; LAYERS],
    calls: [u64; LAYERS],
}

impl Layers {
    /// Runs `f` as one call into `layer`.
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.busy[layer as usize] += start.elapsed();
        self.calls[layer as usize] += 1;
        value
    }

    pub fn busy(&self, layer: Layer) -> Duration {
        self.busy[layer as usize]
    }

    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    fn total(&self) -> Duration {
        self.busy.iter().sum()
    }

    fn add(&mut self, other: &Layers) {
        for i in 0..LAYERS {
            self.busy[i] += other.busy[i];
            self.calls[i] += other.calls[i];
        }
    }
}

/// What the job stamps of one or more scheduler batches show.
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Summed batch wall time.
    pub wall: Duration,
    /// Summed job time over all workers.
    pub busy: Duration,
    /// Summed worker capacity: batch wall times workers.
    pub capacity: Duration,
    /// Per batch, from the first worker going idle to the batch end.
    pub tail: Duration,
    pub batches: usize,
    /// Every job's duration, ms.
    pub jobs_ms: Vec<f64>,
    /// Per batch, the timed layers' busy time divided by workers.
    covered: Duration,
    /// `covered` plus idle worker time divided by workers.
    accounted: Duration,
}

impl SchedStats {
    pub fn utilization(&self) -> f64 {
        ratio(self.busy.as_secs_f64(), self.capacity.as_secs_f64())
    }
}

struct Stamped<T> {
    value: T,
    start: Instant,
    end: Instant,
    thread: ThreadId,
    layers: Layers,
}

/// Runs `batches` one after another on `Scheduler::new(workers)`, timing
/// every job and the layers it reports through its [`Layers`].
///
/// # Errors
///
/// The failures of a batch in which a job failed on both attempts.
pub fn run_batches<P: Sync, T: Send>(
    workers: usize,
    batches: &[Vec<P>],
    label: impl Fn(&P) -> String + Sync,
    job: impl Fn(&P, &mut Layers) -> BoxResult<T> + Sync,
) -> BoxResult<(Vec<Vec<T>>, SchedStats, Layers)> {
    let mut results = Vec::with_capacity(batches.len());
    let mut stats = SchedStats::default();
    let mut layers = Layers::default();
    for batch in batches {
        let w = workers.min(batch.len()).max(1) as u32;
        let start = Instant::now();
        let report = Scheduler::new(workers).run(
            batch.len(),
            |i| label(&batch[i]),
            |i| {
                let start = Instant::now();
                let mut layers = Layers::default();
                let value = job(&batch[i], &mut layers).unwrap_or_else(|e| panic!("{e}"));
                Stamped {
                    value,
                    start,
                    end: Instant::now(),
                    thread: thread::current().id(),
                    layers,
                }
            },
            |_| {},
        );
        let end = Instant::now();
        let stamped = report.into_results().map_err(|failures| {
            let list: Vec<String> = failures.iter().map(|f| f.to_string()).collect();
            format!("traced batch failed: {}", list.join("; "))
        })?;
        let mut busy = Duration::ZERO;
        let mut batch_layers = Layers::default();
        let mut last_end: HashMap<ThreadId, Instant> = HashMap::new();
        for s in &stamped {
            busy += s.end - s.start;
            stats.jobs_ms.push(ms(s.end - s.start));
            batch_layers.add(&s.layers);
            let e = last_end.entry(s.thread).or_insert(s.end);
            *e = (*e).max(s.end);
        }
        // A worker that never got a job was idle from the start.
        let first_idle = if last_end.len() < w as usize {
            start
        } else {
            last_end.values().copied().min().unwrap_or(start)
        };
        let wall = end - start;
        let idle = (wall * w).saturating_sub(busy);
        stats.wall += wall;
        stats.busy += busy;
        stats.capacity += wall * w;
        stats.tail += end.saturating_duration_since(first_idle);
        stats.batches += 1;
        stats.covered += batch_layers.total() / w;
        stats.accounted += (batch_layers.total() + idle) / w;
        layers.add(&batch_layers);
        results.push(stamped.into_iter().map(|s| s.value).collect());
    }
    Ok((results, stats, layers))
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug, Default)]
struct Profile {
    /// Untraced and traced pass wall time.
    untraced: Duration,
    traced: Duration,
    /// The traced pass's batches.
    collect: SchedStats,
    /// Timed layer calls of the decomposition (for `cache-replay`, its
    /// set-up and replay iterations together).
    layers: Layers,
    /// Layer busy time the traced pass spent outside scheduler batches.
    serial: Duration,
    /// The scheduler pass.
    sched: SchedStats,
    /// Ops drained by the generation pass and the time it took.
    generated_ops: u64,
    generate: Duration,
    /// Ops the decomposition ran through `Engine::execute`.
    sim_ops: u64,
    experiments: [Duration; ExperimentId::ALL.len()],
    report_bytes: u64,
    /// Bytes the traced pass wrote to files.
    file_bytes: u64,
    bytes_read: u64,
    bytes_written: u64,
    hit_rate: f64,
    /// Divides times summed over several traced iterations.
    iters: u32,
}

/// A traced run's per-layer metrics and the pairs it checked.
pub struct Traced {
    pub metrics: Vec<Metric>,
    /// The untraced pass, for the run's output checks.
    pub pass: Pass,
    /// Disagreements between the traced passes and the untraced one.
    pub problems: Vec<String>,
}

/// Makes one traced run of `bench`.
///
/// # Errors
///
/// Pipeline and filesystem errors.
pub fn traced_run(bench: &Bench, workers: usize) -> BoxResult<Traced> {
    let mut p = Profile {
        iters: 1,
        ..Profile::default()
    };
    let mut problems = Vec::new();
    let pass = match bench.workload {
        Workload::SimpointQuick => trace_simpoint(bench, workers, &mut p, &mut problems)?,
        Workload::CacheReplay => trace_replay(bench, workers, &mut p, &mut problems)?,
        Workload::QuickCold | Workload::DefaultCold => {
            trace_cold(bench, workers, &mut p, &mut problems)?
        }
    };
    Ok(Traced {
        metrics: p.metrics(&pass),
        pass,
        problems,
    })
}

/// Pass U. Passes A and C run first and warm the process up, so U and B,
/// which the tracing overhead compares, run back to back.
fn untraced(bench: &Bench, p: &mut Profile) -> BoxResult<Pass> {
    let start = Instant::now();
    let pass = bench.pass()?;
    p.untraced += start.elapsed();
    Ok(pass)
}

fn dataset(pass: &Pass) -> BoxResult<&Dataset> {
    match &pass.records {
        Records::Char(data) => Ok(data),
        Records::Simpoint(_) => Err("expected characterization records".into()),
    }
}

fn trace_cold(
    bench: &Bench,
    workers: usize,
    p: &mut Profile,
    problems: &mut Vec<String>,
) -> BoxResult<Pass> {
    let config = &bench.config;
    let batches = bench.roster.collect_batches();
    let a = scheduler_and_generation(p, workers, &batches, config, |pair| {
        Ok(characterize_pair(pair, config)?)
    })?;
    let pass = untraced(bench, p)?;
    let data = dataset(&pass)?;
    expect_eq(problems, "scheduler pass", &a, &all_records(data));

    let start = Instant::now();
    let (b, collect, layers) = run_batches(workers, &batches, AppInputPair::id, |pair, l| {
        decompose_pair(pair, config, l)
    })?;
    let mut serial = Layers::default();
    let outputs = traced_report(p, &mut serial, data)?;
    serial.time(Layer::Write, || write_all(&bench.out_dir, &outputs))?;
    p.traced = start.elapsed();
    p.file_bytes = total_bytes(&outputs);
    let b = b.concat();
    check_pairs(problems, &b, data);
    if digest(&outputs) != digest(&pass.outputs) {
        problems.push("the decomposition pass's outputs differ".into());
    }
    p.sim_ops = b.iter().map(|t| t.sim_ops).sum();
    p.collect = collect;
    p.layers = layers;
    p.add_serial(&serial);
    Ok(pass)
}

fn trace_simpoint(
    bench: &Bench,
    workers: usize,
    p: &mut Profile,
    problems: &mut Vec<String>,
) -> BoxResult<Pass> {
    let config = &bench.config;
    let batches = vec![bench.roster.ref_pairs()];
    let sp = SimpointConfig::default();
    let a = scheduler_and_generation(p, workers, &batches, config, |pair| {
        Ok(analyze_pair(pair, config, &sp)?)
    })?;
    let pass = untraced(bench, p)?;
    let Records::Simpoint(records) = &pass.records else {
        return Err("expected simpoint records".into());
    };
    expect_eq(problems, "scheduler pass", &a, records);

    let start = Instant::now();
    let (b, collect, layers) = run_batches(workers, &batches, AppInputPair::id, |pair, l| {
        let (trace, hints) = l.time(Layer::Prepare, || prepared_run(pair, config))?;
        let analysis = l.time(Layer::Analyze, || {
            analyze(&config.system, &trace, &hints, &sp)
        })?;
        Ok(SimpointRecord::from_analysis(&pair.id(), &analysis))
    })?;
    let b = b.concat();
    let mut serial = Layers::default();
    let outputs = vec![serial.time(Layer::Render, || simpoint_output(&b))];
    serial.time(Layer::Write, || write_all(&bench.out_dir, &outputs))?;
    p.traced = start.elapsed();
    p.file_bytes = total_bytes(&outputs);
    expect_eq(problems, "decomposition pass", &b, records);
    p.collect = collect;
    p.layers = layers;
    p.add_serial(&serial);
    p.report_bytes = total_bytes(&outputs);
    Ok(pass)
}

fn trace_replay(
    bench: &Bench,
    workers: usize,
    p: &mut Profile,
    problems: &mut Vec<String>,
) -> BoxResult<Pass> {
    let config = &bench.config;
    let store = bench.store.as_ref().expect("cache-replay has a store");
    let batches = bench.roster.collect_batches();
    let ctx = CacheContext::open(store)?;
    let a = scheduler_and_generation(p, workers, &batches, config, |pair| {
        Ok(characterize_pair_cached(pair, config, &ctx)?)
    })?;
    let pass = bench.pass()?;
    let data = dataset(&pass)?;
    expect_eq(problems, "scheduler pass", &a, &all_records(data));

    // The set-up, decomposed: a fresh store filled layer by layer.
    let fill = CacheContext::open(bench.out_dir.join("traced-store"))?;
    let jobs = with_records(&batches, data);
    let (fresh, _, setup_layers) = run_batches(
        workers,
        &jobs,
        |(pair, _)| pair.id(),
        |(pair, record), l| {
            let traced = decompose_pair(pair, config, l)?;
            l.time(Layer::StoreInsert, || {
                fill.insert(pair_key(pair, config), record)
            });
            Ok(traced)
        },
    )?;
    let fresh = fresh.concat();
    check_pairs(problems, &fresh, data);
    p.sim_ops = fresh.iter().map(|t| t.sim_ops).sum();
    p.layers = setup_layers;
    p.bytes_written = fill.stats.snapshot().bytes_written;

    // Replay iterations, untraced and traced in turn.
    let want = digest(&pass.outputs);
    p.iters = REPLAY_ITERS;
    let mut reads = 0;
    for _ in 0..REPLAY_ITERS {
        if digest(&untraced(bench, p)?.outputs) != want {
            problems.push("an untraced replay iteration's outputs differ".into());
        }
        let start = Instant::now();
        let mut serial = Layers::default();
        let ctx = serial.time(Layer::StoreOpen, || CacheContext::open(store))?;
        let (records, collect, layers) =
            run_batches(workers, &batches, AppInputPair::id, |pair, l| {
                l.time(Layer::StoreLookup, || ctx.lookup(pair_key(pair, config)))
                    .ok_or_else(|| format!("store lookup of {pair} missed").into())
            })?;
        let mut records = records.into_iter();
        let replayed = Dataset {
            config: config.clone(),
            cpu17: records.by_ref().take(3).flatten().collect(),
            cpu06: records.flatten().collect(),
        };
        let outputs = traced_report(p, &mut serial, &replayed)?;
        p.traced += start.elapsed();
        if digest(&outputs) != want {
            problems.push("a traced replay iteration's outputs differ".into());
        }
        p.layers.add(&layers);
        p.add_serial(&serial);
        p.collect.add(&collect);
        let snap = ctx.stats.snapshot();
        reads += snap.bytes_read;
        p.hit_rate = snap.hit_rate();
    }
    p.bytes_read = reads / u64::from(REPLAY_ITERS);
    Ok(pass)
}

impl SchedStats {
    fn add(&mut self, other: &SchedStats) {
        self.wall += other.wall;
        self.busy += other.busy;
        self.capacity += other.capacity;
        self.tail += other.tail;
        self.batches += other.batches;
        self.jobs_ms.extend_from_slice(&other.jobs_ms);
        self.covered += other.covered;
        self.accounted += other.accounted;
    }
}

impl Profile {
    fn add_serial(&mut self, serial: &Layers) {
        self.serial += serial.total();
        self.layers.add(serial);
    }

    fn metrics(&self, pass: &Pass) -> Vec<Metric> {
        let n = f64::from(self.iters);
        let per_iter = |d: Duration| ms(d) / n;
        let l = &self.layers;
        let busy = |layer| l.busy(layer).as_secs_f64();
        let rate = |count: f64, layer| ratio(count, busy(layer));
        let execute_self = busy(Layer::Execute) - self.generate.as_secs_f64();
        let mut m = vec![
            Metric::new("core.traced_pass_ms", per_iter(self.traced), "ms"),
            Metric::new("core.collect_ms", per_iter(self.collect.wall), "ms"),
            Metric::new(
                "core.unaccounted_ms",
                per_iter(self.traced) - per_iter(self.collect.accounted + self.serial),
                "ms",
            ),
            Metric::new(
                "core.coverage_pct",
                100.0 * ratio(ms(self.collect.covered + self.serial), ms(self.traced)),
                "%",
            ),
            Metric::new(
                "trace_overhead_pct",
                100.0 * (ms(self.traced) / ms(self.untraced) - 1.0),
                "%",
            ),
            Metric::new("workload.prepare_ms", ms(l.busy(Layer::Prepare)), "ms"),
            Metric::new("workload.generate_ms", ms(self.generate), "ms"),
            Metric::new(
                "workload.generate_mops_per_s",
                ratio(self.generated_ops as f64, self.generate.as_secs_f64()) / 1e6,
                "Mops/s",
            ),
            Metric::new(
                "workload.footprint_pairs_per_s",
                rate(l.calls(Layer::Footprint) as f64, Layer::Footprint),
                "1/s",
            ),
            Metric::new(
                "uarch.engines_per_s",
                rate(l.calls(Layer::EngineNew) as f64, Layer::EngineNew),
                "1/s",
            ),
            Metric::new(
                "uarch.execute_mops_per_s",
                rate(self.sim_ops as f64, Layer::Execute) / 1e6,
                "Mops/s",
            ),
            Metric::new(
                "uarch.execute_self_mops_per_s",
                ratio(self.sim_ops as f64, execute_self) / 1e6,
                "Mops/s",
            ),
            Metric::new("uarch.sim_ops", self.sim_ops as f64, "count"),
            Metric::new("store.sched.wall_ms", ms(self.sched.wall), "ms"),
            Metric::new("store.sched.busy_ms", ms(self.sched.busy), "ms"),
            Metric::new("store.sched.tail_ms", ms(self.sched.tail), "ms"),
            Metric::new("store.sched.utilization", self.sched.utilization(), "ratio"),
            Metric::new("store.sched.batches", self.sched.batches as f64, "count"),
            Metric::new(
                "core.pair_ms_p50",
                percentile(&self.sched.jobs_ms, 50.0),
                "ms",
            ),
            Metric::new(
                "core.pair_ms_p95",
                percentile(&self.sched.jobs_ms, 95.0),
                "ms",
            ),
            Metric::new(
                "store.opens_per_s",
                rate(l.calls(Layer::StoreOpen) as f64, Layer::StoreOpen),
                "1/s",
            ),
            Metric::new(
                "store.lookups_per_s",
                rate(l.calls(Layer::StoreLookup) as f64, Layer::StoreLookup),
                "1/s",
            ),
            Metric::new(
                "store.inserts_per_s",
                rate(l.calls(Layer::StoreInsert) as f64, Layer::StoreInsert),
                "1/s",
            ),
            Metric::new("store.bytes_read", self.bytes_read as f64, "bytes"),
            Metric::new("store.bytes_written", self.bytes_written as f64, "bytes"),
            Metric::new("store.hit_rate", self.hit_rate, "ratio"),
        ];
        m.extend(simpoint_metrics(pass, busy(Layer::Analyze)));
        m.push(Metric::new(
            "core.experiments_per_s",
            rate(l.calls(Layer::Experiments) as f64, Layer::Experiments),
            "1/s",
        ));
        let experiments: Duration = self.experiments.iter().sum();
        for (id, d) in ExperimentId::ALL.iter().zip(&self.experiments) {
            m.push(Metric::new(
                &format!("core.experiment.{}_pct", id.slug()),
                100.0 * ratio(d.as_secs_f64(), experiments.as_secs_f64()),
                "%",
            ));
        }
        m.push(Metric::new(
            "report.render_ms",
            per_iter(l.busy(Layer::Render)),
            "ms",
        ));
        m.push(Metric::new(
            "report.bytes",
            self.report_bytes as f64,
            "bytes",
        ));
        m.push(Metric::new(
            "core.write_mb_per_s",
            ratio(self.file_bytes as f64, busy(Layer::Write)) / 1e6,
            "MB/s",
        ));
        m
    }
}

/// `simpoint.*`: the campaign's totals, zero for the other workloads.
fn simpoint_metrics(pass: &Pass, analyze_s: f64) -> Vec<Metric> {
    let records: &[SimpointRecord] = match &pass.records {
        Records::Simpoint(rs) => rs,
        Records::Char(_) => &[],
    };
    let total: u64 = records.iter().map(|r| r.total_ops).sum();
    let detailed: u64 = records.iter().map(|r| r.simulated_ops).sum();
    let n = records.len().max(1) as f64;
    let ln_speedup: f64 = records.iter().map(|r| r.speedup().ln()).sum();
    vec![
        Metric::new(
            "simpoint.analyze_mops_per_s",
            ratio(total as f64, analyze_s) / 1e6,
            "Mops/s",
        ),
        Metric::new("simpoint.total_ops", total as f64, "count"),
        Metric::new("simpoint.detailed_ops", detailed as f64, "count"),
        Metric::new(
            "simpoint.k_mean",
            records.iter().map(|r| r.k() as f64).fold(0.0, |a, k| a + k) / n,
            "k",
        ),
        Metric::new(
            "simpoint.max_err_pct",
            100.0
                * records
                    .iter()
                    .map(|r| r.max_headline_error())
                    .fold(0.0, f64::max),
            "%",
        ),
        Metric::new(
            "simpoint.speedup_x",
            if records.is_empty() {
                0.0
            } else {
                (ln_speedup / n).exp()
            },
            "x",
        ),
    ]
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Pass A with `job` as each pair's job, then pass C, which drains a
/// clone of every pair's generator. Returns A's results.
fn scheduler_and_generation<T: Send>(
    p: &mut Profile,
    workers: usize,
    batches: &[Vec<AppInputPair<'_>>],
    config: &RunConfig,
    job: impl Fn(&AppInputPair<'_>) -> BoxResult<T> + Sync,
) -> BoxResult<Vec<T>> {
    let (a, sched, _) = run_batches(workers, batches, AppInputPair::id, |pair, _| job(pair))?;
    p.sched = sched;
    let (ops, _, layers) = run_batches(workers, batches, AppInputPair::id, |pair, l| {
        let (trace, _) = prepared_run(pair, config)?;
        let mut clone = trace.clone();
        Ok(l.time(Layer::Generate, || drain(&mut clone)))
    })?;
    p.generated_ops = ops.concat().iter().sum();
    p.generate = layers.busy(Layer::Generate);
    Ok(a.into_iter().flatten().collect())
}

fn drain(generator: &mut TraceGenerator) -> u64 {
    let mut batch = UopBatch::with_capacity(DEFAULT_BATCH_OPS);
    let mut ops = 0;
    loop {
        batch.clear();
        let n = generator.fill(&mut batch, DEFAULT_BATCH_OPS);
        if n == 0 {
            return ops;
        }
        ops += n as u64;
        black_box(&batch);
    }
}

/// What the decomposition of one pair yields for the check against
/// `characterize_pair`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTrace {
    pub session: PerfSession,
    pub sim_ops: u64,
    pub rss_bytes: u64,
    pub vsz_bytes: u64,
}

/// `characterize_pair`'s layers, called one by one.
///
/// # Errors
///
/// An invalid behaviour profile.
pub fn decompose_pair(
    pair: &AppInputPair<'_>,
    config: &RunConfig,
    l: &mut Layers,
) -> BoxResult<PairTrace> {
    let (trace, hints) = l.time(Layer::Prepare, || prepared_run(pair, config))?;
    let sim_ops = trace.remaining();
    // The pipeline's warm-up: a third of the trace.
    let plan = ExecPlan::new().hints(hints).warmup(sim_ops / 3);
    let mut engine = l.time(Layer::EngineNew, || Engine::new(&config.system));
    let session = l.time(Layer::Execute, || engine.execute(trace, &plan));
    let (rss_bytes, vsz_bytes) = l.time(Layer::Footprint, || footprint(&pair.input.behavior));
    Ok(PairTrace {
        session,
        sim_ops,
        rss_bytes,
        vsz_bytes,
    })
}

/// The pipeline's `ps`-style footprint sampling: maximum RSS and VSZ.
fn footprint(behavior: &Behavior) -> (u64, u64) {
    let growth = if behavior.store_pct > 10.0 {
        GrowthCurve::Immediate
    } else {
        GrowthCurve::Saturating
    };
    let map = MemoryMap::from_behavior(behavior, growth);
    let mut sampler = PsSampler::new();
    sampler.sample_run(&map, 60);
    (sampler.max_rss_bytes(), sampler.max_vsz_bytes())
}

/// Experiments and rendering, each call timed.
fn traced_report(p: &mut Profile, serial: &mut Layers, data: &Dataset) -> BoxResult<Vec<Output>> {
    let mut outputs = Vec::new();
    for (i, id) in ExperimentId::ALL.into_iter().enumerate() {
        let start = Instant::now();
        let artifact = serial.time(Layer::Experiments, || experiments::run(id, data))?;
        p.experiments[i] += start.elapsed();
        outputs.extend(serial.time(Layer::Render, || artifact_outputs(&artifact)));
    }
    outputs.extend(serial.time(Layer::Render, || records_outputs(data)));
    p.report_bytes = total_bytes(&outputs);
    Ok(outputs)
}

fn all_records(data: &Dataset) -> Vec<CharRecord> {
    data.cpu17.iter().chain(&data.cpu06).cloned().collect()
}

/// The collect batches with each pair's record from `data` alongside.
fn with_records<'a>(
    batches: &[Vec<AppInputPair<'a>>],
    data: &'a Dataset,
) -> Vec<Vec<(AppInputPair<'a>, &'a CharRecord)>> {
    let mut records = data.cpu17.iter().chain(&data.cpu06);
    batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|&pair| (pair, records.next().expect("one record per pair")))
                .collect()
        })
        .collect()
}

fn expect_eq<T: PartialEq>(problems: &mut Vec<String>, pass: &str, got: &[T], want: &[T]) {
    if got != want {
        problems.push(format!(
            "the {pass}'s records differ from the untraced pass's"
        ));
    }
}

/// Every decomposed pair must match the untraced record: counters bit for
/// bit, op count and footprint exactly.
fn check_pairs(problems: &mut Vec<String>, traced: &[PairTrace], data: &Dataset) {
    let gib = |bytes: u64| bytes as f64 / (1u64 << 30) as f64;
    let records = data.cpu17.iter().chain(&data.cpu06);
    let bad: Vec<&str> = traced
        .iter()
        .zip(records)
        .filter(|(t, r)| {
            t.session != r.session
                || t.sim_ops != r.sim_ops
                || gib(t.rss_bytes) != r.rss_gib
                || gib(t.vsz_bytes) != r.vsz_gib
        })
        .map(|(_, r)| r.id.as_str())
        .collect();
    if traced.len() != data.cpu17.len() + data.cpu06.len() || !bad.is_empty() {
        problems.push(format!(
            "the decomposition disagrees with characterize_pair on {}",
            bad.join(" ")
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    /// The traced path must be the pipeline's path: for pairs spanning
    /// every suite and both footprint growth curves, the decomposition's
    /// counters equal `characterize_pair`'s bit for bit.
    #[test]
    fn decomposition_matches_characterize_pair() {
        let config = RunConfig::quick();
        let apps: Vec<_> = ["505.mcf_r", "519.lbm_r", "525.x264_r", "603.bwaves_s"]
            .iter()
            .map(|n| cpu2017::app(n).expect("known app"))
            .collect();
        let pairs: Vec<AppInputPair<'_>> = apps
            .iter()
            .flat_map(|a| a.pairs(InputSize::Ref))
            .filter(|p| p.app.name != "603.bwaves_s" || p.input.name == "in1")
            .collect();
        assert_eq!(pairs.len(), 6, "mcf, lbm, three x264 inputs, bwaves_s in1");
        let (traced, _, layers) = run_batches(
            2,
            std::slice::from_ref(&pairs),
            AppInputPair::id,
            |pair, l| decompose_pair(pair, &config, l),
        )
        .unwrap();
        let records: Vec<CharRecord> = pairs
            .iter()
            .map(|p| characterize_pair(p, &config).unwrap())
            .collect();
        let data = Dataset {
            config: config.clone(),
            cpu17: records,
            cpu06: Vec::new(),
        };
        let mut problems = Vec::new();
        check_pairs(&mut problems, &traced[0], &data);
        assert!(problems.is_empty(), "{problems:?}");
        for layer in [
            Layer::Prepare,
            Layer::EngineNew,
            Layer::Execute,
            Layer::Footprint,
        ] {
            assert_eq!(layers.calls(layer), 6, "{layer:?}");
        }
    }

    #[test]
    fn per_layer_metrics_match_the_spec() {
        let pass = Pass {
            outputs: Vec::new(),
            records: Records::Simpoint(Vec::new()),
            misses: 0,
        };
        let metrics = Profile::default().metrics(&pass);
        assert_eq!(
            crate::tests::named(&metrics),
            crate::tests::spec("per_layer")
        );
    }

    #[test]
    fn batch_stamps_account_for_the_batch() {
        let jobs: Vec<Vec<u64>> = vec![(0..8).collect(), (0..3).collect()];
        let (out, stats, layers) = run_batches(
            2,
            &jobs,
            |j| j.to_string(),
            |&j, l| {
                Ok(l.time(Layer::Render, || {
                    std::thread::sleep(Duration::from_millis(2));
                    j * 2
                }))
            },
        )
        .unwrap();
        assert_eq!(
            out,
            vec![(0..8).map(|j| j * 2).collect::<Vec<_>>(), vec![0, 2, 4]]
        );
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.jobs_ms.len(), 11);
        assert_eq!(layers.calls(Layer::Render), 11);
        assert!(stats.busy <= stats.capacity);
        assert!(stats.covered <= stats.accounted && stats.accounted <= stats.wall);
        assert!(stats.tail <= stats.wall);
        assert!(stats.utilization() > 0.0 && stats.utilization() <= 1.0);
    }

    #[test]
    fn a_failing_job_fails_the_batch() {
        let jobs = vec![vec![1u32, 2, 3]];
        let err = run_batches(
            2,
            &jobs,
            |j| format!("job-{j}"),
            |&j, _| {
                if j == 2 {
                    Err("planted".into())
                } else {
                    Ok(j)
                }
            },
        )
        .expect_err("the batch fails");
        assert!(err.to_string().contains("job-2"), "{err}");
    }
}
