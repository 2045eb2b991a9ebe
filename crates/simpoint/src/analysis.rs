//! The representative-interval pipeline: profile → cluster → reconstruct.
//!
//! One engine runs the trace in interval-sized chunks; the per-chunk
//! sessions are the interval counters, and their merge is the reference.
//! Under the default [`GapMode::Warm`] each medoid's estimate is its
//! profiled session as it stands: a sparse replay that warmed every gap
//! and re-executed the medoids would reproduce those sessions bit for bit,
//! so the analysis runs the trace once. Only [`GapMode::Skip`], whose
//! medoids start from fast-forwarded (colder) state, replays on a second
//! engine. At `force_k = n` (every interval a medoid) the reconstruction is
//! bit-identical to the reference in both modes — the invariant that
//! anchors the error reporting.

use stat_analysis::distance::{DistanceTable, Metric};
use stat_analysis::kmedoids::{k_medoids_table, KMedoids};
use stat_analysis::matrix::Matrix;
use stat_analysis::silhouette::mean_silhouette;
use stat_analysis::standardize::Standardizer;
use stat_analysis::StatsError;
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::{Engine, WorkloadHints};
use uarch_sim::exec::{ExecPlan, UopSource};
use uarch_sim::timeline::IntervalSample;
use workload_synth::generator::TraceGenerator;

/// How the intervals between simulation points are treated, i.e. which
/// machine state each medoid interval is measured from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapMode {
    /// Warm gaps: each medoid interval starts from the exact state a full
    /// run would have given it, so the reconstruction error is purely the
    /// clustering approximation. A sparse replay achieves this by driving
    /// every gap op through `Engine::warm` (caches and predictor updated,
    /// nothing counted); its medoid sessions then equal the profiled
    /// interval sessions bit for bit, so [`analyze`] takes them from the
    /// profiling pass instead of replaying.
    #[default]
    Warm,
    /// Fast-forward the generator RNG-exactly and skip the engine
    /// entirely. Maximal speed, but medoid intervals run against stale
    /// (or cold) microarchitectural state; long-reuse-distance behaviour
    /// (L2/L3 hit rates) is not recoverable, so reconstruction errors are
    /// substantially larger. `warmup_intervals` lead-ins soften the
    /// short-distance part only.
    Skip,
}

/// Tuning knobs of one simpoint analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimpointConfig {
    /// Desired number of profiling intervals when `interval_ops` is 0:
    /// the interval size becomes `total_ops / target_intervals`.
    pub target_intervals: usize,
    /// Explicit interval size in counted micro-ops; 0 derives it from
    /// `target_intervals`.
    pub interval_ops: u64,
    /// Largest k tried during accuracy-guided selection.
    pub max_k: usize,
    /// Selection target: the smallest k whose predicted headline
    /// reconstruction error (computed from the profiled interval counters,
    /// exact under [`GapMode::Warm`]) is at or below this budget wins. If
    /// no k within `max_k` meets it, the minimum-error candidate is used.
    pub error_budget: f64,
    /// Gap handling of the sparse replay (see [`GapMode`]).
    pub gap_mode: GapMode,
    /// In [`GapMode::Skip`], intervals functionally warmed immediately
    /// before each medoid to soften the cold-state transient after a
    /// fast-forward gap. Ignored under [`GapMode::Warm`], where every gap
    /// already warms.
    pub warmup_intervals: usize,
    /// Bypasses silhouette selection and clusters with exactly this k
    /// (clamped to the interval count). `Some(n)` turns the sparse replay
    /// into a full run — the exactness regression path.
    pub force_k: Option<usize>,
}

impl Default for SimpointConfig {
    fn default() -> Self {
        SimpointConfig {
            target_intervals: 60,
            interval_ops: 0,
            max_k: 12,
            error_budget: 0.05,
            gap_mode: GapMode::Warm,
            warmup_intervals: 1,
            force_k: None,
        }
    }
}

/// Why an analysis could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimpointError {
    /// The generator had no micro-ops left to profile.
    EmptyTrace,
    /// The clustering layer rejected its input.
    Stats(StatsError),
}

impl std::fmt::Display for SimpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimpointError::EmptyTrace => f.write_str("trace generator has no micro-ops"),
            SimpointError::Stats(e) => write!(f, "clustering failed: {e}"),
        }
    }
}

impl std::error::Error for SimpointError {}

impl From<StatsError> for SimpointError {
    fn from(e: StatsError) -> Self {
        SimpointError::Stats(e)
    }
}

/// The result of one representative-interval analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpointAnalysis {
    /// Counted micro-ops per profiling interval (the last interval may be
    /// shorter).
    pub interval_ops: u64,
    /// Micro-ops in the full run.
    pub total_ops: u64,
    /// Micro-ops a sparse replay simulates in detail (the medoid
    /// intervals).
    pub simulated_ops: u64,
    /// Micro-ops a sparse replay functionally warms: every gap op under
    /// [`GapMode::Warm`], the lead-in intervals under [`GapMode::Skip`].
    pub warmed_ops: u64,
    /// Micro-ops fast-forwarded past without touching the engine.
    pub skipped_ops: u64,
    /// Mean silhouette of the chosen clustering (0.0 when k = 1, where it
    /// is undefined).
    pub silhouette: f64,
    /// Interval indices chosen as simulation points, ascending.
    pub medoids: Vec<usize>,
    /// Per-interval cluster assignment (indices into `medoids`).
    pub labels: Vec<usize>,
    /// Fraction of intervals each cluster owns; sums to 1.
    pub weights: Vec<f64>,
    /// Ground truth: the merged counters of the full profiling run.
    pub reference: PerfSession,
    /// The reconstruction: cluster-size-scaled sum of medoid counters.
    pub estimate: PerfSession,
}

impl SimpointAnalysis {
    /// Number of clusters (= number of simulation points).
    pub fn k(&self) -> usize {
        self.medoids.len()
    }

    /// Number of profiling intervals.
    pub fn n_intervals(&self) -> usize {
        self.labels.len()
    }

    /// Reduction in detailed-simulated micro-ops:
    /// `total_ops / simulated_ops`, the detailed work a sparse replay of
    /// this plan needs against a full run. Under [`GapMode::Warm`] such a
    /// replay still pays the (cheaper) warming path for every gap op, and
    /// [`analyze`] itself pays one full profiling run; under
    /// [`GapMode::Skip`] gap ops outside the lead-ins cost nothing.
    pub fn speedup(&self) -> f64 {
        self.total_ops as f64 / self.simulated_ops.max(1) as f64
    }

    /// Relative reconstruction error of one raw counter.
    pub fn counter_error(&self, event: Event) -> f64 {
        rel_error(
            self.reference.count(event) as f64,
            self.estimate.count(event) as f64,
        )
    }

    /// Relative error of the reconstructed IPC.
    pub fn ipc_error(&self) -> f64 {
        rel_error(self.reference.ipc(), self.estimate.ipc())
    }

    /// Relative error of a reconstructed misses-per-kilo-instruction rate.
    pub fn mpki_error(&self, miss_event: Event) -> f64 {
        rel_error(
            mpki(&self.reference, miss_event),
            mpki(&self.estimate, miss_event),
        )
    }

    /// Relative error of the reconstructed branch mispredict rate.
    pub fn mispredict_error(&self) -> f64 {
        rel_error(
            self.reference.mispredict_rate(),
            self.estimate.mispredict_rate(),
        )
    }

    /// The headline acceptance metric: the worst of the IPC error and the
    /// three per-level MPKI errors.
    pub fn max_headline_error(&self) -> f64 {
        headline_error(&self.reference, &self.estimate)
    }
}

/// Worst of the IPC error and the three per-level MPKI errors between two
/// counter files — the figure k-selection budgets and CI gates on.
fn headline_error(reference: &PerfSession, estimate: &PerfSession) -> f64 {
    let mut worst = rel_error(reference.ipc(), estimate.ipc());
    for ev in [
        Event::MemLoadUopsRetiredL1Miss,
        Event::MemLoadUopsRetiredL2Miss,
        Event::MemLoadUopsRetiredL3Miss,
    ] {
        worst = worst.max(rel_error(mpki(reference, ev), mpki(estimate, ev)));
    }
    worst
}

/// The counter file a clustering would reconstruct, computed from the
/// profiled interval sessions: each medoid's counters scaled by its
/// cluster's interval count. This is the [`GapMode::Warm`] estimate
/// itself; under [`GapMode::Skip`] it is optimistic.
fn predicted_estimate(
    samples: &[IntervalSample],
    medoids: &[usize],
    labels: &[usize],
) -> PerfSession {
    reconstruct(medoids.iter().map(|&m| &samples[m].deltas), labels)
}

/// Σ medoid counters × cluster interval count, with `sessions` yielding
/// each cluster's medoid session in cluster order. Integer arithmetic end
/// to end, so at k = n this telescopes back to the reference exactly.
fn reconstruct<'a>(
    sessions: impl Iterator<Item = &'a PerfSession>,
    labels: &[usize],
) -> PerfSession {
    let mut estimate = PerfSession::new();
    for (cluster, session) in sessions.enumerate() {
        let size = labels.iter().filter(|&&l| l == cluster).count() as u64;
        for ev in Event::ALL {
            estimate.add(ev, session.count(ev).saturating_mul(size));
        }
    }
    estimate
}

/// Relative error of `estimate` against `reference`, with the degenerate
/// denominators pinned: both zero is a perfect 0.0, a zero reference with a
/// non-zero estimate is a full 1.0.
pub fn rel_error(reference: f64, estimate: f64) -> f64 {
    if reference.abs() < 1e-12 {
        if estimate.abs() < 1e-12 {
            0.0
        } else {
            1.0
        }
    } else {
        (estimate - reference).abs() / reference.abs()
    }
}

/// Misses per kilo-instruction of one event within a session.
fn mpki(session: &PerfSession, miss_event: Event) -> f64 {
    let inst = session.count(Event::InstRetiredAny);
    if inst == 0 {
        0.0
    } else {
        session.count(miss_event) as f64 * 1000.0 / inst as f64
    }
}

/// Runs the full pipeline against a pristine generator.
///
/// The caller's generator is left untouched. Under [`GapMode::Warm`] the
/// analysis runs the trace once, on one engine: the profiling pass yields
/// the reference, the features and the medoid sessions. Under
/// [`GapMode::Skip`] a second engine replays the medoids from
/// fast-forwarded state. `hints` should be the same workload hints a full
/// characterization run would use (in particular the generator's
/// `l2_bypass_range`).
///
/// # Errors
///
/// [`SimpointError::EmptyTrace`] when the generator is exhausted;
/// [`SimpointError::Stats`] when clustering rejects the feature matrix.
pub fn analyze(
    system: &SystemConfig,
    generator: &TraceGenerator,
    hints: &WorkloadHints,
    config: &SimpointConfig,
) -> Result<SimpointAnalysis, SimpointError> {
    let total_ops = generator.remaining();
    if total_ops == 0 {
        return Err(SimpointError::EmptyTrace);
    }
    let interval_ops = if config.interval_ops > 0 {
        config.interval_ops
    } else {
        (total_ops / config.target_intervals.max(1) as u64).max(1)
    };
    let n = total_ops.div_ceil(interval_ops) as usize;
    let plan = ExecPlan::new().hints(*hints);

    // Profiling pass: one engine, one chunked run per interval. The
    // per-chunk sessions *are* the interval deltas (state carries across
    // chunks on the engine), and their merge is the reference counter file.
    let mut profiler = Engine::new(system);
    let mut gen = generator.clone();
    let mut samples: Vec<IntervalSample> = Vec::with_capacity(n);
    let mut reference = PerfSession::new();
    let mut start = 0u64;
    while gen.remaining() > 0 {
        let take = interval_ops.min(gen.remaining());
        let session = profiler.execute((&mut gen).take_ops(take), &plan);
        reference.merge(&session);
        samples.push(IntervalSample {
            start_op: start,
            end_op: start + take,
            deltas: session,
        });
        start += take;
    }
    debug_assert_eq!(samples.len(), n);

    // Feature matrix: standardized so the mix fractions (≤ 1) and the MPKI
    // columns (tens) weigh equally in the distance.
    let rows: Vec<Vec<f64>> = samples
        .iter()
        .map(|s| s.feature_vector().to_vec())
        .collect();
    let rows = standardize(&rows)?;
    let (clustering, silhouette) = choose_k(&rows, &samples, &reference, config)?;
    let medoids = clustering.medoids;
    let labels = clustering.labels;

    let mut counts = vec![0u64; medoids.len()];
    for &label in &labels {
        counts[label] += 1;
    }
    let weights: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();

    let (estimate, simulated_ops, warmed_ops, skipped_ops) = match config.gap_mode {
        GapMode::Warm => {
            let simulated_ops: u64 = medoids
                .iter()
                .map(|&m| samples[m].end_op - samples[m].start_op)
                .sum();
            let estimate = predicted_estimate(&samples, &medoids, &labels);
            (estimate, simulated_ops, total_ops - simulated_ops, 0)
        }
        GapMode::Skip => skip_replay(
            system,
            generator,
            &plan,
            config,
            interval_ops,
            &medoids,
            &labels,
        ),
    };

    Ok(SimpointAnalysis {
        interval_ops,
        total_ops,
        simulated_ops,
        warmed_ops,
        skipped_ops,
        silhouette,
        medoids,
        labels,
        weights,
        reference,
        estimate,
    })
}

/// The [`GapMode::Skip`] sparse replay on a fresh engine: medoid intervals
/// run detailed and counted, the `warmup_intervals` before each medoid are
/// functionally warmed, and every other interval is fast-forwarded past.
/// Chunk boundaries match the profiling pass one for one. Returns the
/// reconstruction and the simulated / warmed / skipped op counts.
fn skip_replay(
    system: &SystemConfig,
    generator: &TraceGenerator,
    plan: &ExecPlan,
    config: &SimpointConfig,
    interval_ops: u64,
    medoids: &[usize],
    labels: &[usize],
) -> (PerfSession, u64, u64, u64) {
    #[derive(Clone, Copy)]
    enum Step {
        Detail,
        Warm,
        Skip,
    }
    let mut steps = vec![Step::Skip; labels.len()];
    for &m in medoids {
        for step in &mut steps[m - config.warmup_intervals.min(m)..m] {
            *step = Step::Warm;
        }
    }
    for &m in medoids {
        steps[m] = Step::Detail;
    }
    let mut replayer = Engine::new(system);
    let mut gen = generator.clone();
    let (mut simulated_ops, mut warmed_ops, mut skipped_ops) = (0u64, 0u64, 0u64);
    let mut medoid_sessions: Vec<Option<PerfSession>> = vec![None; steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let len = interval_ops.min(gen.remaining());
        match step {
            Step::Detail => {
                medoid_sessions[i] = Some(replayer.execute((&mut gen).take_ops(len), plan));
                simulated_ops += len;
            }
            Step::Warm => {
                replayer.warm((&mut gen).take_ops(len), &plan.hints);
                warmed_ops += len;
            }
            Step::Skip => {
                gen.fast_forward(len);
                skipped_ops += len;
            }
        }
    }
    let sessions = medoids.iter().map(|&m| {
        medoid_sessions[m]
            .as_ref()
            .expect("medoid interval was simulated")
    });
    let estimate = reconstruct(sessions, labels);
    (estimate, simulated_ops, warmed_ops, skipped_ops)
}

/// Standardizes the feature rows column-wise (identity for a single row,
/// where scale is undefined).
fn standardize(rows: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, StatsError> {
    if rows.len() < 2 {
        return Ok(rows.to_vec());
    }
    let z = Standardizer::fit_transform(&Matrix::from_rows(rows)?)?;
    Ok(z.iter_rows().map(|r| r.to_vec()).collect())
}

/// Picks k and clusters: the smallest k in `1..=max_k` whose predicted
/// reconstruction error meets `error_budget` (maximal speedup among the
/// acceptable clusterings), the minimum-error candidate if none does, or
/// exactly `force_k`. The mean silhouette of the winner is reported as the
/// phase-separation confidence score.
///
/// Silhouette alone is deliberately not the selector: it measures how
/// geometrically separated the phases are, and a run whose phases sit close
/// in feature space (low silhouette) can still need k > 1 to reconstruct
/// its counters — collapsing such a run to one medoid is exactly the
/// failure mode that blows up tail-counter errors (e.g. a compulsory-miss
/// fill phase whose L3 traffic a steady-state medoid cannot represent).
fn choose_k(
    rows: &[Vec<f64>],
    samples: &[IntervalSample],
    reference: &PerfSession,
    config: &SimpointConfig,
) -> Result<(KMedoids, f64), SimpointError> {
    let n = rows.len();
    let silhouette_of = |clustering: &KMedoids| {
        if clustering.medoids.len() < 2 {
            0.0
        } else {
            mean_silhouette(rows, &clustering.labels, Metric::Euclidean).unwrap_or(0.0)
        }
    };
    let table = DistanceTable::from_rows(rows, Metric::Euclidean)?;
    if let Some(forced) = config.force_k {
        let clustering = k_medoids_table(&table, forced.clamp(1, n))?;
        let silhouette = silhouette_of(&clustering);
        return Ok((clustering, silhouette));
    }
    let mut fallback: Option<(KMedoids, f64, f64)> = None;
    for k in 1..=config.max_k.min(n) {
        let clustering = k_medoids_table(&table, k)?;
        let estimate = predicted_estimate(samples, &clustering.medoids, &clustering.labels);
        let error = headline_error(reference, &estimate);
        if error <= config.error_budget {
            let silhouette = silhouette_of(&clustering);
            return Ok((clustering, silhouette));
        }
        if fallback.as_ref().is_none_or(|&(_, _, e)| error < e) {
            let silhouette = silhouette_of(&clustering);
            fallback = Some((clustering, silhouette, error));
        }
    }
    let (clustering, silhouette, _) = fallback.expect("max_k >= 1 candidate evaluated");
    Ok((clustering, silhouette))
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::generator::TraceScale;
    use workload_synth::profile::Behavior;

    fn system() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    fn generator(ops: u64) -> TraceGenerator {
        TraceGenerator::new(&Behavior::default(), &system(), 7, ops).unwrap()
    }

    fn hints_for(gen: &TraceGenerator) -> WorkloadHints {
        WorkloadHints {
            l2_bypass_range: Some(gen.l2_bypass_range()),
            ..WorkloadHints::default()
        }
    }

    #[test]
    fn empty_generator_is_rejected() {
        let gen = generator(0);
        let hints = hints_for(&gen);
        let err = analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap_err();
        assert_eq!(err, SimpointError::EmptyTrace);
    }

    #[test]
    fn force_k_equal_to_intervals_is_bit_exact() {
        let gen = generator(60_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig {
            interval_ops: 5_000,
            force_k: Some(12),
            ..SimpointConfig::default()
        };
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a.n_intervals(), 12);
        assert_eq!(a.k(), 12);
        assert_eq!(a.simulated_ops, a.total_ops);
        assert_eq!(
            a.estimate, a.reference,
            "k = n reconstruction must be bit-identical"
        );
        assert_eq!(a.max_headline_error(), 0.0);
        for ev in Event::ALL {
            assert_eq!(a.counter_error(ev), 0.0, "{ev}");
        }
    }

    /// The Warm estimate is taken from the profiled sessions, so only a
    /// real replay can show it equals what warming the gaps would give:
    /// Skip mode with a lead-in as long as the run warms every interval
    /// before the last medoid through `Engine::warm` on a second engine.
    #[test]
    fn warm_estimate_equals_a_replay_that_warms_every_gap() {
        let apps = workload_synth::cpu2017::suite();
        for (name, seed) in [("505.mcf_r", 3), ("525.x264_r", 5), ("619.lbm_s", 11)] {
            let app = apps.iter().find(|a| a.name == name).unwrap();
            let pair = &app.pairs(workload_synth::profile::InputSize::Ref)[0];
            let gen = TraceGenerator::new(&pair.input.behavior, &system(), seed, 80_000).unwrap();
            let hints = WorkloadHints {
                l2_bypass_range: Some(gen.l2_bypass_range()),
                ..pair.input.behavior.hints(&system())
            };
            let config = SimpointConfig {
                target_intervals: 40,
                ..SimpointConfig::default()
            };
            let warm = analyze(&system(), &gen, &hints, &config).unwrap();
            assert!(warm.k() < warm.n_intervals(), "{name}: no gaps to warm");
            let replay = SimpointConfig {
                gap_mode: GapMode::Skip,
                warmup_intervals: warm.n_intervals(),
                ..config
            };
            let skip = analyze(&system(), &gen, &hints, &replay).unwrap();
            assert_eq!(skip.medoids, warm.medoids, "{name}");
            assert_eq!(skip.labels, warm.labels, "{name}");
            assert_eq!(skip.reference, warm.reference, "{name}");
            assert_eq!(
                skip.estimate, warm.estimate,
                "{name}: warm estimate differs from a warming replay"
            );
            assert_eq!(skip.simulated_ops, warm.simulated_ops, "{name}");
            let last = *warm.medoids.last().unwrap() as u64;
            let replayed = ((last + 1) * warm.interval_ops).min(warm.total_ops);
            assert_eq!(skip.simulated_ops + skip.warmed_ops, replayed, "{name}");
            assert_eq!(
                warm.simulated_ops + warm.warmed_ops,
                warm.total_ops,
                "{name}"
            );
            assert_eq!(warm.skipped_ops, 0, "{name}");
        }
    }

    #[test]
    fn default_selection_cuts_simulated_ops_within_error_budget() {
        let gen = generator(300_000);
        let hints = hints_for(&gen);
        let a = analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap();
        assert_eq!(a.total_ops, 300_000);
        assert_eq!(a.n_intervals(), 60);
        assert!(a.k() >= 1 && a.k() <= 12);
        assert!(
            a.speedup() >= 5.0,
            "speedup {:.1}x below the acceptance floor",
            a.speedup()
        );
        assert!(
            a.max_headline_error() <= 0.05,
            "headline error {:.2}% above 5%",
            a.max_headline_error() * 100.0
        );
        // Invariants the lint family assumes.
        let weight_sum: f64 = a.weights.iter().sum();
        assert!((weight_sum - 1.0).abs() < 1e-9);
        assert!(a.medoids.windows(2).all(|w| w[0] < w[1]));
        assert!(a.labels.iter().all(|&l| l < a.k()));
        assert_eq!(a.reference.count(Event::InstRetiredAny), a.total_ops);
    }

    #[test]
    fn analysis_is_deterministic() {
        let gen = generator(100_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig::default();
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        let b = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn caller_generator_is_untouched() {
        let gen = generator(50_000);
        let hints = hints_for(&gen);
        analyze(&system(), &gen, &hints, &SimpointConfig::default()).unwrap();
        assert_eq!(gen.remaining(), 50_000);
    }

    #[test]
    fn interval_size_derives_from_target() {
        let gen = generator(120_000);
        let hints = hints_for(&gen);
        let config = SimpointConfig {
            target_intervals: 30,
            ..SimpointConfig::default()
        };
        let a = analyze(&system(), &gen, &hints, &config).unwrap();
        assert_eq!(a.interval_ops, 4_000);
        assert_eq!(a.n_intervals(), 30);
    }

    #[test]
    fn quick_scale_pair_meets_acceptance_floor() {
        // The same path the reproduce binary's --simpoint mode takes, on a
        // real roster profile at quick scale.
        let apps = workload_synth::cpu2017::suite();
        let app = apps.iter().find(|a| a.name == "505.mcf_r").unwrap();
        let pair = &app.pairs(workload_synth::profile::InputSize::Ref)[0];
        let system = system();
        let gen = TraceGenerator::from_pair(pair, &system, &TraceScale::quick()).unwrap();
        let hints = hints_for(&gen);
        let a = analyze(&system, &gen, &hints, &SimpointConfig::default()).unwrap();
        assert!(a.speedup() >= 5.0, "speedup {:.1}x", a.speedup());
        assert!(
            a.max_headline_error() <= 0.05,
            "error {:.2}%",
            a.max_headline_error() * 100.0
        );
    }

    #[test]
    fn rel_error_degenerate_cases() {
        assert_eq!(rel_error(0.0, 0.0), 0.0);
        assert_eq!(rel_error(0.0, 3.0), 1.0);
        assert!((rel_error(2.0, 1.0) - 0.5).abs() < 1e-12);
        assert!((rel_error(2.0, 3.0) - 0.5).abs() < 1e-12);
    }
}
