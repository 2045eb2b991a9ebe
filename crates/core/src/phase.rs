//! Phase detection and simulation-point selection — the paper's future-work
//! section, implemented.
//!
//! The paper notes that even the subsetted CPU2017 suite may be too slow to
//! simulate and proposes phase analysis as the next step. This module
//! implements the SimPoint-style recipe on top of the existing substrates:
//!
//! 1. execute a workload in fixed-size instruction **windows**, collecting a
//!    perf-counter vector per window (the engine's state carries across
//!    windows, so rates are steady within phases);
//! 2. standardize the window vectors and **cluster** them with k-medoids,
//!    choosing the phase count by silhouette;
//! 3. report each cluster's **medoid window as a simulation point** with a
//!    weight equal to its cluster's share of the run.
//!
//! Simulating only the points and weighting their metrics reconstructs the
//! whole-program numbers at a fraction of the simulated instructions.

use stat_analysis::distance::Metric;
use stat_analysis::kmedoids::k_medoids;
use stat_analysis::matrix::Matrix;
use stat_analysis::silhouette::mean_silhouette;
use stat_analysis::standardize::Standardizer;
use stat_analysis::StatsError;
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::{Engine, WorkloadHints};
use uarch_sim::exec::{from_iter, ExecPlan};
use uarch_sim::microop::MicroOp;

/// One selected simulation point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationPoint {
    /// Index of the representative window.
    pub window: usize,
    /// Fraction of all windows its phase covers.
    pub weight: f64,
    /// The phase (cluster) id.
    pub phase: usize,
}

/// Result of a phase analysis.
#[derive(Debug, Clone)]
pub struct PhaseAnalysis {
    /// Per-window counter files, in execution order.
    pub windows: Vec<PerfSession>,
    /// Phase label per window.
    pub labels: Vec<usize>,
    /// Number of detected phases.
    pub n_phases: usize,
    /// Mean silhouette of the chosen phase count.
    pub silhouette: f64,
    /// The chosen simulation points, one per phase.
    pub points: Vec<SimulationPoint>,
}

impl PhaseAnalysis {
    /// Whole-run IPC measured over every window (ground truth).
    pub fn full_ipc(&self) -> f64 {
        let inst: u64 = self
            .windows
            .iter()
            .map(|w| w.count(Event::InstRetiredAny))
            .sum();
        let cycles: u64 = self
            .windows
            .iter()
            .map(|w| w.count(Event::CpuClkUnhaltedRefTsc))
            .sum();
        if cycles == 0 {
            0.0
        } else {
            inst as f64 / cycles as f64
        }
    }

    /// IPC estimated from the simulation points only, weighted by phase
    /// share — what a phase-based methodology would report.
    pub fn estimated_ipc(&self) -> f64 {
        let mut cpi = 0.0;
        for p in &self.points {
            let w = &self.windows[p.window];
            let ipc = w.ipc();
            if ipc > 0.0 {
                cpi += p.weight / ipc;
            }
        }
        if cpi > 0.0 {
            1.0 / cpi
        } else {
            0.0
        }
    }

    /// Fraction of windows that would need detailed simulation.
    pub fn simulation_fraction(&self) -> f64 {
        self.points.len() as f64 / self.windows.len().max(1) as f64
    }
}

/// Per-window characteristic vector used for phase clustering: the
/// microarchitecture-independent mix plus the observed service mix.
fn window_vector(w: &PerfSession) -> Vec<f64> {
    vec![
        w.load_fraction(),
        w.store_fraction(),
        w.branch_fraction(),
        w.l1_miss_rate(),
        w.l2_miss_rate(),
        w.l3_miss_rate(),
        w.mispredict_rate(),
    ]
}

/// Runs the `total_ops` µops of `ops` through a fresh engine in
/// `n_windows` equal windows and detects phases, trying every phase count
/// in `2..=max_phases` and keeping the best silhouette (falling back to one
/// phase when nothing separates).
///
/// The trace is windowed as it is generated, never collected: one window
/// of silent warmup, then `n_windows` measured ones, each
/// `total_ops / (n_windows + 1)` µops long. The remainder of that division
/// is never pulled from `ops`, so it is neither generated nor executed.
///
/// # Errors
///
/// Returns a [`StatsError`] when there are fewer than two windows, when
/// `total_ops` cannot fill a µop per window, when `ops` ends before the
/// last window does, or when the clustering kernels fail.
pub fn analyze_phases<I>(
    ops: I,
    total_ops: u64,
    config: &SystemConfig,
    hints: &WorkloadHints,
    n_windows: usize,
    max_phases: usize,
) -> Result<PhaseAnalysis, StatsError>
where
    I: IntoIterator<Item = MicroOp>,
{
    if n_windows < 2 {
        return Err(StatsError::InvalidArgument {
            what: "need at least two windows",
        });
    }
    // One window of silent warmup removes the cold-start transient, which
    // would otherwise register as a spurious "initialization phase" even in
    // stationary workloads.
    let window_len = (total_ops / (n_windows as u64 + 1)) as usize;
    if window_len == 0 {
        return Err(StatsError::InvalidArgument {
            what: "trace shorter than window count",
        });
    }
    let plan = ExecPlan::new().hints(*hints);
    let mut engine = Engine::new(config);
    let mut ops = ops.into_iter();
    let mut executed = 0;
    let mut run_window = |engine: &mut Engine| {
        let window = ops.by_ref().take(window_len).inspect(|_| executed += 1);
        engine.execute(from_iter(window), &plan)
    };
    let _ = run_window(&mut engine);
    let windows: Vec<PerfSession> = (0..n_windows).map(|_| run_window(&mut engine)).collect();
    if executed < window_len * (n_windows + 1) {
        return Err(StatsError::InvalidArgument {
            what: "trace ended before its last window",
        });
    }

    let vectors: Vec<Vec<f64>> = windows.iter().map(window_vector).collect();
    let data = Matrix::from_rows(&vectors)?;
    let z = Standardizer::fit_transform(&data)?;
    let rows: Vec<Vec<f64>> = z.iter_rows().map(|r| r.to_vec()).collect();

    let mut best: Option<(usize, f64, Vec<usize>, Vec<usize>)> = None;
    for k in 2..=max_phases.min(n_windows) {
        let result = k_medoids(&rows, k, Metric::Euclidean)?;
        let score = mean_silhouette(&rows, &result.labels, Metric::Euclidean).unwrap_or(-1.0);
        if best.as_ref().map(|(_, s, _, _)| score > *s).unwrap_or(true) {
            best = Some((k, score, result.labels, result.medoids));
        }
    }
    let (n_phases, silhouette, labels, medoids) =
        best.expect("max_phases >= 2 guarantees a candidate");

    // Weak separation means the run is effectively single-phase.
    if silhouette < 0.4 {
        let points = vec![SimulationPoint {
            window: 0,
            weight: 1.0,
            phase: 0,
        }];
        return Ok(PhaseAnalysis {
            windows,
            labels: vec![0; n_windows],
            n_phases: 1,
            silhouette,
            points,
        });
    }

    let mut counts = vec![0usize; n_phases];
    for &l in &labels {
        counts[l] += 1;
    }
    let points = medoids
        .iter()
        .map(|&m| SimulationPoint {
            window: m,
            weight: counts[labels[m]] as f64 / n_windows as f64,
            phase: labels[m],
        })
        .collect();

    Ok(PhaseAnalysis {
        windows,
        labels,
        n_phases,
        silhouette,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::generator::TraceGenerator;
    use workload_synth::phases::demo_three_phase;
    use workload_synth::profile::Behavior;

    fn config() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    #[test]
    fn detects_three_phases_in_demo_workload() {
        let w = demo_three_phase();
        let config = config();
        let trace = w.trace(&config, 3, 150_000);
        let analysis =
            analyze_phases(trace, 150_000, &config, &WorkloadHints::default(), 30, 5).unwrap();
        // Three true phases plus up to two transition-window clusters.
        assert!(
            (2..=5).contains(&analysis.n_phases),
            "expected multi-phase, got {} (silhouette {})",
            analysis.n_phases,
            analysis.silhouette
        );
        assert!(analysis.silhouette > 0.5);
        // Weights sum to 1.
        let total: f64 = analysis.points.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stationary_workload_is_single_phase() {
        let config = config();
        let trace =
            TraceGenerator::new(&Behavior::default(), &config, 5, 100_000).expect("valid behavior");
        let analysis =
            analyze_phases(trace, 100_000, &config, &WorkloadHints::default(), 20, 5).unwrap();
        assert_eq!(analysis.n_phases, 1, "silhouette {}", analysis.silhouette);
        assert_eq!(analysis.points.len(), 1);
        assert!((analysis.points[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimated_ipc_tracks_full_ipc() {
        let w = demo_three_phase();
        let config = config();
        let trace = w.trace(&config, 7, 150_000);
        let analysis =
            analyze_phases(trace, 150_000, &config, &WorkloadHints::default(), 30, 5).unwrap();
        let full = analysis.full_ipc();
        let est = analysis.estimated_ipc();
        let rel = (est - full).abs() / full;
        assert!(rel < 0.25, "estimated {est} vs full {full}");
        assert!(analysis.simulation_fraction() < 0.5);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let config = config();
        let trace: Vec<_> = TraceGenerator::new(&Behavior::default(), &config, 1, 10)
            .expect("valid behavior")
            .collect();
        let hints = WorkloadHints::default();
        assert!(analyze_phases(trace.clone(), 10, &config, &hints, 1, 3).is_err());
        assert!(analyze_phases(trace.clone(), 10, &config, &hints, 50, 3).is_err());
        // A trace shorter than the count it claims.
        assert!(analyze_phases(trace, 100, &config, &hints, 4, 3).is_err());
    }
}
