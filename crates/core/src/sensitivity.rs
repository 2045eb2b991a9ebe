//! Design-space sensitivity studies over the characterized suite.
//!
//! The paper positions CPU2017 as the workload set for "simulation-based
//! design and optimization research for next-generation processors \[and\]
//! memory subsystems". This module runs that use case end to end: sweep one
//! architectural parameter, run a set of applications at each point, and
//! tabulate how the suite responds — the what-if analysis a
//! processor architect would perform with the reproduced infrastructure.
//!
//! Sweeps are trace-driven: the workload adapts its working sets to the
//! machine it is generated for, so each pair's generator is prepared once
//! on the base machine and every point sees the identical µop stream. Each
//! pair's stream runs once, on the base machine. A point that differs from
//! the base only in its [`uarch_sim::config::Timing`] (a DRAM-latency or
//! issue-width point) is priced from that run's timing inputs: cache and
//! predictor state never read timing, so a second run would only repeat
//! the same counts. A point with other cache geometry (an L2 or L3
//! capacity point) runs a clone of the prepared generator on its own
//! engine. No trace is ever buffered.

use simreport::figure::{Figure, Kind, Series};
use simreport::table::{num, Table};
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::engine::Engine;
use uarch_sim::exec::ExecPlan;
use uarch_sim::pipeline::price;
use workload_synth::profile::{AppInputPair, AppProfile, Behavior, InputSize};

use crate::characterize::{prepared_run, RunConfig};

/// One swept configuration point with its suite-average outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Label of the configuration (e.g. `"15 MiB"`).
    pub label: String,
    /// Mean IPC across the swept applications.
    pub mean_ipc: f64,
    /// Mean local L2 miss rate (percent).
    pub mean_l2_miss_pct: f64,
    /// Mean local L3 miss rate (percent).
    pub mean_l3_miss_pct: f64,
    /// Mean projected execution seconds.
    pub mean_seconds: f64,
}

/// Result of a parameter sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// What was swept (for titles).
    pub parameter: &'static str,
    /// The per-configuration outcomes, in sweep order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Renders the sweep as a table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!("Sensitivity: suite response to {}", self.parameter),
            &[
                self.parameter,
                "Mean IPC",
                "L2 miss %",
                "L3 miss %",
                "Mean time (s)",
            ],
        );
        t.numeric();
        for p in &self.points {
            t.row(vec![
                p.label.clone(),
                num(p.mean_ipc, 3),
                num(p.mean_l2_miss_pct, 2),
                num(p.mean_l3_miss_pct, 2),
                num(p.mean_seconds, 1),
            ]);
        }
        t
    }

    /// Renders the sweep's IPC response as a line figure.
    pub fn figure(&self) -> Figure {
        let mut f = Figure::new(&format!("Suite mean IPC vs {}", self.parameter), Kind::Line);
        let labels: Vec<&str> = self.points.iter().map(|p| p.label.as_str()).collect();
        let x: Vec<f64> = (0..self.points.len()).map(|i| i as f64).collect();
        let y: Vec<f64> = self.points.iter().map(|p| p.mean_ipc).collect();
        f.push(Series::points("mean IPC", &labels, &x, &y));
        f
    }
}

/// Suite sums of one sweep point, accumulated pair by pair.
#[derive(Debug, Clone, Default)]
struct PointSums {
    ipc: f64,
    l2_miss_pct: f64,
    l3_miss_pct: f64,
    seconds: f64,
    pairs: usize,
}

impl PointSums {
    /// Adds one pair's session on a machine clocked at `clock_ghz`.
    fn add(&mut self, session: &PerfSession, clock_ghz: f64, behavior: &Behavior) {
        let ipc = session.ipc();
        self.ipc += ipc;
        self.l2_miss_pct += session.l2_miss_rate() * 100.0;
        self.l3_miss_pct += session.l3_miss_rate() * 100.0;
        if ipc > 0.0 {
            // Same operation order as `characterize_pair`'s
            // projected-seconds formula, so a sweep's base point equals
            // the characterized records bit for bit.
            let clock_hz = clock_ghz * 1e9;
            self.seconds += behavior.instructions_billions * 1e9
                / (ipc * clock_hz * behavior.threads.max(1) as f64);
        }
        self.pairs += 1;
    }

    fn point(&self, label: String) -> SweepPoint {
        let n = self.pairs.max(1) as f64;
        SweepPoint {
            label,
            mean_ipc: self.ipc / n,
            mean_l2_miss_pct: self.l2_miss_pct / n,
            mean_l3_miss_pct: self.l3_miss_pct / n,
            mean_seconds: self.seconds / n,
        }
    }
}

/// True when `point` is `base` once its timing is set back to the base's:
/// a base run's event counts then hold for it unchanged.
fn only_retimed(point: &SystemConfig, base: &SystemConfig) -> bool {
    SystemConfig {
        timing: base.timing,
        ..point.clone()
    } == *base
}

/// One pair's session on each of `systems`, in order. The pair's prepared
/// generator runs once on the base machine; retimed points are priced from
/// that run, and every other point runs a clone of the generator.
fn pair_sessions(
    pair: &AppInputPair<'_>,
    base: &RunConfig,
    systems: &[SystemConfig],
) -> Vec<PerfSession> {
    let (generator, hints) = prepared_run(pair, base).expect("curated profiles are valid");
    // A third of the trace warms caches and predictor, as in
    // characterization.
    let plan = ExecPlan::new()
        .hints(hints)
        .warmup(generator.remaining() / 3);
    let (measured, inputs) = {
        let mut engine = Engine::new(&base.system);
        let measured = engine.execute(generator.clone(), &plan);
        (measured, engine.last_inputs().expect("run just completed"))
    };
    systems
        .iter()
        .map(|system| {
            if only_retimed(system, &base.system) {
                // The same events; only the cycles are repriced.
                let mut session = measured.clone();
                let cycles = price(&system.timing, &inputs, &hints);
                session.set(Event::CpuClkUnhaltedRefTsc, cycles);
                session
            } else {
                Engine::new(system).execute(generator.clone(), &plan)
            }
        })
        .collect()
}

fn sweep_over(
    parameter: &'static str,
    apps: &[AppProfile],
    base: &RunConfig,
    configs: Vec<(String, SystemConfig)>,
) -> Sweep {
    let (labels, systems): (Vec<String>, Vec<SystemConfig>) = configs.into_iter().unzip();
    let mut sums = vec![PointSums::default(); systems.len()];
    for app in apps {
        for pair in app.pairs(InputSize::Ref) {
            let sessions = pair_sessions(&pair, base, &systems);
            for ((session, system), sum) in sessions.iter().zip(&systems).zip(&mut sums) {
                sum.add(session, system.timing.clock_ghz, &pair.input.behavior);
            }
        }
    }
    let points = labels
        .into_iter()
        .zip(&sums)
        .map(|(label, sum)| sum.point(label))
        .collect();
    Sweep { parameter, points }
}

/// Sweeps main-memory latency over `cycle_points` — the strongest lever on
/// the memory-bound applications the paper highlights.
pub fn memory_latency_sweep(apps: &[AppProfile], base: &RunConfig, cycle_points: &[u64]) -> Sweep {
    let configs = cycle_points
        .iter()
        .map(|&cycles| {
            let mut system = base.system.clone();
            system.timing.memory_latency = cycles;
            (format!("{cycles} cyc"), system)
        })
        .collect();
    sweep_over("DRAM latency", apps, base, configs)
}

/// Sweeps the core issue width over `width_points` — compute-bound
/// applications respond, memory-bound ones barely move (the classic
/// balance-of-machine picture).
pub fn issue_width_sweep(apps: &[AppProfile], base: &RunConfig, width_points: &[usize]) -> Sweep {
    let configs = width_points
        .iter()
        .map(|&width| {
            let mut system = base.system.clone();
            system.timing.issue_width = width;
            (format!("{width}-wide"), system)
        })
        .collect();
    sweep_over("issue width", apps, base, configs)
}

/// Sweeps the shared L3 capacity over `mib_points`.
///
/// Note: at the default trace scale the per-application L3 working sets are
/// far smaller than any realistic L3 point, so this sweep is flat unless
/// `base.scale` is raised substantially — it exists for full-fidelity runs
/// and is not featured in the `extensions` binary's default report.
pub fn l3_capacity_sweep(apps: &[AppProfile], base: &RunConfig, mib_points: &[usize]) -> Sweep {
    let configs = mib_points
        .iter()
        .map(|&mib| {
            (
                format!("{mib} MiB"),
                base.system.clone().with_l3_size(mib * 1024 * 1024),
            )
        })
        .collect();
    sweep_over("L3 capacity", apps, base, configs)
}

/// Sweeps the per-core L2 capacity over `kib_points`.
pub fn l2_capacity_sweep(apps: &[AppProfile], base: &RunConfig, kib_points: &[usize]) -> Sweep {
    let configs = kib_points
        .iter()
        .map(|&kib| {
            (
                format!("{kib} KiB"),
                base.system.clone().with_l2_size(kib * 1024),
            )
        })
        .collect();
    sweep_over("L2 capacity", apps, base, configs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::config::Timing;
    use workload_synth::cpu2017;
    use workload_synth::generator::TraceScale;

    fn memory_bound_apps() -> Vec<AppProfile> {
        vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("549.fotonik3d_r").unwrap(),
        ]
    }

    #[test]
    fn larger_l3_never_hurts_ipc() {
        let sweep = l3_capacity_sweep(&memory_bound_apps(), &RunConfig::quick(), &[4, 30, 120]);
        assert_eq!(sweep.points.len(), 3);
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(
            ipc.windows(2).all(|w| w[1] >= w[0] - 0.02),
            "IPC must not degrade with more L3: {ipc:?}"
        );
    }

    #[test]
    fn slower_memory_hurts_memory_bound_apps() {
        let sweep =
            memory_latency_sweep(&memory_bound_apps(), &RunConfig::quick(), &[100, 220, 500]);
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(
            ipc.windows(2).all(|w| w[1] < w[0]),
            "IPC must fall as DRAM slows: {ipc:?}"
        );
        assert!(ipc[0] > ipc[2] * 1.08, "response must be material: {ipc:?}");
    }

    #[test]
    fn wider_issue_helps_compute_bound_apps() {
        let apps = vec![cpu2017::app("525.x264_r").unwrap()];
        let sweep = issue_width_sweep(&apps, &RunConfig::quick(), &[1, 2, 4]);
        let ipc: Vec<f64> = sweep.points.iter().map(|p| p.mean_ipc).collect();
        assert!(ipc[2] > ipc[0] * 1.5, "x264 must scale with width: {ipc:?}");
    }

    #[test]
    fn larger_l2_reduces_l2_miss_rate() {
        let sweep = l2_capacity_sweep(&memory_bound_apps(), &RunConfig::quick(), &[128, 256, 1024]);
        let m2: Vec<f64> = sweep.points.iter().map(|p| p.mean_l2_miss_pct).collect();
        assert!(
            m2.first().unwrap() >= m2.last().unwrap(),
            "bigger L2 must lower the local L2 miss rate: {m2:?}"
        );
    }

    /// The apps the `extensions` binary sweeps.
    fn extensions_sweep_apps() -> Vec<AppProfile> {
        ["505.mcf_r", "549.fotonik3d_r", "525.x264_r", "557.xz_r"]
            .iter()
            .map(|name| cpu2017::app(name).unwrap())
            .collect()
    }

    fn with_timing(base: &SystemConfig, set: impl FnOnce(&mut Timing)) -> SystemConfig {
        let mut system = base.clone();
        set(&mut system.timing);
        system
    }

    /// One pair's session on each system the slow way: a fresh engine per
    /// point runs a clone of the prepared generator.
    fn replayed_sessions(
        pair: &AppInputPair<'_>,
        base: &RunConfig,
        systems: &[SystemConfig],
    ) -> Vec<PerfSession> {
        let (generator, hints) = prepared_run(pair, base).unwrap();
        let plan = ExecPlan::new()
            .hints(hints)
            .warmup(generator.remaining() / 3);
        systems
            .iter()
            .map(|system| Engine::new(system).execute(generator.clone(), &plan))
            .collect()
    }

    #[test]
    fn priced_points_match_a_fresh_engine_at_every_extensions_point() {
        let apps = extensions_sweep_apps();
        // The equivalence is per op, so short traces show it as well as
        // long ones; the cap keeps 13 runs per pair quick in a debug build.
        let base = RunConfig {
            scale: TraceScale {
                max_ops: 60_000,
                ..TraceScale::quick()
            },
            ..RunConfig::quick()
        };
        let haswell = &base.system;
        let latencies = [120, 220, 320, 500];
        let widths = [1, 2, 4, 6];
        let mut systems: Vec<SystemConfig> = latencies
            .iter()
            .map(|&cycles| with_timing(haswell, |t| t.memory_latency = cycles))
            .chain(
                widths
                    .iter()
                    .map(|&width| with_timing(haswell, |t| t.issue_width = width)),
            )
            .collect();
        // One more point per remaining timing field, each moved off its
        // base value: a price that ignored the field would leave that
        // point equal to the base machine's.
        let moved = [
            with_timing(haswell, |t| t.l2_latency *= 2),
            with_timing(haswell, |t| t.l3_latency *= 2),
            with_timing(haswell, |t| t.mispredict_penalty *= 2),
            with_timing(haswell, |t| t.clock_ghz *= 2.0),
        ];
        systems.extend(moved.iter().cloned());
        assert!(systems.iter().all(|s| only_retimed(s, haswell)));

        let mut sums = vec![PointSums::default(); systems.len()];
        for app in &apps {
            for pair in app.pairs(InputSize::Ref) {
                let priced = pair_sessions(&pair, &base, &systems);
                let replayed = replayed_sessions(&pair, &base, &systems);
                for ((system, (p, r)), sum) in systems
                    .iter()
                    .zip(priced.iter().zip(&replayed))
                    .zip(&mut sums)
                {
                    assert_eq!(p, r, "{} priced on {:?}", pair.id(), system.timing);
                    sum.add(r, system.timing.clock_ghz, &pair.input.behavior);
                }
            }
        }
        let expected: Vec<SweepPoint> = sums.iter().map(|s| s.point(String::new())).collect();
        let unlabeled = |sweep: Sweep| -> Vec<SweepPoint> {
            sweep
                .points
                .into_iter()
                .map(|p| SweepPoint {
                    label: String::new(),
                    ..p
                })
                .collect()
        };
        assert_eq!(
            unlabeled(memory_latency_sweep(&apps, &base, &latencies)),
            expected[..4]
        );
        assert_eq!(
            unlabeled(issue_width_sweep(&apps, &base, &widths)),
            expected[4..8]
        );

        // Every field reaches the suite's response: the 220-cycle point is
        // the base machine, and each point that moves a field away from it
        // moves its outcome (IPC, or seconds for the clock). 6-wide is the
        // exception: every app's ILP hint is calibrated at or below the
        // base machine's 4-wide issue, so more width cannot help.
        let base_point = &expected[1];
        assert_eq!(*base_point, expected[6], "4-wide is the base machine too");
        for (i, point) in expected.iter().enumerate() {
            if ![1, 6, 7].contains(&i) {
                assert_ne!(point, base_point, "point {i} must respond to its timing");
            }
        }
        let clock = &expected[11];
        assert_eq!(clock.mean_ipc, base_point.mean_ipc);
        assert!(clock.mean_seconds < base_point.mean_seconds);
    }

    #[test]
    fn rendering_works() {
        let sweep = l3_capacity_sweep(&memory_bound_apps(), &RunConfig::quick(), &[8, 30]);
        let table = sweep.table();
        assert_eq!(table.n_rows(), 2);
        assert!(table.render_ascii().contains("30 MiB"));
        let figure = sweep.figure();
        assert_eq!(figure.series()[0].len(), 2);
        assert!(!figure.render_svg(400, 200).is_empty());
    }
}
