//! Roster-wide differential suite for the engine hot loop.
//!
//! The fused `Engine::execute` path (the generator driving the engine's
//! execution sink, one µop executed per draw) is checked against the
//! scalar reference loop `Engine::run_reference` across **all 64 CPU2017
//! ref application–input pairs** — the acceptance gate of the hot loop.
//! Sessions must be bit-identical, including sampled timelines, and the
//! comparison runs with the sampler and causal tracing (a sampled root)
//! both enabled, because those paths share the drive loop's edge capping
//! with the plain run.

use uarch_sim::config::SystemConfig;
use uarch_sim::counters::Event;
use uarch_sim::engine::{Engine, WorkloadHints};
use uarch_sim::exec::{ExecPlan, UopSource};
use uarch_sim::timeline::SamplerConfig;
use workload_synth::cpu2017;
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::{AppInputPair, InputSize};

/// Debug-build-friendly per-pair budget: enough to cross the warmup edge
/// and several sampler intervals while keeping 64 × 2 runs quick.
const OPS: u64 = 4_000;
const WARMUP: u64 = 1_000;
/// Deliberately not a divisor of the counted span, so every pair also
/// exercises the partial final timeline interval.
const INTERVAL: u64 = 900;
/// Engine ops per profile sample of the fused run.
const PROFILE_INTERVAL: u64 = 500;

/// The canonical (generator, hints) pair for one roster entry, mirroring
/// `workchar::characterize::prepared_run` at quick scale.
fn prepared(pair: &AppInputPair<'_>, config: &SystemConfig) -> (TraceGenerator, WorkloadHints) {
    let gen = TraceGenerator::from_pair(pair, config, &TraceScale::quick())
        .expect("roster behaviours validate");
    let mut hints = pair.input.behavior.hints(config);
    hints.l2_bypass_range = Some(gen.l2_bypass_range());
    (gen, hints)
}

#[test]
fn batched_engine_matches_scalar_reference_on_every_ref_pair() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let suite = cpu2017::suite();
    let pairs: Vec<AppInputPair<'_>> = suite
        .iter()
        .flat_map(|app| app.pairs(InputSize::Ref))
        .collect();
    assert_eq!(pairs.len(), 64, "the paper's ref roster is 64 pairs");

    // Every pair runs under a sampled trace root, so the fused run takes
    // its profiled path: no hook may perturb a single counter on either
    // path.
    let base = ExecPlan::new()
        .warmup(WARMUP)
        .sampler(SamplerConfig::every(INTERVAL));
    for pair in &pairs {
        let root = simtrace::sampled_root("test/differential-roster", PROFILE_INTERVAL);
        let (gen, hints) = prepared(pair, &config);

        let mut fused = Engine::new(&config);
        let plan = base.hints(hints);
        let got = fused.execute(gen.clone().take_ops(OPS), &plan);

        let mut scalar = Engine::new(&config);
        let want = scalar.run_reference(gen.clone().take(OPS as usize), &plan);

        assert_eq!(want, got, "counters diverged on {}", pair.id());

        // The timeline must be a decomposition of the session, not an
        // approximation: interval deltas telescope to the exact totals.
        let timeline = got.timeline().expect("sampler was configured");
        let summed = timeline.total();
        for ev in Event::ALL {
            assert_eq!(
                summed.count(ev),
                got.count(ev),
                "timeline sum diverged for {ev} on {}",
                pair.id()
            );
        }
        let profile = simprof::drain(&root.drain());
        assert_eq!(
            profile.total_weight(),
            OPS / PROFILE_INTERVAL * PROFILE_INTERVAL,
            "the fused run was sampled on {}",
            pair.id()
        );
    }
}

#[test]
fn simpoint_full_replay_reconstructs_exactly_across_suites() {
    // Warm mode reads its medoid counters off the profiling pass, so the
    // real replay is Skip mode with lead-ins as long as the run: every
    // interval before the last medoid is warmed through the fused engine's
    // `warm` and every medoid re-executed. At k = n that replay must
    // telescope to the exact monolithic counters, and under default
    // selection it must reproduce the Warm estimate bit for bit. One
    // representative per suite quadrant keeps the debug-build runtime in
    // check.
    let config = SystemConfig::haswell_e5_2650l_v3();
    for name in ["505.mcf_r", "508.namd_r", "602.gcc_s", "654.roms_s"] {
        let app = cpu2017::app(name).expect("roster app");
        let pairs = app.pairs(InputSize::Ref);
        let pair = &pairs[0];
        let (gen, hints) = prepared(pair, &config);
        // Every interval a medoid: the scale-adjusted budget varies per
        // pair, so derive the interval size from the actual op count.
        let intervals = 8u64;
        let interval_ops = gen.remaining().div_ceil(intervals);
        let expected = gen.remaining().div_ceil(interval_ops) as usize;
        let full_replay = simpoint::SimpointConfig {
            gap_mode: simpoint::GapMode::Skip,
            warmup_intervals: expected,
            ..simpoint::SimpointConfig::default()
        };
        let sp = simpoint::SimpointConfig {
            interval_ops,
            force_k: Some(expected),
            ..full_replay
        };
        let analysis = simpoint::analyze(&config, &gen, &hints, &sp).expect("analyzable trace");
        assert_eq!(analysis.n_intervals(), expected, "{name}");
        assert_eq!(analysis.k(), expected, "{name}");
        assert_eq!(
            analysis.estimate, analysis.reference,
            "k = n reconstruction must be bit-identical on {name}"
        );
        assert_eq!(analysis.max_headline_error(), 0.0, "{name}");

        let warm = simpoint::analyze(&config, &gen, &hints, &simpoint::SimpointConfig::default())
            .expect("analyzable trace");
        let replay = simpoint::SimpointConfig {
            warmup_intervals: warm.n_intervals(),
            ..full_replay
        };
        let replayed = simpoint::analyze(&config, &gen, &hints, &replay).expect("analyzable trace");
        assert_eq!(replayed.medoids, warm.medoids, "{name}");
        assert_eq!(
            replayed.estimate, warm.estimate,
            "warming replay must reproduce the Warm estimate on {name}"
        );
    }
}
