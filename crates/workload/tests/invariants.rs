//! Invariant sweeps of the workload substrate: generated traces must
//! respect their profile across the plausible SPEC-like behaviour space.
//!
//! Cases are drawn deterministically from the in-tree seeded PRNG rather
//! than a property-testing framework (the workspace builds offline), so
//! every run exercises the identical sample of the space.

use uarch_sim::config::SystemConfig;
use uarch_sim::microop::{BranchKind, MicroOp};
use workload_synth::footprint::{GrowthCurve, MemoryMap};
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::Behavior;
use workload_synth::rng::Rng64;

const CASES: usize = 32;

fn in_range(rng: &mut Rng64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// A valid behaviour sampled from the plausible SPEC-like space.
fn sample_behavior(rng: &mut Rng64) -> Behavior {
    let rss = in_range(rng, 0.001, 12.0);
    Behavior {
        instructions_billions: in_range(rng, 1.0, 5000.0),
        ipc_target: in_range(rng, 0.05, 3.2),
        load_pct: in_range(rng, 5.0, 40.0),
        store_pct: in_range(rng, 1.0, 16.0),
        branch_pct: in_range(rng, 1.0, 33.0),
        mispredict_target: in_range(rng, 0.0, 0.15),
        l1_miss_target: in_range(rng, 0.001, 0.2),
        l2_miss_target: in_range(rng, 0.05, 0.9),
        l3_miss_target: in_range(rng, 0.02, 0.9),
        rss_gib: rss,
        vsz_gib: rss * 1.15 + 0.01,
        threads: 1 + rng.gen_below(4) as u32,
        ..Behavior::default()
    }
}

fn behaviors(seed: u64) -> Vec<Behavior> {
    let mut rng = Rng64::seed_from(seed);
    (0..CASES).map(|_| sample_behavior(&mut rng)).collect()
}

#[test]
fn any_valid_behavior_generates() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    for behavior in behaviors(0x5eed_0001) {
        assert!(
            behavior.validate().is_ok(),
            "sampled behaviour invalid: {behavior:?}"
        );
        let n = 20_000u64;
        let ops: Vec<MicroOp> = TraceGenerator::new(&behavior, &config, 5, n)
            .expect("valid behavior")
            .collect();
        assert_eq!(ops.len() as u64, n);
    }
}

#[test]
fn mix_fractions_track_profile() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    for behavior in behaviors(0x5eed_0002) {
        let n = 60_000u64;
        let (mut loads, mut stores, mut branches) = (0u64, 0u64, 0u64);
        for op in TraceGenerator::new(&behavior, &config, 6, n).expect("valid behavior") {
            match op {
                MicroOp::Load { .. } => loads += 1,
                MicroOp::Store { .. } => stores += 1,
                MicroOp::Branch { .. } => branches += 1,
                MicroOp::Alu => {}
            }
        }
        let pct = |c: u64| 100.0 * c as f64 / n as f64;
        // 3-sigma-ish tolerance for 60k Bernoulli samples: ~0.6 points.
        assert!((pct(loads) - behavior.load_pct).abs() < 1.2);
        assert!((pct(stores) - behavior.store_pct).abs() < 1.2);
        assert!((pct(branches) - behavior.branch_pct).abs() < 1.2);
    }
}

#[test]
fn branch_kinds_sum_to_branch_total() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    for behavior in behaviors(0x5eed_0003) {
        let mut by_kind = std::collections::HashMap::new();
        let mut total = 0u64;
        for op in TraceGenerator::new(&behavior, &config, 7, 40_000).expect("valid behavior") {
            if let MicroOp::Branch { kind, .. } = op {
                *by_kind.entry(kind).or_insert(0u64) += 1;
                total += 1;
            }
        }
        let sum: u64 = by_kind.values().sum();
        assert_eq!(sum, total);
        // Unconditional kinds are always taken.
        for op in TraceGenerator::new(&behavior, &config, 7, 5_000).expect("valid behavior") {
            if let MicroOp::Branch { kind, taken, .. } = op {
                if kind != BranchKind::Conditional {
                    assert!(taken);
                }
            }
        }
    }
}

#[test]
fn service_fractions_always_normalized() {
    for behavior in behaviors(0x5eed_0004) {
        let f = behavior.service_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}

#[test]
fn hints_are_always_sane() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    for behavior in behaviors(0x5eed_0005) {
        let h = behavior.hints(&config);
        assert!(h.ilp >= 0.1 && h.ilp <= config.timing.issue_width as f64);
        assert!((1.0..=16.0).contains(&h.mlp));
        assert!(h.sync_overhead >= 0.0);
        assert!((0.0..=0.35).contains(&h.indirect_target_miss_rate));
    }
}

#[test]
fn budget_respects_caps() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    for behavior in behaviors(0x5eed_0006) {
        for scale in [TraceScale::default(), TraceScale::quick()] {
            let ops = scale.budget_for(&behavior, &config);
            assert!(ops >= scale.base_ops.min(scale.max_ops));
            assert!(ops <= scale.max_ops.saturating_mul(2));
        }
    }
}

#[test]
fn memory_map_monotone_for_any_behavior() {
    let curves = [
        GrowthCurve::Immediate,
        GrowthCurve::Linear,
        GrowthCurve::Saturating,
    ];
    for (i, behavior) in behaviors(0x5eed_0007).into_iter().enumerate() {
        let map = MemoryMap::from_behavior(&behavior, curves[i % curves.len()]);
        assert!(map.peak_rss_bytes() <= map.vsz_bytes());
        let mut last = 0;
        for step in 0..=20 {
            let rss = map.rss_at(step as f64 / 20.0);
            assert!(rss >= last);
            last = rss;
        }
        assert_eq!(last, map.peak_rss_bytes());
    }
}

#[test]
fn traces_replay_identically() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let mut seeds = Rng64::seed_from(0x5eed_0008);
    for behavior in behaviors(0x5eed_0009) {
        let seed = seeds.gen_below(1000);
        let a: Vec<MicroOp> = TraceGenerator::new(&behavior, &config, seed, 4_000)
            .expect("valid behavior")
            .collect();
        let b: Vec<MicroOp> = TraceGenerator::new(&behavior, &config, seed, 4_000)
            .expect("valid behavior")
            .collect();
        assert_eq!(a, b);
    }
}
