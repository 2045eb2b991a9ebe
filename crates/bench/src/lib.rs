//! Shared helpers for the benchmark harness.
//!
//! The benches live under `benches/` and run on the in-tree [`harness`]
//! (the workspace builds offline, so no external benchmark framework);
//! this library provides the small fixtures they share so each bench file
//! stays focused on what it measures:
//!
//! - `substrates` — cache, branch predictor, trace generator, PCA,
//!   clustering microbenchmarks.
//! - `tables` — one benchmark per paper table regeneration path
//!   (Tables I–X).
//! - `figures` — one benchmark per paper figure regeneration path
//!   (Figs. 1–10).
//! - `ablations` — design-choice sweeps: replacement policy, branch
//!   predictor, linkage criterion, trace scale.
//!
//! These are per-component timings. The end-to-end benchmark of whole
//! pipeline runs is `simbench/`, a package of its own declared by
//! `BENCHMARK.json` at the repository root: four workloads (`quick-cold`,
//! `default-cold`, `simpoint-quick`, `cache-replay`), a per-layer traced
//! run, and `simbench compare` for A/B verdicts (see
//! `simbench/BENCHMARK.md`).

pub mod harness;

use workchar::characterize::RunConfig;
use workchar::dataset::Dataset;
use workload_synth::cpu2017;
use workload_synth::generator::TraceScale;
use workload_synth::profile::AppProfile;

/// A bench-friendly run configuration: small but non-trivial traces.
pub fn bench_config() -> RunConfig {
    RunConfig {
        scale: TraceScale {
            ops_per_billion: 4.0,
            base_ops: 20_000,
            max_ops: 400_000,
        },
        ..RunConfig::default()
    }
}

/// A compact application set covering all four mini-suites.
pub fn bench_apps() -> Vec<AppProfile> {
    [
        "505.mcf_r",
        "519.lbm_r",
        "525.x264_r",
        "541.leela_r",
        "603.bwaves_s",
        "607.cactuBSSN_s",
        "631.deepsjeng_s",
        "657.xz_s",
    ]
    .iter()
    .map(|n| cpu2017::app(n).expect("bench app exists"))
    .collect()
}

/// Collects the dataset every table/figure bench regenerates from.
pub fn bench_dataset() -> Dataset {
    let cpu06: Vec<AppProfile> = workload_synth::cpu2006::suite()
        .into_iter()
        .filter(|a| ["429.mcf", "470.lbm", "456.hmmer", "453.povray"].contains(&a.name.as_str()))
        .collect();
    Dataset::collect_apps(bench_config(), &bench_apps(), &cpu06)
        .expect("bench roster characterizes cleanly")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_construct() {
        assert_eq!(bench_apps().len(), 8);
        let config = bench_config();
        assert!(config.scale.ops_per_billion < TraceScale::default().ops_per_billion);
    }
}
