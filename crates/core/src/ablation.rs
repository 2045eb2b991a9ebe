//! Design-choice ablation studies.
//!
//! DESIGN.md calls out the places where this reproduction had to choose a
//! mechanism the paper does not pin down (clustering linkage, representative
//! rule) or where the substrate exposes a knob the paper's fixed hardware
//! could not vary (branch predictor, replacement policy, prefetcher). Each
//! function here quantifies one of those choices as a table.

use simreport::table::{num, Table};
use stat_analysis::cluster::Linkage;
use stat_analysis::distance::Metric;
use stat_analysis::kmedoids::k_medoids;
use stat_analysis::silhouette::mean_silhouette;
use uarch_sim::branch::PredictorKind;
use uarch_sim::config::SystemConfig;
use uarch_sim::engine::Engine;
use uarch_sim::exec::ExecPlan;
use uarch_sim::hierarchy::Hierarchy;
use uarch_sim::prefetch::Prefetcher;
use uarch_sim::replacement::Policy;
use workload_synth::cpu2017;
use workload_synth::generator::{TraceGenerator, TraceScale};
use workload_synth::profile::InputSize;

use crate::cache::{characterize_pair_cached, CacheContext};
use crate::characterize::{characterize_pair, CharRecord, RunConfig};
use crate::redundancy::RedundancyAnalysis;
use crate::subset::SubsetAnalysis;

/// Compares the four linkage criteria on the same ref records: chosen `k`,
/// time saving, and the silhouette of the resulting clustering.
pub fn linkage_ablation(records: &[&CharRecord]) -> Table {
    let mut table = Table::new(
        "Ablation: hierarchical-clustering linkage criterion",
        &["Linkage", "Chosen k", "% time saving", "Silhouette"],
    );
    table.numeric();
    let owned: Vec<CharRecord> = records.iter().map(|&r| r.clone()).collect();
    let Ok(analysis) = RedundancyAnalysis::fit_paper(&owned) else {
        table.row(vec![
            "(too few records)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        return table;
    };
    let rows = analysis.score_rows();
    for linkage in [
        Linkage::Single,
        Linkage::Complete,
        Linkage::Average,
        Linkage::Ward,
    ] {
        match SubsetAnalysis::fit(records, &rows, linkage) {
            Ok(s) => {
                let labels = s.dendrogram.cut(s.chosen_k).expect("valid k");
                let sil = mean_silhouette(&rows, &labels, Metric::Euclidean).unwrap_or(0.0);
                table.row(vec![
                    format!("{linkage:?}"),
                    s.chosen_k.to_string(),
                    num(s.saving_pct(), 2),
                    num(sil, 3),
                ]);
            }
            Err(e) => {
                table.row(vec![
                    format!("{linkage:?}"),
                    format!("error: {e}"),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    table
}

/// Compares the paper's subsetter (hierarchical + shortest-runtime rule)
/// against a k-medoids baseline at the same `k`.
pub fn subsetter_ablation(records: &[&CharRecord]) -> Table {
    let mut table = Table::new(
        "Ablation: subsetting method (same k)",
        &["Method", "k", "Subset time (s)", "% time saving"],
    );
    table.numeric();
    let owned: Vec<CharRecord> = records.iter().map(|&r| r.clone()).collect();
    let Ok(analysis) = RedundancyAnalysis::fit_paper(&owned) else {
        table.row(vec![
            "(too few records)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        return table;
    };
    let rows = analysis.score_rows();
    let Ok(hier) = SubsetAnalysis::fit(records, &rows, Linkage::Average) else {
        table.row(vec![
            "(subset failed)".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
        return table;
    };
    let full: f64 = records.iter().map(|r| r.projected_seconds).sum();
    table.row(vec![
        "hierarchical + min-time".into(),
        hier.chosen_k.to_string(),
        num(hier.subset_seconds, 2),
        num(hier.saving_pct(), 2),
    ]);
    if let Ok(km) = k_medoids(&rows, hier.chosen_k, Metric::Euclidean) {
        let time: f64 = km
            .medoids
            .iter()
            .map(|&m| records[m].projected_seconds)
            .sum();
        table.row(vec![
            "k-medoids (medoids as reps)".into(),
            hier.chosen_k.to_string(),
            num(time, 2),
            num((1.0 - time / full) * 100.0, 2),
        ]);
    }
    table
}

/// Mispredict rates of headline applications under each predictor design.
pub fn predictor_ablation(config: &SystemConfig, scale: &TraceScale) -> Table {
    let apps = ["541.leela_r", "505.mcf_r", "525.x264_r", "519.lbm_r"];
    let mut headers: Vec<String> = vec!["Predictor".into()];
    headers.extend(apps.iter().map(|a| format!("{a} misp %")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new("Ablation: branch predictor design", &header_refs);
    table.numeric();
    for kind in [
        PredictorKind::AlwaysTaken,
        PredictorKind::Bimodal,
        PredictorKind::GShare,
        PredictorKind::Tournament,
    ] {
        let mut cells = vec![format!("{kind:?}")];
        for name in apps {
            let app = cpu2017::app(name).expect("known app");
            let pair = &app.pairs(InputSize::Ref)[0];
            let hints = pair.input.behavior.hints(config);
            let trace = TraceGenerator::new(
                &pair.input.behavior,
                config,
                pair.seed(),
                scale.budget(&pair.input.behavior).min(300_000),
            )
            .expect("curated profiles are valid");
            let mut engine = Engine::with_predictor(config, kind);
            let session = engine.execute(trace, &ExecPlan::new().hints(hints));
            cells.push(num(session.mispredict_rate() * 100.0, 3));
        }
        table.row(cells);
    }
    table
}

/// L1 miss rates of an mcf-like access stream under each replacement policy.
pub fn replacement_ablation(scale: &TraceScale) -> Table {
    replacement_ablation_with(scale, None)
}

/// [`replacement_ablation`] with an optional result cache: each policy's run
/// is a full characterization under a distinct [`SystemConfig`], so every
/// row is content-addressed and replays from the store on repeated runs.
pub fn replacement_ablation_with(scale: &TraceScale, cache: Option<&CacheContext>) -> Table {
    let mut table = Table::new(
        "Ablation: cache replacement policy (505.mcf_r trace)",
        &["Policy", "L1 miss %", "L2 local miss %", "L3 local miss %"],
    );
    table.numeric();
    let app = cpu2017::app("505.mcf_r").expect("mcf exists");
    let pair = &app.pairs(InputSize::Ref)[0];
    for policy in [
        Policy::Lru,
        Policy::Fifo,
        Policy::Random,
        Policy::TreePlru,
        Policy::Srrip,
    ] {
        let run_config = RunConfig {
            system: SystemConfig::haswell_e5_2650l_v3().with_policy(policy),
            scale: *scale,
            sampler: None,
        };
        let record = match cache {
            Some(ctx) => characterize_pair_cached(pair, &run_config, ctx),
            None => characterize_pair(pair, &run_config),
        }
        .expect("curated mcf profile characterizes cleanly");
        table.row(vec![
            format!("{policy:?}"),
            num(record.l1_miss_pct(), 3),
            num(record.l2_miss_pct(), 3),
            num(record.l3_miss_pct(), 3),
        ]);
    }
    table
}

/// Effect of hardware prefetchers on a purely streaming access pattern.
pub fn prefetcher_ablation() -> Table {
    let mut table = Table::new(
        "Ablation: data prefetcher on a streaming pattern",
        &["Prefetcher", "L2 hits", "Prefetches issued"],
    );
    table.numeric();
    let config = SystemConfig::haswell_e5_2650l_v3();
    for prefetcher in [Prefetcher::None, Prefetcher::NextLine, Prefetcher::Stream] {
        let mut h = Hierarchy::with_prefetcher(&config, prefetcher);
        for i in 0..200_000u64 {
            h.load(i * 64);
        }
        table.row(vec![
            format!("{prefetcher:?}"),
            h.l2_stats().hits.to_string(),
            h.prefetch_stats().issued.to_string(),
        ]);
    }
    table
}

/// CPI stacks of the given records — the interval-model decomposition of
/// each pair's cycles per instruction (an extension view the paper's
/// counter-only methodology cannot produce).
pub fn cpi_stack_table(records: &[&CharRecord]) -> Table {
    let mut table = Table::new(
        "Extension: CPI stacks (cycles per instruction)",
        &[
            "Pair", "Base", "Branch", "Memory", "Frontend", "Total", "IPC",
        ],
    );
    table.numeric();
    for r in records {
        let total = r.cpi_base + r.cpi_branch + r.cpi_memory + r.cpi_frontend;
        table.row(vec![
            r.id.clone(),
            num(r.cpi_base, 3),
            num(r.cpi_branch, 3),
            num(r.cpi_memory, 3),
            num(r.cpi_frontend, 3),
            num(total, 3),
            num(r.ipc(), 3),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_suite, RunConfig};

    fn sample() -> Vec<CharRecord> {
        let apps = vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("519.lbm_r").unwrap(),
            cpu2017::app("525.x264_r").unwrap(),
            cpu2017::app("541.leela_r").unwrap(),
            cpu2017::app("548.exchange2_r").unwrap(),
        ];
        characterize_suite(&apps, InputSize::Ref, &RunConfig::quick()).unwrap()
    }

    #[test]
    fn linkage_table_has_four_rows() {
        let records = sample();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let t = linkage_ablation(&refs);
        assert_eq!(t.n_rows(), 4);
        assert!(t.render_ascii().contains("Ward"));
    }

    #[test]
    fn subsetter_table_compares_two_methods() {
        let records = sample();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let t = subsetter_ablation(&refs);
        assert_eq!(t.n_rows(), 2);
        assert!(t.render_ascii().contains("k-medoids"));
    }

    #[test]
    fn predictor_ablation_orders_sanely() {
        let t = predictor_ablation(&SystemConfig::haswell_e5_2650l_v3(), &TraceScale::quick());
        assert_eq!(t.n_rows(), 4);
        // leela mispredicts (column 1) must be worst under AlwaysTaken and
        // best under Tournament.
        let parse = |row: usize| -> f64 { t.rows()[row][1].parse().unwrap() };
        let always = parse(0);
        let tournament = parse(3);
        assert!(
            always > tournament,
            "always-taken {always} must mispredict more than tournament {tournament}"
        );
    }

    #[test]
    fn prefetcher_ablation_shows_benefit() {
        let t = prefetcher_ablation();
        let hits = |row: usize| -> u64 { t.rows()[row][1].parse().unwrap() };
        assert!(hits(1) > hits(0), "next-line must add L2 hits");
        assert!(hits(2) > hits(0), "stream must add L2 hits");
    }

    #[test]
    fn replacement_ablation_runs_all_policies() {
        let t = replacement_ablation(&TraceScale::quick());
        assert_eq!(t.n_rows(), 5);
        assert!(t.render_ascii().contains("Srrip"));
    }

    #[test]
    fn replacement_ablation_cache_round_trip() {
        let root =
            std::env::temp_dir().join(format!("workchar-ablation-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = CacheContext::open(&root).unwrap();
        let scale = TraceScale::quick();
        let uncached = replacement_ablation(&scale);
        let cold = replacement_ablation_with(&scale, Some(&cache));
        let warm = replacement_ablation_with(&scale, Some(&cache));
        assert_eq!(
            uncached.rows(),
            cold.rows(),
            "cache must not change the table"
        );
        assert_eq!(cold.rows(), warm.rows());
        let snap = cache.stats.snapshot();
        assert_eq!(snap.misses, 5, "five policies simulated once");
        assert_eq!(snap.hits, 5, "then all served from the store");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cpi_stack_components_reconstruct_ipc() {
        let records = sample();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let t = cpi_stack_table(&refs);
        assert_eq!(t.n_rows(), records.len());
        for r in &records {
            if r.suite.is_speed() {
                continue; // thread overhead scales cycles beyond the stack
            }
            let total = r.cpi_base + r.cpi_branch + r.cpi_memory + r.cpi_frontend;
            let ipc_from_stack = 1.0 / total;
            assert!(
                (ipc_from_stack - r.ipc()).abs() / r.ipc() < 0.02,
                "{}: stack 1/{total} vs ipc {}",
                r.id,
                r.ipc()
            );
        }
    }

    #[test]
    fn memory_bound_app_is_memory_dominated() {
        let records = sample();
        let mcf = records.iter().find(|r| r.id == "505.mcf_r").unwrap();
        assert!(
            mcf.cpi_memory > mcf.cpi_frontend,
            "mcf memory stalls {} must dominate frontend {}",
            mcf.cpi_memory,
            mcf.cpi_frontend
        );
    }
}
