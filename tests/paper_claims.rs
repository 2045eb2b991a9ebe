//! Headline-shape claims of the paper, checked against the simulated
//! reproduction at reduced (quick) scale.
//!
//! Absolute numbers are not expected to match the authors' testbed; these
//! tests pin the *orderings and contrasts* the paper's narrative relies on.

use std::sync::OnceLock;

use spec2017_workchar::stat_analysis::cluster::Linkage;
use spec2017_workchar::workchar::characterize::{characterize_suite, CharRecord, RunConfig};
use spec2017_workchar::workchar::redundancy::RedundancyAnalysis;
use spec2017_workchar::workchar::subset::SubsetAnalysis;
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

/// One shared characterization of a representative app set at quick scale.
fn records() -> &'static Vec<CharRecord> {
    static RECORDS: OnceLock<Vec<CharRecord>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let names = [
            "505.mcf_r",
            "519.lbm_r",
            "525.x264_r",
            "541.leela_r",
            "548.exchange2_r",
            "549.fotonik3d_r",
            "508.namd_r",
            "603.bwaves_s",
            "607.cactuBSSN_s",
            "619.lbm_s",
            "657.xz_s",
            "628.pop2_s",
        ];
        let apps: Vec<_> = names
            .iter()
            .map(|n| cpu2017::app(n).expect("known app"))
            .collect();
        characterize_suite(&apps, InputSize::Ref, &RunConfig::quick())
            .expect("paper-claims roster characterizes cleanly")
    })
}

fn record(id: &str) -> &'static CharRecord {
    records()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("record {id}"))
}

#[test]
fn x264_has_highest_and_mcf_lowest_int_ipc() {
    // Fig. 1 headline: 525.x264_r fastest int app, 505.mcf_r slowest.
    let x264 = record("525.x264_r-in1").ipc();
    let mcf = record("505.mcf_r").ipc();
    assert!(x264 > 2.0 * mcf, "x264 {x264} vs mcf {mcf}");
}

#[test]
fn speed_fp_ipc_collapses() {
    // Table II: speed-fp IPC is less than half of rate-fp IPC.
    let rate_fp = record("549.fotonik3d_r")
        .ipc()
        .max(record("508.namd_r").ipc());
    let lbm_s = record("619.lbm_s").ipc();
    assert!(
        lbm_s < 0.2,
        "619.lbm_s must be the extreme low IPC, got {lbm_s}"
    );
    assert!(rate_fp > 1.0, "rate fp stays above 1.0");
}

#[test]
fn lbm_has_fewest_branches_and_most_stores() {
    // Fig. 2/3: 519.lbm_r lowest branch share; among the highest stores.
    let lbm = record("519.lbm_r");
    assert!(lbm.branch_pct() < 2.0, "lbm branches {}", lbm.branch_pct());
    assert!(lbm.store_pct() > 11.0, "lbm stores {}", lbm.store_pct());
    for r in records().iter().filter(|r| r.id != "519.lbm_r") {
        assert!(
            lbm.branch_pct() <= r.branch_pct() + 1e-9,
            "{} branchier than lbm",
            r.id
        );
    }
}

#[test]
fn exchange2_has_highest_store_share_of_int() {
    let ex = record("548.exchange2_r");
    assert!(ex.store_pct() > 14.0, "exchange2 stores {}", ex.store_pct());
}

#[test]
fn leela_has_highest_mispredict_rate() {
    let leela = record("541.leela_r");
    for r in records().iter().filter(|r| r.app != "541.leela_r") {
        assert!(
            leela.mispredict_pct() > r.mispredict_pct(),
            "{} out-mispredicts leela ({} vs {})",
            r.id,
            r.mispredict_pct(),
            leela.mispredict_pct()
        );
    }
    assert!(
        leela.mispredict_pct() > 5.0,
        "leela {}",
        leela.mispredict_pct()
    );
}

#[test]
fn fotonik_has_highest_l2_miss_rate() {
    // Fig. 5: 549.fotonik3d_r highest rate-fp L2 local miss rate.
    let fotonik = record("549.fotonik3d_r");
    assert!(
        fotonik.l2_miss_pct() > 55.0,
        "fotonik L2 {}",
        fotonik.l2_miss_pct()
    );
    assert!(
        fotonik.l3_miss_pct() > 35.0,
        "fotonik L3 {}",
        fotonik.l3_miss_pct()
    );
}

#[test]
fn xz_s_has_largest_footprint() {
    let xz = record("657.xz_s-in1");
    for r in records().iter().filter(|r| r.app != "657.xz_s") {
        assert!(xz.rss_gib > r.rss_gib, "{} out-sizes xz_s", r.id);
    }
    assert!(xz.vsz_gib > xz.rss_gib);
}

#[test]
fn footprint_negatively_correlates_with_ipc() {
    // Section IV-C: RSS/VSZ vs IPC correlations of -0.465 / -0.510.
    let rs = records();
    let ipc: Vec<f64> = rs.iter().map(|r| r.ipc()).collect();
    let rss: Vec<f64> = rs.iter().map(|r| r.rss_gib).collect();
    let c = spec2017_workchar::stat_analysis::summary::pearson(&rss, &ipc).unwrap();
    assert!(c < -0.2, "rss/ipc correlation {c}");
}

#[test]
fn bwaves_inputs_cluster_together_and_apart_from_cactu() {
    // Table IX / Fig. 7 validation on the full mechanism.
    let rs = records();
    let analysis = RedundancyAnalysis::fit_paper(rs).expect("pca fits");
    let refs: Vec<&CharRecord> = rs.iter().collect();
    let subset =
        SubsetAnalysis::fit(&refs, &analysis.score_rows(), Linkage::Average).expect("subset");
    // Find the first merge height joining the two bwaves inputs; it must be
    // far below the height at which cactuBSSN_s joins anything.
    let idx = |id: &str| rs.iter().position(|r| r.id == id).unwrap();
    let b1 = idx("603.bwaves_s-in1");
    let b2 = idx("603.bwaves_s-in2");
    let labels_at_two = subset.dendrogram.cut(rs.len() / 2).expect("cut");
    assert_eq!(
        labels_at_two[b1], labels_at_two[b2],
        "bwaves_s inputs must share a cluster well before the final merges"
    );
}

#[test]
fn subsetting_saves_majority_of_time() {
    let rs = records();
    let analysis = RedundancyAnalysis::fit_paper(rs).expect("pca fits");
    let refs: Vec<&CharRecord> = rs.iter().collect();
    let subset =
        SubsetAnalysis::fit(&refs, &analysis.score_rows(), Linkage::Average).expect("subset");
    assert!(subset.chosen_k < rs.len(), "subset must drop something");
    assert!(subset.saving_pct() > 20.0, "saving {}", subset.saving_pct());
}

#[test]
fn four_ish_components_explain_most_variance() {
    // Paper: 4 PCs cover 76.3%.
    let analysis = RedundancyAnalysis::fit_paper(records()).expect("pca fits");
    assert!((2..=6).contains(&analysis.n_components));
    assert!(
        analysis.explained >= 0.70,
        "explained {}",
        analysis.explained
    );
}
