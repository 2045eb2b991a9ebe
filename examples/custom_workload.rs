//! Downstream-user scenario: define a *custom* workload behaviour (an
//! application SPEC does not ship), run it through the same simulator, and
//! see where it would land among the CPU2017 applications in PC space.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use spec2017_workchar::stat_analysis::distance::Metric;
use spec2017_workchar::workchar::characterize::{characterize_pair, characterize_suite, RunConfig};
use spec2017_workchar::workchar::metrics::characteristic_rows;
use spec2017_workchar::workchar::redundancy::RedundancyAnalysis;
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::{
    AppInputPair, AppProfile, Behavior, InputProfile, InputSize, Suite,
};

fn main() {
    // A pointer-chasing, branchy in-memory database shard: high L1/L2
    // misses, big footprint, moderate mispredicts.
    let custom = Behavior {
        instructions_billions: 1400.0,
        ipc_target: 0.7,
        load_pct: 30.0,
        store_pct: 10.0,
        branch_pct: 22.0,
        mispredict_target: 0.03,
        l1_miss_target: 0.08,
        l2_miss_target: 0.55,
        l3_miss_target: 0.30,
        rss_gib: 4.0,
        vsz_gib: 4.5,
        code_kib: 900.0,
        ..Behavior::default()
    };
    let app = AppProfile {
        name: "901.kvstore_x".to_owned(),
        suite: Suite::RateInt,
        test: Vec::new(),
        train: Vec::new(),
        reference: vec![InputProfile {
            name: "in1".to_owned(),
            behavior: custom,
        }],
    };
    app.validate().expect("custom behaviour is well-formed");

    let config = RunConfig::default();
    let pair_list = app.pairs(InputSize::Ref);
    let pair: &AppInputPair<'_> = &pair_list[0];
    let custom_record =
        characterize_pair(pair, &config).expect("custom pair characterizes cleanly");
    println!("custom workload '{}' characterized:", custom_record.id);
    println!(
        "  IPC {:.3}   L1 {:.2}%  L2 {:.2}%  L3 {:.2}%  mispredict {:.2}%\n",
        custom_record.ipc(),
        custom_record.l1_miss_pct(),
        custom_record.l2_miss_pct(),
        custom_record.l3_miss_pct(),
        custom_record.mispredict_pct(),
    );

    // Fit PCA on the real suite, then project the custom workload into the
    // same space and report its nearest CPU2017 neighbours.
    println!("characterizing the CPU2017 ref pairs for comparison...");
    let mut records = characterize_suite(&cpu2017::suite(), InputSize::Ref, &config)
        .expect("suite characterizes cleanly");
    let analysis = RedundancyAnalysis::fit_paper(&records).expect("PCA fits");
    records.push(custom_record);
    let rows = characteristic_rows(&records);
    let data =
        spec2017_workchar::stat_analysis::matrix::Matrix::from_rows(&rows).expect("matrix builds");
    let scores = analysis
        .pca
        .scores(&data, analysis.n_components)
        .expect("projection");

    let custom_row = scores.row(scores.rows() - 1).to_vec();
    let mut neighbours: Vec<(String, f64)> = (0..scores.rows() - 1)
        .map(|i| {
            let d = Metric::Euclidean
                .distance(scores.row(i), &custom_row)
                .expect("same dimensionality");
            (records[i].id.clone(), d)
        })
        .collect();
    neighbours.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));

    println!("\nnearest CPU2017 neighbours in PC space:");
    for (id, d) in neighbours.iter().take(5) {
        println!("  {id:24} distance {d:.3}");
    }
    println!("\nIf you already simulate one of these, the custom workload is");
    println!("likely redundant with it — the paper's subsetting argument,");
    println!("applied to your own application.");
}
