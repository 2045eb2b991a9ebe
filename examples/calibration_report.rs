//! Calibration report: target vs measured for every CPU2017 application at
//! `ref` — the evidence behind EXPERIMENTS.md's fidelity claims.
//!
//! ```text
//! cargo run --release --example calibration_report
//! ```

use spec2017_workchar::simreport::table::{num, Table};
use spec2017_workchar::workchar::characterize::{characterize_suite, RunConfig};
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

fn main() {
    let config = RunConfig::default();
    let apps = cpu2017::suite();
    println!("characterizing all CPU2017 ref pairs (this takes a minute)...\n");
    let records =
        characterize_suite(&apps, InputSize::Ref, &config).expect("suite characterizes cleanly");

    let mut table = Table::new(
        "Calibration: measured / target at ref",
        &[
            "Pair",
            "IPC",
            "L1 miss %",
            "L2 miss %",
            "L3 miss %",
            "Mispred %",
        ],
    );
    table.numeric();
    let mut ipc_err = Vec::new();
    for app in &apps {
        for pair in app.pairs(InputSize::Ref) {
            let b = &pair.input.behavior;
            let r = records
                .iter()
                .find(|r| r.id == pair.id())
                .expect("record exists");
            ipc_err.push(((r.ipc() - b.ipc_target) / b.ipc_target).abs());
            let cell = |measured: f64, target: f64, prec: usize| {
                format!("{} / {}", num(measured, prec), num(target, prec))
            };
            table.row(vec![
                r.id.clone(),
                cell(r.ipc(), b.ipc_target, 2),
                cell(r.l1_miss_pct(), b.l1_miss_target * 100.0, 1),
                cell(r.l2_miss_pct(), b.l2_miss_target * 100.0, 1),
                cell(r.l3_miss_pct(), b.l3_miss_target * 100.0, 1),
                cell(r.mispredict_pct(), b.mispredict_target * 100.0, 2),
            ]);
        }
    }
    println!("{table}");
    let mean_err = ipc_err.iter().sum::<f64>() / ipc_err.len() as f64;
    let max_err = ipc_err.iter().cloned().fold(0.0, f64::max);
    println!(
        "IPC relative error: mean {:.1}%, max {:.1}%",
        mean_err * 100.0,
        max_err * 100.0
    );
}
