//! The paper's future work, demonstrated: detect execution phases in a
//! multi-phase workload and pick SimPoint-style simulation points.
//!
//! ```text
//! cargo run --release --example phase_analysis
//! ```

use spec2017_workchar::uarch_sim::config::SystemConfig;
use spec2017_workchar::uarch_sim::engine::WorkloadHints;
use spec2017_workchar::workchar::phase::analyze_phases;
use spec2017_workchar::workload_synth::phases::demo_three_phase;

fn main() {
    let config = SystemConfig::haswell_e5_2650l_v3();
    let workload = demo_three_phase();
    println!(
        "running '{}' ({} phases by construction) in 40 windows...\n",
        workload.name,
        workload.phases().len()
    );
    let ops = 600_000;
    let trace = workload.trace(&config, 42, ops);
    let analysis = analyze_phases(trace, ops, &config, &WorkloadHints::default(), 40, 6)
        .expect("phase analysis succeeds");

    println!(
        "detected {} phases (silhouette {:.3})",
        analysis.n_phases, analysis.silhouette
    );
    println!("\nper-window phase labels (execution order):");
    print!("  ");
    for &label in &analysis.labels {
        print!("{label}");
    }
    println!("\n\nchosen simulation points:");
    for p in &analysis.points {
        let w = &analysis.windows[p.window];
        println!(
            "  window {:>2}  phase {}  weight {:.2}  (IPC {:.2}, L1 miss {:.1}%, stores {:.1}%)",
            p.window,
            p.phase,
            p.weight,
            w.ipc(),
            w.l1_miss_rate() * 100.0,
            w.store_fraction() * 100.0,
        );
    }
    println!(
        "\nwhole-run IPC     : {:.3}\nsimulation-point  : {:.3} (from {:.0}% of the windows)",
        analysis.full_ipc(),
        analysis.estimated_ipc(),
        analysis.simulation_fraction() * 100.0
    );
    println!("\nSimulating only the chosen windows, weighted by phase share,");
    println!("reconstructs whole-program metrics — the methodology the paper");
    println!("proposes to make even the subsetted suite simulable.");
}
