//! Quickstart: characterize one SPEC CPU2017 application–input pair on the
//! simulated Haswell system and print what the paper would report for it.
//!
//! ```text
//! cargo run --release --example quickstart [app-name]
//! ```

use spec2017_workchar::uarch_sim::counters::Event;
use spec2017_workchar::workchar::characterize::{characterize_pair, RunConfig};
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "505.mcf_r".to_owned());
    let Some(app) = cpu2017::app(&name) else {
        eprintln!("unknown application '{name}'; try e.g. 505.mcf_r, 525.x264_r, 619.lbm_s");
        std::process::exit(2);
    };

    let config = RunConfig::default();
    println!(
        "characterizing {name} (ref input) on {} ...\n",
        config.system.name
    );

    for pair in app.pairs(InputSize::Ref) {
        let r = characterize_pair(&pair, &config).expect("pair characterizes cleanly");
        println!("== {} ==", r.id);
        println!("  simulated micro-ops        : {}", r.sim_ops);
        println!(
            "  instructions (paper scale) : {:.1} billion",
            r.instructions_billions
        );
        println!("  IPC                        : {:.3}", r.ipc());
        println!(
            "  instruction mix            : {:.1}% loads, {:.1}% stores, {:.1}% branches",
            r.load_pct(),
            r.store_pct(),
            r.branch_pct()
        );
        println!(
            "  cache miss rates           : L1 {:.2}%  L2 {:.2}%  L3 {:.2}% (local)",
            r.l1_miss_pct(),
            r.l2_miss_pct(),
            r.l3_miss_pct()
        );
        println!("  branch mispredict rate     : {:.3}%", r.mispredict_pct());
        println!(
            "  footprint                  : RSS {:.3} GiB, VSZ {:.3} GiB",
            r.rss_gib, r.vsz_gib
        );
        println!(
            "  projected execution time   : {:.1} s (paper scale)",
            r.projected_seconds
        );
        println!("\n  raw counters (perf-style):");
        for event in Event::ALL {
            println!("    {:>14}  {}", r.session.count(event), event.perf_flag());
        }
        println!();
    }
}
