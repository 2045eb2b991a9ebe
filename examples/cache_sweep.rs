//! Architecture exploration with the substrate: replay identical workload
//! traces across machine variants and watch the suite respond — the
//! design-space study the paper motivates using CPU2017 for.
//!
//! Sweeps are trace-driven: each application's generator is prepared once
//! on the baseline Haswell, so every variant sees the identical micro-op
//! stream and differences are attributable to the hardware alone. Both
//! sweeps here vary timing only, so each application runs once and every
//! point is priced from that run's event counts.
//!
//! ```text
//! cargo run --release --example cache_sweep
//! ```

use spec2017_workchar::workchar::characterize::RunConfig;
use spec2017_workchar::workchar::sensitivity::{issue_width_sweep, memory_latency_sweep};
use spec2017_workchar::workload_synth::cpu2017;

fn main() {
    let config = RunConfig::default();
    let apps: Vec<_> = ["505.mcf_r", "549.fotonik3d_r", "525.x264_r", "519.lbm_r"]
        .iter()
        .map(|n| cpu2017::app(n).expect("known app"))
        .collect();
    println!(
        "sweeping {} applications, traces generated once on {}\n",
        apps.len(),
        config.system.name
    );

    let latency = memory_latency_sweep(&apps, &config, &[120, 220, 320, 500]);
    println!("{}", latency.table().render_ascii());
    println!(
        "Memory-bound members (mcf, fotonik3d) pay for every added DRAM cycle;\n\
         the compute-bound ones (x264) barely notice — the contrast behind the\n\
         paper's memory-subsystem-provisioning discussion.\n"
    );

    let width = issue_width_sweep(&apps, &config, &[1, 2, 4, 6]);
    println!("{}", width.table().render_ascii());
    println!(
        "IPC saturates at the paper machine's 4-wide issue: the calibrated\n\
         workloads' inherent ILP is the binding constraint beyond that."
    );
}
