//! One benchmark per paper *table* regeneration path (Tables I–X).
//!
//! Each bench measures the analysis cost of regenerating the table from an
//! already-collected dataset (the paper's equivalent: re-deriving a table
//! from the perf logs), plus the characterization of one pair. Whole
//! pipeline runs are measured end to end by `simbench/` (see
//! `BENCHMARK.json`).

use bench_suite::harness::{black_box, Runner};
use bench_suite::{bench_config, bench_dataset};
use workchar::characterize::characterize_pair;
use workchar::experiments::{self, ExperimentId};
use workload_synth::cpu2017;
use workload_synth::profile::InputSize;

fn bench_tables(r: &mut Runner) {
    let data = bench_dataset();
    for id in [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Table4,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Table7,
        ExperimentId::Table8,
        ExperimentId::Table9,
        ExperimentId::Table10,
    ] {
        r.bench(&format!("tables/{}", id.slug()), || {
            black_box(experiments::run(id, &data))
        });
    }
}

fn bench_characterize_one_pair(r: &mut Runner) {
    let config = bench_config();
    let app = cpu2017::app("505.mcf_r").expect("mcf exists");
    r.bench("characterize_505.mcf_r_ref", || {
        let pair = &app.pairs(InputSize::Ref)[0];
        black_box(characterize_pair(pair, &config))
    });
}

fn main() {
    let mut r = Runner::from_args("tables");
    bench_tables(&mut r);
    bench_characterize_one_pair(&mut r);
    r.finish();
}
