//! Bit-determinism of the whole reproduction: identical configuration must
//! yield identical records, analyses, and rendered artifacts.

use spec2017_workchar::workchar::characterize::{characterize_pair, RunConfig};
use spec2017_workchar::workchar::redundancy::RedundancyAnalysis;
use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::InputSize;

#[test]
fn characterization_is_bit_deterministic() {
    let config = RunConfig::quick();
    for name in ["505.mcf_r", "603.bwaves_s", "657.xz_s"] {
        let app = cpu2017::app(name).expect("known app");
        for pair in app.pairs(InputSize::Ref) {
            let a = characterize_pair(&pair, &config).unwrap();
            let b = characterize_pair(&pair, &config).unwrap();
            assert_eq!(a, b, "{name} differs across identical runs");
        }
    }
}

#[test]
fn analysis_is_deterministic() {
    let config = RunConfig::quick();
    let apps = vec![
        cpu2017::app("505.mcf_r").unwrap(),
        cpu2017::app("519.lbm_r").unwrap(),
        cpu2017::app("541.leela_r").unwrap(),
        cpu2017::app("525.x264_r").unwrap(),
    ];
    let run = || {
        let records = spec2017_workchar::workchar::characterize::characterize_suite(
            &apps,
            InputSize::Ref,
            &config,
        )
        .unwrap();
        let analysis = RedundancyAnalysis::fit_paper(&records).expect("pca fits");
        analysis.score_rows()
    };
    assert_eq!(run(), run());
}

#[test]
fn input_sizes_differ_but_share_structure() {
    // test/train/ref of the same app are different runs (different seeds and
    // volumes) but the same application identity.
    let config = RunConfig::quick();
    let app = cpu2017::app("505.mcf_r").unwrap();
    let test = characterize_pair(&app.pairs(InputSize::Test)[0], &config).unwrap();
    let reference = characterize_pair(&app.pairs(InputSize::Ref)[0], &config).unwrap();
    assert_ne!(test.session, reference.session);
    assert!(reference.instructions_billions > test.instructions_billions * 5.0);
    // IPC stays in the same ballpark across sizes (paper Table II for int).
    assert!((test.ipc() - reference.ipc()).abs() < 0.5);
}
