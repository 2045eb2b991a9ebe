//! Flight-recorder regression: a pair that panics mid-campaign must leave
//! a dump on disk that names the failing pair.
//!
//! This file holds exactly one test because it enables the process-global
//! metrics flag and installs the process-global panic hook; keeping it in
//! its own integration-test binary gives it a process to itself.

mod common;

use spec2017_workchar::simmetrics;
use spec2017_workchar::workchar::characterize::{characterize_pairs_report, RunConfig};
use spec2017_workchar::workload_synth::profile::{AppInputPair, InputSize};

#[test]
fn injected_panic_dumps_flight_recorder_with_failing_pair_id() {
    let dir = std::env::temp_dir().join(format!("flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("flight-recorder.json");

    simmetrics::enable();
    simmetrics::flight::install_dump(&dump);

    let apps = common::poisoned_apps();
    let pairs: Vec<AppInputPair<'_>> = apps.iter().flat_map(|a| a.pairs(InputSize::Ref)).collect();
    let report = characterize_pairs_report(&pairs, &RunConfig::quick(), None, |_| {});
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].label, "999.broken_r/ref");

    let text = std::fs::read_to_string(&dump).expect("panic hook wrote the dump");
    assert!(
        text.contains("999.broken_r"),
        "dump lacks the failing pair id: {text}"
    );
    assert!(
        text.contains("\"kind\":\"panic\""),
        "dump lacks the panic event itself: {text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
