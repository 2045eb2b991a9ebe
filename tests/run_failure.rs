//! A campaign that fails in `collect-dataset` must still leave the run
//! manifest behind, the way `reproduce` and `extensions` end a failed run.
//!
//! This file holds exactly one test because a run turns on process-global
//! span recording and drains the collector when it ends; keeping it in its
//! own integration-test binary gives it a process to itself.

mod common;

use spec2017_workchar::simdash::manifest::load_dir;
use spec2017_workchar::workchar::characterize::{characterize_suite_with, RunConfig};
use spec2017_workchar::workchar::cli::PipelineFlags;
use spec2017_workchar::workchar::error::Error;
use spec2017_workchar::workchar::observe::{Run, Stage};
use spec2017_workchar::workload_synth::profile::InputSize;

#[test]
fn failed_collect_dataset_still_writes_the_manifest() {
    let dir = std::env::temp_dir().join(format!("run-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flags = PipelineFlags {
        results_dir: dir.clone(),
        ..PipelineFlags::new()
    };

    // The same steps as the binaries' failure path.
    let run = Run::start("reproduce", "quick", "test", &flags);
    let stage = Stage::open("collect-dataset");
    let apps = common::poisoned_apps();
    let result = characterize_suite_with(&apps, InputSize::Ref, &RunConfig::quick(), None);
    let Err(error) = result else {
        panic!("the poisoned campaign must fail");
    };
    drop(stage);
    let error = run.fail(error);
    assert!(matches!(error, Error::Characterization { .. }), "{error}");

    let manifests = load_dir(&dir.join("runs")).expect("runs dir");
    assert_eq!(manifests.len(), 1);
    let manifest = manifests[0].1.as_ref().expect("manifest parses");
    assert_eq!(manifest.failed_count(), 1);

    std::fs::remove_dir_all(&dir).ok();
}
