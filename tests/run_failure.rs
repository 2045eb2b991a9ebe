//! A campaign that fails in `collect-dataset` must still leave the events
//! file and the run manifest behind, the way `reproduce` and `extensions`
//! end a failed run.
//!
//! This file holds exactly one test because a run turns on process-global
//! span recording and drains the collector when it ends; keeping it in its
//! own integration-test binary gives it a process to itself.

mod common;

use spec2017_workchar::perfmon;
use spec2017_workchar::simdash::manifest::load_dir;
use spec2017_workchar::workchar::characterize::{characterize_suite_with, RunConfig};
use spec2017_workchar::workchar::cli::PipelineFlags;
use spec2017_workchar::workchar::error::Error;
use spec2017_workchar::workchar::observe::{Run, Stage};
use spec2017_workchar::workload_synth::profile::InputSize;

#[test]
fn failed_collect_dataset_still_writes_events_and_manifest() {
    let dir = std::env::temp_dir().join(format!("run-failure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = dir.join("events.jsonl");
    let flags = PipelineFlags {
        results_dir: dir.clone(),
        events: Some(events.clone()),
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

    let text = std::fs::read_to_string(&events).expect("failed run wrote the events file");
    let (summary, report) = perfmon::check_events("events.jsonl", &text);
    assert!(report.is_empty(), "{}", report.to_table());
    assert_eq!((summary.spans, summary.events), (1, 0), "{text}");
    let record = perfmon::json::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        record.get("name").and_then(perfmon::json::Value::as_str),
        Some("collect-dataset"),
        "per-pair spans stay out of the stage view: {text}"
    );
    assert!(record.get("mem_hwm_bytes").is_some(), "{text}");

    let manifests = load_dir(&dir.join("runs")).expect("runs dir");
    assert_eq!(manifests.len(), 1);
    let manifest = manifests[0].1.as_ref().expect("manifest parses");
    assert_eq!(manifest.failed_count(), 1);
    assert!(manifest.artifacts.iter().any(|a| a.kind == "events"));

    std::fs::remove_dir_all(&dir).ok();
}
