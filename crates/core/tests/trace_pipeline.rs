//! Pipeline-level guarantees of the tracing layer: an open trace root must
//! not perturb simulation results, the per-pair stages must appear as
//! spans, and an exported artifact must round-trip through the strict
//! decoder.

use workchar::characterize::{characterize_pair, RunConfig};
use workload_synth::cpu2017;
use workload_synth::profile::InputSize;

#[test]
fn tracing_does_not_perturb_characterization_results() {
    let app = cpu2017::app("505.mcf_r").expect("shipped profile");
    let pair = &app.pairs(InputSize::Ref)[0];
    let config = RunConfig::quick();

    let baseline = characterize_pair(pair, &config).expect("untraced run");

    let traced = {
        let root = simtrace::root("run/test");
        let record = characterize_pair(pair, &config).expect("traced run");
        let spans = root.drain();
        for stage in ["stage/prepare", "stage/simulate", "stage/footprint"] {
            assert!(
                spans.iter().any(|s| s.name == stage),
                "missing {stage} span in {:?}",
                spans.iter().map(|s| &s.name).collect::<Vec<_>>()
            );
        }
        let engine = spans
            .iter()
            .find(|s| s.name == "engine/run")
            .expect("engine span");
        assert!(engine.arg("ops").is_some(), "engine span carries op count");
        // The L3 materializes only the sets the trace reached: some, not
        // all 24,576 of the Table I geometry.
        match engine.arg("l3_sets") {
            Some(&simtrace::ArgValue::U64(sets)) => assert!(sets > 0 && sets < 24_576, "{sets}"),
            other => panic!("engine span lacks l3_sets: {other:?}"),
        }
        record
    };

    assert_eq!(
        baseline, traced,
        "tracing must be observation, not perturbation"
    );
}

#[test]
fn exported_pipeline_trace_round_trips_through_the_decoder() {
    let spans = {
        let root = simtrace::root("run/test");
        let app = cpu2017::app("541.leela_r").expect("shipped profile");
        let pair = &app.pairs(InputSize::Ref)[0];
        characterize_pair(pair, &RunConfig::quick()).expect("traced run");
        root.drain()
    };
    assert!(!spans.is_empty());

    let dir = std::env::temp_dir().join(format!("workchar-trace-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = simtrace::export(&dir, "it", &spans).expect("export");
    assert_eq!(path, dir.join("it.trace.json"));

    // The decoder accepts only what the format allows (legal names,
    // resolvable parents, unique ids, sane windows), so a round trip also
    // shows the pipeline's own spans obey it.
    let loaded = simtrace::load(&path).expect("load json");
    assert_eq!(loaded, spans, "Chrome JSON export round-trips exactly");
    let files: Vec<_> = std::fs::read_dir(&dir).expect("trace dir").collect();
    assert_eq!(files.len(), 1, "one trace format, one file: {files:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
