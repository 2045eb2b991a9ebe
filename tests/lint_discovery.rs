//! Golden-directory coverage for `lint --all` artifact discovery: from a
//! results tree holding traces, profiles, simpoint records, and run
//! manifests, the binary must pick up the simpoint records and the run
//! manifests without either being named on the command line, and the
//! cross-manifest D-rules must fire on the seeded violations (dangling
//! artifact pointer, duplicate run id). Traces and profiles carry no
//! rules: their decoders reject what their formats forbid, so `--all`
//! leaves them to `simgate`. A manifest that does not decode, such as
//! one that ends before it starts, stops the audit with exit 2.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use spec2017_workchar::simdash::manifest::{kind, load_manifest};
use spec2017_workchar::simdash::ManifestBuilder;
use spec2017_workchar::simpoint::SimpointRecord;
use spec2017_workchar::simprof::{Profile, Sample};
use spec2017_workchar::simstore::{StableHasher, Store};
use spec2017_workchar::simtrace::SpanRecord;
use spec2017_workchar::uarch_sim::counters::Event;

fn golden_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("workchar-lint-{tag}-{}", std::process::id()));
    _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(dir.join("results")).expect("create golden results dir");
    dir
}

/// One well-formed root span, exported as Chrome trace JSON.
fn seed_trace(results: &Path) {
    let span = SpanRecord {
        trace_id: 0x5150,
        span_id: 1,
        parent_id: 0,
        name: "run".to_string(),
        tid: 1,
        start_ns: 1_000,
        end_ns: 9_000,
        error: None,
        args: Vec::new(),
    };
    spec2017_workchar::simtrace::export(&results.join("traces"), "golden", &[span])
        .expect("export trace");
}

/// A two-frame profile with consistent stack/frame tables.
fn seed_profile(results: &Path) {
    let mut profile = Profile {
        interval: 100,
        ..Profile::default()
    };
    profile.frames.push("run".to_string());
    profile.frames.push("engine".to_string());
    profile.stacks.push(vec![0, 1]);
    profile.samples.push(Sample {
        tid: 1,
        clock: 100,
        stack_id: 0,
        weight: 100,
    });
    spec2017_workchar::simprof::export(&results.join("profiles"), "golden", &profile)
        .expect("export profile");
}

/// One valid simpoint record in a fresh store.
fn seed_simpoints(results: &Path) {
    let mut reference = [0u64; Event::ALL.len()];
    let mut estimate = [0u64; Event::ALL.len()];
    reference[0] = 40_000;
    estimate[0] = 40_000;
    let record = SimpointRecord {
        id: "505.mcf_r/ref/in1".to_string(),
        interval_ops: 10_000,
        total_ops: 40_000,
        simulated_ops: 20_000,
        warmed_ops: 20_000,
        silhouette: 0.5,
        medoids: vec![1, 3],
        labels: vec![0, 0, 1, 1],
        weights: vec![0.5, 0.5],
        reference,
        estimate,
    };
    let store = Store::open(results.join("simpoints")).expect("open simpoint store");
    let mut hasher = StableHasher::new();
    hasher.write_str("lint-discovery/simpoint");
    store
        .put(hasher.finish(), &record.encode())
        .expect("persist record");
}

/// Three manifests: one clean, one with a dangling artifact pointer
/// (D003), and a byte-for-byte copy of it under another file name (D004,
/// plus the copied D003).
fn seed_manifests(results: &Path) {
    let mut clean = ManifestBuilder::start("reproduce", "quick", "golden-clean");
    clean.pair_ok("505.mcf_r/ref/in1");
    clean.artifact(kind::TRACE_JSON, "traces/golden.trace.json");
    clean.write(results).expect("write clean manifest");

    let mut dangling = ManifestBuilder::start("reproduce", "quick", "golden-dangling");
    dangling.artifact(kind::TRACE_JSON, "traces/gone.trace.json");
    let dangling_path = dangling.write(results).expect("write dangling manifest");
    let copy = dangling_path.with_file_name("copied-by-hand.json");
    fs::copy(&dangling_path, copy).expect("duplicate the manifest");
}

/// `lint --all --json` run from `dir`: exit code, stdout, stderr.
fn lint_all(dir: &Path) -> (Option<i32>, String, String) {
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let output = Command::new(env!("CARGO"))
        .current_dir(dir)
        .args(["run", "--release", "-q", "--manifest-path"])
        .arg(&manifest_path)
        .args(["-p", "workchar", "--bin", "lint", "--", "--all", "--json"])
        .output()
        .expect("spawn lint");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn lint_all_discovers_every_artifact_class_in_a_golden_results_tree() {
    let dir = golden_dir("golden");
    let results = dir.join("results");
    seed_trace(&results);
    seed_profile(&results);
    seed_simpoints(&results);
    seed_manifests(&results);

    let (code, stdout, stderr) = lint_all(&dir);
    let context = format!("stdout:\n{stdout}\nstderr:\n{stderr}");

    // The seeded D violations are errors, so the run must gate.
    assert_eq!(code, Some(1), "{context}");

    // Both audited classes were discovered from the default locations.
    assert!(
        stderr.contains("audited 1 simpoint records under results/simpoints"),
        "{context}"
    );
    assert!(
        stderr.contains("audited 3 run manifests under results/runs"),
        "{context}"
    );
    // Traces and profiles are their decoders' business, not lint's.
    assert!(!stderr.contains("results/traces"), "{context}");
    assert!(!stderr.contains("results/profiles"), "{context}");

    // And the manifest rules fired on the seeded violations.
    for code in ["D003", "D004"] {
        assert!(stdout.contains(code), "missing {code} in {context}");
    }
    assert!(!stdout.contains("\"S0"), "unexpected S rule in {context}");

    _ = fs::remove_dir_all(&dir);
}

#[test]
fn lint_all_exits_2_naming_a_manifest_that_ends_before_it_starts() {
    let dir = golden_dir("backwards");
    let results = dir.join("results");
    let backwards = ManifestBuilder::start("reproduce", "quick", "golden-backwards");
    let backwards_path = backwards.write(&results).expect("write manifest");
    let mut manifest = load_manifest(&backwards_path).expect("reload manifest");
    manifest.end_unix_ms = manifest.start_unix_ms.saturating_sub(10);
    fs::write(&backwards_path, manifest.to_json()).expect("rewrite manifest");

    let (code, stdout, stderr) = lint_all(&dir);
    let context = format!("stdout:\n{stdout}\nstderr:\n{stderr}");
    assert_eq!(code, Some(2), "{context}");
    let name = backwards_path.file_name().unwrap().to_str().unwrap();
    assert!(stderr.contains(name), "{context}");
    assert!(stderr.contains("precedes start_unix_ms"), "{context}");

    _ = fs::remove_dir_all(&dir);
}
