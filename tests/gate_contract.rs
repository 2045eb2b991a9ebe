//! Pins the workspace-wide gate exit-code contract (DESIGN.md §16) across
//! every `simgate` subcommand: 0 clean or `--help`, 1 regression, 2 usage
//! error, I/O error or malformed artifact, 3 missing baseline, with
//! `--allow-missing` turning 3 into 0 and noting it on stderr.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use spec2017_workchar::simdash::{load_manifest, ManifestBuilder};
use spec2017_workchar::simstore::{key_of, Store};

const SUBCOMMANDS: [&str; 5] = ["trace", "prof", "simpoint", "bench", "dash"];

/// A scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("workchar-gate-{tag}-{}", std::process::id()));
        _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    }

    /// Writes a `.prof` artifact whose stacks carry the given self weights.
    fn prof(&self, name: &str, stacks: &[(&[&str], u64)]) -> String {
        let path = self.path(name);
        fs::write(&path, prof_artifact(stacks)).expect("write profile");
        path
    }

    /// Writes a `BENCH_results.json` holding one median per benchmark.
    fn bench(&self, name: &str, medians: &[(&str, u64)]) -> String {
        let entries: Vec<String> = medians
            .iter()
            .map(|(bench, ns)| {
                format!("\"{bench}\": {{\"median_ns\": {ns}, \"iters_per_batch\": 8}}")
            })
            .collect();
        let path = self.path(name);
        let text = format!(
            "{{\"schema\": 1, \"benchmarks\": {{{}}}}}",
            entries.join(", ")
        );
        fs::write(&path, text).expect("write bench results");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        _ = fs::remove_dir_all(&self.0);
    }
}

fn prof_artifact(stacks: &[(&[&str], u64)]) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut out = String::from("simprof 2\ninterval 100\nwall_ns 1000000\n");
    let mut stack_lines = String::new();
    let mut sample_lines = String::new();
    for (i, (names, weight)) in stacks.iter().enumerate() {
        let ids: Vec<String> = names
            .iter()
            .map(|n| {
                let id = frames.iter().position(|f| f == n).unwrap_or_else(|| {
                    frames.push((*n).to_string());
                    frames.len() - 1
                });
                id.to_string()
            })
            .collect();
        stack_lines.push_str(&format!("stack {i} {}\n", ids.join(";")));
        sample_lines.push_str(&format!("sample 0 {} {i} {weight}\n", (i as u64 + 1) * 100));
    }
    for (i, name) in frames.iter().enumerate() {
        out.push_str(&format!("frame {i} {name}\n"));
    }
    out.push_str(&stack_lines);
    out.push_str(&sample_lines);
    out.push_str(&format!("end {}\n", stacks.len()));
    out
}

/// One `simgate` run: exit code, stdout, stderr.
fn simgate(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_simgate"))
        .args(args)
        .output()
        .expect("spawn simgate");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let code = output.status.code().unwrap_or_else(|| {
        panic!("simgate {args:?} killed by signal\nstdout: {stdout}\nstderr: {stderr}")
    });
    (code, stdout, stderr)
}

fn assert_code(args: &[&str], want: i32) -> (String, String) {
    let (got, stdout, stderr) = simgate(args);
    assert_eq!(
        got, want,
        "simgate {args:?}: expected exit {want}, got {got}\nstdout: {stdout}\nstderr: {stderr}"
    );
    (stdout, stderr)
}

#[test]
fn unknown_flags_exit_2_everywhere() {
    for sub in SUBCOMMANDS {
        assert_code(&[sub, "--frobnicate"], 2);
    }
    assert_code(&["frobnicate"], 2);
    assert_code(&[], 2);
}

#[test]
fn usage_errors_exit_2() {
    let (_, stderr) = assert_code(&["prof"], 2);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert_code(&["prof", "--diff", "only-one.prof"], 2);
    assert_code(&["prof", "--frobnicate", "x.prof"], 2);
    assert_code(&["simpoint", "--max-error", "abc"], 2);
    assert_code(&["bench", "--baseline", "a.json"], 2);
}

#[test]
fn help_exits_0_with_usage_on_stdout() {
    for sub in SUBCOMMANDS {
        for flag in ["--help", "-h"] {
            let (stdout, _) = assert_code(&[sub, flag], 0);
            assert!(
                stdout.contains(&format!("usage: simgate {sub}")),
                "{sub} {flag}: {stdout}"
            );
        }
    }
    let (stdout, _) = assert_code(&["--help"], 0);
    for sub in SUBCOMMANDS {
        assert!(stdout.contains(&format!("simgate {sub}")), "{stdout}");
    }
}

#[test]
fn missing_baseline_exits_3_and_allow_missing_downgrades_to_0() {
    let dir = Scratch::new("missing");
    let gone = dir.path("no-such-baseline");
    let empty_store = dir.path("simpoints");
    fs::create_dir(&empty_store).expect("create empty store dir");
    let bench_base = dir.bench("base.json", &[("suite/alpha", 1000), ("suite/gone", 1000)]);
    let bench_cur = dir.bench("cur.json", &[("suite/alpha", 1000)]);
    let cases: [Vec<&str>; 6] = [
        vec!["trace", "--diff", &gone, &gone],
        vec!["prof", "--diff", &gone, &gone],
        vec!["simpoint", "--dir", &empty_store],
        vec!["bench", "--baseline", &gone, "--current", &gone],
        vec!["dash", "--diff", &gone],
        // Baseline entries the current artifact lacks.
        vec!["bench", "--baseline", &bench_base, "--current", &bench_cur],
    ];
    for args in &cases {
        assert_missing_then_tolerated(args);
    }
}

/// Asserts `args` exits 3 pointing at `--allow-missing`, and exits 0 with
/// the note on stderr once that flag is passed. Returns the first run's
/// stdout and stderr.
fn assert_missing_then_tolerated(args: &[&str]) -> (String, String) {
    let (stdout, stderr) = assert_code(args, 3);
    assert!(stderr.contains("--allow-missing"), "{args:?}: {stderr}");
    let mut tolerated = args.to_vec();
    tolerated.push("--allow-missing");
    let (tolerated_stdout, tolerated_stderr) = assert_code(&tolerated, 0);
    assert!(
        tolerated_stderr.contains("--allow-missing") && !tolerated_stdout.contains("--allow-missing"),
        "{args:?}: the note belongs on stderr\nstdout: {tolerated_stdout}\nstderr: {tolerated_stderr}"
    );
    (stdout, stderr)
}

#[test]
fn prof_missing_baseline_file_exits_3_unless_allowed() {
    let dir = Scratch::new("prof-nobase");
    let ghost = dir.path("ghost.prof");
    let profile = dir.prof("run.prof", &[(&["run/reproduce"], 100)]);
    let (_, stderr) = assert_missing_then_tolerated(&["prof", "--diff", &ghost, &profile]);
    assert!(stderr.contains("does not exist"), "{stderr}");
}

#[test]
fn prof_missing_baseline_frames_exit_3_unless_allowed() {
    let dir = Scratch::new("prof-noframe");
    let kept = dir.prof(
        "kept.prof",
        &[
            (&["run/reproduce", "stage/keep"], 5000),
            (&["run/reproduce", "stage/gone"], 500),
        ],
    );
    let pruned = dir.prof("pruned.prof", &[(&["run/reproduce", "stage/keep"], 5000)]);
    let (stdout, _) = assert_missing_then_tolerated(&["prof", "--diff", &kept, &pruned]);
    assert!(
        stdout.contains("missing from current profile: stage/gone"),
        "{stdout}"
    );
}

fn write_manifest(results: &Path, config: &str, ok_pairs: usize) -> PathBuf {
    let mut builder = ManifestBuilder::start("reproduce", "quick", config);
    for i in 0..ok_pairs {
        builder.pair_ok(&format!("6{i:02}.pair"));
    }
    builder.write(results).expect("write manifest")
}

#[test]
fn regressions_exit_1() {
    let dir = Scratch::new("regress");

    // bench: one benchmark slowed 2x past the default 10% gate.
    let baseline = dir.bench("baseline.json", &[("suite/alpha", 1_000)]);
    let current = dir.bench("current.json", &[("suite/alpha", 2_000)]);
    let (stdout, _) = assert_code(
        &["bench", "--baseline", &baseline, "--current", &current],
        1,
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");

    // dash: the current run characterized fewer pairs than the baseline
    // manifest claims.
    let base_results = dir.0.join("base-results");
    let cur_results = dir.path("cur-results");
    let baseline_manifest = write_manifest(&base_results, "gate-baseline", 2);
    write_manifest(Path::new(&cur_results), "gate-current", 1);
    assert_code(
        &[
            "dash",
            "--results",
            &cur_results,
            "--diff",
            baseline_manifest.to_str().expect("utf-8 temp path"),
        ],
        1,
    );
}

#[test]
fn prof_planted_regression_exits_1() {
    let dir = Scratch::new("prof-regress");
    // A frame's self weight doubled past both gate floors.
    let old = dir.prof("old.prof", &[(&["run/reproduce", "engine/run"], 10_000)]);
    let new = dir.prof("new.prof", &[(&["run/reproduce", "engine/run"], 20_000)]);
    let (stdout, stderr) = assert_code(&["prof", "--diff", &old, &new], 1);
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stderr.contains("regressed past the gate"), "{stderr}");
}

#[test]
fn self_diffs_exit_0() {
    let dir = Scratch::new("clean");
    let run = dir.prof("run.prof", &[(&["run/reproduce", "engine/run"], 10_000)]);
    let (stdout, _) = assert_code(&["prof", "--diff", &run, &run], 0);
    assert!(stdout.contains("no regressions"), "{stdout}");

    let bench = dir.bench("bench.json", &[("suite/alpha", 1_000)]);
    assert_code(&["bench", "--baseline", &bench, "--current", &bench], 0);
}

#[test]
fn prof_growth_under_gate_exits_0() {
    let dir = Scratch::new("prof-undergate");
    // Growth under the 25% bar is not a regression.
    let old = dir.prof("old.prof", &[(&["run/reproduce", "engine/run"], 100_000)]);
    let new = dir.prof("new.prof", &[(&["run/reproduce", "engine/run"], 110_000)]);
    assert_code(&["prof", "--diff", &old, &new], 0);
}

#[test]
fn prof_report_mode_prints_attribution_table() {
    let dir = Scratch::new("report");
    let run = dir.prof(
        "run.prof",
        &[
            (&["run/reproduce", "engine/run", "uop/alu"], 700),
            (&["run/reproduce", "engine/run", "uop/load"], 300),
        ],
    );
    let (stdout, _) = assert_code(&["prof", &run], 0);
    assert!(stdout.contains("uop/alu"), "{stdout}");
    assert!(stdout.contains("70.0%"), "{stdout}");
    assert!(stdout.contains("engine/run"), "{stdout}");
}

#[test]
fn malformed_artifact_exits_2() {
    let dir = Scratch::new("malformed");
    let bad = dir.path("bad.prof");
    fs::write(&bad, "simprof 2\nzorp\n").expect("write profile");
    assert_code(&["prof", &bad], 2);

    // A profile cut short of its `end` trailer does not pass for a
    // shorter one.
    let whole = prof_artifact(&[(&["run/reproduce"], 100), (&["run/other"], 100)]);
    let cut = dir.path("cut.prof");
    fs::write(
        &cut,
        &whole[..whole.rfind("sample").expect("a sample line")],
    )
    .expect("write profile");
    assert_code(&["prof", &cut], 2);

    // A simpoint record that does not decode.
    let store_dir = dir.path("simpoints");
    let store = Store::open(&store_dir).expect("open store");
    store
        .put(key_of("sp-gibberish"), &[0u8; 12])
        .expect("write record");
    let (_, stderr) = assert_code(&["simpoint", "--dir", &store_dir], 2);
    assert!(stderr.contains("does not decode"), "{stderr}");

    // A trace whose span names a parent absent from the file.
    let orphan = dir.path("orphan.trace.json");
    fs::write(
        &orphan,
        r#"[{"ph":"X","pid":1,"tid":1,"name":"sched/job","ts":0,"dur":1,
            "trace_id":1,"span_id":2,"parent_id":99,"args":{}}]"#,
    )
    .expect("write trace");
    let (_, stderr) = assert_code(&["trace", &orphan], 2);
    assert!(stderr.contains("parent id 99"), "{stderr}");

    // A profile whose sample names a stack that was never declared.
    let dangling = dir.path("dangling.prof");
    fs::write(
        &dangling,
        "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 5 9 1\nend 1\n",
    )
    .expect("write profile");
    let (_, stderr) = assert_code(&["prof", &dangling], 2);
    assert!(stderr.contains("undeclared stack 9"), "{stderr}");

    // A baseline manifest that ends before it starts.
    let results = dir.0.join("backwards-results");
    let base = write_manifest(&results, "gate-backwards", 1);
    let mut manifest = load_manifest(&base).expect("reload manifest");
    manifest.end_unix_ms = manifest.start_unix_ms.saturating_sub(10);
    fs::write(&base, manifest.to_json()).expect("rewrite manifest");
    write_manifest(&dir.0.join("current-results"), "gate-current", 1);
    let (_, stderr) = assert_code(
        &[
            "dash",
            "--results",
            &dir.path("current-results"),
            "--diff",
            base.to_str().expect("utf-8 temp path"),
        ],
        2,
    );
    assert!(stderr.contains("precedes start_unix_ms"), "{stderr}");
}

#[test]
fn dash_names_a_manifest_that_does_not_decode() {
    // One valid run and one file that is not a manifest: `dash` without
    // `--run` must not render the valid run and pass over the broken one.
    let dir = Scratch::new("dash-bad");
    let results = dir.0.join("results");
    let valid = write_manifest(&results, "gate-valid", 1);
    let bad = valid.with_file_name("zzzz.json");
    fs::write(&bad, r#"{"schema": 1}"#).expect("write manifest");
    let (_, stderr) = assert_code(&["dash", "--results", &dir.path("results")], 2);
    assert!(stderr.contains("zzzz.json"), "{stderr}");
    assert!(
        !valid.with_extension("html").exists(),
        "no dashboard is rendered"
    );
}

#[test]
fn simpoint_io_error_exits_2() {
    let dir = Scratch::new("simpoint-io");
    let file = dir.path("not-a-directory");
    fs::write(&file, "").expect("write file");
    assert_code(&["simpoint", "--dir", &file], 2);
}

#[test]
fn simpoint_missing_dir_exits_2_and_creates_nothing() {
    let dir = Scratch::new("simpoint-missing");
    let missing = dir.path("no-such-store");
    for args in [
        vec!["simpoint", "--dir", &missing],
        vec!["simpoint", "--dir", &missing, "--allow-missing"],
    ] {
        let (_, stderr) = assert_code(&args, 2);
        assert!(stderr.contains("no-such-store"), "{args:?}: {stderr}");
        assert!(!Path::new(&missing).exists(), "{args:?} created {missing}");
    }
}
