//! A reader that leaves early must not abort a run: `reproduce | head -1`
//! closes stdout under the binary, which then stops printing, writes its
//! files and exits 0, with no panic and so no flight-recorder dump. The
//! same holds for every `simgate` subcommand: its exit code stays the
//! verdict's.
//!
//! `reproduce` belongs to another package, so it runs through
//! `cargo run --release`, which reuses the release artifacts the tier-1
//! build leaves.

use std::fs;
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_still_finishes_the_run() {
    let results = std::env::temp_dir().join(format!("workchar-epipe-{}", std::process::id()));
    _ = fs::remove_dir_all(&results);
    let mut child = Command::new(env!("CARGO"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "workchar",
            "--bin",
            "reproduce",
            "--",
        ])
        .args(["--quick", "--no-cache", "--results"])
        .arg(&results)
        .arg("table2")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn reproduce");
    // Close the read end before the binary prints anything.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("wait for reproduce");
    let stderr = String::from_utf8_lossy(&output.stderr);

    assert_eq!(output.status.code(), Some(0), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    assert!(results.join("metrics.json").is_file(), "stderr:\n{stderr}");
    assert!(results.join("table2.txt").is_file(), "stderr:\n{stderr}");
    let manifests = fs::read_dir(results.join("runs"))
        .expect("runs dir exists")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(manifests, 1, "one run manifest");
    assert!(
        !results.join("flight-recorder.json").exists(),
        "a flight dump means the run panicked"
    );

    _ = fs::remove_dir_all(&results);
}

#[test]
fn simgate_exits_with_its_verdict_on_a_closed_stdout() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let trace = root.join("results/traces/reproduce.trace.json");
    let trace = trace.to_str().expect("utf-8 path");
    for args in [
        &["trace", trace][..],
        &["trace", "--diff", trace, trace],
        &["--help"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_simgate"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn simgate");
        // Close the read end before the binary prints anything.
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("wait for simgate");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
