//! End-to-end acceptance for the observability dashboard: one quick
//! reproduce run with tracing and profiling on, then a single
//! `simgate dash` invocation, must yield one self-contained HTML file
//! whose correlation table joins — for at least one pair — a histogram
//! bucket exemplar to its trace span and the pair's top profile frame,
//! with no manual filename matching anywhere in the chain.
//!
//! `reproduce` belongs to another package, so it runs through
//! `cargo run --release`, which reuses the release artifacts the tier-1
//! build leaves; `simgate` is this package's own binary.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("workchar-dash-accept-{}", std::process::id()));
    _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(command: &mut Command, args: &[&str]) -> (i32, String) {
    let output = command.args(args).output().expect("spawn");
    (
        output.status.code().expect("binary exited"),
        format!(
            "stdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        ),
    )
}

#[test]
fn quick_run_plus_one_dash_report_joins_exemplar_to_span_to_frame() {
    let results = scratch();
    let results_str = results.to_str().expect("utf-8 temp path");

    let mut reproduce = Command::new(env!("CARGO"));
    reproduce.current_dir(env!("CARGO_MANIFEST_DIR")).args([
        "run",
        "--release",
        "-q",
        "-p",
        "workchar",
        "--bin",
        "reproduce",
        "--",
    ]);
    let (code, context) = run(
        &mut reproduce,
        &[
            "--quick",
            "--no-cache",
            "--trace",
            "--profile",
            "--results",
            results_str,
            "table2",
        ],
    );
    assert_eq!(code, 0, "reproduce failed: {context}");

    let (code, context) = run(
        &mut Command::new(env!("CARGO_BIN_EXE_simgate")),
        &["dash", "--results", results_str],
    );
    assert_eq!(code, 0, "simgate dash failed: {context}");

    // Exactly one manifest and one dashboard landed under runs/.
    let runs = results.join("runs");
    let mut html_paths: Vec<PathBuf> = fs::read_dir(&runs)
        .expect("runs dir exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "html"))
        .collect();
    assert_eq!(html_paths.len(), 1, "expected one dashboard in {runs:?}");
    let html = fs::read_to_string(html_paths.remove(0)).expect("read dashboard");

    // Self-contained: no external stylesheet, script, or image fetches.
    for needle in ["<link", "<script src", "src=\"http", "href=\"http"] {
        assert!(
            !html.contains(needle),
            "external asset {needle:?} in dashboard"
        );
    }

    // The correlation section joins at least one pair all the way
    // through: exemplar bucket -> trace span (16-hex id) -> top frame.
    let section = html
        .split("Exemplar correlation")
        .nth(1)
        .and_then(|rest| rest.split("<h2>").next())
        .expect("correlation section present");
    assert!(
        section.matches("<tr><td").count() >= 1,
        "no joined rows in correlation section:\n{section}"
    );
    assert!(
        section.contains("stage/"),
        "no span name joined:\n{section}"
    );
    assert!(
        section.contains("uop/"),
        "no profile frame joined:\n{section}"
    );
    let has_span_id = section
        .split("<code>")
        .skip(1)
        .any(|rest| rest.len() >= 16 && rest[..16].chars().all(|c| c.is_ascii_hexdigit()));
    assert!(has_span_id, "no span id rendered:\n{section}");

    // The per-pair counter table rendered from the same file.
    assert!(html.contains("223 pairs."), "pair table missing");

    _ = fs::remove_dir_all(&results);
}
