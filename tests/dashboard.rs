//! End-to-end acceptance for the observability dashboard: one quick
//! reproduce run with tracing and profiling on, then a single
//! `simgate dash` invocation, must yield one self-contained HTML file
//! whose per-pair latency table joins every simulated pair to its trace
//! span, its ns/op and its top profile frame, with no manual filename
//! matching anywhere in the chain. The run's `metrics.json` summarizes
//! the same spans.
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

    // One row per simulated pair, each joined all the way through:
    // stage span (16-hex id) -> ns/op -> top frame.
    let section = html
        .split("Per-pair latency")
        .nth(1)
        .and_then(|rest| rest.split("<h2>").next())
        .expect("per-pair latency section present");
    let rows: Vec<&str> = section.split("<tr><td").skip(1).collect();
    assert_eq!(rows.len(), 223, "one row per simulated pair:\n{section}");
    assert!(
        rows.iter().all(|r| !r.contains("—")),
        "a row lacks its ops, ns/op or top frame:\n{section}"
    );
    assert!(section.contains("ns/op"), "no ns/op column:\n{section}");
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

    // metrics.json summarizes the same stage spans: one per simulated pair.
    let metrics = fs::read_to_string(results.join("metrics.json")).expect("read metrics.json");
    let simulate = metrics
        .split("{\"name\":\"workchar_stage_simulate_micros\",\"kind\":\"summary\",")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .unwrap_or_else(|| panic!("no simulate-stage summary in:\n{metrics}"));
    let field = |key: &str| -> u64 {
        simulate
            .split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} in {simulate}"))
    };
    assert_eq!(field("count"), 223, "{simulate}");
    let order = ["min", "p50", "p90", "p99", "max"].map(field);
    assert!(order.windows(2).all(|w| w[0] <= w[1]), "{simulate}");

    _ = fs::remove_dir_all(&results);
}
