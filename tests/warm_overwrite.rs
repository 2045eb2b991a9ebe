//! A warm rerun into the same results directory rewrites nothing that did
//! not change: every table, figure and record file keeps its bytes and its
//! mtime, and its `metrics.json` counts the all-hit replay.
//!
//! `reproduce` belongs to another package, so it runs through
//! `cargo run --release`, which reuses the release artifacts the tier-1
//! build leaves.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::SystemTime;

/// Every `.txt`, `.csv` and `.svg` file directly under `dir`, with its
/// bytes and mtime.
fn artifacts(dir: &Path) -> BTreeMap<PathBuf, (Vec<u8>, SystemTime)> {
    fs::read_dir(dir)
        .expect("results dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .is_some_and(|x| x == "txt" || x == "csv" || x == "svg")
        })
        .map(|p| {
            let bytes = fs::read(&p).expect("read artifact");
            let mtime = fs::metadata(&p).and_then(|m| m.modified()).expect("mtime");
            (p, (bytes, mtime))
        })
        .collect()
}

#[test]
fn warm_rerun_leaves_unchanged_artifacts_untouched() {
    let scratch = std::env::temp_dir().join(format!("workchar-warm-{}", std::process::id()));
    _ = fs::remove_dir_all(&scratch);
    let (cache, results) = (scratch.join("cache"), scratch.join("results"));
    let reproduce = || {
        let output = Command::new(env!("CARGO"))
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
            .args(["--quick", "--cache-dir"])
            .arg(&cache)
            .arg("--results")
            .arg(&results)
            .args(["table2", "fig1"])
            .output()
            .expect("spawn reproduce");
        assert!(
            output.status.success(),
            "reproduce failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };

    reproduce();
    let first = artifacts(&results);
    // table2 and fig1 (.txt, .csv, two .svg each for fig1) plus the two
    // record dumps.
    assert!(first.len() >= 7, "{:?}", first.keys());
    reproduce();
    let second = artifacts(&results);
    assert_eq!(
        first.keys().collect::<Vec<_>>(),
        second.keys().collect::<Vec<_>>()
    );
    for (path, (bytes, mtime)) in &first {
        let (bytes2, mtime2) = &second[path];
        assert!(bytes == bytes2, "{} changed bytes", path.display());
        assert_eq!(mtime, mtime2, "{} was rewritten", path.display());
    }
    // The warm run's `metrics.json` is computed from its spans: every
    // pair is a cache hit and a scheduler job, and none reaches the
    // engine.
    let metrics = fs::read_to_string(results.join("metrics.json")).expect("metrics.json");
    for (name, value) in [
        ("simstore_cache_hits_total", 223),
        ("simstore_cache_misses_total", 0),
        ("simstore_jobs_total", 223),
        ("uarch_engine_runs_total", 0),
        ("workchar_pairs_characterized_total", 0),
    ] {
        let series = format!("{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{value}}}");
        assert!(metrics.contains(&series), "{series} not in {metrics}");
    }

    _ = fs::remove_dir_all(&scratch);
}
