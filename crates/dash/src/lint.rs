//! D-rule checks over `results/runs/` manifests: the integrity the
//! dashboard, the correlation join, and the diff gate silently assume.
//!
//! Rule logic lives here, next to the artifact it audits; the stable
//! codes, severities, and explanations live in simcheck's catalog like
//! every other family. `lint --dash` (and `--all` over `results/runs/`)
//! drives [`check_runs_dir`].

use std::collections::HashMap;
use std::path::Path;

use simcheck::{codes, Diagnostic, Report, Span};

use crate::manifest::{self, ManifestError, RunManifest};

/// Audits every manifest under `runs_dir` against the D-rule family and
/// returns how many `*.json` files it read, with the report. Artifact
/// pointers (D003) resolve against `runs_dir`'s parent — the results
/// directory the paths are relative to.
pub fn check_runs_dir(runs_dir: &Path) -> (usize, Report) {
    let mut report = Report::new();
    let results_dir = runs_dir.parent().unwrap_or(Path::new(".")).to_path_buf();
    let listing = match manifest::load_dir(runs_dir) {
        Ok(listing) => listing,
        Err(e) => {
            report.push(Diagnostic::new(
                &codes::D001,
                Span::object(runs_dir.display().to_string()),
                format!("cannot list runs directory: {e}"),
            ));
            return (0, report);
        }
    };
    let listed = listing.len();
    let mut seen_ids: HashMap<String, String> = HashMap::new();
    for (path, loaded) in listing {
        let object = path.display().to_string();
        let m = match loaded {
            Ok(m) => m,
            Err(ManifestError::SchemaTooNew { found, supported }) => {
                report.push(Diagnostic::new(
                    &codes::D002,
                    Span::field(&object, "schema"),
                    format!(
                        "manifest declares schema {found}; this build supports up to {supported}"
                    ),
                ));
                continue;
            }
            Err(e) => {
                report.push(Diagnostic::new(
                    &codes::D001,
                    Span::object(&object),
                    e.to_string(),
                ));
                continue;
            }
        };
        check_manifest(&object, &m, &results_dir, &mut report);
        if let Some(previous) = seen_ids.insert(m.run_id.clone(), object.clone()) {
            report.push(Diagnostic::new(
                &codes::D004,
                Span::field(&object, "run_id"),
                format!("run id {} already used by {previous}", m.run_id),
            ));
        }
    }
    (listed, report)
}

/// The post-parse structural rules for one manifest, shared with
/// in-process checking. `results_dir` anchors relative artifact paths.
pub fn check_manifest(object: &str, m: &RunManifest, results_dir: &Path, report: &mut Report) {
    for (i, a) in m.artifacts.iter().enumerate() {
        if !results_dir.join(&a.path).exists() {
            report.push(Diagnostic::new(
                &codes::D003,
                Span::field(format!("{object}#artifact{i}"), "path"),
                format!(
                    "{} artifact {} does not exist under {}",
                    a.kind,
                    a.path,
                    results_dir.display()
                ),
            ));
        }
    }
    if m.end_unix_ms < m.start_unix_ms {
        report.push(Diagnostic::new(
            &codes::D005,
            Span::field(object, "end_unix_ms"),
            format!("end {} precedes start {}", m.end_unix_ms, m.start_unix_ms),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{kind, write_manifest, ManifestBuilder};
    use std::fs;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("simdash-lint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("runs")).unwrap();
        dir
    }

    fn codes_of(report: &Report) -> Vec<&str> {
        let mut codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        codes.sort_unstable();
        codes
    }

    #[test]
    fn clean_manifests_produce_no_diagnostics() {
        let dir = scratch("clean");
        fs::write(dir.join("metrics.json"), "{}").unwrap();
        let mut b = ManifestBuilder::start("reproduce", "quick", "");
        b.artifact(kind::METRICS, "metrics.json");
        b.pair_ok("505.mcf_r-in1");
        let mut m = b.manifest().clone();
        m.end_unix_ms = m.start_unix_ms + 1;
        write_manifest(&dir, &m).unwrap();
        let (listed, report) = check_runs_dir(&dir.join("runs"));
        assert_eq!(listed, 1);
        assert!(report.diagnostics().is_empty(), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_d_rule_fires_on_its_violation() {
        let dir = scratch("dirty");
        let runs = dir.join("runs");
        // D001: not a manifest at all.
        fs::write(runs.join("broken.json"), "{\"schema\": 1}").unwrap();
        // D002: newer schema than this build.
        let mut b = ManifestBuilder::start("reproduce", "quick", "");
        let newer = b
            .manifest()
            .clone()
            .to_json()
            .replace("\"schema\": 1", "\"schema\": 9");
        fs::write(runs.join("newer.json"), newer).unwrap();
        // D003 + D005: dangling pointer and end before start.
        b.artifact(kind::METRICS, "missing/metrics.json");
        let mut bad = b.manifest().clone();
        bad.start_unix_ms = 100;
        bad.end_unix_ms = 50;
        write_manifest(&dir, &bad).unwrap();
        // D004: same run id under a second filename.
        fs::write(runs.join("zz-copy.json"), bad.to_json()).unwrap();
        let (listed, report) = check_runs_dir(&runs);
        assert_eq!(listed, 4);
        let codes = codes_of(&report);
        assert_eq!(
            codes,
            vec!["D001", "D002", "D003", "D003", "D004", "D005", "D005"],
            "{report:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
