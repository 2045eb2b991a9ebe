//! D-rule checks over `results/runs/` manifests: the cross-file integrity
//! the dashboard, the correlation join, and the diff gate assume and no
//! single manifest can vouch for.
//!
//! What one manifest can get wrong on its own (bad JSON, a missing field,
//! a newer schema, an end before the start) is for
//! [`RunManifest::from_json`](crate::RunManifest::from_json) to reject;
//! this module checks what needs the filesystem or several files: D003
//! dangling artifact pointers and D004 duplicate run ids. The
//! stable codes, severities, and explanations live in simcheck's catalog
//! like every other family. `lint --dash` (and `--all` over
//! `results/runs/`) drives [`check_runs_dir`].

use std::collections::HashMap;
use std::io;
use std::path::Path;

use simcheck::{codes, Diagnostic, Report, Span};

use crate::manifest;

/// Audits every manifest under `runs_dir` against the D-rule family and
/// returns how many `*.json` files it read, with the report. Artifact
/// pointers (D003) resolve against `runs_dir`'s parent — the results
/// directory the paths are relative to.
///
/// # Errors
///
/// The directory cannot be listed, or a manifest does not decode; the
/// error names the file and carries the decoder's message.
pub fn check_runs_dir(runs_dir: &Path) -> io::Result<(usize, Report)> {
    let mut report = Report::new();
    let results_dir = runs_dir.parent().unwrap_or(Path::new("."));
    let listing = manifest::load_dir(runs_dir)?;
    let listed = listing.len();
    let mut seen_ids: HashMap<String, String> = HashMap::new();
    for (path, loaded) in listing {
        let object = path.display().to_string();
        let m = loaded
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{object}: {e}")))?;
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
        if let Some(previous) = seen_ids.insert(m.run_id.clone(), object.clone()) {
            report.push(Diagnostic::new(
                &codes::D004,
                Span::field(&object, "run_id"),
                format!("run id {} already used by {previous}", m.run_id),
            ));
        }
    }
    Ok((listed, report))
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
        let (listed, report) = check_runs_dir(&dir.join("runs")).unwrap();
        assert_eq!(listed, 1);
        assert!(report.diagnostics().is_empty(), "{report:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_d_rule_fires_on_its_violation() {
        let dir = scratch("dirty");
        let runs = dir.join("runs");
        // D003: a dangling pointer.
        let mut b = ManifestBuilder::start("reproduce", "quick", "");
        b.artifact(kind::METRICS, "missing/metrics.json");
        let mut bad = b.manifest().clone();
        bad.end_unix_ms = bad.start_unix_ms;
        write_manifest(&dir, &bad).unwrap();
        // D004: same run id under a second filename.
        fs::write(runs.join("zz-copy.json"), bad.to_json()).unwrap();
        let (listed, report) = check_runs_dir(&runs).unwrap();
        assert_eq!(listed, 2);
        assert_eq!(
            codes_of(&report),
            vec!["D003", "D003", "D004"],
            "{report:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_that_does_not_decode_stops_the_audit_and_names_the_file() {
        let dir = scratch("undecodable");
        let runs = dir.join("runs");
        let mut m = ManifestBuilder::start("reproduce", "quick", "")
            .manifest()
            .clone();
        m.end_unix_ms = m.start_unix_ms;
        write_manifest(&dir, &m).unwrap();
        let newer = m.to_json().replace("\"schema\": 1", "\"schema\": 9");
        let mut backwards = m.clone();
        (backwards.start_unix_ms, backwards.end_unix_ms) = (100, 50);
        for (name, text, what) in [
            (
                "broken.json",
                "{\"schema\": 1}".to_string(),
                "malformed manifest",
            ),
            ("newer.json", newer, "schema 9"),
            ("backwards.json", backwards.to_json(), "precedes"),
        ] {
            let path = runs.join(name);
            fs::write(&path, text).unwrap();
            let err = check_runs_dir(&runs).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let message = err.to_string();
            assert!(message.contains(&*path.display().to_string()), "{message}");
            assert!(message.contains(what), "{message}");
            fs::remove_file(&path).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
