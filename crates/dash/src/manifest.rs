//! Versioned run manifests: the canonical record of one pipeline run.
//!
//! Every `reproduce`/`extensions` run writes one manifest under
//! `results/runs/<run_id>.json` (atomically, tmp + rename). The manifest
//! names the run — a stable 128-bit id minted from simstore's content-hash
//! machinery — and carries typed pointers to every artifact the run
//! produced, plus per-pair status. Everything downstream (the correlation
//! join, the HTML dashboard, the `--diff` gate, the D-rule audits) starts
//! from this file instead of guessing filenames.
//!
//! Artifact paths are stored **relative to the results directory** (the
//! parent of `runs/`), so a manifest plus its artifacts can be moved or
//! committed wholesale and every pointer still resolves.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use perfmon::json::{self, Value};
use simstore::StableHasher;

/// Manifest schema this build reads and writes.
pub const SCHEMA: u32 = 1;

/// The sub-directory of the results dir that holds manifests.
pub const RUNS_DIR: &str = "runs";

/// Typed artifact pointer kinds. Free-form strings on disk; these
/// constants are the vocabulary both binaries and all consumers use.
pub mod kind {
    /// Chrome Trace Event JSON export.
    pub const TRACE_JSON: &str = "trace-json";
    /// Versioned `.prof` profile artifact.
    pub const PROFILE: &str = "profile";
    /// Collapsed `path weight` folded stacks.
    pub const FOLDED: &str = "folded";
    /// Self-contained flamegraph SVG.
    pub const FLAMEGRAPH: &str = "flamegraph";
    /// Directory of per-pair timeline CSV/SVG artifacts.
    pub const TIMELINES_DIR: &str = "timelines-dir";
    /// Directory of SPNT simpoint records.
    pub const SIMPOINTS_DIR: &str = "simpoints-dir";
    /// JSON metrics snapshot (`metrics.json`).
    pub const METRICS: &str = "metrics";
    /// Headline per-pair records CSV.
    pub const RECORDS_CSV: &str = "records-csv";
    /// Rendered experiment report (REPORT.md or extensions.txt).
    pub const REPORT: &str = "report";
}

/// One typed artifact pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact kind (see [`kind`]).
    pub kind: String,
    /// Path relative to the results directory.
    pub path: String,
}

/// Status of one benchmark/input pair within the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairStatus {
    /// Pair id, e.g. `505.mcf_r-in1`.
    pub id: String,
    /// `"ok"` or `"failed"`.
    pub status: String,
    /// Failure detail when status is `"failed"`.
    pub detail: Option<String>,
}

/// The canonical record of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Manifest schema version.
    pub schema: u32,
    /// Stable 128-bit run id, 32 lowercase hex chars.
    pub run_id: String,
    /// Which binary produced the run (`reproduce` / `extensions`).
    pub kind: String,
    /// Trace scale (`quick` / `default`).
    pub scale: String,
    /// Free-form flag/config summary for human readers.
    pub config: String,
    /// `git describe --always --dirty` at run time (`unknown` outside a
    /// checkout).
    pub git: String,
    /// Run start, Unix milliseconds.
    pub start_unix_ms: u64,
    /// Run end, Unix milliseconds (0 until finished).
    pub end_unix_ms: u64,
    /// Per-pair status, submission order.
    pub pairs: Vec<PairStatus>,
    /// Typed artifact pointers, registration order.
    pub artifacts: Vec<Artifact>,
}

impl RunManifest {
    /// Wall time of the run in milliseconds (0 for corrupt end < start).
    pub fn wall_ms(&self) -> u64 {
        self.end_unix_ms.saturating_sub(self.start_unix_ms)
    }

    /// Pairs that finished ok.
    pub fn ok_count(&self) -> usize {
        self.pairs.iter().filter(|p| p.status == "ok").count()
    }

    /// Pairs that failed.
    pub fn failed_count(&self) -> usize {
        self.pairs.len() - self.ok_count()
    }

    /// The first artifact of `kind`, resolved against `results_dir`.
    pub fn artifact_path(&self, kind: &str, results_dir: &Path) -> Option<PathBuf> {
        self.artifacts
            .iter()
            .find(|a| a.kind == kind)
            .map(|a| results_dir.join(&a.path))
    }

    /// All artifacts of `kind`, resolved against `results_dir`.
    pub fn artifact_paths(&self, kind: &str, results_dir: &Path) -> Vec<PathBuf> {
        self.artifacts
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| results_dir.join(&a.path))
            .collect()
    }

    /// Serializes the manifest (multi-line JSON: one pair/artifact per
    /// line, so committed baselines diff cleanly).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", self.schema));
        for (key, value) in [
            ("run_id", &self.run_id),
            ("kind", &self.kind),
            ("scale", &self.scale),
            ("config", &self.config),
            ("git", &self.git),
        ] {
            out.push_str(&format!("  \"{key}\": \"{}\",\n", json::escape(value)));
        }
        out.push_str(&format!("  \"start_unix_ms\": {},\n", self.start_unix_ms));
        out.push_str(&format!("  \"end_unix_ms\": {},\n", self.end_unix_ms));
        out.push_str("  \"pairs\": [\n");
        for (i, p) in self.pairs.iter().enumerate() {
            let comma = if i + 1 < self.pairs.len() { "," } else { "" };
            let detail = match &p.detail {
                Some(d) => format!(", \"detail\": \"{}\"", json::escape(d)),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"status\": \"{}\"{detail}}}{comma}\n",
                json::escape(&p.id),
                json::escape(&p.status),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"artifacts\": [\n");
        for (i, a) in self.artifacts.iter().enumerate() {
            let comma = if i + 1 < self.artifacts.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"path\": \"{}\"}}{comma}\n",
                json::escape(&a.kind),
                json::escape(&a.path),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// [`ManifestError::SchemaTooNew`] for a schema above [`SCHEMA`];
    /// [`ManifestError::Malformed`] for anything that is not a manifest,
    /// lacks a required field, or ends before it starts.
    pub fn from_json(text: &str) -> Result<RunManifest, ManifestError> {
        let malformed = |what: &str| ManifestError::Malformed(what.to_string());
        let value = json::parse(text)
            .map_err(|e| ManifestError::Malformed(format!("not valid JSON: {e}")))?;
        let schema = value
            .get("schema")
            .and_then(Value::as_u64)
            .ok_or_else(|| malformed("missing numeric \"schema\""))?;
        // Compare before narrowing: `as u32` would wrap 2^32 + 1 to 1.
        if schema > u64::from(SCHEMA) {
            return Err(ManifestError::SchemaTooNew {
                found: schema,
                supported: SCHEMA,
            });
        }
        let schema = schema as u32;
        let field = |key: &str| -> Result<String, ManifestError> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| ManifestError::Malformed(format!("missing string \"{key}\"")))
        };
        let number = |key: &str| -> Result<u64, ManifestError> {
            value
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| ManifestError::Malformed(format!("missing numeric \"{key}\"")))
        };
        let mut pairs = Vec::new();
        for p in value
            .get("pairs")
            .and_then(Value::as_array)
            .ok_or_else(|| malformed("missing \"pairs\" array"))?
        {
            let id = p
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("pair entry lacks \"id\""))?;
            let status = p
                .get("status")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("pair entry lacks \"status\""))?;
            pairs.push(PairStatus {
                id: id.to_string(),
                status: status.to_string(),
                detail: p.get("detail").and_then(Value::as_str).map(str::to_string),
            });
        }
        let mut artifacts = Vec::new();
        for a in value
            .get("artifacts")
            .and_then(Value::as_array)
            .ok_or_else(|| malformed("missing \"artifacts\" array"))?
        {
            let kind = a
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("artifact entry lacks \"kind\""))?;
            let path = a
                .get("path")
                .and_then(Value::as_str)
                .ok_or_else(|| malformed("artifact entry lacks \"path\""))?;
            artifacts.push(Artifact {
                kind: kind.to_string(),
                path: path.to_string(),
            });
        }
        let (start_unix_ms, end_unix_ms) = (number("start_unix_ms")?, number("end_unix_ms")?);
        if end_unix_ms < start_unix_ms {
            return Err(ManifestError::Malformed(format!(
                "end_unix_ms {end_unix_ms} precedes start_unix_ms {start_unix_ms}"
            )));
        }
        Ok(RunManifest {
            schema,
            run_id: field("run_id")?,
            kind: field("kind")?,
            scale: field("scale")?,
            config: field("config")?,
            git: field("git")?,
            start_unix_ms,
            end_unix_ms,
            pairs,
            artifacts,
        })
    }
}

/// Why a manifest could not be loaded.
#[derive(Debug)]
pub enum ManifestError {
    /// Filesystem trouble.
    Io(io::Error),
    /// Not a manifest, or a manifest missing required fields.
    Malformed(String),
    /// Written by a newer toolchain than this build supports.
    SchemaTooNew {
        /// Schema declared by the file.
        found: u64,
        /// Highest schema this build reads.
        supported: u32,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Io(e) => write!(f, "io: {e}"),
            ManifestError::Malformed(what) => write!(f, "malformed manifest: {what}"),
            ManifestError::SchemaTooNew { found, supported } => write!(
                f,
                "manifest declares schema {found}; this build supports up to {supported}"
            ),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<io::Error> for ManifestError {
    fn from(e: io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// Incrementally assembles a [`RunManifest`] while a run executes.
///
/// [`ManifestBuilder::start`] stamps the start time and mints the run id;
/// the binaries register artifacts and pair outcomes as they are produced
/// and call [`ManifestBuilder::write`] at the end (and on the
/// partial-failure path, so an aborted campaign still leaves its record).
#[derive(Debug, Clone)]
pub struct ManifestBuilder {
    manifest: RunManifest,
}

impl ManifestBuilder {
    /// Starts a manifest for a run of `kind` (binary name) at `scale`,
    /// with a human-readable `config` summary. Mints the run id from
    /// simstore's stable hash over the identity fields plus the start
    /// time and pid, so concurrent runs of the same configuration get
    /// distinct ids.
    pub fn start(kind: &str, scale: &str, config: &str) -> Self {
        let start_unix_ms = unix_ms();
        let mut h = StableHasher::new();
        h.write_str("simdash/run");
        h.write_str(kind);
        h.write_str(scale);
        h.write_str(config);
        h.write_u64(start_unix_ms);
        h.write_u64(u64::from(std::process::id()));
        ManifestBuilder {
            manifest: RunManifest {
                schema: SCHEMA,
                run_id: h.finish().to_string(),
                kind: kind.to_string(),
                scale: scale.to_string(),
                config: config.to_string(),
                git: git_describe(),
                start_unix_ms,
                end_unix_ms: 0,
                pairs: Vec::new(),
                artifacts: Vec::new(),
            },
        }
    }

    /// The minted run id (32 lowercase hex chars).
    pub fn run_id(&self) -> &str {
        &self.manifest.run_id
    }

    /// Registers an artifact pointer (`path` relative to the results dir).
    pub fn artifact(&mut self, kind: &str, path: impl Into<String>) {
        self.manifest.artifacts.push(Artifact {
            kind: kind.to_string(),
            path: path.into(),
        });
    }

    /// Records a pair that finished ok.
    pub fn pair_ok(&mut self, id: &str) {
        self.manifest.pairs.push(PairStatus {
            id: id.to_string(),
            status: "ok".to_string(),
            detail: None,
        });
    }

    /// Records a pair that failed, with a human-readable reason.
    pub fn pair_failed(&mut self, id: &str, detail: &str) {
        self.manifest.pairs.push(PairStatus {
            id: id.to_string(),
            status: "failed".to_string(),
            detail: Some(detail.to_string()),
        });
    }

    /// Stamps the end time and writes the manifest atomically under
    /// `results_dir/runs/<run_id>.json`, returning the path.
    pub fn write(mut self, results_dir: &Path) -> io::Result<PathBuf> {
        self.manifest.end_unix_ms = unix_ms().max(self.manifest.start_unix_ms);
        write_manifest(results_dir, &self.manifest)
    }

    /// The manifest as assembled so far (end time still unset).
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }
}

/// Writes `manifest` atomically (tmp + rename, same discipline as the
/// content-addressed store) under `results_dir/runs/`, returning the path.
pub fn write_manifest(results_dir: &Path, manifest: &RunManifest) -> io::Result<PathBuf> {
    let dir = results_dir.join(RUNS_DIR);
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.json", manifest.run_id));
    let tmp = dir.join(format!(
        "{}.json.tmp-{}",
        manifest.run_id,
        std::process::id()
    ));
    fs::write(&tmp, manifest.to_json())?;
    match fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Loads one manifest file.
pub fn load_manifest(path: &Path) -> Result<RunManifest, ManifestError> {
    let text = fs::read_to_string(path)?;
    RunManifest::from_json(&text)
}

/// Loads every `*.json` under `runs_dir` in sorted filename order, keeping
/// per-file failures so each caller decides what one costs.
/// A missing directory is an empty listing, not an error.
#[allow(clippy::type_complexity)]
pub fn load_dir(runs_dir: &Path) -> io::Result<Vec<(PathBuf, Result<RunManifest, ManifestError>)>> {
    let mut files: Vec<PathBuf> = match fs::read_dir(runs_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    files.sort();
    Ok(files
        .into_iter()
        .map(|path| {
            let loaded = load_manifest(&path);
            (path, loaded)
        })
        .collect())
}

/// The most recent manifest under `results_dir/runs/` (latest end time,
/// run id as the tiebreak), or `None` when there are no manifests.
///
/// # Errors
///
/// The directory cannot be listed, or a manifest in it does not decode;
/// the error names the file and carries the decoder's message, as
/// `lint --runs-dir` reports it. A broken run record is never skipped.
pub fn latest(results_dir: &Path) -> io::Result<Option<(PathBuf, RunManifest)>> {
    let mut best: Option<(PathBuf, RunManifest)> = None;
    for (path, loaded) in load_dir(&results_dir.join(RUNS_DIR))? {
        let m = loaded.map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        let newer = match &best {
            Some((_, b)) => (m.end_unix_ms, &m.run_id) > (b.end_unix_ms, &b.run_id),
            None => true,
        };
        if newer {
            best = Some((path, m));
        }
    }
    Ok(best)
}

/// Milliseconds since the Unix epoch (0 if the clock predates it).
fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// `git describe --always --dirty`, or `"unknown"` when git or the
/// checkout is unavailable (manifests must work outside a repo).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut b = ManifestBuilder::start("reproduce", "quick", "--quick --trace");
        b.artifact(kind::TRACE_JSON, "traces/reproduce.trace.json");
        b.artifact(kind::METRICS, "metrics.json");
        b.pair_ok("505.mcf_r-in1");
        b.pair_failed("557.xz_r-in2", "panicked: boom \"quoted\"");
        let mut m = b.manifest().clone();
        m.end_unix_ms = m.start_unix_ms + 1234;
        m
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = sample();
        let parsed = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.wall_ms(), 1234);
        assert_eq!(parsed.ok_count(), 1);
        assert_eq!(parsed.failed_count(), 1);
        assert_eq!(
            parsed.artifact_path(kind::METRICS, Path::new("results")),
            Some(PathBuf::from("results/metrics.json"))
        );
    }

    #[test]
    fn run_ids_are_stable_hex_and_distinct_across_kinds() {
        let a = ManifestBuilder::start("reproduce", "quick", "");
        let b = ManifestBuilder::start("extensions", "quick", "");
        assert_eq!(a.run_id().len(), 32);
        assert!(a.run_id().bytes().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a.run_id(), b.run_id());
    }

    #[test]
    fn schema_too_new_is_refused() {
        // 2^32 + 1 would read as schema 1 if narrowed before the check.
        for declared in [99, 4_294_967_297] {
            let text = sample()
                .to_json()
                .replace("\"schema\": 1", &format!("\"schema\": {declared}"));
            match RunManifest::from_json(&text) {
                Err(ManifestError::SchemaTooNew { found, supported }) => {
                    assert_eq!(found, declared);
                    assert_eq!(supported, SCHEMA);
                }
                other => panic!("expected SchemaTooNew, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_manifests_are_malformed() {
        for text in ["", "{\"schema\": 1}", "[1, 2]", "{\"schema\": \"1\"}"] {
            assert!(
                matches!(
                    RunManifest::from_json(text),
                    Err(ManifestError::Malformed(_))
                ),
                "{text:?}"
            );
        }
    }

    #[test]
    fn a_run_that_ends_before_it_starts_is_malformed() {
        let mut m = sample();
        (m.start_unix_ms, m.end_unix_ms) = (100, 50);
        match RunManifest::from_json(&m.to_json()) {
            Err(ManifestError::Malformed(what)) => {
                assert!(what.contains("end_unix_ms 50 precedes"), "{what}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        m.end_unix_ms = 100;
        assert_eq!(RunManifest::from_json(&m.to_json()).unwrap(), m);
    }

    #[test]
    fn write_is_atomic_and_latest_picks_newest() {
        let dir = std::env::temp_dir().join(format!("simdash-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut old = sample();
        old.run_id = "a".repeat(32);
        (old.start_unix_ms, old.end_unix_ms) = (5, 10);
        let mut new = sample();
        new.run_id = "b".repeat(32);
        (new.start_unix_ms, new.end_unix_ms) = (5, 20);
        write_manifest(&dir, &old).unwrap();
        let path = write_manifest(&dir, &new).unwrap();
        assert!(path.ends_with(format!("runs/{}.json", new.run_id)));
        // No tmp litter survives the rename.
        let litter: Vec<_> = fs::read_dir(dir.join(RUNS_DIR))
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_none_or(|ext| ext != "json"))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
        let (_, m) = latest(&dir).unwrap().unwrap();
        assert_eq!(m.run_id, new.run_id);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_names_a_manifest_that_does_not_decode() {
        let dir = std::env::temp_dir().join(format!("simdash-bad-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_manifest(&dir, &sample()).unwrap();
        let bad = dir.join(RUNS_DIR).join("zzzz.json");
        fs::write(&bad, r#"{"schema": 1}"#).unwrap();
        let err = latest(&dir).expect_err("a broken manifest is an error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("zzzz.json"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
