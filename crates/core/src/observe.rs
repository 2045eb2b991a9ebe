//! Binary-side observability: the pipeline stage guard, the run that
//! owns the span tree, the stage view derived from it, and timeline
//! artifacts.
//!
//! Every top-level pipeline stage is one [`Stage`]: a simtrace span that
//! records the process peak RSS when it closes. The `reproduce` and
//! `extensions` binaries always record spans under one run root ([`Run`]),
//! a sampled root under `--profile`. When the run ends, whether it
//! succeeded or failed, each direct child of the root becomes one row of
//! the stderr stage table ([`stages`], [`stage_table`]), and a successful
//! run's `metrics.json` is computed from its spans
//! ([`crate::telemetry::run_snapshot`]); `--trace` only decides whether
//! the trace files are exported as well.
//!
//! With interval sampling (`--timeline`), every [`CharRecord`]'s session
//! carries a [`uarch_sim::timeline::CounterTimeline`];
//! [`write_timeline_artifacts`] turns those into one CSV and one SVG
//! sparkline per pair under `<results>/timelines/`.

use std::fmt::Write as _;
use std::path::Path;

use simdash::manifest::kind as artifact_kind;
use simdash::{timeline_stem, ManifestBuilder};
use simreport::sparkline::sparkline_svg;
use simtrace::{ArgValue, SpanGuard, SpanRecord};
use uarch_sim::timeline::IntervalSample;

use crate::characterize::CharRecord;
use crate::cli::PipelineFlags;
use crate::error::{Error, Result};

/// The manifest-relative form of `path`: stripped of the results-dir
/// prefix when it lives inside it, otherwise recorded as written (an
/// absolute path still resolves after the manifest's join; keep run
/// artifacts under the results dir so manifests stay relocatable).
pub fn rel_artifact(results_dir: &Path, path: &Path) -> String {
    path.strip_prefix(results_dir)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Writes `bytes` to `dir/name` unless the file already holds exactly
/// those bytes, and returns whether it wrote. A warm rerun into the same
/// results directory then leaves every unchanged artifact alone, bytes and
/// mtime both: rewriting a file in place costs far more than comparing it
/// on a file system that flushes truncated-and-rewritten files on close.
///
/// # Errors
///
/// Any I/O error of the write. A file that cannot be read only means it
/// is written.
pub fn write_artifact(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<bool> {
    let path = dir.join(name);
    let unchanged = std::fs::metadata(&path).is_ok_and(|m| m.len() == bytes.len() as u64)
        && std::fs::read(&path).is_ok_and(|old| old == bytes);
    if unchanged {
        return Ok(false);
    }
    std::fs::write(&path, bytes)?;
    Ok(true)
}

/// The arg a top-level stage records the process peak RSS under. The
/// stage table lifts it into its `peak_rss_mb` column.
const MEM_HWM_ARG: &str = "mem_hwm_bytes";

/// The process's peak resident set size in bytes, if the platform exposes
/// it (`VmHWM` in `/proc/self/status` on Linux).
fn mem_high_water_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// One top-level pipeline stage: a simtrace span that records the
/// process peak RSS as its `mem_hwm_bytes` arg when it closes. It nests
/// under whatever is current on this thread, the run root for the
/// binaries' stages, and is inert with no root open.
#[must_use = "a stage measures the scope it is held across"]
pub struct Stage {
    span: SpanGuard,
}

impl Stage {
    /// Opens the top-level stage `name`.
    pub fn open(name: &str) -> Stage {
        Stage {
            span: simtrace::span(name),
        }
    }

    /// Attaches a field (count, rate, outcome, …) to the stage's span.
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        self.span.arg(key, value);
    }

    /// Closes the stage now (drop does the same).
    pub fn finish(self) {}
}

impl Drop for Stage {
    fn drop(&mut self) {
        if self.span.is_recording() {
            if let Some(bytes) = mem_high_water_bytes() {
                self.span.arg(MEM_HWM_ARG, bytes);
            }
        }
    }
}

/// One run of a pipeline binary: the flight recorder (always on), its
/// manifest, and its run-root span, open for the whole run and sampled
/// for the profiler when the flags ask for one.
pub struct Run<'a> {
    name: &'static str,
    flags: &'a PipelineFlags,
    /// The run manifest. Every artifact write site registers its pointer
    /// here; [`Run::finish`] and [`Run::fail`] write it under
    /// `<results>/runs/`.
    pub manifest: ManifestBuilder,
    root: Option<SpanGuard>,
    root_id: u64,
}

impl<'a> Run<'a> {
    /// Starts the run `name` (`reproduce`, `extensions`) at `scale` with
    /// the manifest config token `config`. The run root opens before any
    /// stage, so every span of the run, including per-pair jobs on
    /// scheduler worker threads, nests under it, and under `--profile`
    /// its sample interval reaches every engine run.
    pub fn start(name: &'static str, scale: &str, config: &str, flags: &'a PipelineFlags) -> Self {
        // The flight recorder is on for the whole run and dumps its last
        // events to the results directory on panic.
        simmetrics::enable();
        simmetrics::flight::install_dump(&flags.results_dir.join("flight-recorder.json"));
        let manifest = ManifestBuilder::start(name, scale, config);
        let interval = if flags.profile {
            eprintln!(
                "profiling on: one sample per {} engine ops, artifacts under {}",
                flags.profile_interval,
                flags.results_dir.join("profiles").display()
            );
            flags.profile_interval
        } else {
            0
        };
        let mut root = simtrace::sampled_root(&format!("run/{name}"), interval);
        root.arg("run_id", manifest.run_id());
        Run {
            name,
            flags,
            manifest,
            root_id: root.context().span_id,
            root: Some(root),
        }
    }

    /// Attaches an arg to the run-root span.
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(root) = &mut self.root {
            root.arg(key, value);
        }
    }

    /// Ends a run whose campaign failed. Records each failed pair in the
    /// manifest, writes the manifest, and prints the stage table to stderr,
    /// so a failed campaign still leaves both behind. Returns `error` to
    /// propagate.
    pub fn fail(mut self, error: Error) -> Error {
        if let Error::Characterization { failures, .. } = &error {
            for f in failures {
                self.manifest.pair_failed(&f.label, &f.message);
            }
        }
        let spans = self.close();
        if let Err(e) = self.manifest.write(&self.flags.results_dir) {
            eprintln!("warning: cannot write run manifest: {e}");
        }
        eprint!("{}", stage_table(&stages(&spans, self.root_id)));
        error
    }

    /// Ends a successful run: closes the run root, writes `metrics.json`
    /// computed from its spans, exports the trace
    /// (`--trace`) and profile (`--profile`) artifacts, writes the
    /// manifest, and prints the stage table to stderr.
    ///
    /// # Errors
    ///
    /// Any error writing an artifact other than `metrics.json`.
    pub fn finish(mut self) -> Result<()> {
        let results = &self.flags.results_dir;
        let spans = self.close();
        // A lost `metrics.json` only warns.
        let json = crate::telemetry::render(&crate::telemetry::run_snapshot(&spans));
        match write_artifact(results, "metrics.json", json.as_bytes()) {
            Ok(_) => self
                .manifest
                .artifact(artifact_kind::METRICS, "metrics.json"),
            Err(e) => eprintln!(
                "warning: cannot write {}: {e}",
                results.join("metrics.json").display()
            ),
        }
        if self.flags.trace {
            let dir = results.join("traces");
            let (json_path, bin_path) = simtrace::export(&dir, self.name, &spans)?;
            self.manifest
                .artifact(artifact_kind::TRACE_JSON, rel_artifact(results, &json_path));
            self.manifest
                .artifact(artifact_kind::TRACE_BIN, rel_artifact(results, &bin_path));
            eprintln!(
                "wrote {} trace spans to {} (load in Perfetto, or run simgate trace)",
                spans.len(),
                json_path.display()
            );
        }
        if self.flags.profile {
            let profile = simprof::drain(&spans);
            let paths = simprof::export(&results.join("profiles"), self.name, &profile)?;
            for (kind, path) in [
                (artifact_kind::PROFILE, &paths.prof),
                (artifact_kind::FOLDED, &paths.folded),
                (artifact_kind::FLAMEGRAPH, &paths.svg),
            ] {
                self.manifest.artifact(kind, rel_artifact(results, path));
            }
            eprintln!(
                "wrote {} profile samples ({} ops) to {} (run simgate prof, or open {})",
                profile.samples.len(),
                profile.total_weight(),
                paths.prof.display(),
                paths.svg.display()
            );
        }
        let run_id = self.manifest.run_id().to_string();
        let manifest_path = self.manifest.write(results)?;
        eprintln!(
            "run {run_id}: manifest at {} (render with simgate dash)",
            manifest_path.display()
        );
        eprint!("{}", stage_table(&stages(&spans, self.root_id)));
        Ok(())
    }

    /// Closes the run root and drains the finished span tree.
    fn close(&mut self) -> Vec<SpanRecord> {
        self.root.take().map(SpanGuard::drain).unwrap_or_default()
    }
}

/// The run's top-level stages: the direct children of span `root_id`, in
/// start order.
pub fn stages(spans: &[SpanRecord], root_id: u64) -> Vec<&SpanRecord> {
    let mut children: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| root_id != 0 && s.parent_id == root_id)
        .collect();
    children.sort_by_key(|s| (s.start_ns, s.span_id));
    children
}

fn wall_ms(span: &SpanRecord) -> f64 {
    span.wall_ns() as f64 / 1e6
}

/// A stage's fields: its args except the lifted peak RSS.
fn fields(span: &SpanRecord) -> impl Iterator<Item = &(String, ArgValue)> {
    span.args.iter().filter(|(k, _)| k != MEM_HWM_ARG)
}

fn mem_hwm_bytes(span: &SpanRecord) -> Option<u64> {
    match span.arg(MEM_HWM_ARG) {
        Some(ArgValue::U64(bytes)) => Some(*bytes),
        _ => None,
    }
}

/// Renders `stages` as the aligned end-of-run table the binaries print
/// to stderr: wall time, peak RSS and the fields of each stage.
pub fn stage_table(stages: &[&SpanRecord]) -> String {
    if stages.is_empty() {
        return String::new();
    }
    let name_w = stages
        .iter()
        .map(|s| s.name.len())
        .chain(["stage".len()])
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "{:<name_w$}  {:>12}  {:>12}  details\n",
        "stage", "wall_ms", "peak_rss_mb"
    );
    for s in stages {
        let mem = match mem_hwm_bytes(s) {
            Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
            None => "-".to_string(),
        };
        let details = fields(s)
            .map(|(k, v)| match v {
                ArgValue::F64(x) => format!("{k}={x:.2}"),
                v => format!("{k}={v}"),
            })
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>12.3}  {:>12}  {details}",
            s.name,
            wall_ms(s),
            mem
        );
    }
    out
}

/// Writes `<stem>-<size>.csv` and `<stem>-<size>.svg` under `dir` for every
/// record whose session carries a timeline, titling the sparkline with the
/// same label; records without one are skipped. Returns the number of pairs
/// written.
///
/// # Errors
///
/// [`crate::error::Error::Io`] when the directory cannot be created or a
/// file cannot be written.
pub fn write_timeline_artifacts(records: &[CharRecord], dir: &Path) -> Result<usize> {
    let with_timelines: Vec<&CharRecord> = records
        .iter()
        .filter(|r| r.session.timeline().is_some())
        .collect();
    if with_timelines.is_empty() {
        return Ok(0);
    }
    std::fs::create_dir_all(dir)?;
    for record in &with_timelines {
        let timeline = record.session.timeline().expect("filtered above");
        let stem = timeline_stem(&record.id, record.size.label());
        write_artifact(dir, &format!("{stem}.csv"), timeline.csv().as_bytes())?;
        let series: Vec<(&str, Vec<f64>)> = vec![
            ("ipc", timeline.series(IntervalSample::ipc)),
            ("l1 mpki", timeline.series(IntervalSample::l1_mpki)),
            ("l2 mpki", timeline.series(IntervalSample::l2_mpki)),
            ("l3 mpki", timeline.series(IntervalSample::l3_mpki)),
            (
                "misp rate",
                timeline.series(IntervalSample::mispredict_rate),
            ),
        ];
        let svg = sparkline_svg(&stem, &series, 460, 96);
        write_artifact(dir, &format!("{stem}.svg"), svg.as_bytes())?;
    }
    Ok(with_timelines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_pair, RunConfig};
    use uarch_sim::timeline::SamplerConfig;
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    /// A finished span built by hand: no global tracer involved, so these
    /// tests are safe under parallel test threads.
    fn rec(
        span_id: u64,
        parent_id: u64,
        name: &str,
        (start_ns, end_ns): (u64, u64),
        args: Vec<(&str, ArgValue)>,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id,
            parent_id,
            name: name.to_string(),
            tid: 1,
            start_ns,
            end_ns,
            error: None,
            args: args.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn run_tree() -> Vec<SpanRecord> {
        vec![
            rec(1, 0, "run/test", (0, 9_000_000), vec![]),
            rec(
                3,
                1,
                "experiment",
                (5_000_000, 5_250_000),
                vec![
                    ("id", "table2".into()),
                    ("tables", 1u64.into()),
                    (MEM_HWM_ARG, 4_194_304u64.into()),
                ],
            ),
            rec(
                2,
                1,
                "collect-dataset",
                (1_000, 4_001_234),
                vec![
                    ("records", 2u64.into()),
                    ("rate", 1.5.into()),
                    ("hit", true.into()),
                ],
            ),
            // A grandchild, another root, and that root's child: none of
            // them is a top-level stage of run 1.
            rec(
                4,
                2,
                "sched/job",
                (2_000, 3_000),
                vec![("pair", "a".into())],
            ),
            rec(5, 0, "run/other", (0, 10), vec![]),
            rec(6, 5, "stray", (1, 2), vec![]),
        ]
    }

    #[test]
    fn only_root_children_become_stage_records_in_start_order() {
        let spans = run_tree();
        let stages = stages(&spans, 1);
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["collect-dataset", "experiment"]);
    }

    #[test]
    fn stages_of_an_absent_root_are_empty() {
        assert!(stages(&run_tree(), 0).is_empty());
        assert!(stages(&run_tree(), 42).is_empty());
        assert_eq!(stage_table(&[]), "");
    }

    #[test]
    fn stage_table_lists_each_stage_with_its_fields() {
        let spans = run_tree();
        let table = stage_table(&stages(&spans, 1));
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 3, "{table}");
        assert!(rows[0].starts_with("stage"));
        assert!(rows[1].starts_with("collect-dataset"));
        assert!(rows[1].contains("4.000"), "{}", rows[1]);
        assert!(
            rows[1].ends_with("records=2 rate=1.50 hit=true"),
            "{}",
            rows[1]
        );
        assert!(rows[1].contains(" - "), "no peak RSS recorded: {}", rows[1]);
        assert!(rows[2].contains("4.0"), "4 MiB peak RSS: {}", rows[2]);
        assert!(rows[2].ends_with("id=table2 tables=1"), "{}", rows[2]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mem_high_water_is_positive_on_linux() {
        let hwm = mem_high_water_bytes().expect("/proc/self/status has VmHWM");
        assert!(hwm > 0);
    }

    #[test]
    fn writes_csv_and_svg_per_sampled_record() {
        let dir = std::env::temp_dir().join(format!("workchar-timelines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let config = RunConfig::quick().with_sampler(SamplerConfig::every(10_000));
        let sampled = characterize_pair(pair, &config).unwrap();
        let plain = characterize_pair(pair, &RunConfig::quick()).unwrap();

        let n = write_timeline_artifacts(&[sampled, plain], &dir).unwrap();
        assert_eq!(n, 1, "only the sampled record has a timeline");
        let csv = std::fs::read_to_string(dir.join("505.mcf_r-ref.csv")).unwrap();
        assert!(csv.starts_with("interval,start_op,end_op"));
        assert!(csv.lines().count() > 2);
        let svg = std::fs::read_to_string(dir.join("505.mcf_r-ref.svg")).unwrap();
        assert!(svg.contains("<polyline"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_id_at_three_sizes_writes_six_files() {
        let dir =
            std::env::temp_dir().join(format!("workchar-timelines-sizes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = cpu2017::app("505.mcf_r").unwrap();
        let config = RunConfig::quick().with_sampler(SamplerConfig::every(10_000));
        let records: Vec<CharRecord> = [InputSize::Test, InputSize::Train, InputSize::Ref]
            .into_iter()
            .map(|size| characterize_pair(&app.pairs(size)[0], &config).unwrap())
            .collect();
        assert!(records.iter().all(|r| r.id == "505.mcf_r"));
        assert_eq!(write_timeline_artifacts(&records, &dir).unwrap(), 3);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "505.mcf_r-ref.csv",
                "505.mcf_r-ref.svg",
                "505.mcf_r-test.csv",
                "505.mcf_r-test.svg",
                "505.mcf_r-train.csv",
                "505.mcf_r-train.svg",
            ]
        );
        let svg = std::fs::read_to_string(dir.join("505.mcf_r-train.svg")).unwrap();
        assert!(svg.contains("505.mcf_r-train"), "titled with its label");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_timelines_writes_nothing() {
        let dir =
            std::env::temp_dir().join(format!("workchar-timelines-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let app = cpu2017::app("541.leela_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let plain = characterize_pair(pair, &RunConfig::quick()).unwrap();
        let n = write_timeline_artifacts(&[plain], &dir).unwrap();
        assert_eq!(n, 0);
        assert!(!dir.exists(), "directory must not be created for nothing");
    }
}
