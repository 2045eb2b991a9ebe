//! Minimal in-tree benchmark harness.
//!
//! The workspace builds with no registry access, so the benches run on this
//! self-contained timer instead of an external framework. Each `[[bench]]`
//! target is a plain `main` (Cargo's `harness = false`) that constructs a
//! [`Runner`] and registers closures; the runner auto-calibrates an
//! iteration count per benchmark, reports the median of several timed
//! batches, and honours a substring filter passed on the command line
//! (`cargo bench --bench substrates -- cache`).

use std::fmt::Write as _;
use std::hint::black_box as std_black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use perfmon::json::{self, Value};

/// Opaque value sink preventing the optimizer from deleting benched work.
pub fn black_box<T>(v: T) -> T {
    std_black_box(v)
}

/// Per-benchmark timing summary.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (suite/group prefix included).
    pub name: String,
    /// Median per-iteration time across batches.
    pub median: Duration,
    /// Iterations per timed batch after calibration.
    pub iters_per_batch: u64,
    /// Leaf-frame attribution from a profiled run (frame name → sampled
    /// self weight in engine ops); empty for unprofiled benchmarks.
    pub attribution: Vec<(String, u64)>,
}

/// Collects and runs registered benchmarks.
pub struct Runner {
    suite: String,
    filter: Option<String>,
    target_batch: Duration,
    batches: usize,
    results: Vec<Measurement>,
}

impl Runner {
    /// A runner named `suite`, reading an optional substring filter from
    /// the process arguments (flags such as `--bench` are ignored).
    pub fn from_args(suite: &str) -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner::new(suite, filter)
    }

    /// A runner with an explicit filter (`None` runs everything).
    pub fn new(suite: &str, filter: Option<String>) -> Self {
        Runner {
            suite: suite.to_string(),
            filter,
            target_batch: Duration::from_millis(100),
            batches: 5,
            results: Vec::new(),
        }
    }

    /// Runs one benchmark: calibrates an iteration count whose batch takes
    /// roughly the target time, times several batches, and records the
    /// median per-iteration cost. Skipped (silently) when a filter is set
    /// and `name` does not contain it.
    ///
    /// Returns the calibrated iteration count (`None` when filtered out) so
    /// paired benchmarks can run at the same count via
    /// [`Runner::bench_with_iters`].
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, f: F) -> Option<u64> {
        self.run(name, None, f)
    }

    /// Runs one benchmark at a fixed, pre-calibrated iteration count.
    ///
    /// Paired benchmarks (the same workload with one knob toggled) must use
    /// the same `iters_per_batch` for their medians to be comparable:
    /// independent calibration can land different counts for each variant,
    /// which skews per-iteration amortization of batch-boundary effects.
    /// Calibrate once on the group's anchor with [`Runner::bench`] and pin
    /// the rest to its count.
    pub fn bench_with_iters<T, F: FnMut() -> T>(
        &mut self,
        name: &str,
        iters: u64,
        f: F,
    ) -> Option<u64> {
        self.run(name, Some(iters.max(1)), f)
    }

    fn run<T, F: FnMut() -> T>(
        &mut self,
        name: &str,
        pinned: Option<u64>,
        mut f: F,
    ) -> Option<u64> {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return None;
            }
        }
        let iters = match pinned {
            Some(iters) => {
                // One untimed batch so the pinned run is as warm as a
                // calibrated one.
                for _ in 0..iters {
                    std_black_box(f());
                }
                iters
            }
            None => {
                // Calibration: double the batch size until it costs enough
                // to time reliably, starting from a single (also warmup)
                // iteration.
                let mut iters: u64 = 1;
                loop {
                    let start = Instant::now();
                    for _ in 0..iters {
                        std_black_box(f());
                    }
                    let took = start.elapsed();
                    if took >= self.target_batch || iters >= 1 << 24 {
                        break;
                    }
                    iters = if took.is_zero() {
                        iters * 16
                    } else {
                        let scale = self.target_batch.as_secs_f64() / took.as_secs_f64();
                        (iters as f64 * scale.clamp(1.5, 16.0)).ceil() as u64
                    };
                }
                iters
            }
        };
        let mut per_iter: Vec<Duration> = (0..self.batches)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    std_black_box(f());
                }
                start.elapsed() / iters as u32
            })
            .collect();
        per_iter.sort();
        let median = per_iter[per_iter.len() / 2];
        println!(
            "{:<52} {:>12} /iter   ({} iters/batch, {} batches)",
            format!("{}/{}", self.suite, name),
            format_duration(median),
            iters,
            self.batches,
        );
        self.results.push(Measurement {
            name: format!("{}/{}", self.suite, name),
            median,
            iters_per_batch: iters,
            attribution: Vec::new(),
        });
        Some(iters)
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Attaches a profiler attribution breakdown to the already-recorded
    /// benchmark `name` (bare name, without the suite prefix), so
    /// [`Runner::finish`] carries it into `BENCH_results.json`. A no-op
    /// when the benchmark was filtered out and never measured.
    pub fn attach_attribution(&mut self, name: &str, attribution: Vec<(String, u64)>) {
        let full = format!("{}/{name}", self.suite);
        if let Some(m) = self.results.iter_mut().find(|m| m.name == full) {
            m.attribution = attribution;
        }
    }

    /// Prints the closing summary line and merges this suite's medians into
    /// `BENCH_results.json` at the workspace root, so successive
    /// `cargo bench` runs accumulate one machine-readable record
    /// (`{"schema":1,"benchmarks":{name:{"median_ns":..,"iters_per_batch":..}}}`).
    pub fn finish(self) {
        println!("{}: {} benchmarks", self.suite, self.results.len());
        if self.results.is_empty() {
            return;
        }
        let path = results_path();
        match merge_results(&path, &self.results) {
            Ok(()) => println!("updated {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        let history = history_path();
        match append_history(&history, &self.suite, &self.results) {
            Ok(()) => println!("appended {}", history.display()),
            Err(e) => eprintln!("warning: cannot append {}: {e}", history.display()),
        }
    }
}

/// `BENCH_results.json` at the workspace root (two levels above this crate).
fn results_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("BENCH_results.json")
}

/// `results/bench_history.jsonl` at the workspace root: the append-only
/// trend record the dashboard's bench section reads.
fn history_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.join("results").join("bench_history.jsonl")
}

/// Appends one history line for this suite run:
/// `{"schema":1,"unix_ms":…,"suite":"…","benchmarks":{name:median_ns}}`.
/// Append-only JSONL so concurrent suites and successive runs never
/// clobber each other; readers skip torn or foreign lines.
pub fn append_history(path: &Path, suite: &str, results: &[Measurement]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let benchmarks: Vec<String> = results
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{}",
                json::escape(&m.name),
                m.median.as_nanos() as u64
            )
        })
        .collect();
    let line = format!(
        "{{\"schema\":1,\"unix_ms\":{unix_ms},\"suite\":\"{}\",\"benchmarks\":{{{}}}}}",
        json::escape(suite),
        benchmarks.join(",")
    );
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// One `BENCH_results.json` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultEntry {
    /// Benchmark name (suite/group prefix included).
    pub name: String,
    /// Median per-iteration time.
    pub median_ns: u64,
    /// Iterations per timed batch.
    pub iters_per_batch: u64,
    /// Leaf-frame attribution from a profiled run (frame name → sampled
    /// self weight in engine ops); empty for unprofiled benchmarks.
    pub attribution: Vec<(String, u64)>,
}

impl ResultEntry {
    /// An entry with no attribution breakdown.
    pub fn new(name: impl Into<String>, median_ns: u64, iters_per_batch: u64) -> Self {
        ResultEntry {
            name: name.into(),
            median_ns,
            iters_per_batch,
            attribution: Vec::new(),
        }
    }
}

/// Parses a `BENCH_results.json` file (schema 1) into its entries, in file
/// order. Unlike the merge path, a malformed file is an error here — the
/// regression gate (`simgate bench`) must not silently treat one as empty.
pub fn read_results(path: &Path) -> std::io::Result<Vec<ResultEntry>> {
    let text = std::fs::read_to_string(path)?;
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let value = json::parse(&text).map_err(|e| bad(&format!("not valid JSON: {e:?}")))?;
    let benchmarks = value
        .get("benchmarks")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("missing \"benchmarks\" object"))?;
    let mut entries = Vec::new();
    for (name, m) in benchmarks {
        let median = m.get("median_ns").and_then(Value::as_u64);
        let iters = m.get("iters_per_batch").and_then(Value::as_u64);
        let (Some(median_ns), Some(iters_per_batch)) = (median, iters) else {
            return Err(bad(&format!(
                "entry '{name}' lacks median_ns/iters_per_batch"
            )));
        };
        let mut attribution = Vec::new();
        if let Some(attr) = m.get("attribution") {
            let frames = attr
                .as_object()
                .ok_or_else(|| bad(&format!("entry '{name}': attribution is not an object")))?;
            for (frame, weight) in frames {
                let weight = weight.as_u64().ok_or_else(|| {
                    bad(&format!(
                        "entry '{name}': attribution['{frame}'] is not an integer"
                    ))
                })?;
                attribution.push((frame.clone(), weight));
            }
        }
        entries.push(ResultEntry {
            name: name.clone(),
            median_ns,
            iters_per_batch,
            attribution,
        });
    }
    Ok(entries)
}

/// Writes entries in the canonical format — one benchmark per line for
/// clean diffs, schema 1. The `attribution` key is written only for
/// entries that carry a breakdown.
pub fn write_results(path: &Path, entries: &[ResultEntry]) -> std::io::Result<()> {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"benchmarks\": {\n");
    for (i, entry) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let attribution = if entry.attribution.is_empty() {
            String::new()
        } else {
            let frames: Vec<String> = entry
                .attribution
                .iter()
                .map(|(frame, weight)| format!("\"{}\": {weight}", json::escape(frame)))
                .collect();
            format!(", \"attribution\": {{{}}}", frames.join(", "))
        };
        out.push_str(&format!(
            "    \"{}\": {{\"median_ns\": {}, \"iters_per_batch\": {}{attribution}}}{comma}\n",
            json::escape(&entry.name),
            entry.median_ns,
            entry.iters_per_batch,
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Merges `updates` over `entries` in place: existing names are replaced,
/// new ones appended in order.
pub fn merge_entries(entries: &mut Vec<ResultEntry>, updates: &[ResultEntry]) {
    for update in updates {
        match entries.iter_mut().find(|e| e.name == update.name) {
            Some(slot) => *slot = update.clone(),
            None => entries.push(update.clone()),
        }
    }
}

/// Rewrites `path` with `results` merged over whatever it already holds:
/// entries from other suites survive, re-measured ones are replaced in
/// place. A missing or malformed file starts from scratch (first run).
fn merge_results(path: &Path, results: &[Measurement]) -> std::io::Result<()> {
    let mut entries = read_results(path).unwrap_or_default();
    let updates: Vec<ResultEntry> = results
        .iter()
        .map(|m| ResultEntry {
            name: m.name.clone(),
            median_ns: m.median.as_nanos() as u64,
            iters_per_batch: m.iters_per_batch,
            attribution: m.attribution.clone(),
        })
        .collect();
    merge_entries(&mut entries, &updates);
    write_results(path, &entries)
}

/// The outcome of [`compare`]: its report, which benchmarks slowed past
/// the threshold, and which baseline entries the current run never
/// measured.
pub struct Comparison {
    /// One line per benchmark, then a summary line.
    pub report: String,
    /// Names whose median grew by more than the threshold.
    pub regressed: Vec<String>,
    /// Baseline names absent from the current run.
    pub missing: Vec<String>,
}

/// Compares `current` medians against `baseline` by name. A benchmark
/// regresses when its median grew by more than `max_regression` (a
/// fraction); current-only entries are reported as new and never fail.
pub fn compare(
    baseline: &[ResultEntry],
    current: &[ResultEntry],
    max_regression: f64,
) -> Comparison {
    let ns = |ns: u64| format_duration(Duration::from_nanos(ns));
    let mut report = String::new();
    let mut regressed = Vec::new();
    let mut missing = Vec::new();
    let mut compared = 0usize;
    let mut improved = 0usize;
    for cur in current {
        let name = &cur.name;
        let Some(base) = baseline.iter().find(|e| &e.name == name) else {
            let _ = writeln!(
                report,
                "{name:<55} (new)            {:>12}",
                ns(cur.median_ns)
            );
            continue;
        };
        compared += 1;
        let ratio = cur.median_ns as f64 / base.median_ns.max(1) as f64;
        let verdict = if ratio > 1.0 + max_regression {
            regressed.push(name.clone());
            "REGRESSED"
        } else {
            if ratio < 1.0 {
                improved += 1;
            }
            "ok"
        };
        let _ = writeln!(
            report,
            "{name:<55} {:>12} -> {:>12}  {ratio:>5.2}x  {verdict}",
            ns(base.median_ns),
            ns(cur.median_ns),
        );
    }
    for base in baseline {
        if !current.iter().any(|e| e.name == base.name) {
            let _ = writeln!(
                report,
                "{:<55} {:>12} ->      MISSING from current",
                base.name,
                ns(base.median_ns)
            );
            missing.push(base.name.clone());
        }
    }
    let _ = writeln!(
        report,
        "{compared} compared, {improved} improved, {} regressed (> +{:.0}%), {} missing",
        regressed.len(),
        max_regression * 100.0,
        missing.len()
    );
    Comparison {
        report,
        regressed,
        missing,
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(list: &[(&str, u64)]) -> Vec<ResultEntry> {
        list.iter()
            .map(|(n, ns)| ResultEntry::new(*n, *ns, 10))
            .collect()
    }

    #[test]
    fn within_threshold_passes() {
        let base = entries(&[("a", 1000), ("b", 2000)]);
        let cur = entries(&[("a", 1050), ("b", 1500)]);
        let outcome = compare(&base, &cur, 0.10);
        assert!(outcome.regressed.is_empty() && outcome.missing.is_empty());
    }

    #[test]
    fn slowdown_beyond_threshold_is_reported() {
        let base = entries(&[("a", 1000), ("b", 2000)]);
        let cur = entries(&[("a", 1200), ("b", 2000)]);
        let outcome = compare(&base, &cur, 0.10);
        assert_eq!(outcome.regressed, vec!["a".to_string()]);
        assert!(outcome.report.contains("REGRESSED"), "{}", outcome.report);
    }

    #[test]
    fn new_benchmarks_are_not_regressions_but_missing_are_flagged() {
        let base = entries(&[("gone", 1000)]);
        let cur = entries(&[("fresh", 999_999)]);
        let outcome = compare(&base, &cur, 0.10);
        assert!(
            outcome.regressed.is_empty(),
            "one-sided entries never regress"
        );
        assert_eq!(outcome.missing, vec!["gone".to_string()]);
    }

    fn quick_runner(filter: Option<String>) -> Runner {
        let mut r = Runner::new("test", filter);
        r.target_batch = Duration::from_micros(200);
        r.batches = 3;
        r
    }

    #[test]
    fn measures_and_records() {
        let mut r = quick_runner(None);
        r.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        assert_eq!(r.results().len(), 1);
        assert!(r.results()[0].median > Duration::ZERO);
        assert!(r.results()[0].iters_per_batch >= 1);
    }

    #[test]
    fn pinned_iters_are_used_verbatim() {
        let mut r = quick_runner(None);
        let anchor = r.bench("group/anchor", || black_box(1u64 + 1));
        let anchor = anchor.expect("unfiltered bench returns its count");
        let paired = r.bench_with_iters("group/variant", anchor, || black_box(2u64 + 2));
        assert_eq!(paired, Some(anchor));
        assert_eq!(r.results()[0].iters_per_batch, anchor);
        assert_eq!(
            r.results()[1].iters_per_batch,
            anchor,
            "paired benchmarks must share one batch size"
        );
    }

    #[test]
    fn history_lines_append_in_the_dashboard_schema() {
        let path =
            std::env::temp_dir().join(format!("bench-history-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let results = vec![Measurement {
            name: "suite/alpha".to_string(),
            median: Duration::from_nanos(1234),
            iters_per_batch: 10,
            attribution: Vec::new(),
        }];
        append_history(&path, "suite", &results).unwrap();
        append_history(&path, "suite", &results).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 2, "append-only: one line per run");
        for line in text.lines() {
            assert!(line.starts_with("{\"schema\":1,\"unix_ms\":"), "{line}");
            assert!(line.contains("\"suite\":\"suite\""), "{line}");
            assert!(
                line.contains("\"benchmarks\":{\"suite/alpha\":1234}"),
                "{line}"
            );
            json::parse(line).expect("history line parses as JSON");
        }
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = quick_runner(Some("cache".into()));
        r.bench("predictor/foo", || 1);
        assert!(r.results().is_empty());
        r.bench("cache/l1", || 1);
        assert_eq!(r.results().len(), 1);
    }

    #[test]
    fn merge_keeps_other_suites_and_replaces_remeasured() {
        let path = std::env::temp_dir().join(format!("bench-results-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let m = |name: &str, ns: u64| Measurement {
            name: name.to_string(),
            median: Duration::from_nanos(ns),
            iters_per_batch: 100,
            attribution: Vec::new(),
        };
        merge_results(&path, &[m("substrates/a", 10), m("substrates/b", 20)]).unwrap();
        merge_results(&path, &[m("tables/t1", 30), m("substrates/a", 15)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = json::parse(&text).unwrap();
        assert_eq!(value.get("schema").and_then(Value::as_u64), Some(1));
        let benchmarks = value.get("benchmarks").and_then(Value::as_object).unwrap();
        assert_eq!(benchmarks.len(), 3);
        let median = |name: &str| {
            benchmarks
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, m)| m.get("median_ns"))
                .and_then(Value::as_u64)
        };
        assert_eq!(median("substrates/a"), Some(15), "re-measured in place");
        assert_eq!(median("substrates/b"), Some(20), "untouched entry kept");
        assert_eq!(median("tables/t1"), Some(30));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attribution_round_trips_and_merges() {
        let path =
            std::env::temp_dir().join(format!("bench-results-attr-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut profiled = ResultEntry::new("substrates/engine_run_100k_profiled", 500, 20);
        profiled.attribution = vec![
            ("uop/alu".to_string(), 60_000),
            ("uop/load".to_string(), 40_000),
        ];
        let plain = ResultEntry::new("substrates/engine_run_100k", 480, 20);
        write_results(&path, &[profiled.clone(), plain.clone()]).unwrap();

        let back = read_results(&path).unwrap();
        assert_eq!(back, vec![profiled.clone(), plain.clone()]);

        // A re-measured entry replaces attribution wholesale; others keep theirs.
        let mut entries = back;
        let mut update = ResultEntry::new("substrates/engine_run_100k_profiled", 510, 20);
        update.attribution = vec![("uop/alu".to_string(), 100_000)];
        merge_entries(&mut entries, &[update.clone()]);
        assert_eq!(entries[0], update);
        assert_eq!(entries[1], plain);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_attribution_targets_the_named_benchmark() {
        let mut r = quick_runner(None);
        r.bench("engine/a", || black_box(1u64 + 1));
        r.bench("engine/b", || black_box(2u64 + 2));
        r.attach_attribution("engine/b", vec![("uop/alu".to_string(), 7)]);
        r.attach_attribution("engine/never-ran", vec![("uop/alu".to_string(), 9)]);
        assert!(r.results()[0].attribution.is_empty());
        assert_eq!(r.results()[1].attribution, vec![("uop/alu".to_string(), 7)]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(15)), "15 ns");
        assert_eq!(format_duration(Duration::from_micros(2)), "2.000 µs");
        assert_eq!(format_duration(Duration::from_millis(3)), "3.000 ms");
        assert_eq!(format_duration(Duration::from_secs(2)), "2.000 s");
    }
}
