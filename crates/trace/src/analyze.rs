//! Trace analysis: where did the wall-clock go?
//!
//! Four questions over one collected trace, and one across two:
//!
//! - [`self_time`] — flamegraph-style attribution: per span name, how
//!   much time was spent *in* that span, excluding child spans (self
//!   time), aggregated over the whole trace.
//! - [`span_summary`] — the latency distribution of one span name:
//!   count, sum, extrema and exact quantiles of the walls, the summaries
//!   a run writes into `metrics.json`.
//! - [`critical_path`] — the chain of spans that bounded the run: start
//!   at the widest root and at each level descend into the widest child.
//!   Through sequential phases this keeps following where the time went
//!   (not the short phase that merely finished last), and through the
//!   scheduler's fan-out it follows the heaviest job — exactly the path a
//!   perf PR must shorten.
//! - [`utilization`] — worker occupancy vs. queue wait for the
//!   scheduler's `sched/batch` / `sched/job` spans.
//! - [`diff`] — aligns two traces by stable span key (name plus the
//!   `pair` arg when present) and flags wall-time regressions past a
//!   relative threshold and an absolute floor; `simgate trace --diff`
//!   turns its verdict into an exit code CI can gate on.

use crate::{ArgValue, SpanRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Milliseconds with three decimals — the table unit.
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One row of the per-name self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: usize,
    /// Total wall time across those spans, ns.
    pub wall_ns: u64,
    /// Total self time (wall minus direct children), ns.
    pub self_ns: u64,
    /// How many of those spans carried error status.
    pub errors: usize,
}

/// Aggregates self time per span name, widest self time first.
///
/// Self time is wall time minus the summed wall time of *direct*
/// children, clamped at zero (clock jitter can make children overlap
/// their parent by a few ns).
pub fn self_time(spans: &[SpanRecord]) -> Vec<SelfTimeRow> {
    let mut child_wall: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 {
            *child_wall.entry(s.parent_id).or_insert(0) += s.wall_ns();
        }
    }
    let mut by_name: BTreeMap<&str, SelfTimeRow> = BTreeMap::new();
    for s in spans {
        let row = by_name.entry(&s.name).or_insert_with(|| SelfTimeRow {
            name: s.name.clone(),
            count: 0,
            wall_ns: 0,
            self_ns: 0,
            errors: 0,
        });
        row.count += 1;
        row.wall_ns += s.wall_ns();
        row.self_ns += s
            .wall_ns()
            .saturating_sub(child_wall.get(&s.span_id).copied().unwrap_or(0));
        row.errors += usize::from(s.error.is_some());
    }
    let mut rows: Vec<SelfTimeRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// The latency distribution of every span with one name, in whole µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    /// Number of spans with the name.
    pub count: u64,
    /// Summed wall time, µs.
    pub sum: u64,
    /// Shortest wall, µs.
    pub min: u64,
    /// Longest wall, µs.
    pub max: u64,
    /// Nearest-rank median wall, µs.
    pub p50: u64,
    /// Nearest-rank 90th-percentile wall, µs.
    pub p90: u64,
    /// Nearest-rank 99th-percentile wall, µs.
    pub p99: u64,
}

/// Summarizes the walls of all spans named `name`, each truncated to
/// whole µs. Quantiles are exact nearest-rank values: the `p`th
/// percentile is the smallest wall with at least `p`% of the walls at or
/// below it. `None` when no span has the name.
pub fn span_summary(spans: &[SpanRecord], name: &str) -> Option<SpanSummary> {
    let mut micros: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.wall_ns() / 1000)
        .collect();
    micros.sort_unstable();
    let (&min, &max) = (micros.first()?, micros.last()?);
    let n = micros.len();
    let rank = |p: usize| micros[(p * n).div_ceil(100).max(1) - 1];
    Some(SpanSummary {
        count: n as u64,
        sum: micros.iter().sum(),
        min,
        max,
        p50: rank(50),
        p90: rank(90),
        p99: rank(99),
    })
}

/// One hop on the critical path, root first.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Span id, for cross-referencing the raw trace.
    pub span_id: u64,
    /// Wall time of this span, ns.
    pub wall_ns: u64,
    /// The span's `pair` arg, when it carries one.
    pub pair: Option<String>,
}

/// Extracts the critical path: the widest root, then repeatedly the
/// widest child. Spans whose parent is absent from the trace count as
/// roots. Empty for an empty trace.
pub fn critical_path(spans: &[SpanRecord]) -> Vec<PathStep> {
    let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in spans {
        if s.parent_id != 0 && ids.contains(&s.parent_id) {
            children.entry(s.parent_id).or_default().push(s);
        }
    }
    let root = spans
        .iter()
        .filter(|s| s.parent_id == 0 || !ids.contains(&s.parent_id))
        .max_by_key(|s| (s.wall_ns(), std::cmp::Reverse(s.span_id)));
    let mut path = Vec::new();
    let mut cursor = root;
    while let Some(s) = cursor {
        path.push(PathStep {
            name: s.name.clone(),
            span_id: s.span_id,
            wall_ns: s.wall_ns(),
            pair: s.arg("pair").map(|v| v.to_string()),
        });
        cursor = children
            .get(&s.span_id)
            .and_then(|kids| {
                kids.iter()
                    .max_by_key(|k| (k.wall_ns(), std::cmp::Reverse(k.span_id)))
            })
            .copied();
    }
    path
}

/// Scheduler occupancy summary derived from `sched/batch` + `sched/job`.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Worker count the batch ran with (its `workers` arg).
    pub workers: u64,
    /// Jobs executed under the batches.
    pub jobs: usize,
    /// Summed batch wall time, ns.
    pub batch_wall_ns: u64,
    /// Summed job wall time (busy time), ns.
    pub busy_ns: u64,
    /// Summed job queue wait (job start minus its batch start), ns.
    pub queue_wait_ns: u64,
}

impl Utilization {
    /// Busy time over available worker-time: 1.0 = every worker busy for
    /// the whole batch.
    pub fn occupancy(&self) -> f64 {
        let available = self.workers.max(1) as f64 * self.batch_wall_ns as f64;
        if available == 0.0 {
            0.0
        } else {
            self.busy_ns as f64 / available
        }
    }
}

/// Computes [`Utilization`] from the scheduler spans, `None` when the
/// trace contains no `sched/batch` span.
pub fn utilization(spans: &[SpanRecord]) -> Option<Utilization> {
    let batches: HashMap<u64, &SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "sched/batch")
        .map(|s| (s.span_id, s))
        .collect();
    if batches.is_empty() {
        return None;
    }
    let mut u = Utilization {
        workers: batches
            .values()
            .filter_map(|b| match b.arg("workers") {
                Some(ArgValue::U64(w)) => Some(*w),
                _ => None,
            })
            .max()
            .unwrap_or(1),
        jobs: 0,
        batch_wall_ns: batches.values().map(|b| b.wall_ns()).sum(),
        busy_ns: 0,
        queue_wait_ns: 0,
    };
    for s in spans.iter().filter(|s| s.name == "sched/job") {
        let Some(batch) = batches.get(&s.parent_id) else {
            continue;
        };
        u.jobs += 1;
        u.busy_ns += s.wall_ns();
        u.queue_wait_ns += s.start_ns.saturating_sub(batch.start_ns);
    }
    Some(u)
}

/// The stable alignment key for diffing: span name, plus the `pair` arg
/// when the span carries one (so per-pair work lines up across runs even
/// if the roster order changed).
pub fn span_key(s: &SpanRecord) -> String {
    match s.arg("pair") {
        Some(pair) => format!("{} [{pair}]", s.name),
        None => s.name.clone(),
    }
}

/// One aligned row of a differential report.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Alignment key ([`span_key`]).
    pub key: String,
    /// Spans with this key in the old / new trace.
    pub old_count: usize,
    /// Spans with this key in the new trace.
    pub new_count: usize,
    /// Summed wall time in the old trace, ns.
    pub old_wall_ns: u64,
    /// Summed wall time in the new trace, ns.
    pub new_wall_ns: u64,
    /// Whether this row trips the regression gate.
    pub regressed: bool,
}

impl DiffRow {
    /// Signed wall delta, ns (new minus old).
    pub fn delta_ns(&self) -> i64 {
        self.new_wall_ns as i64 - self.old_wall_ns as i64
    }

    /// Relative change in percent; 0 when the old side is empty.
    pub fn delta_pct(&self) -> f64 {
        if self.old_wall_ns == 0 {
            0.0
        } else {
            (self.new_wall_ns as f64 / self.old_wall_ns as f64 - 1.0) * 100.0
        }
    }
}

/// Regression gate parameters for [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// Relative threshold: a key regresses when its new wall exceeds
    /// `old * (1 + threshold_pct/100)`.
    pub threshold_pct: f64,
    /// Absolute floor: deltas below this many ns never regress (filters
    /// timer noise on sub-microsecond spans).
    pub min_delta_ns: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold_pct: 10.0,
            min_delta_ns: 1_000_000, // 1 ms
        }
    }
}

/// A full differential report between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// All aligned keys, largest absolute delta first.
    pub rows: Vec<DiffRow>,
    /// Keys present only in the new trace.
    pub added: Vec<String>,
    /// Keys present only in the old trace.
    pub removed: Vec<String>,
}

impl DiffReport {
    /// Rows that tripped the regression gate.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// True when no row regressed.
    pub fn is_clean(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }
}

/// Aligns `old` and `new` by [`span_key`] and applies the regression
/// gate. Identical traces produce all-zero deltas and a clean report.
pub fn diff(old: &[SpanRecord], new: &[SpanRecord], opts: DiffOptions) -> DiffReport {
    fn fold(spans: &[SpanRecord]) -> BTreeMap<String, (usize, u64)> {
        let mut m: BTreeMap<String, (usize, u64)> = BTreeMap::new();
        for s in spans {
            let e = m.entry(span_key(s)).or_insert((0, 0));
            e.0 += 1;
            e.1 += s.wall_ns();
        }
        m
    }
    let old_keys = fold(old);
    let new_keys = fold(new);
    let mut rows = Vec::new();
    let mut added = Vec::new();
    let mut removed = Vec::new();
    for (key, &(old_count, old_wall_ns)) in &old_keys {
        match new_keys.get(key) {
            None => removed.push(key.clone()),
            Some(&(new_count, new_wall_ns)) => {
                let delta = new_wall_ns.saturating_sub(old_wall_ns);
                let regressed = delta > opts.min_delta_ns
                    && new_wall_ns as f64 > old_wall_ns as f64 * (1.0 + opts.threshold_pct / 100.0);
                rows.push(DiffRow {
                    key: key.clone(),
                    old_count,
                    new_count,
                    old_wall_ns,
                    new_wall_ns,
                    regressed,
                });
            }
        }
    }
    for key in new_keys.keys() {
        if !old_keys.contains_key(key) {
            added.push(key.clone());
        }
    }
    rows.sort_by(|a, b| {
        b.delta_ns()
            .abs()
            .cmp(&a.delta_ns().abs())
            .then(a.key.cmp(&b.key))
    });
    DiffReport {
        rows,
        added,
        removed,
    }
}

/// Renders the self-time table (top `top_n` rows by self time).
pub fn render_self_time(rows: &[SelfTimeRow], top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>7} {:>12} {:>12} {:>6}",
        "span", "count", "wall ms", "self ms", "errs"
    );
    for row in rows.iter().take(top_n) {
        let _ = writeln!(
            out,
            "{:<28} {:>7} {:>12.3} {:>12.3} {:>6}",
            row.name,
            row.count,
            ms(row.wall_ns),
            ms(row.self_ns),
            row.errors
        );
    }
    if rows.len() > top_n {
        let _ = writeln!(out, "... {} more span names", rows.len() - top_n);
    }
    out
}

/// Renders the critical path, one indented hop per line.
pub fn render_critical_path(path: &[PathStep]) -> String {
    let mut out = String::new();
    for (depth, step) in path.iter().enumerate() {
        let pair = step
            .pair
            .as_deref()
            .map(|p| format!(" [{p}]"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "{}{} {:.3} ms{pair}",
            "  ".repeat(depth),
            step.name,
            ms(step.wall_ns)
        );
    }
    out
}

/// Renders the utilization summary. Queue wait is shown per job — the
/// summed total grows with the roster size and reads as nonsense next to
/// the batch wall.
pub fn render_utilization(u: &Utilization) -> String {
    format!(
        "workers {} · jobs {} · batch wall {:.3} ms · busy {:.3} ms · \
         occupancy {:.1}% · avg queue wait {:.3} ms\n",
        u.workers,
        u.jobs,
        ms(u.batch_wall_ns),
        ms(u.busy_ns),
        u.occupancy() * 100.0,
        ms(u.queue_wait_ns) / u.jobs.max(1) as f64
    )
}

/// Renders the differential report (top `top_n` rows by absolute delta).
pub fn render_diff(report: &DiffReport, top_n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12} {:>11} {:>8}",
        "span key", "old ms", "new ms", "delta ms", "change"
    );
    for row in report.rows.iter().take(top_n) {
        let _ = writeln!(
            out,
            "{:<44} {:>12.3} {:>12.3} {:>+11.3} {:>+7.1}%{}",
            row.key,
            ms(row.old_wall_ns),
            ms(row.new_wall_ns),
            row.delta_ns() as f64 / 1e6,
            row.delta_pct(),
            if row.regressed { "  REGRESSED" } else { "" }
        );
    }
    if report.rows.len() > top_n {
        let _ = writeln!(out, "... {} more aligned keys", report.rows.len() - top_n);
    }
    for key in &report.added {
        let _ = writeln!(out, "added:   {key}");
    }
    for key in &report.removed {
        let _ = writeln!(out, "removed: {key}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            tid: 1,
            start_ns: start,
            end_ns: end,
            error: None,
            args: Vec::new(),
        }
    }

    fn with_pair(mut s: SpanRecord, pair: &str) -> SpanRecord {
        s.args
            .push(("pair".to_string(), ArgValue::Str(pair.to_string())));
        s
    }

    /// root(0..100) { jobA(10..50), jobB(20..90 { inner(30..80) }) }
    fn tree() -> Vec<SpanRecord> {
        vec![
            span(1, 0, "run/root", 0, 100),
            with_pair(span(2, 1, "sched/job", 10, 50), "505.mcf_r"),
            with_pair(span(3, 1, "sched/job", 20, 90), "520.omnetpp_r"),
            span(4, 3, "engine/run", 30, 80),
        ]
    }

    #[test]
    fn span_summary_gives_exact_nearest_rank_quantiles() {
        // Walls of 1..=100 µs (plus a sub-µs remainder that truncates),
        // shuffled, among spans of other names that must not count.
        let mut spans: Vec<SpanRecord> = (1..=100u64)
            .map(|us| {
                let id = (us * 37) % 101;
                span(id, 0, "stage/simulate", 0, us * 1000 + 999)
            })
            .collect();
        spans.push(span(200, 0, "stage/prepare", 0, 5_000_000));
        spans.push(span(201, 0, "stage/simulate/inner", 0, 7_000_000));
        let s = span_summary(&spans, "stage/simulate").unwrap();
        assert_eq!(
            s,
            SpanSummary {
                count: 100,
                sum: 5050,
                min: 1,
                max: 100,
                p50: 50,
                p90: 90,
                p99: 99,
            }
        );
        // Nearest rank on few values: ⌈p·n/100⌉-th smallest.
        let three = [
            span(1, 0, "x", 0, 30_000),
            span(2, 0, "x", 0, 10_000),
            span(3, 0, "x", 0, 20_000),
        ];
        let s = span_summary(&three, "x").unwrap();
        assert_eq!((s.p50, s.p90, s.p99), (20, 30, 30));
        let one = span_summary(&three[..1], "x").unwrap();
        assert_eq!((one.min, one.p50, one.p99, one.max), (30, 30, 30, 30));
        assert_eq!(span_summary(&spans, "sched/job"), None);
        assert_eq!(span_summary(&[], "x"), None);
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let rows = self_time(&tree());
        let root = rows.iter().find(|r| r.name == "run/root").unwrap();
        // 100 wall − (40 + 70) children = 0 (clamped from −10).
        assert_eq!(root.wall_ns, 100);
        assert_eq!(root.self_ns, 0);
        let jobs = rows.iter().find(|r| r.name == "sched/job").unwrap();
        assert_eq!(jobs.count, 2);
        assert_eq!(jobs.wall_ns, 110);
        assert_eq!(jobs.self_ns, 40 + (70 - 50));
        let engine = rows.iter().find(|r| r.name == "engine/run").unwrap();
        assert_eq!(engine.self_ns, 50);
    }

    #[test]
    fn critical_path_follows_the_widest_child() {
        let path = critical_path(&tree());
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        // jobB's 70 ns wall > jobA's 40, and engine/run is its only child.
        assert_eq!(names, ["run/root", "sched/job", "engine/run"]);
        assert_eq!(path[1].pair.as_deref(), Some("520.omnetpp_r"));
        assert!(critical_path(&[]).is_empty());
    }

    #[test]
    fn critical_path_ignores_a_short_phase_that_finished_last() {
        // Sequential phases: the wide collect phase (0..90) then a tiny
        // finalize (90..95). The path must descend into where the time
        // went, not into what merely ended last.
        let spans = vec![
            span(1, 0, "run/root", 0, 100),
            span(2, 1, "collect", 0, 90),
            span(3, 1, "finalize", 90, 95),
            span(4, 2, "engine/run", 5, 85),
        ];
        let names: Vec<String> = critical_path(&spans).into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["run/root", "collect", "engine/run"]);
    }

    #[test]
    fn utilization_accounts_busy_and_queue_wait() {
        let mut spans = vec![span(1, 0, "sched/batch", 0, 100)];
        spans[0]
            .args
            .push(("workers".to_string(), ArgValue::U64(2)));
        spans.push(span(2, 1, "sched/job", 0, 60));
        spans.push(span(3, 1, "sched/job", 10, 90));
        let u = utilization(&spans).expect("batch present");
        assert_eq!(u.workers, 2);
        assert_eq!(u.jobs, 2);
        assert_eq!(u.busy_ns, 60 + 80);
        assert_eq!(u.queue_wait_ns, 10);
        assert!((u.occupancy() - 140.0 / 200.0).abs() < 1e-9);
        assert!(utilization(&tree()).is_none());
    }

    #[test]
    fn identical_traces_diff_clean() {
        let report = diff(&tree(), &tree(), DiffOptions::default());
        assert!(report.is_clean());
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert!(report.rows.iter().all(|r| r.delta_ns() == 0));
    }

    #[test]
    fn injected_slowdown_trips_the_gate() {
        let old = tree();
        let mut new = tree();
        // Slow the omnetpp job by 10 ms — far past both gate thresholds.
        new[2].end_ns += 10_000_000;
        let report = diff(&old, &new, DiffOptions::default());
        let bad: Vec<&DiffRow> = report.regressions().collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].key, "sched/job [520.omnetpp_r]");
        assert!(!report.is_clean());
        // Below the absolute floor: same relative change on a tiny span
        // stays clean.
        let mut tiny_new = tree();
        tiny_new[2].end_ns += 100; // +143% of 70 ns, but < 1 ms floor
        assert!(diff(&old, &tiny_new, DiffOptions::default()).is_clean());
    }

    #[test]
    fn diff_reports_added_and_removed_keys() {
        let old = tree();
        let mut new = tree();
        new.push(span(9, 1, "stage/footprint", 91, 95));
        new.retain(|s| s.name != "engine/run");
        let report = diff(&old, &new, DiffOptions::default());
        assert_eq!(report.added, ["stage/footprint"]);
        assert_eq!(report.removed, ["engine/run"]);
    }
}
