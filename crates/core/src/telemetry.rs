//! This crate's process-metric handle (the `workchar_*` namespace), the
//! one-stop registration entry point for the whole pipeline, and the
//! run's final `metrics.json` snapshot.
//!
//! [`crate::characterize::characterize_pair`] splits into three stages —
//! preparing the trace and hints, running the engine, and sampling the
//! footprint model — each a `stage/*` span under the pair's `sched/job`
//! span. Their wall times are recorded once, in the span tree;
//! [`run_snapshot`] summarizes them into the run's `metrics.json`, so it
//! shows where pair wall-time actually goes.

use std::sync::OnceLock;

use simmetrics::{Counter, Snapshot};
use simtrace::SpanRecord;

/// Pairs fully characterized (cache hits included). The handle is
/// `OnceLock`-cached, so a pair pays one pointer load and, with metrics
/// on, one atomic add.
pub(crate) fn pairs_characterized() -> &'static Counter {
    static H: OnceLock<Counter> = OnceLock::new();
    H.get_or_init(|| {
        simmetrics::counter(
            "workchar_pairs_characterized_total",
            "Application-input pairs fully characterized, cache hits included.",
        )
    })
}

/// The per-pair latencies `metrics.json` summarizes: series name, the
/// span whose walls it summarizes, and the series help text.
const LATENCIES: [(&str, &str, &str); 4] = [
    (
        "simstore_job_wall_micros",
        "sched/job",
        "Per-job wall time in microseconds, attempts included.",
    ),
    (
        "workchar_stage_footprint_micros",
        "stage/footprint",
        "Per-pair latency of the ps-style memory-footprint sampling.",
    ),
    (
        "workchar_stage_prepare_micros",
        "stage/prepare",
        "Per-pair latency of trace-generator and hint construction.",
    ),
    (
        "workchar_stage_simulate_micros",
        "stage/simulate",
        "Per-pair latency of the engine run, warmup included.",
    ),
];

/// The final `metrics.json` snapshot of a run whose closed spans are
/// `spans`: every registered counter and gauge, plus one summary series
/// for each of `sched/job`, `stage/prepare`, `stage/simulate` and
/// `stage/footprint` that has at least one span.
pub fn run_snapshot(spans: &[SpanRecord]) -> Snapshot {
    let mut snapshot = simmetrics::snapshot();
    for (metric, span, help) in LATENCIES {
        if let Some(summary) = simtrace::analyze::span_summary(spans, span) {
            snapshot.push_summary(metric, help, summary);
        }
    }
    snapshot
}

/// Forces registration of every counter and gauge the pipeline can emit —
/// this crate's `workchar_*` handles plus the `simstore_*`, `uarch_*`, and
/// `workload_*` families owned by the substrate crates.
///
/// Call this before rendering a snapshot (or linting the registry with
/// `--metrics`) so the output is complete even when a run never exercised
/// a given path.
pub fn register_pipeline_metrics() {
    pairs_characterized();
    simstore::metrics::register();
    uarch_sim::metrics::register();
    workload_synth::metrics::register();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_registry_is_lint_clean() {
        register_pipeline_metrics();
        let report = simmetrics::lint::check_registry();
        assert!(
            !report.has_errors(),
            "pipeline metric registry has lint errors: {report:?}"
        );
    }

    #[test]
    fn run_snapshot_summarizes_each_latency_span() {
        let span = |id: u64, name: &str, wall_us: u64| SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: 0,
            name: name.to_string(),
            tid: 1,
            start_ns: 0,
            end_ns: wall_us * 1000,
            error: None,
            args: Vec::new(),
        };
        let spans = [
            span(1, "stage/simulate", 30),
            span(2, "stage/simulate", 10),
            span(3, "sched/job", 50),
            span(4, "stage/cache-probe", 1),
        ];
        let snapshot = run_snapshot(&spans);
        let report = simmetrics::lint::check_snapshot(&snapshot);
        assert!(!report.has_errors(), "{}", report.to_table());
        let summaries: Vec<(&str, u64)> = snapshot
            .series
            .iter()
            .filter_map(|s| match &s.value {
                simmetrics::SeriesValue::Summary(v) => Some((s.name.as_str(), v.count)),
                _ => None,
            })
            .collect();
        // No prepare/footprint spans, so no series for them.
        assert_eq!(
            summaries,
            [
                ("simstore_job_wall_micros", 1),
                ("workchar_stage_simulate_micros", 2)
            ]
        );
    }
}
