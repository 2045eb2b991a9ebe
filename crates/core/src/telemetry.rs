//! The run's `metrics.json`, computed from its closed spans when it ends.
//!
//! Every fact the document reports is already a span of the run's tree:
//! engine runs are `engine/run` spans with an `ops` arg, scheduler jobs
//! are `sched/job` spans, a generator reports what it produced on a
//! `gen/done` span, and the stages that own a cache context carry its
//! hit, miss and byte totals as args. [`SERIES`] says which spans feed
//! each series, [`run_snapshot`] folds a run's spans into values, and
//! [`render`] writes them as the schema-2 document.
//!
//! [`crate::characterize::characterize_pair`] splits into three stages —
//! preparing the trace and hints, running the engine, and sampling the
//! footprint model — each a `stage/*` span under the pair's `sched/job`
//! span, so the latency summaries show where pair wall time goes.

use std::fmt::Write as _;

use simtrace::analyze::{span_summary, SpanSummary};
use simtrace::{ArgValue, SpanRecord};

/// Which spans feed a series, and how.
#[derive(Debug, Clone, Copy)]
pub enum Rule {
    /// How many spans have this name.
    Count(&'static str),
    /// How many spans with this name (`.0`) carry the arg `.1`.
    Carrying(&'static str, &'static str),
    /// How many spans with this name (`.0`) ended in error (`.1` true) or
    /// without one (`.1` false).
    Outcome(&'static str, bool),
    /// The sum of the integer arg `.1` over the spans named `.0`, or over
    /// every span when `.0` is `None`.
    Sum(Option<&'static str>, &'static str),
    /// The wall-time summary of the spans with this name, in whole µs.
    Latency(&'static str),
}

/// One series of `metrics.json`.
#[derive(Debug)]
pub struct Series {
    /// Series name, e.g. `simstore_cache_hits_total`.
    pub name: &'static str,
    /// What the series counts.
    pub help: &'static str,
    /// The spans it is computed from.
    pub rule: Rule,
}

impl Series {
    /// `"summary"` for a latency, `"counter"` for everything else.
    pub fn kind(&self) -> &'static str {
        match self.rule {
            Rule::Latency(_) => "summary",
            _ => "counter",
        }
    }
}

/// Every series `metrics.json` can hold, in name order.
pub const SERIES: [Series; 17] = [
    Series {
        name: "simstore_cache_hits_total",
        help: "Cache lookups served from the store.",
        rule: Rule::Sum(None, "cache_hits"),
    },
    Series {
        name: "simstore_cache_misses_total",
        help: "Cache lookups that fell through to recomputation.",
        rule: Rule::Sum(None, "cache_misses"),
    },
    Series {
        name: "simstore_cache_read_bytes_total",
        help: "Payload bytes read from the store on hits.",
        rule: Rule::Sum(None, "cache_bytes_read"),
    },
    Series {
        name: "simstore_cache_written_bytes_total",
        help: "Payload bytes written to the store.",
        rule: Rule::Sum(None, "cache_bytes_written"),
    },
    Series {
        name: "simstore_job_panics_total",
        help: "Panics caught by the scheduler (both attempts counted).",
        rule: Rule::Outcome("sched/attempt", true),
    },
    Series {
        name: "simstore_job_retries_total",
        help: "Scheduler jobs retried after a first-attempt panic.",
        rule: Rule::Carrying("sched/job", "retried"),
    },
    Series {
        name: "simstore_job_wall_micros",
        help: "Per-job wall time in microseconds, attempts included.",
        rule: Rule::Latency("sched/job"),
    },
    Series {
        name: "simstore_jobs_total",
        help: "Scheduler jobs settled (success or failure).",
        rule: Rule::Count("sched/job"),
    },
    Series {
        name: "uarch_engine_runs_total",
        help: "Completed engine runs (one per characterized pair or ablation leg).",
        rule: Rule::Count("engine/run"),
    },
    Series {
        name: "uarch_ops_retired_total",
        help: "Micro-ops executed by the engine, warmup included.",
        rule: Rule::Sum(Some("engine/run"), "ops"),
    },
    Series {
        name: "uarch_ops_warmed_total",
        help: "Micro-ops run through functional warming (state updates without \
               counter accounting), e.g. the lead-in intervals of a Skip-mode \
               simpoint replay.",
        rule: Rule::Sum(Some("engine/warm"), "ops"),
    },
    Series {
        name: "workchar_pairs_characterized_total",
        help: "Application-input pairs simulated in this run, cache hits excluded.",
        rule: Rule::Outcome("stage/footprint", false),
    },
    Series {
        name: "workchar_stage_footprint_micros",
        help: "Per-pair latency of the ps-style memory-footprint sampling.",
        rule: Rule::Latency("stage/footprint"),
    },
    Series {
        name: "workchar_stage_prepare_micros",
        help: "Per-pair latency of trace-generator and hint construction.",
        rule: Rule::Latency("stage/prepare"),
    },
    Series {
        name: "workchar_stage_simulate_micros",
        help: "Per-pair latency of the engine run, warmup included.",
        rule: Rule::Latency("stage/simulate"),
    },
    Series {
        name: "workload_uops_fastforwarded_total",
        help: "Micro-ops skipped by generator fast-forward.",
        rule: Rule::Sum(Some("gen/done"), "skipped"),
    },
    Series {
        name: "workload_uops_generated_total",
        help: "Micro-ops produced by trace generators, clones included.",
        rule: Rule::Sum(Some("gen/done"), "ops"),
    },
];

/// One series' value at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A count.
    Counter(u64),
    /// A latency summary.
    Summary(SpanSummary),
}

/// The series values of a run whose closed spans are `spans`, in
/// [`SERIES`] order. Every counter is present, reading 0 when no span
/// feeds it; a latency summary is present only when it has a span.
pub fn run_snapshot(spans: &[SpanRecord]) -> Vec<(&'static str, Value)> {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    SERIES
        .iter()
        .filter_map(|series| {
            let count = |n: usize| Some(Value::Counter(n as u64));
            let value = match series.rule {
                Rule::Count(span) => count(named(span).count()),
                Rule::Carrying(span, arg) => {
                    count(named(span).filter(|s| s.arg(arg).is_some()).count())
                }
                Rule::Outcome(span, failed) => {
                    count(named(span).filter(|s| s.error.is_some() == failed).count())
                }
                Rule::Sum(span, arg) => {
                    let sum = spans
                        .iter()
                        .filter(|s| span.is_none_or(|name| s.name == name))
                        .filter_map(|s| match s.arg(arg) {
                            Some(ArgValue::U64(v)) => Some(*v),
                            _ => None,
                        })
                        .sum();
                    Some(Value::Counter(sum))
                }
                Rule::Latency(span) => span_summary(spans, span).map(Value::Summary),
            };
            value.map(|v| (series.name, v))
        })
        .collect()
}

/// Renders series values as the schema-2 `metrics.json` document (one
/// line, trailing newline):
///
/// ```json
/// {"schema":2,"metrics":[
///   {"name":"...","kind":"counter","value":3},
///   {"name":"...","kind":"summary","count":2,"sum":47,
///    "min":7,"max":40,"p50":7,"p90":40,"p99":40}
/// ]}
/// ```
///
/// Summary values are whole µs. Names are written as given: the
/// [`SERIES`] names need no escaping.
pub fn render(values: &[(&str, Value)]) -> String {
    let mut out = String::from("{\"schema\":2,\"metrics\":[");
    for (i, (name, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = match value {
            Value::Counter(v) => write!(
                out,
                "{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":{v}}}"
            ),
            Value::Summary(s) => write!(
                out,
                "{{\"name\":\"{name}\",\"kind\":\"summary\",\"count\":{},\"sum\":{},\"min\":{},\
                 \"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
            ),
        };
    }
    out.push_str("]}\n");
    out
}

/// Does nothing: `metrics.json` needs no registration. It exists only for
/// the call in simbench's set-up, and goes with the benchmark change that
/// drops that call.
pub fn register_pipeline_metrics() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, wall_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: 0,
            name: name.to_string(),
            tid: 1,
            start_ns: 0,
            end_ns: wall_us * 1000,
            error: None,
            args: Vec::new(),
        }
    }

    fn with(mut s: SpanRecord, key: &str, value: impl Into<ArgValue>) -> SpanRecord {
        s.args.push((key.to_string(), value.into()));
        s
    }

    fn failed(mut s: SpanRecord) -> SpanRecord {
        s.error = Some("boom".to_string());
        s
    }

    fn counter(values: &[(&str, Value)], name: &str) -> u64 {
        match values.iter().find(|(n, _)| *n == name) {
            Some((_, Value::Counter(v))) => *v,
            other => panic!("{name}: {other:?}"),
        }
    }

    #[test]
    fn series_table_is_sorted_unique_and_suffixed() {
        let names: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
        assert!(
            names.windows(2).all(|w| w[0] < w[1]),
            "names must be sorted and unique: {names:?}"
        );
        for s in &SERIES {
            assert!(
                s.name.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'),
                "{}",
                s.name
            );
            assert_eq!(
                s.name.ends_with("_total"),
                s.kind() == "counter",
                "counters, and only counters, end in _total: {}",
                s.name
            );
            assert!(!s.help.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn no_spans_give_every_counter_at_zero_and_no_summary() {
        let values = run_snapshot(&[]);
        let counters = SERIES.iter().filter(|s| s.kind() == "counter").count();
        assert_eq!(values.len(), counters);
        assert!(values.iter().all(|(_, v)| *v == Value::Counter(0)));
        // Each of the pipeline's five families is in the document.
        let json = render(&values);
        assert!(json.starts_with("{\"schema\":2,\"metrics\":["), "{json}");
        for name in [
            "simstore_cache_hits_total",
            "simstore_jobs_total",
            "uarch_ops_retired_total",
            "workload_uops_generated_total",
            "workchar_pairs_characterized_total",
        ] {
            assert!(
                json.contains(&format!(
                    "{{\"name\":\"{name}\",\"kind\":\"counter\",\"value\":0}}"
                )),
                "missing {name} in:\n{json}"
            );
        }
    }

    #[test]
    fn every_counter_rule_reads_its_spans() {
        let spans = [
            // A job retried after a panic, and one that failed twice.
            with(span(1, "sched/job", 9), "retried", true),
            failed(span(2, "sched/attempt", 1)),
            span(3, "sched/attempt", 1),
            failed(with(span(4, "sched/job", 9), "retried", true)),
            failed(span(5, "sched/attempt", 1)),
            failed(span(6, "sched/attempt", 1)),
            span(7, "sched/job", 9),
            // Two cache contexts, each reported by its own stage.
            with(
                with(span(8, "collect-dataset", 1), "cache_hits", 3u64),
                "cache_bytes_read",
                300u64,
            ),
            with(
                with(span(9, "ablations", 1), "cache_misses", 2u64),
                "cache_bytes_written",
                70u64,
            ),
            with(span(10, "ablations", 1), "cache_hits", 1u64),
            with(span(11, "engine/run", 5), "ops", 1_000u64),
            with(span(12, "engine/run", 5), "ops", 500u64),
            with(span(13, "engine/warm", 5), "ops", 40u64),
            with(
                with(span(14, "gen/done", 0), "ops", 1_506u64),
                "skipped",
                0u64,
            ),
            with(with(span(15, "gen/done", 0), "ops", 0u64), "skipped", 77u64),
            span(16, "stage/footprint", 1),
            failed(span(17, "stage/footprint", 1)),
            // Args on a span another rule does not select are not summed.
            with(span(18, "stage/simulate", 5), "ops", 9u64),
        ];
        let values = run_snapshot(&spans);
        for (name, want) in [
            ("simstore_cache_hits_total", 4),
            ("simstore_cache_misses_total", 2),
            ("simstore_cache_read_bytes_total", 300),
            ("simstore_cache_written_bytes_total", 70),
            ("simstore_job_panics_total", 3),
            ("simstore_job_retries_total", 2),
            ("simstore_jobs_total", 3),
            ("uarch_engine_runs_total", 2),
            ("uarch_ops_retired_total", 1_500),
            ("uarch_ops_warmed_total", 40),
            ("workchar_pairs_characterized_total", 1),
            ("workload_uops_fastforwarded_total", 77),
            ("workload_uops_generated_total", 1_506),
        ] {
            assert_eq!(counter(&values, name), want, "{name}");
        }
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = SERIES.iter().map(|s| s.name).collect();
        assert!(names.iter().all(|n| table.contains(n)));
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    }

    #[test]
    fn run_snapshot_summarizes_each_latency_span() {
        let spans = [
            span(1, "stage/simulate", 30),
            span(2, "stage/simulate", 10),
            span(3, "sched/job", 50),
            span(4, "stage/cache-probe", 1),
        ];
        let summaries: Vec<(&str, u64)> = run_snapshot(&spans)
            .into_iter()
            .filter_map(|(name, v)| match v {
                Value::Summary(s) => Some((name, s.count)),
                Value::Counter(_) => None,
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

    #[test]
    fn snapshot_json_carries_values_and_quantiles() {
        let summary = SpanSummary {
            count: 2,
            sum: 47,
            min: 7,
            max: 40,
            p50: 7,
            p90: 40,
            p99: 40,
        };
        let text = render(&[
            ("t_json_total", Value::Counter(3)),
            ("t_json_micros", Value::Summary(summary)),
        ]);
        assert_eq!(
            text,
            "{\"schema\":2,\"metrics\":[\
             {\"name\":\"t_json_total\",\"kind\":\"counter\",\"value\":3},\
             {\"name\":\"t_json_micros\",\"kind\":\"summary\",\"count\":2,\"sum\":47,\
             \"min\":7,\"max\":40,\"p50\":7,\"p90\":40,\"p99\":40}]}\n"
        );
    }
}
