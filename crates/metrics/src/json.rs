//! JSON snapshot rendering for `results/metrics.json`, the metrics
//! registry's one sink. The binaries write it once, when a run ends.
//!
//! Schema 2, one document per snapshot:
//!
//! ```json
//! {"schema":2,"metrics":[
//!   {"name":"...","kind":"counter","labels":{...},"value":3},
//!   {"name":"...","kind":"summary","count":2,"sum":47,
//!    "min":7,"max":40,"p50":7,"p90":40,"p99":40}
//! ]}
//! ```
//!
//! Summary values are whole µs (see [`crate::SpanSummary`]).
//!
//! Strings are escaped with the workspace JSON codec, `perfmon::json`.

use std::fmt::Write as _;

pub(crate) use perfmon::json::escape;

use crate::{SeriesValue, Snapshot};

/// Renders a snapshot as a schema-2 JSON document (one line, trailing
/// newline).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\"schema\":2,\"metrics\":[");
    for (i, series) in snapshot.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kind\":\"{}\"",
            escape(&series.name),
            series.kind.as_str()
        );
        if !series.labels.is_empty() {
            out.push_str(",\"labels\":{");
            for (j, (k, v)) in series.labels.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
            }
            out.push('}');
        }
        match &series.value {
            SeriesValue::Counter(v) => {
                let _ = write!(out, ",\"value\":{v}");
            }
            SeriesValue::Gauge(v) => {
                let _ = write!(out, ",\"value\":{v}");
            }
            SeriesValue::Summary(s) => {
                let _ = write!(
                    out,
                    ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                     \"p50\":{},\"p90\":{},\"p99\":{}",
                    s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
                );
            }
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{test_support, Registry, SpanSummary};

    #[test]
    fn snapshot_json_carries_values_and_quantiles() {
        let _on = test_support::enabled();
        let r = Registry::new();
        r.counter("t_json_total", "x").add(3);
        r.gauge("t_json_depth", "x").set(-4);
        let mut snapshot = r.snapshot();
        let summary = SpanSummary {
            count: 2,
            sum: 47,
            min: 7,
            max: 40,
            p50: 7,
            p90: 40,
            p99: 40,
        };
        snapshot.push_summary("t_json_micros", "x", summary);
        let text = render(&snapshot);
        assert!(text.starts_with("{\"schema\":2,\"metrics\":["));
        assert!(text.contains("\"name\":\"t_json_total\",\"kind\":\"counter\",\"value\":3"));
        assert!(text.contains("\"name\":\"t_json_depth\",\"kind\":\"gauge\",\"value\":-4"));
        assert!(
            text.contains(
                "{\"name\":\"t_json_micros\",\"kind\":\"summary\",\"count\":2,\"sum\":47,\
                 \"min\":7,\"max\":40,\"p50\":7,\"p90\":40,\"p99\":40}"
            ),
            "{text}"
        );
        // Summaries sort in among the registered series by name.
        let names: Vec<&str> = snapshot.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["t_json_depth", "t_json_micros", "t_json_total"]);
    }

    #[test]
    fn labels_and_strings_are_escaped() {
        let r = Registry::new();
        r.counter_with("t_json_esc_total", "x", &[("k", "a\"b\\c\nd")]);
        let text = render(&r.snapshot());
        assert!(
            text.contains("\"labels\":{\"k\":\"a\\\"b\\\\c\\nd\"}"),
            "{text}"
        );
    }
}
