//! JSON snapshot rendering for `results/metrics.json`, the metrics
//! registry's one sink. The binaries write it once, when a run ends.
//!
//! Schema 1, one document per snapshot:
//!
//! ```json
//! {"schema":1,"metrics":[
//!   {"name":"...","kind":"counter","labels":{...},"value":3},
//!   {"name":"...","kind":"histogram","count":2,"sum":47,
//!    "min":7,"max":40,"p50":7,"p90":41,"p99":41}
//! ]}
//! ```
//!
//! Strings are escaped with the workspace JSON codec, `perfmon::json`.

use std::fmt::Write as _;

pub(crate) use perfmon::json::escape;

use crate::{SeriesValue, Snapshot};

/// Renders a snapshot as a schema-1 JSON document (one line, trailing
/// newline).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\"schema\":1,\"metrics\":[");
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
            SeriesValue::Histogram(h) => {
                let _ = write!(out, ",\"count\":{},\"sum\":{}", h.count, h.sum);
                for (key, v) in [
                    ("min", h.min),
                    ("max", h.max),
                    ("p50", h.p50),
                    ("p90", h.p90),
                    ("p99", h.p99),
                ] {
                    if let Some(v) = v {
                        let _ = write!(out, ",\"{key}\":{v}");
                    }
                }
                if !h.exemplars.is_empty() {
                    out.push_str(",\"exemplars\":[");
                    let mut first = true;
                    for (upper, slot) in &h.exemplars {
                        for e in slot {
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            // Ids render as fixed-width hex strings: JSON
                            // numbers are f64 and cannot carry a u64
                            // exactly.
                            let _ = write!(
                                out,
                                "{{\"le\":{upper},\"value\":{},\
                                 \"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\"}}",
                                e.value, e.trace_id, e.span_id
                            );
                        }
                    }
                    out.push(']');
                }
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
    use crate::{test_support, Registry};

    #[test]
    fn snapshot_json_carries_values_and_quantiles() {
        let _on = test_support::enabled();
        let r = Registry::new();
        r.counter("t_json_total", "x").add(3);
        r.gauge("t_json_depth", "x").set(-4);
        let h = r.histogram("t_json_micros", "x");
        h.record(7);
        h.record(40);
        let text = render(&r.snapshot());
        assert!(text.starts_with("{\"schema\":1,\"metrics\":["));
        assert!(text.contains("\"name\":\"t_json_total\",\"kind\":\"counter\",\"value\":3"));
        assert!(text.contains("\"name\":\"t_json_depth\",\"kind\":\"gauge\",\"value\":-4"));
        assert!(text.contains("\"count\":2,\"sum\":47,\"min\":7,\"max\":40,\"p50\":7"));
    }

    #[test]
    fn histogram_exemplars_serialize_with_hex_span_ids() {
        let _on = test_support::enabled();
        let r = Registry::new();
        let h = r.histogram("t_json_exemplar_micros", "x");
        h.record_spanned(7, 0x1122_3344_5566_7788, 0x99AA);
        h.record(7); // unspanned sibling observation adds no exemplar
        let text = render(&r.snapshot());
        assert!(
            text.contains(
                "\"exemplars\":[{\"le\":7,\"value\":7,\
                 \"trace_id\":\"1122334455667788\",\"span_id\":\"00000000000099aa\"}]"
            ),
            "{text}"
        );
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
