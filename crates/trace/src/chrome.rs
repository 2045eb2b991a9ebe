//! Chrome Trace Event JSON: the interchange format Perfetto and
//! `about://tracing` load directly.
//!
//! [`render`] emits the object form (`{"traceEvents": [...]}`) with one
//! `"X"` complete event per span — `ts`/`dur` in microseconds with three
//! decimals, so nanosecond timestamps below ~2^51 survive the f64 round
//! trip exactly — plus `"M"` metadata events naming the process and
//! worker threads. Span identity (`trace_id`/`span_id`/`parent_id`) and
//! error status ride as extra top-level event fields, which trace viewers
//! ignore but [`parse`] requires: the parser is strict about files this
//! crate wrote, not a general Trace Event reader.
//!
//! Number normalization on parse: a whole non-negative JSON number in
//! `args` becomes [`ArgValue::U64`], anything else [`ArgValue::F64`] —
//! so `U64` args round-trip as themselves and floats keep their value.

use crate::{ArgValue, SpanRecord};
use perfmon::json::{self, Value};
use std::fmt::Write as _;

/// Nanoseconds → microseconds with three decimals, exact for ns < ~2^51.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Appends `value` as a JSON scalar. Non-finite floats become strings,
/// since JSON has no NaN or Inf.
pub fn render_arg(out: &mut String, value: &ArgValue) {
    match value {
        ArgValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        ArgValue::F64(v) => {
            if v.is_finite() {
                let _ = write!(out, "{v}");
            } else {
                let _ = write!(out, "\"{v}\"");
            }
        }
        ArgValue::Str(s) => {
            let _ = write!(out, "\"{}\"", json::escape(s));
        }
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
    }
}

/// Renders `spans` as a Chrome Trace Event JSON document.
pub fn render(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(256 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"workchar\"}}",
    );
    let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"worker-{tid}\"}}}}"
        );
    }
    for s in spans {
        let _ = write!(
            out,
            ",\n{{\"ph\":\"X\",\"cat\":\"simtrace\",\"pid\":1,\"tid\":{},\
             \"name\":\"{}\",\"ts\":{},\"dur\":{},\
             \"trace_id\":{},\"span_id\":{},\"parent_id\":{}",
            s.tid,
            json::escape(&s.name),
            us(s.start_ns),
            us(s.wall_ns()),
            s.trace_id,
            s.span_id,
            s.parent_id,
        );
        if let Some(err) = &s.error {
            let _ = write!(out, ",\"error\":\"{}\"", json::escape(err));
        }
        out.push_str(",\"args\":{");
        for (i, (key, value)) in s.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":", json::escape(key));
            render_arg(&mut out, value);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

fn req_u64(event: &Value, key: &str, index: usize) -> Result<u64, String> {
    event
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("event {index}: missing or non-integer \"{key}\""))
}

/// Microsecond f64 (three-decimal) back to nanoseconds.
fn from_us(v: f64) -> u64 {
    (v * 1000.0).round().max(0.0) as u64
}

fn parse_arg(value: &Value, index: usize, key: &str) -> Result<ArgValue, String> {
    match value {
        Value::Bool(b) => Ok(ArgValue::Bool(*b)),
        Value::String(s) => Ok(ArgValue::Str(s.clone())),
        Value::Number(_) => Ok(match value.as_u64() {
            Some(u) => ArgValue::U64(u),
            None => ArgValue::F64(value.as_f64().expect("number")),
        }),
        _ => Err(format!(
            "event {index}: arg \"{key}\" is not a scalar (null/array/object unsupported)"
        )),
    }
}

/// Parses a Chrome Trace Event document written by [`render`] back into
/// span records. Accepts both the object form and a bare event array;
/// `"M"` metadata events are skipped, any other phase is an error.
///
/// # Errors
///
/// A human-readable message naming the offending event when the document
/// is not JSON, lacks the identity fields [`render`] writes, or contains
/// phases/arg shapes this crate never emits.
pub fn parse(input: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let events = match &doc {
        Value::Array(items) => items.as_slice(),
        Value::Object(_) => doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or("document has no \"traceEvents\" array")?,
        _ => return Err("document is neither an event array nor an object".to_string()),
    };
    let mut spans = Vec::with_capacity(events.len());
    for (index, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing \"ph\""))?;
        match ph {
            "M" => continue,
            "X" => {}
            other => return Err(format!("event {index}: unsupported phase \"{other}\"")),
        }
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {index}: missing \"name\""))?
            .to_string();
        let ts = event
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {index}: missing numeric \"ts\""))?;
        let dur = event
            .get("dur")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {index}: missing numeric \"dur\""))?;
        let start_ns = from_us(ts);
        let mut args = Vec::new();
        if let Some(members) = event.get("args").and_then(Value::as_object) {
            for (key, value) in members {
                args.push((key.clone(), parse_arg(value, index, key)?));
            }
        }
        spans.push(SpanRecord {
            trace_id: req_u64(event, "trace_id", index)?,
            span_id: req_u64(event, "span_id", index)?,
            parent_id: req_u64(event, "parent_id", index)?,
            name,
            tid: req_u64(event, "tid", index)? as u32,
            start_ns,
            end_ns: start_ns + from_us(dur),
            error: event.get("error").and_then(Value::as_str).map(String::from),
            args,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                trace_id: 7,
                span_id: 1,
                parent_id: 0,
                name: "run/reproduce".to_string(),
                tid: 1,
                start_ns: 1_000,
                end_ns: 9_123_456_789,
                error: None,
                args: vec![("pairs".to_string(), ArgValue::U64(4))],
            },
            SpanRecord {
                trace_id: 7,
                span_id: 2,
                parent_id: 1,
                name: "sched/job".to_string(),
                tid: 2,
                start_ns: 2_001,
                end_ns: 5_500_333,
                error: Some("panic: \"boom\"\nline2".to_string()),
                args: vec![
                    ("pair".to_string(), ArgValue::Str("505.mcf_r".to_string())),
                    ("ipc".to_string(), ArgValue::F64(1.25)),
                    ("hit".to_string(), ArgValue::Bool(true)),
                ],
            },
        ]
    }

    #[test]
    fn render_parse_round_trips_exactly() {
        let spans = sample();
        let doc = render(&spans);
        let back = parse(&doc).expect("parse");
        assert_eq!(back, spans);
    }

    #[test]
    fn ns_precision_survives_the_microsecond_encoding() {
        // Odd nanosecond values exercise the 3-decimal ts/dur encoding.
        for ns in [0u64, 1, 999, 1_001, 123_456_789_123, (1 << 50) + 7] {
            let spans = vec![SpanRecord {
                trace_id: 1,
                span_id: 1,
                parent_id: 0,
                name: "t".to_string(),
                tid: 1,
                start_ns: ns,
                end_ns: ns + 1,
                error: None,
                args: vec![],
            }];
            let back = parse(&render(&spans)).expect("parse");
            assert_eq!(back[0].start_ns, ns, "start {ns}");
            assert_eq!(back[0].end_ns, ns + 1, "end {ns}");
        }
    }

    #[test]
    fn parse_accepts_bare_arrays_and_skips_metadata() {
        let doc = r#"[
            {"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"x"}},
            {"ph":"X","pid":1,"tid":3,"name":"a","ts":1.5,"dur":2.25,
             "trace_id":1,"span_id":9,"parent_id":0,"args":{}}
        ]"#;
        let spans = parse(doc).expect("parse");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].span_id, 9);
        assert_eq!(spans[0].start_ns, 1_500);
        assert_eq!(spans[0].end_ns, 3_750);
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(parse("42").is_err());
        assert!(parse(r#"{"traceEvents": 3}"#).is_err());
        // Missing identity fields: a generic Chrome trace, not ours.
        let generic = r#"[{"ph":"X","pid":1,"tid":1,"name":"a","ts":0,"dur":1}]"#;
        let err = parse(generic).unwrap_err();
        assert!(err.contains("trace_id"), "{err}");
        // Phases this crate never writes.
        let begin = r#"[{"ph":"B","pid":1,"tid":1,"name":"a","ts":0}]"#;
        assert!(parse(begin).unwrap_err().contains("unsupported phase"));
    }
}
