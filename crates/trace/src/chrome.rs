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
//! The parser also owns the format's invariants (see [`parse`]): a file
//! that breaks one fails with a typed [`ParseError`] naming the event.
//!
//! Number normalization on parse: a whole non-negative JSON number in
//! `args` becomes [`ArgValue::U64`], anything else [`ArgValue::F64`] —
//! so `U64` args round-trip as themselves and floats keep their value.

use crate::{ArgValue, SpanRecord};
use perfmon::json::{self, Value};
use std::collections::HashSet;
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

/// Why a Chrome Trace Event document failed to decode. Every variant but
/// [`ParseError::Document`] names the offending event by its index in the
/// event array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not JSON, or neither an event array nor an object holding one.
    Document(String),
    /// An event lacks a field [`render`] writes, carries it with the wrong
    /// type, or uses a phase or arg shape this crate never emits.
    Malformed {
        /// Index in the event array.
        event: usize,
        /// What was wrong.
        message: String,
    },
    /// A span name outside the scheme [`crate::is_legal_name`] accepts.
    IllegalName {
        /// Index in the event array.
        event: usize,
        /// The offending name.
        name: String,
    },
    /// A `parent_id` that no span in the file carries.
    OrphanParent {
        /// Index in the event array.
        event: usize,
        /// The absent parent.
        parent_id: u64,
    },
    /// A `span_id` an earlier event already carries.
    DuplicateSpanId {
        /// Index in the event array.
        event: usize,
        /// The repeated id.
        span_id: u64,
    },
    /// A negative `ts` or `dur`.
    NegativeTime {
        /// Index in the event array.
        event: usize,
        /// `"ts"` or `"dur"`.
        field: &'static str,
    },
    /// A start or end past `u64::MAX` nanoseconds.
    TimeOverflow {
        /// Index in the event array.
        event: usize,
    },
    /// A `tid` above `u32::MAX`.
    TidOutOfRange {
        /// Index in the event array.
        event: usize,
        /// The declared tid.
        tid: u64,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Document(message) => f.write_str(message),
            ParseError::Malformed { event, message } => write!(f, "event {event}: {message}"),
            ParseError::IllegalName { event, name } => write!(
                f,
                "event {event}: name {name:?} is not /-separated lowercase [a-z0-9_.-]+"
            ),
            ParseError::OrphanParent { event, parent_id } => write!(
                f,
                "event {event}: parent id {parent_id} is absent from the trace"
            ),
            ParseError::DuplicateSpanId { event, span_id } => {
                write!(f, "event {event}: span id {span_id} appears more than once")
            }
            ParseError::NegativeTime { event, field } => {
                write!(f, "event {event}: \"{field}\" is negative")
            }
            ParseError::TimeOverflow { event } => write!(
                f,
                "event {event}: the span's window runs past u64::MAX nanoseconds"
            ),
            ParseError::TidOutOfRange { event, tid } => {
                write!(f, "event {event}: tid {tid} exceeds u32::MAX")
            }
        }
    }
}

impl std::error::Error for ParseError {}

fn malformed(event: usize, message: String) -> ParseError {
    ParseError::Malformed { event, message }
}

fn req_u64(event: &Value, key: &str, index: usize) -> Result<u64, ParseError> {
    event
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed(index, format!("missing or non-integer \"{key}\"")))
}

/// The microsecond (three-decimal) field `key` back in nanoseconds.
fn req_ns(event: &Value, key: &'static str, index: usize) -> Result<u64, ParseError> {
    let us = event
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| malformed(index, format!("missing numeric \"{key}\"")))?;
    if us < 0.0 {
        return Err(ParseError::NegativeTime {
            event: index,
            field: key,
        });
    }
    let ns = (us * 1000.0).round();
    if ns >= u64::MAX as f64 {
        return Err(ParseError::TimeOverflow { event: index });
    }
    Ok(ns as u64)
}

fn parse_arg(value: &Value, index: usize, key: &str) -> Result<ArgValue, ParseError> {
    match value {
        Value::Bool(b) => Ok(ArgValue::Bool(*b)),
        Value::String(s) => Ok(ArgValue::Str(s.clone())),
        Value::Number(_) => Ok(match value.as_u64() {
            Some(u) => ArgValue::U64(u),
            None => ArgValue::F64(value.as_f64().expect("number")),
        }),
        _ => Err(malformed(
            index,
            format!("arg \"{key}\" is not a scalar (null/array/object unsupported)"),
        )),
    }
}

/// Parses a Chrome Trace Event document written by [`render`] back into
/// span records. Accepts both the object form and a bare event array;
/// `"M"` metadata events are skipped, any other phase is an error.
///
/// The decoder owns the format's invariants, so every span it returns
/// has a legal name, a unique id, a parent present in the file (or 0),
/// a `tid` that fits a `u32` and a window `start_ns <= end_ns` with no
/// negative or overflowing time.
///
/// # Errors
///
/// A [`ParseError`] naming the offending event when the document is not
/// JSON, lacks the identity fields [`render`] writes, contains
/// phases/arg shapes this crate never emits, or breaks an invariant above.
pub fn parse(input: &str) -> Result<Vec<SpanRecord>, ParseError> {
    let doc = json::parse(input).map_err(|e| ParseError::Document(e.to_string()))?;
    let events = match &doc {
        Value::Array(items) => items.as_slice(),
        Value::Object(_) => doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or_else(|| {
                ParseError::Document("document has no \"traceEvents\" array".to_string())
            })?,
        _ => {
            return Err(ParseError::Document(
                "document is neither an event array nor an object".to_string(),
            ))
        }
    };
    let mut spans = Vec::with_capacity(events.len());
    let mut at = Vec::with_capacity(events.len());
    let mut ids = HashSet::with_capacity(events.len());
    for (index, event) in events.iter().enumerate() {
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(index, "missing \"ph\"".to_string()))?;
        match ph {
            "M" => continue,
            "X" => {}
            other => return Err(malformed(index, format!("unsupported phase \"{other}\""))),
        }
        let trace_id = req_u64(event, "trace_id", index)?;
        let span_id = req_u64(event, "span_id", index)?;
        if !ids.insert(span_id) {
            return Err(ParseError::DuplicateSpanId {
                event: index,
                span_id,
            });
        }
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed(index, "missing \"name\"".to_string()))?;
        if !crate::is_legal_name(name) {
            return Err(ParseError::IllegalName {
                event: index,
                name: name.to_string(),
            });
        }
        let start_ns = req_ns(event, "ts", index)?;
        let end_ns = start_ns
            .checked_add(req_ns(event, "dur", index)?)
            .ok_or(ParseError::TimeOverflow { event: index })?;
        let tid = req_u64(event, "tid", index)?;
        let tid =
            u32::try_from(tid).map_err(|_| ParseError::TidOutOfRange { event: index, tid })?;
        let mut args = Vec::new();
        if let Some(members) = event.get("args").and_then(Value::as_object) {
            for (key, value) in members {
                args.push((key.clone(), parse_arg(value, index, key)?));
            }
        }
        spans.push(SpanRecord {
            trace_id,
            span_id,
            parent_id: req_u64(event, "parent_id", index)?,
            name: name.to_string(),
            tid,
            start_ns,
            end_ns,
            error: event.get("error").and_then(Value::as_str).map(String::from),
            args,
        });
        at.push(index);
    }
    if let Some((s, &event)) = spans
        .iter()
        .zip(&at)
        .find(|(s, _)| s.parent_id != 0 && !ids.contains(&s.parent_id))
    {
        return Err(ParseError::OrphanParent {
            event,
            parent_id: s.parent_id,
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
    fn clean_span_tree_decodes() {
        let span = |id: u64, parent: u64, name: &str| SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            tid: 1,
            start_ns: 10 * id,
            end_ns: 10 * id + 5,
            error: None,
            args: vec![("pair".to_string(), ArgValue::Str("505.mcf_r".to_string()))],
        };
        let spans = vec![
            span(1, 0, "run/reproduce"),
            span(2, 1, "sched/batch"),
            span(3, 2, "sched/job"),
            span(4, 3, "stage/simulate"),
            span(5, 3, "engine/run"),
        ];
        assert_eq!(parse(&render(&spans)), Ok(spans));
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
        let err = parse(generic).unwrap_err().to_string();
        assert!(err.contains("trace_id"), "{err}");
        // Phases this crate never writes.
        let begin = r#"[{"ph":"B","pid":1,"tid":1,"name":"a","ts":0}]"#;
        assert!(parse(begin)
            .unwrap_err()
            .to_string()
            .contains("unsupported phase"));
    }

    /// One `"X"` event per `(span_id, parent_id, name, ts, dur, tid)`,
    /// in a bare array.
    fn doc(events: &[(u64, u64, &str, &str, &str, &str)]) -> String {
        let events: Vec<String> = events
            .iter()
            .map(|(id, parent, name, ts, dur, tid)| {
                format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{name}\",\
                     \"ts\":{ts},\"dur\":{dur},\"trace_id\":1,\"span_id\":{id},\
                     \"parent_id\":{parent},\"args\":{{}}}}"
                )
            })
            .collect();
        format!("[{}]", events.join(","))
    }

    #[test]
    fn illegal_names_are_typed_errors() {
        for bad in ["", "Stage/Simulate", "stage simulate", "stage//x", "é"] {
            let err = parse(&doc(&[(1, 0, bad, "0", "1", "1")])).unwrap_err();
            assert_eq!(
                err,
                ParseError::IllegalName {
                    event: 0,
                    name: bad.to_string()
                },
                "{bad:?}"
            );
        }
        assert!(crate::is_legal_name("sched/job"));
        assert!(crate::is_legal_name("run/reproduce-2.quick_x"));
    }

    #[test]
    fn orphan_parents_are_typed_errors() {
        let err = parse(&doc(&[
            (1, 0, "run/root", "0", "9", "1"),
            (2, 99, "sched/job", "1", "2", "1"),
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            ParseError::OrphanParent {
                event: 1,
                parent_id: 99
            }
        );
        // A parent later in the file resolves.
        let spans = parse(&doc(&[
            (2, 1, "sched/job", "1", "2", "1"),
            (1, 0, "run/root", "0", "9", "1"),
        ]))
        .expect("forward parent");
        assert_eq!(spans.len(), 2);
    }

    #[test]
    fn duplicate_span_ids_are_typed_errors() {
        let err = parse(&doc(&[
            (7, 0, "run/a", "0", "1", "1"),
            (7, 0, "run/b", "0", "1", "1"),
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            ParseError::DuplicateSpanId {
                event: 1,
                span_id: 7
            }
        );
    }

    #[test]
    fn bad_windows_are_typed_errors_not_clamps_or_panics() {
        // A reversed window can only be written as a negative duration.
        let neg_dur = parse(&doc(&[(1, 0, "run/root", "100", "-50", "1")]));
        assert_eq!(
            neg_dur.unwrap_err(),
            ParseError::NegativeTime {
                event: 0,
                field: "dur"
            }
        );
    }
}
