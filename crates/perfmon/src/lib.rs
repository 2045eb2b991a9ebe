//! The JSONL run-event schema, its validator, and the workspace's JSON
//! codec.
//!
//! The `reproduce` and `extensions` binaries record every pipeline stage
//! as a `simtrace` span. At the end of a run, each top-level stage (a
//! direct child of the run root) becomes one line of this schema in the
//! `--events` file. This crate owns what the writer and the readers
//! share:
//!
//! - [`json`] — a value tree, a string escaper, and a strict parser. It is
//!   the one JSON codec of the workspace: simtrace, simmetrics, simdash
//!   and the bench harness use it too.
//! - [`SCHEMA`] and [`check_events`] — the versioned schema and its coded
//!   audit (rules E001–E012). The `events-validate` binary and
//!   `lint --events` both run it.
//! - [`mem_high_water_bytes`] — the process peak RSS a stage records when
//!   it closes.
//!
//! # Event schema (version [`SCHEMA`])
//!
//! Every line is one JSON object:
//!
//! ```json
//! {"schema":1,"kind":"span","name":"collect-dataset","wall_ms":12.345,
//!  "mem_hwm_bytes":104857600,"fields":{"records_cpu17":194,"sim_ops":8800000}}
//! ```
//!
//! - `schema` (required, number): the schema version, currently `1`.
//! - `kind` (required): `"span"` (timed stage) or `"event"` (instant).
//! - `name` (required, string): stage name, `/`-separated hierarchy.
//! - `wall_ms` (spans only, number ≥ 0): stage wall-clock duration.
//! - `mem_hwm_bytes` (optional, number): process peak RSS at finish.
//! - `fields` (optional, object): stage-specific scalars/strings.

pub mod json;

/// Version of the JSONL event schema the binaries emit and this crate
/// validates.
pub const SCHEMA: u32 = 1;

/// The process's peak resident set size in bytes, if the platform exposes
/// it (`VmHWM` in `/proc/self/status` on Linux).
pub fn mem_high_water_bytes() -> Option<u64> {
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

/// Counts of the records in a validated events file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventsSummary {
    /// `kind == "span"` records.
    pub spans: usize,
    /// `kind == "event"` records.
    pub events: usize,
}

impl EventsSummary {
    /// Total records of any kind.
    pub fn total(&self) -> usize {
        self.spans + self.events
    }
}

/// Validates JSONL event text with coded diagnostics (rules E001–E012),
/// collecting *every* violation instead of stopping at the first.
///
/// `object` names the stream in spans (usually the file path); each
/// diagnostic's span is `"{object}:{line}"` plus the offending member.
/// Blank lines are skipped. An empty stream (E010) and a truncated final
/// line (E011) are errors: an events file CI never wrote should fail its
/// gate, not vacuously pass it.
pub fn check_events(object: &str, input: &str) -> (EventsSummary, simcheck::Report) {
    use simcheck::{codes, Diagnostic, Report, Span};
    let mut summary = EventsSummary::default();
    let mut report = Report::new();
    let mut non_blank = 0usize;
    let mut last_lineno = 0usize;
    for (idx, line) in input.lines().enumerate() {
        let lineno = idx + 1;
        last_lineno = lineno;
        if line.trim().is_empty() {
            continue;
        }
        non_blank += 1;
        let at = format!("{object}:{lineno}");
        let before = report.len();
        let value = match json::parse(line) {
            Ok(value) => value,
            Err(e) => {
                report.push(Diagnostic::new(
                    &codes::E001,
                    Span::object(at),
                    e.to_string(),
                ));
                continue;
            }
        };
        if value.as_object().is_none() {
            report.push(Diagnostic::new(
                &codes::E002,
                Span::object(at),
                "record is not a JSON object",
            ));
            continue;
        }
        match value.get("schema").map(json::Value::as_u64) {
            None | Some(None) => {
                report.push(Diagnostic::new(
                    &codes::E003,
                    Span::field(&at, "schema"),
                    "missing numeric \"schema\"",
                ));
            }
            Some(Some(schema)) if schema > SCHEMA as u64 => {
                report.push(Diagnostic::new(
                    &codes::E012,
                    Span::field(&at, "schema"),
                    format!(
                        "schema version {schema} is newer than supported {SCHEMA}; \
                         upgrade the reader"
                    ),
                ));
            }
            Some(Some(schema)) if schema != SCHEMA as u64 => {
                report.push(Diagnostic::new(
                    &codes::E004,
                    Span::field(&at, "schema"),
                    format!("schema version {schema} (expected {SCHEMA})"),
                ));
            }
            Some(Some(_)) => {}
        }
        let kind = value.get("kind").and_then(json::Value::as_str);
        let name = value.get("name").and_then(json::Value::as_str);
        if kind.is_none() {
            report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "kind"),
                "missing string \"kind\"",
            ));
        }
        match name {
            None => report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "name"),
                "missing string \"name\"",
            )),
            Some("") => report.push(Diagnostic::new(
                &codes::E005,
                Span::field(&at, "name"),
                "empty \"name\"",
            )),
            Some(_) => {}
        }
        let mut counted_kind = None;
        match kind {
            Some("span") => {
                match value.get("wall_ms").and_then(json::Value::as_f64) {
                    Some(wall) if !wall.is_nan() && wall >= 0.0 => {}
                    Some(wall) => report.push(Diagnostic::new(
                        &codes::E006,
                        Span::field(&at, "wall_ms"),
                        format!("invalid wall_ms {wall}"),
                    )),
                    None => report.push(Diagnostic::new(
                        &codes::E006,
                        Span::field(&at, "wall_ms"),
                        "span without numeric \"wall_ms\"",
                    )),
                }
                counted_kind = Some("span");
            }
            Some("event") => counted_kind = Some("event"),
            Some(other) => report.push(Diagnostic::new(
                &codes::E007,
                Span::field(&at, "kind"),
                format!("unknown kind \"{other}\""),
            )),
            None => {}
        }
        if let Some(mem) = value.get("mem_hwm_bytes") {
            if mem.as_u64().is_none() {
                report.push(Diagnostic::new(
                    &codes::E008,
                    Span::field(&at, "mem_hwm_bytes"),
                    "mem_hwm_bytes is not a non-negative whole number",
                ));
            }
        }
        if let Some(fields) = value.get("fields") {
            if fields.as_object().is_none() {
                report.push(Diagnostic::new(
                    &codes::E009,
                    Span::field(&at, "fields"),
                    "\"fields\" is not an object",
                ));
            }
        }
        if report.len() == before {
            match counted_kind {
                Some("span") => summary.spans += 1,
                Some("event") => summary.events += 1,
                _ => {}
            }
        }
    }
    if non_blank == 0 {
        report.push(Diagnostic::new(
            &codes::E010,
            Span::object(object),
            "event stream contains no records",
        ));
    }
    if !input.is_empty() && !input.ends_with('\n') {
        report.push(Diagnostic::new(
            &codes::E011,
            Span::object(format!("{object}:{last_lineno}")),
            "final line is truncated (no trailing newline)",
        ));
    }
    (summary, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(report: &simcheck::Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn check_events_accepts_a_clean_stream() {
        let text = "{\"schema\":1,\"kind\":\"span\",\"name\":\"a\",\"wall_ms\":1.0}\n\
                    {\"schema\":1,\"kind\":\"event\",\"name\":\"b\"}\n";
        let (summary, report) = check_events("events.jsonl", text);
        assert!(report.is_empty(), "{}", report.to_table());
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.events, 1);
    }

    #[test]
    fn check_events_skips_blank_lines_between_records() {
        let text = "\n{\"schema\":1,\"kind\":\"event\",\"name\":\"x\"}\n\n";
        let (summary, report) = check_events("events.jsonl", text);
        assert!(report.is_empty(), "{}", report.to_table());
        assert_eq!(summary.total(), 1);
    }

    #[test]
    fn check_events_collects_every_violation_with_lines() {
        let text = "not json\n\
                    {\"schema\":1,\"kind\":\"event\",\"name\":\"ok\"}\n\
                    {\"schema\":9,\"kind\":\"nope\",\"name\":\"\",\"mem_hwm_bytes\":-1}\n\
                    {\"schema\":0,\"kind\":\"event\",\"name\":\"old\"}\n";
        let (summary, report) = check_events("events.jsonl", text);
        let codes = fired(&report);
        for code in ["E001", "E004", "E005", "E007", "E008", "E012"] {
            assert!(codes.contains(&code), "expected {code} in {codes:?}");
        }
        assert_eq!(summary.total(), 1, "the clean second line still counts");
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.span.object == "events.jsonl:3"));
    }

    #[test]
    fn check_events_distinguishes_newer_schemas_from_older_ones() {
        // A version above SCHEMA means "upgrade the reader" (E012, which
        // `events-validate` maps to exit 2), not "bad file".
        let (_, report) = check_events(
            "events.jsonl",
            "{\"schema\":99,\"kind\":\"span\",\"name\":\"x\",\"wall_ms\":1}\n",
        );
        assert_eq!(fired(&report), ["E012"]);
        assert_eq!(report.diagnostics()[0].span.object, "events.jsonl:1");
        assert!(report.diagnostics()[0]
            .message
            .contains("schema version 99"));
        // A version below SCHEMA is an ordinary mismatch.
        let (_, report) = check_events(
            "events.jsonl",
            "{\"schema\":0,\"kind\":\"event\",\"name\":\"x\"}\n",
        );
        assert_eq!(fired(&report), ["E004"]);
    }

    #[test]
    fn check_events_rejects_empty_and_truncated_streams() {
        let (_, report) = check_events("events.jsonl", "");
        assert_eq!(fired(&report), ["E010"]);
        let (_, report) = check_events("events.jsonl", "\n\n");
        assert_eq!(fired(&report), ["E010"]);
        let truncated = "{\"schema\":1,\"kind\":\"event\",\"name\":\"x\"}";
        let (summary, report) = check_events("events.jsonl", truncated);
        assert_eq!(fired(&report), ["E011"]);
        assert_eq!(summary.events, 1);
        assert!(report.failed(false), "E011 is an error");
    }

    #[test]
    fn check_events_rejects_each_malformed_record() {
        for (bad, code) in [
            ("not json", "E001"),
            ("[1,2]", "E002"),
            ("{\"kind\":\"event\",\"name\":\"x\"}", "E003"),
            ("{\"schema\":1,\"kind\":\"event\"}", "E005"),
            ("{\"schema\":1,\"kind\":\"span\",\"name\":\"x\"}", "E006"),
            ("{\"schema\":1,\"kind\":\"nope\",\"name\":\"x\"}", "E007"),
            (
                "{\"schema\":1,\"kind\":\"event\",\"name\":\"x\",\"fields\":[1]}",
                "E009",
            ),
        ] {
            let (summary, report) = check_events("t", &format!("{bad}\n"));
            assert_eq!(fired(&report), [code], "for {bad}");
            assert!(report.has_errors(), "coded audit missed: {bad}");
            assert_eq!(summary.total(), 0, "a bad record is not counted: {bad}");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mem_high_water_is_positive_on_linux() {
        let hwm = mem_high_water_bytes().expect("/proc/self/status has VmHWM");
        assert!(hwm > 0);
    }
}
