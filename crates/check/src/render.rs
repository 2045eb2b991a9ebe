//! Report renderers: a column-aligned human table and a machine-readable
//! JSON document (hand-rolled, matching the workspace's no-dependency rule).

use crate::diag::Report;

/// Renders a report as an aligned table, most severe first, ending with a
/// one-line summary. Empty reports render as `"clean\n"`.
pub fn table(report: &Report) -> String {
    if report.is_empty() {
        return "clean\n".to_string();
    }
    let sorted = report.sorted();
    let rows: Vec<[String; 4]> = sorted
        .diagnostics()
        .iter()
        .map(|d| {
            [
                d.severity.label().to_string(),
                d.code.code.to_string(),
                d.span.to_string(),
                d.message.clone(),
            ]
        })
        .collect();
    let mut widths = [0usize; 3];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in &rows {
        out.push_str(&format!(
            "{:<w0$}  {:<w1$}  {:<w2$}  {}\n",
            row[0],
            row[1],
            row[2],
            row[3],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
        ));
    }
    out.push_str(&format!("-- {}\n", report.summary()));
    out
}

/// Renders a report as a JSON document:
///
/// ```json
/// {"diagnostics":[{"code":"P004","name":"mix-budget","severity":"error",
///   "family":"profile","object":"...","field":"...","message":"..."}],
///  "errors":1,"warnings":0,"infos":0}
/// ```
pub fn json(report: &Report) -> String {
    use crate::diag::Severity;
    let sorted = report.sorted();
    let mut out = String::from("{\"diagnostics\":[");
    for (i, d) in sorted.diagnostics().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"code\":");
        push_json_string(&mut out, d.code.code);
        out.push_str(",\"name\":");
        push_json_string(&mut out, d.code.name);
        out.push_str(",\"severity\":");
        push_json_string(&mut out, d.severity.label());
        out.push_str(",\"family\":");
        push_json_string(&mut out, d.code.family.label());
        out.push_str(",\"object\":");
        push_json_string(&mut out, &d.span.object);
        out.push_str(",\"field\":");
        match &d.span.field {
            Some(field) => push_json_string(&mut out, field),
            None => out.push_str("null"),
        }
        out.push_str(",\"message\":");
        push_json_string(&mut out, &d.message);
        out.push('}');
    }
    out.push_str(&format!(
        "],\"errors\":{},\"warnings\":{},\"infos\":{}}}",
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info)
    ));
    out
}

/// Appends `s` as a JSON string literal, escaping per RFC 8259.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::codes;
    use crate::diag::{Diagnostic, Span};

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            &codes::P011,
            Span::object("505.mcf_r/ref/in1"),
            "mispredict target 0.40 above 0.25",
        ));
        r.push(Diagnostic::new(
            &codes::C005,
            Span::field("haswell", "l2"),
            "L2 128 KiB smaller than L1D 256 KiB",
        ));
        r
    }

    #[test]
    fn empty_report_renders_clean() {
        assert_eq!(table(&Report::new()), "clean\n");
        let j = json(&Report::new());
        assert!(j.contains("\"diagnostics\":[]"), "{j}");
        assert!(j.contains("\"errors\":0"), "{j}");
    }

    #[test]
    fn table_sorts_errors_first_and_summarizes() {
        let text = table(&sample());
        let error_pos = text.find("C005").unwrap();
        let warning_pos = text.find("P011").unwrap();
        assert!(error_pos < warning_pos, "{text}");
        assert!(text.contains("haswell.l2"), "{text}");
        assert!(text.ends_with("-- 1 error, 1 warning\n"), "{text}");
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            &codes::F001,
            Span::object("reproduce.prof:3"),
            "unexpected byte '\"' in \\path\n",
        ));
        let j = json(&r);
        assert!(j.contains("\\\""), "{j}");
        assert!(j.contains("\\\\path"), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(j.contains("\"errors\":1"), "{j}");
        assert!(j.contains("\"field\":null"), "{j}");
    }
}
