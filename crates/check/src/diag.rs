//! The diagnostic core: severities, spans, diagnostics, and reports.

use std::fmt;

use crate::catalog::RuleCode;
use crate::render;

/// How serious a rule violation is.
///
/// Ordered so `Info < Warning < Error`; [`Report::max_severity`] uses this
/// ordering and `--deny-warnings` escalates `Warning` to a failure at the
/// call site without rewriting any diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Noteworthy but never failing (e.g. non-power-of-two LLC sets, which
    /// real Haswell parts ship with).
    Info,
    /// Suspicious — probably a modelling mistake, but simulation can
    /// proceed; fails only under `--deny-warnings`.
    Warning,
    /// A broken invariant: simulating (or trusting) this input would
    /// produce garbage. Always fails.
    Error,
}

impl Severity {
    /// Lower-case label used by both renderers.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A field-level location: which object, and optionally which field of it,
/// violated a rule.
///
/// Objects are free-form pipeline identities: a pair id
/// (`"505.mcf_r/ref/in1"`), a config path (`"haswell.l3"`), a cache key, or
/// a file line (`"reproduce.prof:17"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Span {
    /// The offending object's identity.
    pub object: String,
    /// The offending field within the object, when one can be named.
    pub field: Option<String>,
}

impl Span {
    /// A span naming a whole object.
    pub fn object(object: impl Into<String>) -> Self {
        Span {
            object: object.into(),
            field: None,
        }
    }

    /// A span naming one field of an object.
    pub fn field(object: impl Into<String>, field: impl Into<String>) -> Self {
        Span {
            object: object.into(),
            field: Some(field.into()),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.field {
            Some(field) => write!(f, "{}.{field}", self.object),
            None => f.write_str(&self.object),
        }
    }
}

/// One rule violation: a code, where it happened, and the measured details.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The violated rule (stable identity, default severity, explanation).
    pub code: &'static RuleCode,
    /// Severity of this occurrence (the rule's default unless escalated).
    pub severity: Severity,
    /// Which object/field violated the rule.
    pub span: Span,
    /// The concrete violation, with measured values.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the rule's default severity.
    pub fn new(code: &'static RuleCode, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity,
            span,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code.code, self.span, self.message
        )
    }
}

/// An ordered collection of diagnostics from one lint pass.
///
/// Reports merge ([`Report::merge`]), sort by severity-then-code
/// ([`Report::sorted`]), and render as an aligned table or JSON.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// All diagnostics, in insertion order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Count at one severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// True when any error-severity diagnostic is present.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True when any warning-severity diagnostic is present.
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }

    /// The most severe level present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether this report fails a gate: errors always fail; warnings fail
    /// only under `deny_warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.has_errors() || (deny_warnings && self.has_warnings())
    }

    /// A copy sorted most-severe first, then by code, then by span.
    pub fn sorted(&self) -> Report {
        let mut diagnostics = self.diagnostics.clone();
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.code.cmp(b.code.code))
                .then_with(|| a.span.object.cmp(&b.span.object))
                .then_with(|| a.span.field.cmp(&b.span.field))
        });
        Report { diagnostics }
    }

    /// One-line totals, e.g. `"2 errors, 1 warning"`.
    pub fn summary(&self) -> String {
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        let plural = |n: usize, s: &str| format!("{n} {s}{}", if n == 1 { "" } else { "s" });
        let mut parts = Vec::new();
        if e > 0 {
            parts.push(plural(e, "error"));
        }
        if w > 0 {
            parts.push(plural(w, "warning"));
        }
        if i > 0 {
            parts.push(plural(i, "info note"));
        }
        if parts.is_empty() {
            "clean".to_string()
        } else {
            parts.join(", ")
        }
    }

    /// The human-readable aligned table (see [`render::table`]).
    pub fn to_table(&self) -> String {
        render::table(self)
    }

    /// The machine-readable JSON document (see [`render::json`]).
    pub fn to_json(&self) -> String {
        render::json(self)
    }
}

impl FromIterator<Diagnostic> for Report {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> Self {
        Report {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

impl Extend<Diagnostic> for Report {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.diagnostics.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::codes;

    fn error_diag() -> Diagnostic {
        Diagnostic::new(&codes::P004, Span::field("pair", "load_pct"), "sum 110%")
    }

    fn warning_diag() -> Diagnostic {
        Diagnostic::new(&codes::P011, Span::object("pair"), "mispredict 0.4")
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn span_renders_field() {
        assert_eq!(Span::object("a").to_string(), "a");
        assert_eq!(Span::field("a", "b").to_string(), "a.b");
    }

    #[test]
    fn report_counts_and_gates() {
        let mut r = Report::new();
        assert!(!r.failed(true));
        assert_eq!(r.summary(), "clean");
        r.push(warning_diag());
        assert!(!r.failed(false));
        assert!(r.failed(true), "deny-warnings escalates");
        r.push(error_diag());
        assert!(r.failed(false));
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert_eq!(r.summary(), "1 error, 1 warning");
    }

    #[test]
    fn sorted_puts_errors_first() {
        let mut r = Report::new();
        r.push(warning_diag());
        r.push(error_diag());
        let sorted = r.sorted();
        assert_eq!(sorted.diagnostics()[0].severity, Severity::Error);
        assert_eq!(sorted.diagnostics()[1].severity, Severity::Warning);
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Report::new();
        a.push(error_diag());
        let b: Report = vec![warning_diag()].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn diagnostic_displays_code_and_span() {
        let text = error_diag().to_string();
        assert!(text.contains("P004"), "{text}");
        assert!(text.contains("pair.load_pct"), "{text}");
    }
}
