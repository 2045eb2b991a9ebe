//! Registry hygiene checks — the `M…` rule family of [`simcheck`] codes.
//!
//! The registry deliberately never rejects a registration at runtime (an
//! instrumentation path is the wrong place to panic); instead these rules
//! audit a snapshot after the fact. The `lint` binary wires them in as
//! `--metrics`, registering the full pipeline metric set and checking it,
//! so a typo'd metric name fails CI rather than a later reader of
//! `metrics.json`.

use std::collections::{HashMap, HashSet};

use simcheck::{codes, Diagnostic, Report, Span};

use crate::{Kind, Snapshot};

/// Suffixes Prometheus conventions reserve for the derived series of a
/// summary or histogram; a base name carrying one reads as a fragment of
/// another metric.
const RESERVED_SUFFIXES: [&str; 3] = ["_bucket", "_sum", "_count"];

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn is_legal_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `name` a legal (non-reserved) Prometheus label name?
fn is_legal_label_name(name: &str) -> bool {
    if name.starts_with("__") {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Audits one snapshot: name/label legality (M001/M003/M004), duplicate
/// registrations (M002), and suffix conventions (M005).
pub fn check_snapshot(snapshot: &Snapshot) -> Report {
    let mut report = Report::new();

    // M002: a name may be registered once per label set, and all series of
    // one name must agree on kind. The registry's get-or-create dedups
    // identical registrations, so any collision here is a real conflict.
    let mut seen: HashMap<&str, Vec<&crate::Series>> = HashMap::new();
    for series in &snapshot.series {
        seen.entry(series.name.as_str()).or_default().push(series);
    }
    for (name, group) in &seen {
        let kinds: HashSet<Kind> = group.iter().map(|s| s.kind).collect();
        let mut label_sets = HashSet::new();
        let duplicate_labels = !group
            .iter()
            .all(|s| label_sets.insert(format!("{:?}", s.labels)));
        if kinds.len() > 1 || duplicate_labels {
            report.push(Diagnostic::new(
                &codes::M002,
                Span::object(*name),
                format!(
                    "metric name registered {} times ({})",
                    group.len(),
                    if kinds.len() > 1 {
                        "conflicting kinds"
                    } else {
                        "identical label sets"
                    }
                ),
            ));
        }
    }

    for series in &snapshot.series {
        let name = series.name.as_str();

        // M001: Prometheus-legal metric name.
        if !is_legal_metric_name(name) {
            report.push(Diagnostic::new(
                &codes::M001,
                Span::object(name),
                format!("metric name '{name}' is not [a-zA-Z_:][a-zA-Z0-9_:]*"),
            ));
        }

        // M003/M004: label legality and per-metric uniqueness.
        let mut label_names = HashSet::new();
        for (key, _) in &series.labels {
            if !is_legal_label_name(key) {
                report.push(Diagnostic::new(
                    &codes::M003,
                    Span::field(name, key.clone()),
                    format!(
                        "label name '{key}' is not [a-zA-Z_][a-zA-Z0-9_]* or uses the \
                         reserved '__' prefix"
                    ),
                ));
            }
            if !label_names.insert(key.as_str()) {
                report.push(Diagnostic::new(
                    &codes::M004,
                    Span::field(name, key.clone()),
                    format!("label name '{key}' appears more than once"),
                ));
            }
        }

        // M005: suffix conventions per kind.
        let reserved = RESERVED_SUFFIXES.iter().find(|s| name.ends_with(*s));
        match series.kind {
            _ if reserved.is_some() => {
                report.push(Diagnostic::new(
                    &codes::M005,
                    Span::object(name),
                    format!("name ends in reserved suffix '{}'", reserved.unwrap()),
                ));
            }
            Kind::Counter if !name.ends_with("_total") => {
                report.push(Diagnostic::new(
                    &codes::M005,
                    Span::object(name),
                    "counter names should end in '_total'".to_string(),
                ));
            }
            Kind::Gauge | Kind::Summary if name.ends_with("_total") => {
                report.push(Diagnostic::new(
                    &codes::M005,
                    Span::object(name),
                    format!(
                        "a {} named '_total' reads as a counter",
                        series.kind.as_str()
                    ),
                ));
            }
            _ => {}
        }
    }

    report
}

/// Audits the global registry (what the `lint` binary's `--metrics` pass
/// runs after registering the pipeline metric set).
pub fn check_registry() -> Report {
    check_snapshot(&crate::snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn summary() -> crate::SpanSummary {
        crate::SpanSummary {
            count: 1,
            sum: 5,
            min: 5,
            max: 5,
            p50: 5,
            p90: 5,
            p99: 5,
        }
    }

    fn codes_of(report: &Report) -> Vec<&str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn name_legality_matches_prometheus_rules() {
        for good in ["a", "_x", "a:b", "simstore_cache_hits_total", "A9_"] {
            assert!(is_legal_metric_name(good), "{good}");
        }
        for bad in ["", "9a", "a-b", "a b", "café"] {
            assert!(!is_legal_metric_name(bad), "{bad}");
        }
        assert!(is_legal_label_name("size"));
        assert!(!is_legal_label_name("__reserved"));
        assert!(!is_legal_label_name("le:"));
    }

    #[test]
    fn a_clean_registry_lints_clean() {
        let r = Registry::new();
        r.counter("good_requests_total", "x");
        r.gauge("good_queue_depth", "x");
        r.counter_with("good_tagged_total", "x", &[("size", "ref"), ("input", "1")]);
        let mut snapshot = r.snapshot();
        snapshot.push_summary("good_latency_micros", "x", summary());
        let report = check_snapshot(&snapshot);
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn every_m_rule_fires_on_a_crafted_registry() {
        let r = Registry::new();
        r.counter("bad-charset-total", "x"); // M001 (+ M005: no _total suffix)
        r.counter("dup_metric", "x"); // M002 via kind conflict; M005 no _total
        r.gauge("dup_metric", "x");
        r.counter_with("lab_total", "x", &[("__reserved", "v")]); // M003
        r.counter_with("dup_lab_total", "x", &[("k", "1"), ("k", "2")]); // M004
        r.gauge("wrong_total", "x"); // M005: gauge named _total
        let mut snapshot = r.snapshot();
        snapshot.push_summary("wrong_count", "x", summary()); // M005: reserved suffix
        let report = check_snapshot(&snapshot);
        let codes = codes_of(&report);
        for expect in ["M001", "M002", "M003", "M004", "M005"] {
            assert!(codes.contains(&expect), "missing {expect} in {codes:?}");
        }
        assert!(report.has_errors());
    }

    #[test]
    fn distinct_label_sets_on_one_name_are_not_duplicates() {
        let r = Registry::new();
        r.counter_with("multi_total", "x", &[("size", "ref")]);
        r.counter_with("multi_total", "x", &[("size", "test")]);
        let report = check_snapshot(&r.snapshot());
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn suffix_convention_is_a_warning_not_an_error() {
        let r = Registry::new();
        r.counter("counts_stuff", "x"); // legal name, wrong suffix
        let report = check_snapshot(&r.snapshot());
        assert_eq!(codes_of(&report), ["M005"]);
        assert!(!report.has_errors());
        assert!(report.has_warnings());
    }
}
