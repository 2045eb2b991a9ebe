//! S-rule checks over simpoint artifacts: the structural invariants the
//! reconstruction math and `simgate simpoint` silently assume.
//!
//! Rule logic lives here, next to the records it audits; the stable codes,
//! severities, and explanations live in simcheck's catalog like every other
//! family. `lint --simpoint [DIR]` (and `--all` over `results/simpoints/`)
//! drives [`audit_store`].

use simcheck::{codes, Diagnostic, Report, Span};
use simstore::Store;
use uarch_sim::counters::Event;

use crate::artifact::SimpointRecord;

/// Audits one decoded record (loaded from `object`, used for diagnostic
/// spans) against the S-rule family, collecting every violation.
pub fn check_record(object: &str, record: &SimpointRecord) -> Report {
    let mut report = Report::new();
    let n = record.n_intervals();
    let k = record.k();

    // S004: the interval grid and counter bookkeeping must describe one
    // run. Everything below indexes through these, so mismatches here make
    // the remaining rules' findings noise rather than signal.
    if record.interval_ops == 0 || k == 0 || n == 0 {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::object(object),
            format!(
                "degenerate record: interval_ops={}, k={k}, n_intervals={n}",
                record.interval_ops
            ),
        ));
        return report;
    }
    let floor = record.interval_ops * (n as u64 - 1);
    let ceil = record.interval_ops * n as u64;
    if record.total_ops <= floor || record.total_ops > ceil {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::field(object, "total_ops"),
            format!(
                "{} total ops do not fit {n} intervals of {} ops",
                record.total_ops, record.interval_ops
            ),
        ));
    }
    if record.simulated_ops.saturating_add(record.warmed_ops) > record.total_ops {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::field(object, "simulated_ops"),
            format!(
                "simulated {} + warmed {} ops exceed the run's {}",
                record.simulated_ops, record.warmed_ops, record.total_ops
            ),
        ));
    }
    if record.weights.len() != k {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::field(object, "weights"),
            format!("{} weights for {k} clusters", record.weights.len()),
        ));
    }
    let inst = record.reference[Event::InstRetiredAny as usize];
    if inst != record.total_ops {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::field(object, "reference"),
            format!(
                "reference inst_retired.any {inst} != total_ops {} (one retired \
                 instruction per counted micro-op)",
                record.total_ops
            ),
        ));
    }
    if let Some(bad) = record.labels.iter().find(|&&l| l as usize >= k) {
        report.push(Diagnostic::new(
            &codes::S004,
            Span::field(object, "labels"),
            format!("label {bad} out of range for {k} clusters"),
        ));
    }

    // S001: weights partition the run.
    if record.weights.len() == k {
        let sum: f64 = record.weights.iter().sum();
        if record.weights.iter().any(|&w| w <= 0.0 || w > 1.0) {
            report.push(Diagnostic::new(
                &codes::S001,
                Span::field(object, "weights"),
                format!("weights outside (0, 1]: {:?}", record.weights),
            ));
        } else if (sum - 1.0).abs() > 1e-6 {
            report.push(Diagnostic::new(
                &codes::S001,
                Span::field(object, "weights"),
                format!("weights sum to {sum}, not 1"),
            ));
        }
    }

    // S002: every cluster owns at least one interval.
    for cluster in 0..k {
        if !record.labels.iter().any(|&l| l as usize == cluster) {
            report.push(Diagnostic::new(
                &codes::S002,
                Span::field(object, "labels"),
                format!("cluster {cluster} has no member intervals"),
            ));
        }
    }

    // S003: medoids are unique, in range, and members of their own cluster.
    let mut seen = std::collections::HashSet::new();
    for (cluster, &m) in record.medoids.iter().enumerate() {
        let m = m as usize;
        if !seen.insert(m) {
            report.push(Diagnostic::new(
                &codes::S003,
                Span::field(object, "medoids"),
                format!("medoid interval {m} appears more than once"),
            ));
            continue;
        }
        if m >= n {
            report.push(Diagnostic::new(
                &codes::S003,
                Span::field(object, "medoids"),
                format!("medoid interval {m} out of range for {n} intervals"),
            ));
        } else if record.labels[m] as usize != cluster {
            report.push(Diagnostic::new(
                &codes::S003,
                Span::field(object, "medoids"),
                format!(
                    "medoid {m} of cluster {cluster} is labelled {}",
                    record.labels[m]
                ),
            ));
        }
    }

    report
}

/// Audits every entry of a simpoint store: undecodable payloads fire S005,
/// decodable ones run through [`check_record`]. Returns the entry count
/// alongside the merged report.
pub fn audit_store(store: &Store) -> (usize, Report) {
    let mut report = Report::new();
    let keys = store.keys();
    for key in &keys {
        let object = format!("simpoint:{key}");
        let Some(payload) = store.get(*key) else {
            continue;
        };
        match SimpointRecord::decode(&payload) {
            Ok(record) => {
                report.merge(check_record(&format!("simpoint:{}", record.id), &record));
            }
            Err(e) => {
                report.push(Diagnostic::new(
                    &codes::S005,
                    Span::object(object),
                    format!("payload does not decode as a simpoint record: {e}"),
                ));
            }
        }
    }
    (keys.len(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::counters::Event;

    fn good() -> SimpointRecord {
        let mut reference = [0u64; Event::ALL.len()];
        let mut estimate = [0u64; Event::ALL.len()];
        reference[0] = 40_000;
        estimate[0] = 40_000;
        SimpointRecord {
            id: "505.mcf_r/ref/in1".to_string(),
            interval_ops: 10_000,
            total_ops: 40_000,
            simulated_ops: 20_000,
            warmed_ops: 20_000,
            silhouette: 0.5,
            medoids: vec![1, 3],
            labels: vec![0, 0, 1, 1],
            weights: vec![0.5, 0.5],
            reference,
            estimate,
        }
    }

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn valid_record_lints_clean() {
        let report = check_record("simpoint:test", &good());
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn each_rule_fires_on_its_violation() {
        let mut r = good();
        r.weights = vec![0.5, 0.4];
        assert!(codes_of(&check_record("o", &r)).contains(&"S001"));

        let mut r = good();
        r.labels = vec![0, 0, 0, 0];
        let codes = codes_of(&check_record("o", &r));
        assert!(codes.contains(&"S002"), "{codes:?}");

        let mut r = good();
        r.medoids = vec![1, 9];
        assert!(codes_of(&check_record("o", &r)).contains(&"S003"));

        let mut r = good();
        r.medoids = vec![1, 2]; // interval 2 belongs to cluster 1, not 0
        r.medoids[0] = 2;
        r.medoids[1] = 3;
        assert!(codes_of(&check_record("o", &r)).contains(&"S003"));

        let mut r = good();
        r.total_ops = 99_000;
        let codes = codes_of(&check_record("o", &r));
        assert!(codes.contains(&"S004"), "{codes:?}");

        let mut r = good();
        r.reference[0] = 1;
        assert!(codes_of(&check_record("o", &r)).contains(&"S004"));
    }

    #[test]
    fn degenerate_record_short_circuits_with_s004() {
        let mut r = good();
        r.labels.clear();
        let report = check_record("o", &r);
        assert_eq!(codes_of(&report), vec!["S004"]);
    }
}
