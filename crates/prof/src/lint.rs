//! F-rule checks over a profile artifact: the integrity every consumer
//! (`simgate prof`, the flamegraph exporter, the diff gate) silently
//! assumes.
//!
//! Rule logic lives here, next to the artifact it audits; the stable
//! codes, severities, and explanations live in simcheck's catalog like
//! every other family. `lint --prof FILE` (and `--all` over
//! `results/profiles/`) drives [`check_profile_text`].

use crate::{ParseError, Profile};
use simcheck::{codes, Diagnostic, Report, Span};

/// Whether `name` is a legal frame name: the simtrace span charset
/// (`/`-separated lowercase `[a-z0-9_.-]+` segments), optionally followed
/// by one bracketed pair label (`sched/job [505.mcf_r/refrate-1]`).
pub fn is_legal_frame_name(name: &str) -> bool {
    let base = match name.split_once(" [") {
        Some((base, rest)) if rest.ends_with(']') => base,
        Some(_) => return false,
        None => name,
    };
    !base.is_empty()
        && base.split('/').all(|segment| {
            !segment.is_empty()
                && segment
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b".-_".contains(&b))
        })
}

/// Audits artifact `text` (read from `object`, used for diagnostic spans)
/// against the F-rule family.
///
/// Parse failures are reported as diagnostics rather than returned as
/// errors, so one malformed artifact in a `lint --all` sweep degrades to
/// findings instead of aborting the sweep: schema-too-new is F003 and any
/// structural failure is F004. A parsed profile is then checked for
/// orphan frame references (F001), per-thread clock monotonicity (F002),
/// frame-name charset (F005), and dangling stack references (F006).
pub fn check_profile_text(object: &str, text: &str) -> Report {
    let mut report = Report::new();
    let profile = match Profile::from_text(text) {
        Ok(p) => p,
        Err(ParseError::SchemaTooNew { found, supported }) => {
            report.push(Diagnostic::new(
                &codes::F003,
                Span::field(object, "schema"),
                format!("artifact declares schema {found}; this build supports up to {supported}"),
            ));
            return report;
        }
        Err(ParseError::Malformed { line, message }) => {
            report.push(Diagnostic::new(
                &codes::F004,
                Span::object(format!("{object}:{line}")),
                message,
            ));
            return report;
        }
    };
    check_profile(object, &profile, &mut report);
    report
}

/// The post-parse structural rules, shared with in-process checking.
pub fn check_profile(object: &str, profile: &Profile, report: &mut Report) {
    for (sid, stack) in profile.stacks.iter().enumerate() {
        for &fid in stack {
            if fid as usize >= profile.frames.len() {
                report.push(Diagnostic::new(
                    &codes::F001,
                    Span::field(format!("{object}#stack{sid}"), "frames"),
                    format!(
                        "stack {sid} references frame id {fid} but only {} frames are declared",
                        profile.frames.len()
                    ),
                ));
            }
        }
        if stack.is_empty() {
            report.push(Diagnostic::new(
                &codes::F001,
                Span::field(format!("{object}#stack{sid}"), "frames"),
                format!("stack {sid} is empty; every stack needs at least one frame"),
            ));
        }
    }

    let mut last_clock: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    for (i, s) in profile.samples.iter().enumerate() {
        if s.stack_id as usize >= profile.stacks.len() {
            report.push(Diagnostic::new(
                &codes::F006,
                Span::field(format!("{object}#sample{i}"), "stack"),
                format!(
                    "sample {i} references stack id {} but only {} stacks are declared",
                    s.stack_id,
                    profile.stacks.len()
                ),
            ));
        }
        if let Some(&prev) = last_clock.get(&s.tid) {
            if s.clock <= prev {
                report.push(Diagnostic::new(
                    &codes::F002,
                    Span::field(format!("{object}#sample{i}"), "clock"),
                    format!(
                        "tid {} clock went {prev} -> {} (must strictly increase)",
                        s.tid, s.clock
                    ),
                ));
            }
        }
        last_clock.insert(s.tid, s.clock);
    }

    for (fid, name) in profile.frames.iter().enumerate() {
        if !is_legal_frame_name(name) {
            report.push(Diagnostic::new(
                &codes::F005,
                Span::field(format!("{object}#frame{fid}"), "name"),
                format!("frame name {name:?} does not follow the span-naming scheme"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn clean_profile() -> Profile {
        Profile {
            interval: 100,
            wall_ns: 5000,
            frames: vec![
                "run/reproduce".to_string(),
                "engine/run".to_string(),
                "uop/alu".to_string(),
            ],
            stacks: vec![vec![0, 1, 2]],
            samples: vec![
                Sample {
                    tid: 0,
                    clock: 100,
                    stack_id: 0,
                    weight: 100,
                },
                Sample {
                    tid: 0,
                    clock: 200,
                    stack_id: 0,
                    weight: 100,
                },
            ],
        }
    }

    fn codes_in(report: &Report) -> Vec<&str> {
        report.diagnostics().iter().map(|d| d.code.code).collect()
    }

    #[test]
    fn clean_artifact_produces_no_diagnostics() {
        let report = check_profile_text("p", &clean_profile().to_text());
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn f001_flags_orphan_frame_references() {
        let mut p = clean_profile();
        p.stacks[0].push(99);
        let report = check_profile_text("p", &p.to_text());
        assert_eq!(codes_in(&report), vec!["F001"]);
        assert!(report.diagnostics()[0].message.contains("99"));
    }

    #[test]
    fn f002_flags_non_monotonic_clocks_per_thread() {
        let mut p = clean_profile();
        p.samples[1].clock = 100; // equal to its predecessor on tid 0
        let report = check_profile_text("p", &p.to_text());
        assert_eq!(codes_in(&report), vec!["F002"]);
        // A different thread re-using the clock value is fine.
        let mut p = clean_profile();
        p.samples[1].tid = 1;
        p.samples[1].clock = 100;
        let report = check_profile_text("p", &p.to_text());
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn f003_flags_schema_too_new() {
        let report = check_profile_text("p", "simprof 99\n");
        assert_eq!(codes_in(&report), vec!["F003"]);
    }

    #[test]
    fn f004_flags_malformed_lines_with_position() {
        let report = check_profile_text("p", "simprof 2\nzorp 1 2\n");
        assert_eq!(codes_in(&report), vec!["F004"]);
        assert!(report.to_table().contains("p:2"), "{}", report.to_table());
    }

    #[test]
    fn f005_flags_illegal_frame_names_as_warning() {
        let mut p = clean_profile();
        p.frames[2] = "Uop/ALU".to_string();
        let report = check_profile_text("p", &p.to_text());
        assert_eq!(codes_in(&report), vec!["F005"]);
        assert!(!report.has_errors());
    }

    #[test]
    fn f005_accepts_bracketed_pair_labels() {
        assert!(is_legal_frame_name("sched/job [505.mcf_r/refrate-1]"));
        assert!(is_legal_frame_name("seg/measured"));
        assert!(!is_legal_frame_name("sched/job [unclosed"));
        assert!(!is_legal_frame_name(""));
        assert!(!is_legal_frame_name("a//b"));
    }

    #[test]
    fn f006_flags_dangling_stack_references() {
        let mut p = clean_profile();
        p.samples[0].stack_id = 7;
        let report = check_profile_text("p", &p.to_text());
        assert_eq!(codes_in(&report), vec!["F006"]);
        assert!(report.diagnostics()[0].message.contains('7'));
    }
}
