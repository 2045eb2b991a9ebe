//! Attribution tables and differential profiles.
//!
//! Attribution answers "which frame owns the work": for every frame name
//! we report **self** weight (samples whose *leaf* is the frame) and
//! **total** weight (samples whose stack *contains* the frame anywhere).
//! A differential profile subtracts one attribution from another and
//! gates on growth — in deterministic op weights, not wall time, so the
//! gate is machine-independent. Estimated wall deltas are displayed
//! alongside for humans, scaled from each profile's recorded wall span.

use crate::Profile;
use std::collections::{BTreeMap, BTreeSet};

/// Per-frame attribution: self and total op weights.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Weight of samples whose leaf frame is this frame.
    pub self_weight: u64,
    /// Weight of samples whose stack contains this frame (counted once
    /// per sample even when a name repeats in one stack).
    pub total_weight: u64,
}

/// Self/total weight per frame name, sorted by name for determinism.
pub fn attribute(profile: &Profile) -> BTreeMap<String, Attribution> {
    let mut out: BTreeMap<String, Attribution> = BTreeMap::new();
    for s in &profile.samples {
        let Some(names) = profile.stack_names(s) else {
            continue;
        };
        if let Some(&leaf) = names.last() {
            out.entry(leaf.to_string()).or_default().self_weight += s.weight;
        }
        let distinct: BTreeSet<&str> = names.iter().copied().collect();
        for name in distinct {
            out.entry(name.to_string()).or_default().total_weight += s.weight;
        }
    }
    out
}

/// Renders the self/total table for one profile, heaviest self first.
pub fn render_report(title: &str, profile: &Profile) -> String {
    let attr = attribute(profile);
    let total: u64 = profile.total_weight().max(1);
    let mut rows: Vec<(&String, &Attribution)> = attr.iter().collect();
    rows.sort_by(|a, b| b.1.self_weight.cmp(&a.1.self_weight).then(a.0.cmp(b.0)));
    let name_w = rows
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("frame".len()))
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "profile {title}: {} samples, {} ops sampled, interval {}, wall {:.3} ms\n",
        profile.samples.len(),
        profile.total_weight(),
        profile.interval,
        profile.wall_ns as f64 / 1e6,
    );
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>6}  {:>12}  {:>6}  {:>10}\n",
        "frame", "self", "self%", "total", "total%", "est wall"
    ));
    for (name, a) in rows {
        let est_ns = profile.wall_ns as f64 * a.self_weight as f64 / total as f64;
        out.push_str(&format!(
            "{name:<name_w$}  {:>12}  {:>5.1}%  {:>12}  {:>5.1}%  {:>8.3}ms\n",
            a.self_weight,
            100.0 * a.self_weight as f64 / total as f64,
            a.total_weight,
            100.0 * a.total_weight as f64 / total as f64,
            est_ns / 1e6,
        ));
    }
    out
}

/// Thresholds for the differential gate.
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// A frame regresses only if its self weight grew by more than this
    /// percentage of its baseline self weight.
    pub threshold_pct: f64,
    /// …and by more than this many ops in absolute terms, so tiny frames
    /// cannot trip the percentage gate on noise-level growth.
    pub min_weight: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold_pct: 25.0,
            min_weight: 1000,
        }
    }
}

/// One frame's before/after self weights.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Frame name.
    pub name: String,
    /// Baseline self weight.
    pub old_self: u64,
    /// Current self weight.
    pub new_self: u64,
    /// Whether this row trips the regression gate.
    pub regressed: bool,
}

/// A differential profile between a baseline and a current artifact.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Per-frame rows, largest absolute delta first.
    pub rows: Vec<DiffRow>,
    /// Frame names present in the baseline but absent from the current
    /// profile — like `simgate bench`, this is a structural mismatch (exit 3)
    /// unless explicitly allowed.
    pub missing: Vec<String>,
    /// Frame names new in the current profile; informational only.
    pub added: Vec<String>,
}

impl DiffReport {
    /// Frames that tripped the gate, heaviest growth first.
    pub fn regressions(&self) -> Vec<&DiffRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }
}

/// Diffs self-weight attribution `old` → `new` under `opts`.
pub fn diff(old: &Profile, new: &Profile, opts: DiffOptions) -> DiffReport {
    let old_attr = attribute(old);
    let new_attr = attribute(new);
    let mut report = DiffReport::default();
    let names: BTreeSet<&String> = old_attr.keys().chain(new_attr.keys()).collect();
    for name in names {
        let o = old_attr.get(name).map(|a| a.self_weight);
        let n = new_attr.get(name).map(|a| a.self_weight);
        match (o, n) {
            (Some(_), None) => report.missing.push(name.clone()),
            (None, Some(_)) => report.added.push(name.clone()),
            _ => {}
        }
        let o = o.unwrap_or(0);
        let n = n.unwrap_or(0);
        let regressed = n > o.saturating_add(opts.min_weight)
            && n as f64 > o as f64 * (1.0 + opts.threshold_pct / 100.0);
        report.rows.push(DiffRow {
            name: name.clone(),
            old_self: o,
            new_self: n,
            regressed,
        });
    }
    report
        .rows
        .sort_by(|a, b| delta_mag(b).cmp(&delta_mag(a)).then(a.name.cmp(&b.name)));
    report
}

fn delta_mag(r: &DiffRow) -> u64 {
    r.new_self.abs_diff(r.old_self)
}

/// Renders the differential table, flagging gated regressions.
pub fn render_diff(old: &Profile, new: &Profile, report: &DiffReport) -> String {
    let old_total = old.total_weight().max(1);
    let new_total = new.total_weight().max(1);
    let name_w = report
        .rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("frame".len()))
        .max()
        .unwrap_or(5);
    let mut out = format!(
        "differential profile: {} ops -> {} ops sampled, wall {:.3} ms -> {:.3} ms\n",
        old_total,
        new_total,
        old.wall_ns as f64 / 1e6,
        new.wall_ns as f64 / 1e6,
    );
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>12}  {:>8}  {:>11}  gate\n",
        "frame", "old self", "new self", "delta%", "est wall d"
    ));
    for r in &report.rows {
        let pct = if r.old_self == 0 {
            if r.new_self == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            100.0 * (r.new_self as f64 - r.old_self as f64) / r.old_self as f64
        };
        let old_ns = old.wall_ns as f64 * r.old_self as f64 / old_total as f64;
        let new_ns = new.wall_ns as f64 * r.new_self as f64 / new_total as f64;
        out.push_str(&format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>7.1}%  {:>+9.3}ms  {}\n",
            r.name,
            r.old_self,
            r.new_self,
            pct,
            (new_ns - old_ns) / 1e6,
            if r.regressed { "REGRESSED" } else { "ok" },
        ));
    }
    for name in &report.missing {
        out.push_str(&format!("missing from current profile: {name}\n"));
    }
    for name in &report.added {
        out.push_str(&format!("new in current profile: {name}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profile, Sample};

    fn profile(stacks: &[(&[&str], u64)]) -> Profile {
        let mut p = Profile {
            interval: 100,
            wall_ns: 1_000_000,
            ..Profile::default()
        };
        let mut frame_ids = std::collections::HashMap::new();
        for (i, (names, weight)) in stacks.iter().enumerate() {
            let ids: Vec<u32> = names
                .iter()
                .map(|n| {
                    *frame_ids.entry(n.to_string()).or_insert_with(|| {
                        p.frames.push(n.to_string());
                        (p.frames.len() - 1) as u32
                    })
                })
                .collect();
            p.stacks.push(ids);
            p.samples.push(Sample {
                tid: 0,
                clock: (i as u64 + 1) * 100,
                stack_id: i as u32,
                weight: *weight,
            });
        }
        p
    }

    #[test]
    fn self_and_total_attribution() {
        let p = profile(&[
            (&["run", "engine", "uop/alu"], 300),
            (&["run", "engine", "uop/load"], 100),
            (&["run", "report"], 50),
        ]);
        let attr = attribute(&p);
        assert_eq!(attr["run"].self_weight, 0);
        assert_eq!(attr["run"].total_weight, 450);
        assert_eq!(attr["engine"].total_weight, 400);
        assert_eq!(attr["uop/alu"].self_weight, 300);
        assert_eq!(attr["report"].self_weight, 50);
    }

    #[test]
    fn repeated_frame_in_one_stack_counts_total_once() {
        let p = profile(&[(&["a", "b", "a"], 70)]);
        let attr = attribute(&p);
        assert_eq!(attr["a"].total_weight, 70);
        assert_eq!(attr["a"].self_weight, 70);
    }

    #[test]
    fn diff_gates_on_pct_and_abs_together() {
        let old = profile(&[(&["run", "hot"], 10_000), (&["run", "tiny"], 10)]);
        let new = profile(&[(&["run", "hot"], 14_000), (&["run", "tiny"], 40)]);
        let d = diff(&old, &new, DiffOptions::default());
        // hot grew 40% and by 4000 ops -> regressed; tiny grew 300% but
        // only by 30 ops -> under min_weight, not regressed.
        let regressed: Vec<&str> = d.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, vec!["hot"]);
    }

    #[test]
    fn diff_under_pct_threshold_is_clean() {
        let old = profile(&[(&["run", "hot"], 100_000)]);
        let new = profile(&[(&["run", "hot"], 110_000)]);
        let d = diff(&old, &new, DiffOptions::default());
        assert!(d.regressions().is_empty());
    }

    #[test]
    fn missing_and_added_frames_are_reported() {
        let old = profile(&[(&["run", "gone"], 500)]);
        let new = profile(&[(&["run", "fresh"], 500)]);
        let d = diff(&old, &new, DiffOptions::default());
        assert_eq!(d.missing, vec!["gone".to_string()]);
        assert_eq!(d.added, vec!["fresh".to_string()]);
        // A brand-new frame under min_weight+pct still gates normally:
        // 500 > 0 + 1000 is false, so no regression here.
        assert!(d.regressions().is_empty());
    }

    #[test]
    fn new_heavy_frame_regresses_from_zero() {
        let old = profile(&[(&["run", "hot"], 1000)]);
        let new = profile(&[(&["run", "hot"], 1000), (&["run", "leak"], 5000)]);
        let d = diff(&old, &new, DiffOptions::default());
        let regressed: Vec<&str> = d.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, vec!["leak"]);
    }

    #[test]
    fn self_diff_is_clean() {
        let p = profile(&[(&["run", "hot"], 123_456)]);
        let d = diff(&p, &p, DiffOptions::default());
        assert!(d.regressions().is_empty());
        assert!(d.missing.is_empty() && d.added.is_empty());
    }

    #[test]
    fn renders_are_stable_and_name_the_gate() {
        let old = profile(&[(&["run", "hot"], 10_000)]);
        let new = profile(&[(&["run", "hot"], 20_000)]);
        let d = diff(&old, &new, DiffOptions::default());
        let table = render_diff(&old, &new, &d);
        assert!(table.contains("REGRESSED"), "{table}");
        let report = render_report("old", &old);
        assert!(report.contains("hot"), "{report}");
        assert!(report.contains("100.0%"), "{report}");
    }
}
