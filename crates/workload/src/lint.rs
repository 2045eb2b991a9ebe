//! Profile well-formedness rules (the `P…` family of [`simcheck`] codes).
//!
//! [`check_behavior`] collects *every* violation in one pass — unlike the
//! legacy [`Behavior::validate`](crate::profile::Behavior::validate), which
//! is now a thin first-error adapter over it. [`check_roster`] adds the
//! cross-pair redundancy hint (P015): two inputs with byte-identical
//! behaviour fingerprints will simulate identically, the static counterpart
//! of the paper's PCA/clustering redundancy analysis.

use std::collections::HashMap;

use simcheck::{codes, Diagnostic, Report, Span};
use simstore::key_of;
use uarch_sim::config::SystemConfig;

use crate::profile::{AppProfile, Behavior, InputSize};

/// Checks one behaviour profile, collecting all violations (P001–P014,
/// P016). `object` names the pair in spans, e.g. `"505.mcf_r/ref/in1"`;
/// `config` enables the machine-relative plausibility checks (P010 against
/// issue width, P014 against L3 capacity).
pub fn check_behavior(object: &str, b: &Behavior, config: Option<&SystemConfig>) -> Report {
    let mut report = Report::new();
    let pct = |v: f64| (0.0..=100.0).contains(&v);
    let frac = |v: f64| (0.0..=1.0).contains(&v);

    // P001/P002: positive volume and IPC target.
    if b.instructions_billions.is_nan() || b.instructions_billions <= 0.0 {
        report.push(Diagnostic::new(
            &codes::P001,
            Span::field(object, "instructions_billions"),
            format!(
                "instructions_billions must be positive, got {}",
                b.instructions_billions
            ),
        ));
    }
    if b.ipc_target.is_nan() || b.ipc_target <= 0.0 {
        report.push(Diagnostic::new(
            &codes::P002,
            Span::field(object, "ipc_target"),
            format!("ipc_target must be positive, got {}", b.ipc_target),
        ));
    }

    // P003: each mix percentage in range (one diagnostic per field).
    for (field, v) in [
        ("load_pct", b.load_pct),
        ("store_pct", b.store_pct),
        ("branch_pct", b.branch_pct),
    ] {
        if !pct(v) {
            report.push(Diagnostic::new(
                &codes::P003,
                Span::field(object, field),
                format!("mix percentages must be within [0, 100], got {v}"),
            ));
        }
    }

    // P004: the three classes leave a non-negative compute share.
    let mix = b.load_pct + b.store_pct + b.branch_pct;
    if mix > 100.0 {
        report.push(Diagnostic::new(
            &codes::P004,
            Span::field(object, "load_pct"),
            format!(
                "loads {}% + stores {}% + branches {}% = {mix}% exceeds 100%",
                b.load_pct, b.store_pct, b.branch_pct
            ),
        ));
    }

    // P005: branch kinds partition the branch stream.
    let kinds = b.cond_frac + b.direct_jump_frac + b.call_frac + b.indirect_frac + b.return_frac;
    if (kinds - 1.0).abs() > 1e-6 {
        report.push(Diagnostic::new(
            &codes::P005,
            Span::field(object, "cond_frac"),
            format!("branch kind fractions must sum to 1, got {kinds}"),
        ));
    }

    // P006: every fraction/rate field is a probability.
    for (field, v) in [
        ("cond_frac", b.cond_frac),
        ("direct_jump_frac", b.direct_jump_frac),
        ("call_frac", b.call_frac),
        ("indirect_frac", b.indirect_frac),
        ("return_frac", b.return_frac),
        ("mispredict_target", b.mispredict_target),
        ("l1_miss_target", b.l1_miss_target),
        ("l2_miss_target", b.l2_miss_target),
        ("l3_miss_target", b.l3_miss_target),
    ] {
        if !frac(v) {
            report.push(Diagnostic::new(
                &codes::P006,
                Span::field(object, field),
                format!("fractions and rates must be within [0, 1], got {v}"),
            ));
        }
    }

    // P007/P013: footprint sanity (hard floor, then the softer warning).
    if b.rss_gib < 0.0 || b.vsz_gib < b.rss_gib * 0.5 {
        report.push(Diagnostic::new(
            &codes::P007,
            Span::field(object, "vsz_gib"),
            format!(
                "vsz must be non-trivially sized vs rss (vsz {} GiB, rss {} GiB)",
                b.vsz_gib, b.rss_gib
            ),
        ));
    } else if b.vsz_gib < b.rss_gib {
        report.push(Diagnostic::new(
            &codes::P013,
            Span::field(object, "vsz_gib"),
            format!(
                "vsz {} GiB below rss {} GiB: real processes map at least \
                 what they touch",
                b.vsz_gib, b.rss_gib
            ),
        ));
    }

    // P008/P009: code footprint and thread count.
    if b.code_kib.is_nan() || b.code_kib <= 0.0 {
        report.push(Diagnostic::new(
            &codes::P008,
            Span::field(object, "code_kib"),
            format!("code footprint must be positive, got {} KiB", b.code_kib),
        ));
    }
    if b.threads == 0 {
        report.push(Diagnostic::new(
            &codes::P009,
            Span::field(object, "threads"),
            "threads must be at least 1, got 0",
        ));
    }

    // P012: the implied reuse-distance CDF must be monotone and normalized.
    // With in-range miss targets this holds algebraically; it fires when a
    // NaN target silently denormalizes the service distribution.
    let fractions = b.service_fractions();
    let sum: f64 = fractions.iter().sum();
    if (sum - 1.0).abs() > 1e-6 || fractions.iter().any(|f| !(0.0..=1.0).contains(f)) {
        report.push(Diagnostic::new(
            &codes::P012,
            Span::field(object, "l1_miss_target"),
            format!(
                "service fractions must be non-negative and sum to 1, \
                 got {fractions:?}"
            ),
        ));
    }

    // P010: paper-plausible IPC band, tightened to the machine when known.
    if b.ipc_target > 0.0 && !(0.05..=4.0).contains(&b.ipc_target) {
        report.push(Diagnostic::new(
            &codes::P010,
            Span::field(object, "ipc_target"),
            format!(
                "ipc_target {} outside the paper-plausible [0.05, 4.0] band",
                b.ipc_target
            ),
        ));
    } else if let Some(config) = config {
        if b.ipc_target > config.timing.issue_width as f64 {
            report.push(Diagnostic::new(
                &codes::P010,
                Span::field(object, "ipc_target"),
                format!(
                    "ipc_target {} exceeds the machine's issue width {}",
                    b.ipc_target, config.timing.issue_width
                ),
            ));
        }
    }

    // P011: paper-plausible mispredict target.
    if frac(b.mispredict_target) && b.mispredict_target > 0.25 {
        report.push(Diagnostic::new(
            &codes::P011,
            Span::field(object, "mispredict_target"),
            format!(
                "mispredict target {} above 0.25: measured CPU2017 rates \
                 stay below ~10% of branches",
                b.mispredict_target
            ),
        ));
    }

    // P014: the reuse distribution must be producible by the footprint — a
    // working set resident in the L3 cannot generate steady-state DRAM
    // traffic.
    if let Some(config) = config {
        let dram_fraction = fractions[3];
        let rss_bytes = b.rss_gib * (1u64 << 30) as f64;
        if dram_fraction > 0.02 && rss_bytes.is_finite() && rss_bytes <= config.l3.size_bytes as f64
        {
            report.push(Diagnostic::new(
                &codes::P014,
                Span::field(object, "rss_gib"),
                format!(
                    "{:.1}% of loads target DRAM but the {:.3} GiB resident \
                     set fits inside the {} MiB L3",
                    dram_fraction * 100.0,
                    b.rss_gib,
                    config.l3.size_bytes / (1024 * 1024)
                ),
            ));
        }
    }

    // P016: paper-plausible instruction volume.
    if b.instructions_billions > 0.0 && !(0.001..=100_000.0).contains(&b.instructions_billions) {
        report.push(Diagnostic::new(
            &codes::P016,
            Span::field(object, "instructions_billions"),
            format!(
                "{} billion instructions outside the plausible \
                 [0.001, 100000] band (unit mistake?)",
                b.instructions_billions
            ),
        ));
    }

    report
}

/// The span object for one (app, size, input) triple, e.g.
/// `"505.mcf_r/ref/in1"`.
pub fn pair_object(app: &AppProfile, size: InputSize, input_name: &str) -> String {
    format!("{}/{}/{}", app.name, size.label(), input_name)
}

/// Checks every input of one application at every size, and that each
/// pair's id (`app` or `app-input`) follows the `NNN.name[-input]`
/// convention the roster tables join on (P017).
pub fn check_app(app: &AppProfile, config: Option<&SystemConfig>) -> Report {
    let mut report = Report::new();
    let digits = app.name.bytes().take_while(u8::is_ascii_digit).count();
    let app_shaped = digits >= 1
        && app.name.as_bytes().get(digits) == Some(&b'.')
        && app.name.len() > digits + 1;
    for size in InputSize::ALL {
        for pair in app.pairs(size) {
            let object = pair_object(app, size, &pair.input.name);
            report.merge(check_behavior(&object, &pair.input.behavior, config));
            if !app_shaped {
                report.push(Diagnostic::new(
                    &codes::P017,
                    Span::field(&object, "id"),
                    format!(
                        "id {:?} / app {:?} do not follow the NNN.name[-input] convention",
                        pair.id(),
                        app.name
                    ),
                ));
            }
        }
    }
    report
}

/// Checks a whole roster: every profile individually, plus the P015
/// duplicate-fingerprint redundancy hint across all (app, size, input)
/// triples (128-bit stable hash of the full behaviour record).
pub fn check_roster(apps: &[AppProfile], config: Option<&SystemConfig>) -> Report {
    let mut report = Report::new();
    let mut seen: HashMap<(u64, u64), String> = HashMap::new();
    for app in apps {
        report.merge(check_app(app, config));
        for size in InputSize::ALL {
            for input in app.inputs(size) {
                let object = pair_object(app, size, &input.name);
                let key = key_of(&input.behavior);
                match seen.get(&(key.hi, key.lo)) {
                    Some(first) => {
                        report.push(Diagnostic::new(
                            &codes::P015,
                            Span::object(&object),
                            format!(
                                "behaviour fingerprint identical to {first}: \
                                 the pair is redundant before simulation"
                            ),
                        ));
                    }
                    None => {
                        seen.insert((key.hi, key.lo), object);
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{InputProfile, Suite};

    fn app_with(behaviors: Vec<(&str, Behavior)>) -> AppProfile {
        AppProfile {
            name: "901.kvstore_x".into(),
            suite: Suite::RateInt,
            test: vec![],
            train: vec![],
            reference: behaviors
                .into_iter()
                .map(|(name, behavior)| InputProfile {
                    name: name.into(),
                    behavior,
                })
                .collect(),
        }
    }

    #[test]
    fn default_behavior_is_clean() {
        let haswell = SystemConfig::haswell_e5_2650l_v3();
        let report = check_behavior("b", &Behavior::default(), Some(&haswell));
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn collects_all_violations_not_first_failure() {
        let b = Behavior {
            instructions_billions: -1.0,
            ipc_target: 0.0,
            load_pct: 120.0,
            threads: 0,
            ..Behavior::default()
        };
        let report = check_behavior("b", &b, None);
        let fired: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        for code in ["P001", "P002", "P003", "P004", "P009"] {
            assert!(fired.contains(&code), "expected {code} in {fired:?}");
        }
    }

    #[test]
    fn nan_miss_target_denormalizes_the_cdf() {
        let b = Behavior {
            l2_miss_target: f64::NAN,
            ..Behavior::default()
        };
        let report = check_behavior("b", &b, None);
        let fired: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        assert!(fired.contains(&"P006"), "{fired:?}");
        assert!(fired.contains(&"P012"), "{fired:?}");
    }

    #[test]
    fn plausibility_warnings_do_not_error() {
        let b = Behavior {
            ipc_target: 3.9, // legal but above Haswell's width under P010
            mispredict_target: 0.4,
            instructions_billions: 0.0001,
            ..Behavior::default()
        };
        let haswell = SystemConfig::haswell_e5_2650l_v3();
        let report = check_behavior("b", &b, Some(&haswell));
        assert!(!report.has_errors(), "{}", report.to_table());
        let fired: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        assert!(fired.contains(&"P011"), "{fired:?}");
        assert!(fired.contains(&"P016"), "{fired:?}");
    }

    #[test]
    fn dram_traffic_without_footprint_fires_p014() {
        let b = Behavior {
            l1_miss_target: 0.5,
            l2_miss_target: 0.8,
            l3_miss_target: 0.9,
            rss_gib: 0.01, // 10 MiB — fits in the 30 MiB L3
            vsz_gib: 0.02,
            ..Behavior::default()
        };
        let haswell = SystemConfig::haswell_e5_2650l_v3();
        let report = check_behavior("b", &b, Some(&haswell));
        assert!(report.diagnostics().iter().any(|d| d.code.code == "P014"));
    }

    #[test]
    fn duplicate_fingerprints_fire_p015() {
        let app = app_with(vec![
            ("in1", Behavior::default()),
            ("in2", Behavior::default()),
        ]);
        let report = check_roster(&[app], None);
        let p015: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code.code == "P015")
            .collect();
        assert_eq!(p015.len(), 1, "{}", report.to_table());
        assert_eq!(p015[0].span.object, "901.kvstore_x/ref/in2");
        assert!(p015[0].message.contains("901.kvstore_x/ref/in1"));
    }

    #[test]
    fn odd_id_is_a_warning_not_an_error() {
        let mut app = app_with(vec![("in1", Behavior::default())]);
        app.name = "mcf".to_string();
        let report = check_roster(&[app], None);
        assert!(!report.has_errors(), "{}", report.to_table());
        let p017: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code.code == "P017")
            .collect();
        assert_eq!(p017.len(), 1, "{}", report.to_table());
        assert_eq!(p017[0].severity, simcheck::Severity::Warning);
        assert_eq!(
            p017[0].message,
            "id \"mcf\" / app \"mcf\" do not follow the NNN.name[-input] convention"
        );
        // The conventional name of the same app is clean.
        let report = check_roster(&[app_with(vec![("in1", Behavior::default())])], None);
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn distinct_behaviors_do_not_fire_p015() {
        let mut other = Behavior::default();
        other.instructions_billions += 1.0;
        let app = app_with(vec![("in1", Behavior::default()), ("in2", other)]);
        let report = check_roster(&[app], None);
        assert!(report.is_empty(), "{}", report.to_table());
    }
}
