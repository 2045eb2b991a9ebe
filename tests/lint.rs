//! Static-analysis integration: the `simcheck` rule families against the
//! shipped rosters (golden: everything lints clean) and against
//! deliberately corrupted profiles, configs, cached entries, and event
//! streams (negative: each family fires with its stable rule code).

use spec2017_workchar::simcheck::{self, Severity};
use spec2017_workchar::simstore::{key_of, Store};
use spec2017_workchar::uarch_sim::config::{CacheConfig, SystemConfig};
use spec2017_workchar::uarch_sim::counters::Event;
use spec2017_workchar::uarch_sim::replacement::Policy;
use spec2017_workchar::workchar::cache::{encode_record, pair_key};
use spec2017_workchar::workchar::characterize::{characterize_pair, RunConfig};
use spec2017_workchar::workchar::lint as result_lint;
use spec2017_workchar::workload_synth::lint as profile_lint;
use spec2017_workchar::workload_synth::profile::{Behavior, InputSize};
use spec2017_workchar::workload_synth::{cpu2006, cpu2017};

fn haswell() -> SystemConfig {
    SystemConfig::haswell_e5_2650l_v3()
}

// ---------------------------------------------------------------- golden

/// The shipped rosters — all 194 CPU2017 pairs across every input size,
/// plus the 29 CPU2006 pairs — and the paper's Haswell configuration must
/// lint completely clean: no errors, no warnings, and (roster-side) no
/// infos. This is the repository's own gate: any threshold change that
/// flags a shipped profile fails here, not in a user's campaign.
#[test]
fn shipped_rosters_and_config_lint_clean() {
    let cpu17 = cpu2017::suite();
    let cpu06 = cpu2006::suite();
    let total: usize = cpu17
        .iter()
        .chain(&cpu06)
        .flat_map(|a| InputSize::ALL.map(|s| a.pairs(s).len()))
        .sum();
    assert_eq!(total, 194 + 29, "roster shape changed — update this test");

    let config = RunConfig::default();
    let report = result_lint::check_campaign(&[&cpu17, &cpu06], &config);
    // The only accepted diagnostic is the documented C004 info: Haswell's
    // 30 MiB 20-way L3 genuinely has a non-power-of-two set count.
    assert!(!report.has_errors(), "{}", report.to_table());
    assert!(!report.has_warnings(), "{}", report.to_table());
    for d in report.diagnostics() {
        assert_eq!(d.code.code, "C004", "unexpected info: {d}");
    }
}

// ------------------------------------------------------------- P: profiles

#[test]
fn profile_rules_collect_every_violation() {
    let bad = Behavior {
        instructions_billions: -1.0, // P001
        load_pct: 80.0,
        store_pct: 30.0,     // P004 with loads+branches
        cond_frac: 0.2,      // P005: kinds no longer sum to 1
        l1_miss_target: 1.7, // P006
        ..Default::default()
    };
    let report = bad.check("999.bad_r/ref/in1", None);
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
    for expect in ["P001", "P004", "P005", "P006"] {
        assert!(codes.contains(&expect), "missing {expect} in {codes:?}");
    }
    // The legacy single-shot API still reports the *first* failure only.
    let err = bad.validate().unwrap_err();
    assert_eq!(err.what, "instructions_billions must be positive");
}

#[test]
fn duplicate_profiles_across_a_roster_warn() {
    let mut apps = vec![cpu2017::app("505.mcf_r").unwrap()];
    let mut clone = apps[0].clone();
    clone.name = "999.copycat_r".to_string();
    apps.push(clone);
    let report = profile_lint::check_roster(&apps, None);
    let dup: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code.code == "P015")
        .collect();
    assert!(!dup.is_empty(), "{}", report.to_table());
    assert_eq!(dup[0].severity, Severity::Warning);
    assert!(dup[0].span.object.starts_with("999.copycat_r/"));
}

// -------------------------------------------------------------- C: configs

#[test]
fn illegal_cache_geometry_is_rejected_with_codes() {
    // 12 KiB, 3-way, 48-byte lines: C001 (line not a power of two).
    let report = CacheConfig::try_new(12 * 1024, 3, 48, Policy::Lru).unwrap_err();
    assert!(report.has_errors());
    assert!(report.diagnostics().iter().any(|d| d.code.code == "C001"));

    let mut system = haswell();
    system.timing.issue_width = 64; // C008
    system.l2.size_bytes = system.l3.size_bytes * 2; // C005 containment
    let report = system.check();
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
    assert!(codes.contains(&"C008"), "{codes:?}");
    assert!(codes.contains(&"C005"), "{codes:?}");
}

// -------------------------------------------------------------- R: results

#[test]
fn cached_result_audit_catches_corruption() {
    let root = std::env::temp_dir().join(format!("workchar-lint-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).unwrap();
    let config = RunConfig::quick();
    let app = cpu2017::app("505.mcf_r").unwrap();
    let pair = &app.pairs(InputSize::Ref)[0];
    let record = characterize_pair(pair, &config).unwrap();
    store
        .put(pair_key(pair, &config), &encode_record(&record))
        .unwrap();

    // Genuine entry: clean.
    let (n, report) = result_lint::audit_cache(&store, Some(&config.system));
    assert_eq!(n, 1);
    assert!(report.is_empty(), "{}", report.to_table());

    // Tampered counters re-encoded under the same key: identity rules fire.
    let mut bad = record.clone();
    let l1h = bad.session.count(Event::MemLoadUopsRetiredL1Hit);
    bad.session.set(Event::MemLoadUopsRetiredL1Hit, l1h / 2);
    store
        .put(pair_key(pair, &config), &encode_record(&bad))
        .unwrap();
    // And a second entry whose payload is not a record at all.
    store.put(key_of("gibberish"), &[0u8; 16]).unwrap();

    let (n, report) = result_lint::audit_cache(&store, Some(&config.system));
    assert_eq!(n, 2);
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
    assert!(codes.contains(&"R001"), "{codes:?}");
    assert!(codes.contains(&"R021"), "{codes:?}");
    assert!(report.has_errors());
    let _ = std::fs::remove_dir_all(&root);
}

// ------------------------------------------------------------ S: simpoint

#[test]
fn simpoint_store_audit_catches_corruption() {
    use spec2017_workchar::simpoint::{self, SimpointConfig};
    use spec2017_workchar::workchar::simpoints::{analyze_pair, simpoint_key};

    let root = std::env::temp_dir().join(format!("workchar-splint-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root).unwrap();
    let run = RunConfig::quick();
    let sp = SimpointConfig::default();
    let app = cpu2017::app("505.mcf_r").unwrap();
    let pair = &app.pairs(InputSize::Ref)[0];
    let record = analyze_pair(pair, &run, &sp).unwrap();
    let key = simpoint_key(pair, &run, &sp);
    store.put(key, &record.encode()).unwrap();

    // Genuine record: clean.
    let (n, report) = simpoint::lint::audit_store(&store);
    assert_eq!(n, 1);
    assert!(report.is_empty(), "{}", report.to_table());

    // Tampered weights re-encoded under the same key: S001 fires. A second
    // entry whose payload is not a simpoint record at all: S005.
    let mut bad = record.clone();
    bad.weights[0] += 0.25;
    store.put(key, &bad.encode()).unwrap();
    store.put(key_of("sp-gibberish"), &[0u8; 12]).unwrap();

    let (n, report) = simpoint::lint::audit_store(&store);
    assert_eq!(n, 2);
    let codes: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
    assert!(codes.contains(&"S001"), "{codes:?}");
    assert!(codes.contains(&"S005"), "{codes:?}");
    assert!(report.has_errors());
    let _ = std::fs::remove_dir_all(&root);
}

// --------------------------------------------------------- catalog surface

#[test]
fn every_rule_family_is_explainable() {
    for code in ["P004", "C010", "R020", "T001", "S003", "F004", "D003"] {
        let text = simcheck::explain(code).unwrap();
        assert!(text.contains(code), "{text}");
        assert!(text.len() > 80, "explanation too thin for {code}");
    }
    assert!(simcheck::explain("Z999").is_none());
}

// ------------------------------------------------------ read-only audits

#[test]
fn store_audits_of_a_missing_dir_exit_2_and_create_nothing() {
    let scratch =
        std::env::temp_dir().join(format!("workchar-lint-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    let missing = scratch.join("no-such-store");
    let file = scratch.join("plain-file-store");
    std::fs::write(&file, "not a directory").unwrap();
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
    let lint = |flag: &str, dir: &std::path::Path| {
        std::process::Command::new(env!("CARGO"))
            .args(["run", "--release", "-q", "--manifest-path"])
            .arg(&manifest)
            .args(["-p", "workchar", "--bin", "lint", "--", flag])
            .arg(dir)
            .output()
            .expect("spawn lint")
    };
    for flag in ["--simpoint-dir", "--cache-dir", "--runs-dir"] {
        let output = lint(flag, &missing);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.contains("no-such-store"), "{flag}: {stderr}");
        assert!(!missing.exists(), "{flag} created {}", missing.display());
    }
    // A regular file is no directory either: exit 2, the file untouched.
    let output = lint("--runs-dir", &file);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("plain-file-store"), "{stderr}");
    assert_eq!(std::fs::read(&file).unwrap(), b"not a directory");
    let _ = std::fs::remove_dir_all(&scratch);
}
