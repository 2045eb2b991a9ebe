//! Static result auditing: the `R`-family rules of the `simcheck` catalog.
//!
//! Everything here inspects *already produced* artifacts — in-memory
//! [`CharRecord`]s, their sampled timelines, and cached `simstore` entries —
//! without re-running any simulation. The counter identities checked are
//! exact by construction in the engine (hit/miss partitions, branch-kind
//! partitions, telescoping timeline deltas), so any violation means the
//! record is corrupt, hand-edited, or produced by an incompatible engine
//! version rather than merely noisy.
//!
//! The campaign-facing entry points are [`check_campaign`] (profiles +
//! config, the `--lint` gate of the binaries) and [`audit_cache`] (every
//! entry of a results store). Both return a [`simcheck::Report`] that the
//! caller renders or converts into [`crate::error::Error::Lint`].

use simcheck::{codes, Diagnostic, Report, Span};
use simstore::Store;
use uarch_sim::config::SystemConfig;
use uarch_sim::counters::{Event, PerfSession};
use uarch_sim::timeline::CounterTimeline;
use workload_synth::profile::AppProfile;

use crate::cache::decode_record;
use crate::characterize::{CharRecord, RunConfig};

/// Relative tolerance for summary fields recomputed from raw counters.
/// Stored fields round-trip through an exact f64 codec, so disagreement
/// beyond a few ulps means divergent provenance, not rounding.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Audits one record's counter identities and derived summary fields
/// (rules `R001`–`R015`). `config` enables the machine-dependent checks
/// (`R006` IPC-vs-issue-width, `R013` projection consistency). The
/// record's timeline, when present, is audited too (`R010`/`R011`).
pub fn check_record(object: &str, r: &CharRecord, config: Option<&SystemConfig>) -> Report {
    let mut report = Report::new();
    let s = &r.session;
    let count = |e: Event| s.count(e);
    let inst = count(Event::InstRetiredAny);
    let cycles = count(Event::CpuClkUnhaltedRefTsc);
    let loads = count(Event::MemUopsRetiredAllLoads);
    let stores = count(Event::MemUopsRetiredAllStores);
    let branches = count(Event::BrInstExecAllBranches);
    let (l1h, l1m) = (
        count(Event::MemLoadUopsRetiredL1Hit),
        count(Event::MemLoadUopsRetiredL1Miss),
    );
    let (l2h, l2m) = (
        count(Event::MemLoadUopsRetiredL2Hit),
        count(Event::MemLoadUopsRetiredL2Miss),
    );
    let (l3h, l3m) = (
        count(Event::MemLoadUopsRetiredL3Hit),
        count(Event::MemLoadUopsRetiredL3Miss),
    );

    // Counter partitions are exact identities; sum in u128 so the audit
    // itself cannot overflow on a corrupted (e.g. all-0xff) record.
    let mut partition = |code, field: &str, parts: u128, whole: u128, what: &str| {
        if parts != whole {
            report.push(Diagnostic::new(
                code,
                Span::field(object, field),
                format!("{what}: parts sum to {parts}, whole is {whole}"),
            ));
        }
    };
    partition(
        &codes::R001,
        "l1",
        l1h as u128 + l1m as u128,
        loads as u128,
        "L1 hits + misses vs retired loads",
    );
    partition(
        &codes::R002,
        "l2",
        l2h as u128 + l2m as u128,
        l1m as u128,
        "L2 hits + misses vs L1 misses",
    );
    partition(
        &codes::R003,
        "l3",
        l3h as u128 + l3m as u128,
        l2m as u128,
        "L3 hits + misses vs L2 misses",
    );
    let kinds = count(Event::BrInstExecAllConditional) as u128
        + count(Event::BrInstExecAllDirectJmp) as u128
        + count(Event::BrInstExecAllDirectNearCall) as u128
        + count(Event::BrInstExecAllIndirectJumpNonCallRet) as u128
        + count(Event::BrInstExecAllIndirectNearReturn) as u128;
    partition(
        &codes::R004,
        "branch_kinds",
        kinds,
        branches as u128,
        "branch kind counters vs all executed branches",
    );

    let misp = count(Event::BrMispExecAllBranches);
    if misp > branches {
        report.push(Diagnostic::new(
            &codes::R005,
            Span::field(object, "mispredicts"),
            format!("{misp} mispredicts but only {branches} executed branches"),
        ));
    }

    let counter_ipc = if cycles > 0 {
        inst as f64 / cycles as f64
    } else {
        0.0
    };
    if let Some(system) = config {
        let width = system.timing.issue_width as f64;
        if counter_ipc > width + REL_TOL {
            report.push(Diagnostic::new(
                &codes::R006,
                Span::field(object, "ipc"),
                format!("counter IPC {counter_ipc:.4} exceeds issue width {width}"),
            ));
        }
    }

    if inst > 0 && cycles == 0 {
        report.push(Diagnostic::new(
            &codes::R007,
            Span::field(object, "cycles"),
            format!("{inst} retired instructions but zero cycles"),
        ));
    }

    if cycles > 0 && !close(r.ipc, counter_ipc) {
        report.push(Diagnostic::new(
            &codes::R008,
            Span::field(object, "ipc"),
            format!(
                "stored IPC {} but counters give {counter_ipc} ({inst} inst / {cycles} cycles)",
                r.ipc
            ),
        ));
    }

    // Stored headline percentages must be recomputable from the counters.
    let rates: [(&str, f64, f64); 7] = [
        ("load_pct", r.load_pct, s.load_fraction() * 100.0),
        ("store_pct", r.store_pct, s.store_fraction() * 100.0),
        ("branch_pct", r.branch_pct, s.branch_fraction() * 100.0),
        ("l1_miss_pct", r.l1_miss_pct, s.l1_miss_rate() * 100.0),
        ("l2_miss_pct", r.l2_miss_pct, s.l2_miss_rate() * 100.0),
        ("l3_miss_pct", r.l3_miss_pct, s.l3_miss_rate() * 100.0),
        (
            "mispredict_pct",
            r.mispredict_pct,
            s.mispredict_rate() * 100.0,
        ),
    ];
    for (field, stored, derived) in rates {
        if !close(stored, derived) {
            report.push(Diagnostic::new(
                &codes::R009,
                Span::field(object, field),
                format!("stored {field} {stored} but counters give {derived}"),
            ));
        }
    }

    if let Some(timeline) = s.timeline() {
        report.merge(check_timeline(object, timeline, s));
    }

    // `AppInputPair::id` yields `app` or `app-input`, with app names shaped
    // `NNN.name` (suite-suffixed for CPU2017); anything else will not join
    // against the roster tables.
    let app_shaped = {
        let digits = r.app.bytes().take_while(u8::is_ascii_digit).count();
        digits >= 1 && r.app.as_bytes().get(digits) == Some(&b'.') && r.app.len() > digits + 1
    };
    if !app_shaped || !r.id.starts_with(r.app.as_str()) {
        report.push(Diagnostic::new(
            &codes::R012,
            Span::field(object, "id"),
            format!(
                "id {:?} / app {:?} do not follow the NNN.name[-input] convention",
                r.id, r.app
            ),
        ));
    }

    if let Some(system) = config {
        // projected = inst_b·1e9 / (IPC · clock · threads): the implied
        // thread count must come out a whole number.
        if r.ipc > 0.0 && r.projected_seconds > 0.0 && r.instructions_billions > 0.0 {
            let clock_hz = system.timing.clock_ghz * 1e9;
            let implied = r.instructions_billions * 1e9 / (r.ipc * clock_hz * r.projected_seconds);
            let nearest = implied.round();
            if nearest < 1.0 || (implied - nearest).abs() > 0.02 * implied.max(1.0) {
                report.push(Diagnostic::new(
                    &codes::R013,
                    Span::field(object, "projected_seconds"),
                    format!(
                        "projection implies {implied:.3} threads — not a whole count \
                         consistent with IPC {:.4} at {:.2} GHz",
                        r.ipc, system.timing.clock_ghz
                    ),
                ));
            }
        }
    }

    if loads > inst {
        report.push(Diagnostic::new(
            &codes::R014,
            Span::field(object, "loads"),
            format!("{loads} retired load uops exceed {inst} retired instructions"),
        ));
    }

    if loads as u128 + stores as u128 + branches as u128 > inst as u128 {
        report.push(Diagnostic::new(
            &codes::R015,
            Span::field(object, "mix"),
            format!(
                "loads {loads} + stores {stores} + branches {branches} exceed \
                 {inst} retired instructions"
            ),
        ));
    }

    report
}

/// Audits a sampled timeline against its run's final counters: intervals
/// must be contiguous with increasing op counts (`R011`) and their deltas
/// must telescope to the final counter values exactly (`R010`).
pub fn check_timeline(object: &str, timeline: &CounterTimeline, finals: &PerfSession) -> Report {
    let mut report = Report::new();
    let mut prev_end = None;
    for (i, interval) in timeline.intervals.iter().enumerate() {
        if interval.end_op <= interval.start_op {
            report.push(Diagnostic::new(
                &codes::R011,
                Span::field(object, "timeline"),
                format!(
                    "interval {i} spans [{}, {}) — empty or reversed",
                    interval.start_op, interval.end_op
                ),
            ));
        }
        if let Some(end) = prev_end {
            if interval.start_op != end {
                report.push(Diagnostic::new(
                    &codes::R011,
                    Span::field(object, "timeline"),
                    format!(
                        "interval {i} starts at op {} but the previous ended at {end}",
                        { interval.start_op }
                    ),
                ));
            }
        }
        prev_end = Some(interval.end_op);
    }
    let total = timeline.total();
    for event in Event::ALL {
        let summed: u128 = timeline
            .intervals
            .iter()
            .map(|iv| iv.deltas.count(event) as u128)
            .sum();
        debug_assert_eq!(summed, total.count(event) as u128);
        if summed != finals.count(event) as u128 {
            report.push(Diagnostic::new(
                &codes::R010,
                Span::field(object, "timeline"),
                format!(
                    "interval deltas for {event} sum to {summed}, final counter is {}",
                    finals.count(event)
                ),
            ));
        }
    }
    report
}

/// Audits every entry of a content-addressed results store without knowing
/// which pairs produced them: unreadable envelopes are `R020`, undecodable
/// payloads `R021`, and every decoded record gets the full [`check_record`]
/// pass. Returns the merged report and the number of entries visited.
pub fn audit_cache(store: &Store, config: Option<&SystemConfig>) -> (usize, Report) {
    let mut report = Report::new();
    let mut keys = store.keys();
    keys.sort();
    let visited = keys.len();
    for key in keys {
        let object = format!("cache:{key}");
        match store.get(key) {
            None => report.push(Diagnostic::new(
                &codes::R020,
                Span::object(&object),
                "envelope failed verification; entry evicted".to_string(),
            )),
            Some(payload) => match decode_record(&payload) {
                Err(e) => report.push(Diagnostic::new(
                    &codes::R021,
                    Span::object(&object),
                    format!("payload does not decode: {e}"),
                )),
                Ok(record) => {
                    report.merge(check_record(
                        &format!("cache:{}", record.id),
                        &record,
                        config,
                    ));
                }
            },
        }
    }
    (visited, report)
}

/// The pre-flight gate behind the binaries' `--lint` flag: every profile of
/// every roster (`P`-rules, including per-roster duplicate detection) plus
/// the system configuration (`C`-rules, checked once), in one merged report.
pub fn check_campaign(rosters: &[&[AppProfile]], config: &RunConfig) -> Report {
    let mut report = uarch_sim::lint::check_system(&config.system);
    for apps in rosters {
        report.merge(workload_synth::lint::check_roster(
            apps,
            Some(&config.system),
        ));
    }
    report
}

/// The scheduler-shape roster explored by [`check_race`]: `(workers, jobs,
/// failing job indices)`. Covers the serial path, the jobs-shorter-than-pool
/// path, a contended batch, and the panic/failure-list protocol.
const RACE_SHAPES: &[(usize, usize, &[usize])] =
    &[(4, 16, &[]), (1, 4, &[]), (4, 2, &[]), (3, 12, &[0, 5, 10])];

/// Explores the scheduler's job/slot/failure synchronization protocol for
/// concurrency bugs (`X`-rules): every shape in the model roster is replayed
/// through the deterministic `simrace` shuffle harness under `seeds`
/// schedules each (vector-clock happens-before audit per schedule, deadlock
/// detection when no thread can step), and one *live* instrumented
/// [`Scheduler`](simstore::Scheduler) batch is audited with the same
/// checker. Returns the number of schedules explored and the merged report;
/// a clean protocol yields an empty report for every seed.
pub fn check_race(seeds: u64) -> (usize, Report) {
    let seed_list: Vec<u64> = (0..seeds.max(1)).collect();
    let mut report = Report::new();
    let mut explored = 0usize;
    for &(workers, jobs, failing) in RACE_SHAPES {
        let suffix = if failing.is_empty() { "" } else { "-failing" };
        let object = format!("race/model/scheduler-{workers}x{jobs}{suffix}");
        let threads = simrace::scenarios::scheduler_model(workers, jobs, failing);
        report.merge(simrace::scenarios::check_model(
            &object, &threads, &seed_list,
        ));
        explored += seed_list.len();
    }
    // One real batch through the instrumented scheduler, audited by the
    // same vector-clock checker the models use. The guard serializes with
    // any concurrently running simrace tests and leaves the hooks disabled.
    {
        let _guard = simrace::test_support::enabled();
        let sched = simstore::Scheduler::new(4);
        let run = sched.run(32, |i| format!("job-{i}"), |i| i * i, |_| {});
        debug_assert!(run.failures.is_empty());
        let events = simrace::drain();
        report.merge(simrace::checker::check_events(
            "race/live/scheduler",
            &events,
        ));
        explored += 1;
    }
    (explored, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{encode_record, pair_key};
    use crate::characterize::characterize_pair;
    use uarch_sim::timeline::SamplerConfig;
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    fn record() -> CharRecord {
        let app = cpu2017::app("505.mcf_r").unwrap();
        characterize_pair(&app.pairs(InputSize::Ref)[0], &RunConfig::quick()).unwrap()
    }

    fn haswell() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    #[test]
    fn genuine_record_is_clean() {
        let r = record();
        let report = check_record(&r.id, &r, Some(&haswell()));
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn sampled_record_timeline_is_clean() {
        let app = cpu2017::app("541.leela_r").unwrap();
        let config = RunConfig::quick().with_sampler(SamplerConfig::every(5_000));
        let r = characterize_pair(&app.pairs(InputSize::Ref)[0], &config).unwrap();
        assert!(r.session.timeline().is_some());
        let report = check_record(&r.id, &r, Some(&haswell()));
        assert!(report.is_empty(), "{}", report.to_table());
    }

    #[test]
    fn tampered_counters_trip_partitions() {
        let mut r = record();
        let hits = r.session.count(Event::MemLoadUopsRetiredL1Hit);
        r.session.set(Event::MemLoadUopsRetiredL1Hit, hits + 7);
        let report = check_record(&r.id, &r, None);
        assert!(report.has_errors());
        assert!(report.diagnostics().iter().any(|d| d.code.code == "R001"));
    }

    #[test]
    fn edited_summary_field_trips_consistency() {
        let mut r = record();
        r.ipc *= 1.5;
        r.load_pct += 3.0;
        let codes_hit: Vec<&str> = check_record(&r.id, &r, None)
            .diagnostics()
            .iter()
            .map(|d| d.code.code)
            .collect();
        assert!(codes_hit.contains(&"R008"), "{codes_hit:?}");
        assert!(codes_hit.contains(&"R009"), "{codes_hit:?}");
    }

    #[test]
    fn impossible_ipc_needs_config() {
        let mut r = record();
        let cycles = r.session.count(Event::InstRetiredAny) / 40; // IPC = 40
        r.session.set(Event::CpuClkUnhaltedRefTsc, cycles.max(1));
        r.ipc = r.session.ipc();
        assert!(!check_record(&r.id, &r, None)
            .diagnostics()
            .iter()
            .any(|d| d.code.code == "R006"));
        assert!(check_record(&r.id, &r, Some(&haswell()))
            .diagnostics()
            .iter()
            .any(|d| d.code.code == "R006"));
    }

    #[test]
    fn odd_id_is_a_warning_not_an_error() {
        let mut r = record();
        r.id = "handmade".to_string();
        r.app = "mcf".to_string();
        let report = check_record(&r.id, &r, None);
        assert!(!report.has_errors());
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code.code == "R012" && d.severity == simcheck::Severity::Warning));
    }

    #[test]
    fn broken_timeline_sums_are_caught() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let config = RunConfig::quick().with_sampler(SamplerConfig::every(5_000));
        let mut r = characterize_pair(&app.pairs(InputSize::Ref)[0], &config).unwrap();
        let mut timeline = r.session.take_timeline().unwrap();
        timeline.intervals[0]
            .deltas
            .set(Event::InstRetiredAny, 999_999_999);
        timeline.intervals[0].end_op += 1; // overlap with interval 1
        let report = check_timeline(&r.id, &timeline, &r.session);
        let codes_hit: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        assert!(codes_hit.contains(&"R010"), "{codes_hit:?}");
        assert!(codes_hit.contains(&"R011"), "{codes_hit:?}");
    }

    #[test]
    fn cache_audit_flags_corruption_and_passes_good_entries() {
        let root = std::env::temp_dir().join(format!("workchar-lint-audit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        let config = RunConfig::quick();
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let good = characterize_pair(pair, &config).unwrap();
        store
            .put(pair_key(pair, &config), &encode_record(&good))
            .unwrap();
        let (n, report) = audit_cache(&store, Some(&config.system));
        assert_eq!(n, 1);
        assert!(report.is_empty(), "{}", report.to_table());

        // A payload that is not a CharRecord encoding: R021.
        store
            .put(simstore::hash::key_of("junk"), b"not a record")
            .unwrap();
        let (n, report) = audit_cache(&store, None);
        assert_eq!(n, 2);
        assert_eq!(report.count(simcheck::Severity::Error), 1);
        assert!(report.diagnostics().iter().any(|d| d.code.code == "R021"));

        // A tampered record re-encoded under its own key: counter rules fire.
        let mut bad = good.clone();
        bad.session.set(Event::MemLoadUopsRetiredL1Hit, 0);
        store
            .put(pair_key(pair, &config), &encode_record(&bad))
            .unwrap();
        let (_, report) = audit_cache(&store, Some(&config.system));
        assert!(report.diagnostics().iter().any(|d| d.code.code == "R001"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_gate_is_clean_for_shipped_rosters() {
        let config = RunConfig::default();
        let cpu17 = cpu2017::suite();
        let cpu06 = workload_synth::cpu2006::suite();
        let report = check_campaign(&[&cpu17, &cpu06], &config);
        assert!(!report.failed(true), "{}", report.to_table());
    }
}
