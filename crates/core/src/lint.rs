//! Static auditing: the campaign pre-flight gate and the result-store
//! audit (the `R` family of the `simcheck` catalog).
//!
//! A record's counter identities are held where records are built and
//! decoded ([`uarch_sim::counters::PerfSession::check`], called by
//! [`crate::characterize::characterize_pair`] and [`decode_record`]), and
//! its rates are derived from its counters, so the store audit needs no
//! pass of its own over decoded records: an entry is clean when it
//! decodes. [`check_campaign`] (profiles + config, the `--lint` gate of
//! the binaries) and [`audit_cache`] return a [`simcheck::Report`] that
//! the caller renders or converts into [`crate::error::Error::Lint`].

use simcheck::{codes, Diagnostic, Report, Span};
use simstore::Store;
use workload_synth::profile::AppProfile;

use crate::cache::decode_record;
use crate::characterize::RunConfig;

/// Audits every entry of a content-addressed results store without knowing
/// which pairs produced them: unreadable envelopes are `R020`, payloads
/// that do not decode as a record, counter identities included, `R021`.
/// Returns the merged report and the number of entries visited.
pub fn audit_cache(store: &Store) -> (usize, Report) {
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
                "envelope failed verification; entry reads as a miss".to_string(),
            )),
            Some(payload) => {
                if let Err(e) = decode_record(&payload) {
                    report.push(Diagnostic::new(
                        &codes::R021,
                        Span::object(&object),
                        format!("payload does not decode: {e}"),
                    ));
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{encode_record, pair_key, RecordError};
    use crate::characterize::{characterize_pair, CharRecord};
    use uarch_sim::counters::{Event, IdentityError, PerfSession};
    use uarch_sim::timeline::{CounterTimeline, SamplerConfig};
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    // The record rules this module used to run are held elsewhere now: the
    // counter identities by `PerfSession::check` (run where records are
    // built and decoded), IPC against the issue width by the ILP clamp, and
    // the timeline's shape by its only writer. These tests pin each of them
    // on real records.

    fn record() -> CharRecord {
        let app = cpu2017::app("505.mcf_r").unwrap();
        characterize_pair(&app.pairs(InputSize::Ref)[0], &RunConfig::quick()).unwrap()
    }

    fn sampled_record(app: &str) -> CharRecord {
        let app = cpu2017::app(app).unwrap();
        let config = RunConfig::quick().with_sampler(SamplerConfig::every(5_000));
        characterize_pair(&app.pairs(InputSize::Ref)[0], &config).unwrap()
    }

    /// What a timeline must satisfy against its run's final counters:
    /// intervals that tile the counted ops from 0 without gap or overlap
    /// (`"contiguity"`), and deltas that telescope to the finals exactly
    /// (`"sums"`). Returns the names of the broken properties.
    fn timeline_faults(timeline: &CounterTimeline, finals: &PerfSession) -> Vec<&'static str> {
        let mut faults = Vec::new();
        let mut end = 0;
        for iv in &timeline.intervals {
            if iv.start_op != end || iv.end_op <= iv.start_op {
                faults.push("contiguity");
                break;
            }
            end = iv.end_op;
        }
        let total = timeline.total();
        if Event::ALL
            .iter()
            .any(|&e| total.count(e) != finals.count(e))
        {
            faults.push("sums");
        }
        faults
    }

    #[test]
    fn genuine_record_is_clean() {
        let r = record();
        assert_eq!(r.session.check(), Ok(()));
        assert_eq!(decode_record(&encode_record(&r)), Ok(r));
    }

    #[test]
    fn sampled_record_timeline_is_clean() {
        let r = sampled_record("541.leela_r");
        let timeline = r.session.timeline().expect("sampler attaches a timeline");
        assert!(timeline.len() > 1, "{} intervals", timeline.len());
        assert_eq!(timeline_faults(timeline, &r.session), Vec::<&str>::new());
        assert_eq!(r.session.check(), Ok(()));
    }

    #[test]
    fn tampered_counters_trip_partitions() {
        let mut r = record();
        let hits = r.session.count(Event::MemLoadUopsRetiredL1Hit);
        r.session.set(Event::MemLoadUopsRetiredL1Hit, hits + 7);
        let broken = r.session.check();
        assert!(
            matches!(broken, Err(IdentityError::L1Partition { .. })),
            "{broken:?}"
        );
        assert_eq!(
            decode_record(&encode_record(&r)),
            Err(RecordError::Identity(broken.unwrap_err()))
        );
    }

    #[test]
    fn impossible_ipc_needs_config() {
        let width = RunConfig::quick().system.timing.issue_width as f64;
        let genuine = record();
        assert!(
            genuine.ipc() <= width,
            "IPC {} > width {width}",
            genuine.ipc()
        );

        // IPC 40 breaks no counter identity: only the machine's issue width
        // rules it out.
        let mut r = genuine;
        let cycles = r.session.count(Event::InstRetiredAny) / 40;
        r.session.set(Event::CpuClkUnhaltedRefTsc, cycles.max(1));
        assert_eq!(r.session.check(), Ok(()));
        assert!(r.ipc() > width, "IPC {} <= width {width}", r.ipc());
    }

    #[test]
    fn broken_timeline_sums_are_caught() {
        let mut r = sampled_record("505.mcf_r");
        let mut timeline = r.session.take_timeline().unwrap();
        assert_eq!(timeline_faults(&timeline, &r.session), Vec::<&str>::new());
        timeline.intervals[0]
            .deltas
            .set(Event::InstRetiredAny, 999_999_999);
        timeline.intervals[0].end_op += 1; // overlap with interval 1
        assert_eq!(
            timeline_faults(&timeline, &r.session),
            vec!["contiguity", "sums"]
        );
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
        let (n, report) = audit_cache(&store);
        assert_eq!(n, 1);
        assert!(report.is_empty(), "{}", report.to_table());

        // A payload that is not a CharRecord encoding: R021.
        store
            .put(simstore::hash::key_of("junk"), b"not a record")
            .unwrap();
        let (n, report) = audit_cache(&store);
        assert_eq!(n, 2);
        assert_eq!(report.count(simcheck::Severity::Error), 1);
        assert!(report.diagnostics().iter().any(|d| d.code.code == "R021"));

        // A tampered record re-encoded under its own key: R021 names the
        // broken identity.
        let mut bad = good.clone();
        bad.session.set(Event::MemLoadUopsRetiredL1Hit, 0);
        store
            .put(pair_key(pair, &config), &encode_record(&bad))
            .unwrap();
        let (_, report) = audit_cache(&store);
        assert_eq!(report.count(simcheck::Severity::Error), 2);
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.code.code == "R021" && d.message.contains("L1 hits + misses")));
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
