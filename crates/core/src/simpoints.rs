//! Roster-wide simpoint campaigns: representative-interval analysis
//! (`simpoint::analyze`) of every application–input pair, persisted as
//! schema-versioned [`SimpointRecord`]s in a content-addressed store.
//!
//! The store layout mirrors [`crate::cache`]: each record's key is derived
//! from the model fingerprint, the pair identity, the simulated system, the
//! trace scale, and every simpoint tuning knob, so re-running a campaign with any ingredient
//! changed transparently re-analyzes only the affected pairs. Campaigns are
//! cache-first — a decodable stored record short-circuits the
//! analysis — and run pairs in parallel on the panic-isolated
//! [`Scheduler`]. The `reproduce`/`extensions` binaries drive this behind
//! `--simpoint`; `simgate simpoint` renders and gates the stored records.

use simpoint::{analyze, GapMode, SimpointConfig, SimpointRecord, SIMPOINT_SCHEMA_VERSION};
use simreport::fixed::Fixed;
use simreport::table::{num, Table};
use simstore::{Key, Scheduler, StableHash, StableHasher, Store};
use uarch_sim::counters::Event;
use workload_synth::profile::{AppInputPair, AppProfile, InputSize};

use crate::cache::{hash_system, MODEL_FINGERPRINT};
use crate::characterize::{prepared_run, RunConfig};
use crate::error::{Error, Result};

/// Feeds every result-affecting simpoint knob into `h`.
fn hash_simpoint_config(h: &mut StableHasher, sp: &SimpointConfig) {
    h.write_u32(SIMPOINT_SCHEMA_VERSION);
    h.write_usize(sp.target_intervals);
    h.write_u64(sp.interval_ops);
    h.write_usize(sp.max_k);
    h.write_f64(sp.error_budget);
    h.write_u8(match sp.gap_mode {
        GapMode::Warm => 0,
        GapMode::Skip => 1,
    });
    h.write_usize(sp.warmup_intervals);
    match sp.force_k {
        Some(k) => {
            h.write_u8(1);
            h.write_usize(k);
        }
        None => h.write_u8(0),
    }
}

/// The content key addressing `pair`'s simpoint record under the given run
/// and simpoint configurations.
pub fn simpoint_key(pair: &AppInputPair<'_>, run: &RunConfig, sp: &SimpointConfig) -> Key {
    let mut h = StableHasher::new();
    h.write_u32(MODEL_FINGERPRINT);
    pair.stable_hash(&mut h);
    hash_system(&mut h, &run.system);
    run.scale.stable_hash(&mut h);
    hash_simpoint_config(&mut h, sp);
    h.finish()
}

/// Analyzes one pair end to end and packages the result.
///
/// # Errors
///
/// [`Error::Behavior`] when the pair's profile fails validation;
/// [`Error::Stats`] when clustering rejects the feature matrix;
/// [`Error::MissingData`] when the pair's trace is empty.
pub fn analyze_pair(
    pair: &AppInputPair<'_>,
    run: &RunConfig,
    sp: &SimpointConfig,
) -> Result<SimpointRecord> {
    let (trace, hints) = prepared_run(pair, run)?;
    let analysis = analyze(&run.system, &trace, &hints, sp).map_err(|e| match e {
        simpoint::SimpointError::EmptyTrace => {
            Error::MissingData(format!("pair {} has an empty trace", pair.id()))
        }
        simpoint::SimpointError::Stats(e) => Error::Stats(e),
    })?;
    Ok(SimpointRecord::from_analysis(&pair.id(), &analysis))
}

/// [`analyze_pair`] through an optional store: a stored, decodable record
/// under the pair's key is returned as-is; otherwise the pair is analyzed
/// and the fresh record persisted (write failures are non-fatal — the
/// record is still returned).
pub fn analyze_pair_cached(
    pair: &AppInputPair<'_>,
    run: &RunConfig,
    sp: &SimpointConfig,
    store: Option<&Store>,
) -> Result<SimpointRecord> {
    let key = simpoint_key(pair, run, sp);
    if let Some(store) = store {
        if let Some(record) = store.get(key).and_then(|p| SimpointRecord::decode(&p).ok()) {
            return Ok(record);
        }
    }
    let record = analyze_pair(pair, run, sp)?;
    if let Some(store) = store {
        if let Err(e) = store.put(key, &record.encode()) {
            eprintln!("warning: cannot persist simpoint record {}: {e}", record.id);
        }
    }
    Ok(record)
}

/// Analyzes an explicit pair list in parallel on the [`Scheduler`],
/// preserving order, cache-first when a store is given. Each job is
/// labelled with the pair id and input size (`505.mcf_r/ref`).
///
/// # Errors
///
/// [`Error::Characterization`] listing every pair that still failed after
/// the scheduler's retry.
pub fn analyze_pairs(
    pairs: &[AppInputPair<'_>],
    run: &RunConfig,
    sp: &SimpointConfig,
    store: Option<&Store>,
) -> Result<Vec<SimpointRecord>> {
    Scheduler::available()
        .run(
            pairs.len(),
            |i| format!("{}/{}", pairs[i].id(), pairs[i].size.label()),
            |i| analyze_pair_cached(&pairs[i], run, sp, store).unwrap_or_else(|e| panic!("{e}")),
            |_| {},
        )
        .into_results()
        .map_err(|failures| Error::Characterization {
            failures,
            total: pairs.len(),
        })
}

/// Runs a simpoint campaign over every input of every application at
/// `size`.
///
/// # Errors
///
/// [`Error::Characterization`] listing every failed pair.
pub fn run_roster(
    apps: &[AppProfile],
    size: InputSize,
    run: &RunConfig,
    sp: &SimpointConfig,
    store: Option<&Store>,
) -> Result<Vec<SimpointRecord>> {
    let pairs: Vec<AppInputPair<'_>> = apps.iter().flat_map(|app| app.pairs(size)).collect();
    analyze_pairs(&pairs, run, sp, store)
}

/// The per-pair speedup-vs-error summary table `simgate simpoint` (and the
/// binaries' `--simpoint` sections) print.
pub fn summary_table(records: &[SimpointRecord]) -> Table {
    let mut table = Table::new(
        "Simpoint speedup vs. reconstruction error",
        &[
            "pair",
            "intervals",
            "k",
            "silhouette",
            "speedup",
            "ipc err %",
            "l1 mpki err %",
            "l2 mpki err %",
            "l3 mpki err %",
            "max err %",
        ],
    );
    table.numeric();
    for r in records {
        table.row(vec![
            r.id.clone(),
            r.n_intervals().to_string(),
            r.k().to_string(),
            num(r.silhouette, 3),
            format!("{:.1}x", Fixed(r.speedup())),
            num(r.ipc_error() * 100.0, 2),
            num(r.mpki_error(Event::MemLoadUopsRetiredL1Miss) * 100.0, 2),
            num(r.mpki_error(Event::MemLoadUopsRetiredL2Miss) * 100.0, 2),
            num(r.mpki_error(Event::MemLoadUopsRetiredL3Miss) * 100.0, 2),
            num(r.max_headline_error() * 100.0, 2),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload_synth::cpu2017;
    use workload_synth::generator::TraceScale;

    fn quick() -> RunConfig {
        RunConfig::quick()
    }

    #[test]
    fn keys_separate_simpoint_configs() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let run = quick();
        let a = simpoint_key(pair, &run, &SimpointConfig::default());
        let b = simpoint_key(
            pair,
            &run,
            &SimpointConfig {
                max_k: 4,
                ..SimpointConfig::default()
            },
        );
        let c = simpoint_key(
            pair,
            &run,
            &SimpointConfig {
                gap_mode: GapMode::Skip,
                ..SimpointConfig::default()
            },
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // Same ingredients, same key.
        assert_eq!(a, simpoint_key(pair, &run, &SimpointConfig::default()));
        // The run configuration is part of the identity too.
        let other_scale = RunConfig {
            scale: TraceScale::default(),
            ..quick()
        };
        assert_ne!(
            a,
            simpoint_key(pair, &other_scale, &SimpointConfig::default())
        );
    }

    #[test]
    fn cached_campaign_replays_identical_records() {
        let root =
            std::env::temp_dir().join(format!("workchar-simpoint-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root).unwrap();
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pairs = app.pairs(InputSize::Ref);
        let run = quick();
        let sp = SimpointConfig::default();
        let cold = analyze_pairs(&pairs, &run, &sp, Some(&store)).unwrap();
        assert_eq!(store.len(), pairs.len(), "every record persisted");
        let warm = analyze_pairs(&pairs, &run, &sp, Some(&store)).unwrap();
        assert_eq!(cold, warm, "store replay must be lossless");
        let uncached = analyze_pairs(&pairs, &run, &sp, None).unwrap();
        assert_eq!(cold, uncached, "caching must not change results");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_jobs_are_labelled_with_the_input_size() {
        let apps = crate::characterize::tests::poisoned_apps();
        let pairs: Vec<AppInputPair<'_>> =
            apps.iter().flat_map(|a| a.pairs(InputSize::Ref)).collect();
        let err = analyze_pairs(&pairs, &quick(), &SimpointConfig::default(), None).unwrap_err();
        match err {
            Error::Characterization { failures, total } => {
                assert_eq!(total, 3);
                assert_eq!(failures.len(), 1, "exactly the broken pair fails");
                assert_eq!(failures[0].label, "999.broken_r/ref");
            }
            other => panic!("expected Characterization, got {other:?}"),
        }
    }

    #[test]
    fn summary_table_is_rectangular() {
        let app = cpu2017::app("505.mcf_r").unwrap();
        let pair = &app.pairs(InputSize::Ref)[0];
        let record = analyze_pair(pair, &quick(), &SimpointConfig::default()).unwrap();
        assert_eq!(record.id, "505.mcf_r");
        let table = summary_table(&[record]);
        assert_eq!(table.n_rows(), 1);
        assert_eq!(table.rows()[0].len(), table.headers().len());
        let text = table.render_ascii();
        assert!(text.contains("505.mcf_r"), "{text}");
    }
}
