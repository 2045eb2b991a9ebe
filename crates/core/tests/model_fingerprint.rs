//! The model fingerprint pins what the simulator computes.
//!
//! `MODEL_FINGERPRINT` is hashed into every cache and simpoint key, so a
//! change to the generator, the engine or the footprint model must bump
//! it, or a warm run replays what the old model computed. This test holds
//! the full counter set of four contrasting ref pairs (the pairs of
//! `golden_stream`), recorded under the fingerprint below: a change that
//! moves any counter fails it until the fingerprint is bumped and the
//! digests are recorded again.

use simstore::StableHasher;
use uarch_sim::counters::Event;
use workchar::cache::MODEL_FINGERPRINT;
use workchar::characterize::{characterize_pair, RunConfig};
use workload_synth::cpu2017;
use workload_synth::profile::InputSize;

/// The fingerprint the digests below were recorded under.
const RECORDED_UNDER: u32 = 1;

/// Memory-bound, branch-hostile, streaming and compute-bound.
const GOLDEN: [(&str, &str); 4] = [
    ("505.mcf_r", "fe47e70048d1fd9daac7a474c5cf8b36"),
    ("541.leela_r", "2a12264d5229143dbe00d3aefae20a7f"),
    ("519.lbm_r", "faecd3eb15c0759f051fa18af2ae6d9c"),
    ("548.exchange2_r", "f71845def8532df933ef212814c657cd"),
];

/// The digest of every counter, the op count and the footprint of `app`'s
/// first ref pair as `reproduce --quick` characterizes it (the four pairs
/// take about half a second in a debug build).
fn record_digest(app: &str) -> String {
    let config = RunConfig::quick();
    let profile = cpu2017::app(app).expect("roster app");
    let record = characterize_pair(&profile.pairs(InputSize::Ref)[0], &config).expect("valid");
    let mut h = StableHasher::new();
    for event in Event::ALL {
        h.write_u64(record.session.count(event));
    }
    h.write_u64(record.sim_ops);
    h.write_f64(record.rss_gib);
    h.write_f64(record.vsz_gib);
    h.finish().to_string()
}

#[test]
fn golden_counters_match_the_model_fingerprint() {
    let got: Vec<(&str, String)> = GOLDEN
        .iter()
        .map(|&(app, _)| (app, record_digest(app)))
        .collect();
    let want: Vec<(&str, String)> = GOLDEN
        .iter()
        .map(|&(app, digest)| (app, digest.to_string()))
        .collect();
    assert!(
        got == want,
        "the golden pairs' counters moved: bump MODEL_FINGERPRINT and re-record \
         (GOLDEN = {got:?}, RECORDED_UNDER = the new fingerprint)"
    );
    assert_eq!(
        MODEL_FINGERPRINT, RECORDED_UNDER,
        "MODEL_FINGERPRINT changed: re-record GOLDEN under it and set RECORDED_UNDER"
    );
}
