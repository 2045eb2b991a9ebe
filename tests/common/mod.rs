//! Fixtures shared by the integration tests that drive a failing campaign.

use spec2017_workchar::workload_synth::cpu2017;
use spec2017_workchar::workload_synth::profile::{AppProfile, Behavior, InputProfile, Suite};

/// One healthy pair plus one whose behavior profile fails validation, which
/// the scheduler surfaces as an injected panic (retried once, then reported).
pub fn poisoned_apps() -> Vec<AppProfile> {
    let bad_behavior = Behavior {
        load_pct: 90.0,
        store_pct: 20.0,
        ..Default::default()
    };
    let bad_input = InputProfile {
        name: "impossible".into(),
        behavior: bad_behavior,
    };
    let bad = AppProfile {
        name: "999.broken_r".into(),
        suite: Suite::RateInt,
        test: vec![bad_input.clone()],
        train: vec![bad_input.clone()],
        reference: vec![bad_input],
    };
    vec![cpu2017::app("505.mcf_r").unwrap(), bad]
}
