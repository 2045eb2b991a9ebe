//! Integration-level guarantees of the store: on-disk round trips across
//! reopen, cross-process key stability, and scheduler/store composition.

use std::path::PathBuf;

use simstore::{key_of, Decoder, Encoder, Key, Scheduler, StableHasher, Store};

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simstore-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Write → drop → reopen → read: the payload must come back byte-identical
/// through a fresh handle that reads the record files directly.
#[test]
fn round_trip_survives_reopen() {
    let root = tmp_root("roundtrip");
    let mut keys = Vec::new();
    {
        let store = Store::open(&root).unwrap();
        for i in 0..64u64 {
            let key = key_of(&format!("pair-{i}"));
            let mut e = Encoder::new();
            e.put_u64(i);
            e.put_str(&format!("record body {i}"));
            e.put_f64(i as f64 * 0.25);
            store.put(key, &e.into_bytes()).unwrap();
            keys.push((key, i));
        }
    }
    let reopened = Store::open(&root).unwrap();
    assert_eq!(reopened.len(), 64);
    for (key, i) in keys {
        let bytes = reopened.get(key).expect("record survives reopen");
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u64().unwrap(), i);
        assert_eq!(d.take_str().unwrap(), format!("record body {i}"));
        assert_eq!(d.take_f64().unwrap(), i as f64 * 0.25);
        d.finish().unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The hasher must produce the same keys in every process and on every
/// build — these literals were recorded from a previous run, so any drift
/// in the hash function (which would orphan every persisted record) fails
/// here, not in a silently cold cache.
#[test]
fn keys_are_stable_across_processes() {
    assert_eq!(
        key_of("505.mcf_r").to_string(),
        "5799cbf06d90c87deb0c72725bc05ea1"
    );
    let mut h = StableHasher::new();
    h.write_u32(1); // a schema version
    h.write_str("603.bwaves_s");
    h.write_f64(1.8);
    h.write_u64(620_000_000_000);
    h.write_bool(true);
    assert_eq!(h.finish().to_string(), "5d51774ca0d81f06874d7183398eca1b");
}

/// Display → from_hex is the identity, and rejects non-key strings.
#[test]
fn key_hex_round_trip() {
    let key = key_of(&["some", "structured", "identity"][..]);
    assert_eq!(Key::from_hex(&key.to_string()), Some(key));
    assert_eq!(Key::from_hex("not a key"), None);
    assert_eq!(Key::from_hex(""), None);
}

/// The intended composition: scheduler workers computing and persisting
/// records concurrently into one shared store.
#[test]
fn scheduler_workers_share_one_store() {
    let root = tmp_root("sched");
    let store = Store::open(&root).unwrap();
    let report = Scheduler::new(4).run(
        40,
        |i| format!("job-{i}"),
        |i| {
            let key = key_of(&format!("sched-record-{i}"));
            store.put(key, format!("value-{i}").as_bytes()).unwrap();
            key
        },
        |_| {},
    );
    let keys = report.into_results().expect("no failures");
    assert_eq!(store.len(), 40);
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(store.get(*key), Some(format!("value-{i}").into_bytes()));
    }
    let _ = std::fs::remove_dir_all(&root);
}
