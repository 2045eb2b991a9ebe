//! Property tests for the three text decoders of run artifacts: Chrome
//! trace JSON (`simtrace::chrome::parse`), the `.prof` profile
//! (`simprof::Profile::from_text`) and the run manifest
//! (`simdash::RunManifest::from_json`).
//!
//! Each decoder owns its format's invariants, so on any input it either
//! returns its typed error or a value that re-renders and re-parses to
//! itself; it never panics. The inputs are a small well-formed artifact
//! cut at every char boundary, the same artifact with 1,000 seeded
//! single-bit flips, a schema newer than the build where the format has
//! one, and named inputs each decoder must reject: times past `u64`
//! nanoseconds, negative times, a `tid` past `u32`, dangling stack and
//! frame ids, a repeated clock, weights that sum past `u64`, and a run
//! that ends before it starts. The committed artifacts under `results/`
//! must decode too.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use spec2017_workchar::simdash::manifest::{kind, ManifestError, RunManifest};
use spec2017_workchar::simdash::ManifestBuilder;
use spec2017_workchar::simprof::{ParseError as ProfError, Profile, Sample};
use spec2017_workchar::simtrace::chrome::{self, ParseError as TraceError};
use spec2017_workchar::simtrace::{ArgValue, SpanRecord};
use spec2017_workchar::workload_synth::rng::Rng64;

const FLIPS: usize = 1_000;

/// Runs `decode` on every char-boundary prefix of `text` and on `FLIPS`
/// copies of it with one seeded bit flipped. A flip that leaves the
/// bytes invalid UTF-8 is rejected before any decoder sees it (the file
/// loaders read text), so only UTF-8 results are decoded. `decode`
/// returns whether the input decoded; a panic is reported with the case
/// that caused it. Returns how many flipped inputs decoded.
fn every_cut_and_flip(label: &str, text: &str, decode: impl Fn(&str) -> bool) -> usize {
    let run = |case: &str, input: &str| {
        catch_unwind(AssertUnwindSafe(|| decode(input)))
            .unwrap_or_else(|_| panic!("{label}: decoder panicked on {case}:\n{input}"))
    };
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        run(&format!("the first {cut} bytes"), &text[..cut]);
    }
    let mut rng = Rng64::seed_from(0x5eed_dec0);
    let mut decoded = 0;
    for flip in 0..FLIPS {
        let mut bytes = text.as_bytes().to_vec();
        let at = rng.gen_below(bytes.len() as u64) as usize;
        let bit = rng.gen_below(8);
        bytes[at] ^= 1 << bit;
        if let Ok(flipped) = String::from_utf8(bytes) {
            if run(&format!("flip {flip} (byte {at}, bit {bit})"), &flipped) {
                decoded += 1;
            }
        }
    }
    decoded
}

// ------------------------------------------------------------- trace JSON

fn fixture_spans() -> Vec<SpanRecord> {
    let span = |span_id, parent_id, name: &str, tid, start_ns, end_ns| SpanRecord {
        trace_id: 3,
        span_id,
        parent_id,
        name: name.to_string(),
        tid,
        start_ns,
        end_ns,
        error: None,
        args: Vec::new(),
    };
    let mut root = span(1, 0, "run/reproduce", 1, 1_000, 9_876_543);
    root.args
        .push(("sample_interval".to_string(), ArgValue::U64(10_000)));
    let mut job = span(2, 1, "sched/job", 2, 2_001, 5_500_333);
    job.args = vec![
        (
            "pair".to_string(),
            ArgValue::Str("505.mcf_r/ref".to_string()),
        ),
        ("ipc".to_string(), ArgValue::F64(1.25)),
        ("retried".to_string(), ArgValue::Bool(true)),
    ];
    job.error = Some("panic: \"boom\"\nline two é".to_string());
    let mut engine = span(3, 2, "engine/run", 2, 3_000, 5_000_007);
    engine
        .args
        .push(("ops".to_string(), ArgValue::U64(1_200_000)));
    vec![root, job, engine]
}

/// Decodes `text`; a decoded trace must re-render and re-parse to itself.
fn trace_round_trips(text: &str) -> bool {
    match chrome::parse(text) {
        Ok(spans) => {
            let again = chrome::parse(&chrome::render(&spans));
            assert_eq!(again.as_ref(), Ok(&spans), "re-render of\n{text}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn trace_json_survives_every_truncation_and_bit_flip() {
    let text = chrome::render(&fixture_spans());
    assert!(trace_round_trips(&text));
    let decoded = every_cut_and_flip("trace", &text, trace_round_trips);
    assert!(decoded < FLIPS, "some flips must be rejected");
}

/// One `"X"` event in a bare array, its `ts`, `dur` and `tid` as given.
fn one_event(ts: &str, dur: &str, tid: &str) -> String {
    format!(
        r#"[{{"ph":"X","pid":1,"tid":{tid},"name":"run/root","ts":{ts},"dur":{dur},
            "trace_id":1,"span_id":1,"parent_id":0,"args":{{}}}}]"#
    )
}

#[test]
fn a_span_past_u64_nanoseconds_is_a_typed_error_not_an_overflow_panic() {
    // 1e17 µs is 1e20 ns: past u64::MAX alone, and 1e16 + 1e16 µs in sum.
    for (ts, dur) in [("1e17", "1e17"), ("1e16", "1e16"), ("0", "1e17")] {
        assert_eq!(
            chrome::parse(&one_event(ts, dur, "1")),
            Err(TraceError::TimeOverflow { event: 0 }),
            "{ts} + {dur}"
        );
    }
}

#[test]
fn negative_times_are_typed_errors_not_clamped_to_zero() {
    assert_eq!(
        chrome::parse(&one_event("-5", "-7", "1")),
        Err(TraceError::NegativeTime {
            event: 0,
            field: "ts"
        })
    );
    assert_eq!(
        chrome::parse(&one_event("5", "-7", "1")),
        Err(TraceError::NegativeTime {
            event: 0,
            field: "dur"
        })
    );
}

#[test]
fn a_tid_past_u32_is_a_typed_error_not_truncated_to_one() {
    assert_eq!(
        chrome::parse(&one_event("0", "1", "4294967297")),
        Err(TraceError::TidOutOfRange {
            event: 0,
            tid: (1 << 32) + 1
        })
    );
    let max = chrome::parse(&one_event("0", "1", "4294967295")).expect("u32::MAX fits");
    assert_eq!(max[0].tid, u32::MAX);
}

// ---------------------------------------------------------------- profile

fn fixture_profile() -> Profile {
    let sample = |tid, clock, stack_id| Sample {
        tid,
        clock,
        stack_id,
        weight: 10_000,
    };
    Profile {
        interval: 10_000,
        wall_ns: 123_456,
        frames: [
            "engine/run",
            "run/reproduce",
            "sched/job [505.mcf_r/ref]",
            "uop/alu",
            "uop/load",
        ]
        .map(String::from)
        .to_vec(),
        stacks: vec![vec![1, 2, 0, 3], vec![1, 2, 0, 4]],
        samples: vec![
            sample(0, 10_000, 0),
            sample(0, 20_000, 1),
            sample(1, 10_000, 1),
        ],
    }
}

/// Decodes `text`; a decoded profile must re-render and re-parse to itself.
fn profile_round_trips(text: &str) -> bool {
    match Profile::from_text(text) {
        Ok(profile) => {
            let again = Profile::from_text(&profile.to_text());
            assert_eq!(again.as_ref(), Ok(&profile), "re-render of\n{text}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn profile_survives_every_truncation_and_bit_flip() {
    let text = fixture_profile().to_text();
    assert!(profile_round_trips(&text));
    let decoded = every_cut_and_flip("profile", &text, profile_round_trips);
    assert!(decoded < FLIPS, "some flips must be rejected");
}

#[test]
fn a_newer_profile_schema_is_refused() {
    let text = fixture_profile()
        .to_text()
        .replacen("simprof 2", "simprof 3", 1);
    assert_eq!(
        Profile::from_text(&text),
        Err(ProfError::SchemaTooNew {
            found: 3,
            supported: 2
        })
    );
}

/// The line `text` fails on, which must be a `Malformed` error.
fn malformed_line(text: &str) -> usize {
    match Profile::from_text(text) {
        Err(ProfError::Malformed { line, .. }) => line,
        other => panic!("expected Malformed, got {other:?} for\n{text}"),
    }
}

#[test]
fn dangling_stack_and_frame_ids_are_malformed() {
    // One stack, and a sample that names stack 9.
    let stack_9 = "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 5 9 1\nend 1\n";
    assert_eq!(malformed_line(stack_9), 4);
    // One frame, and a stack that names frame 7.
    let frame_7 = "simprof 2\nframe 0 run/x\nstack 0 7\nsample 0 5 0 1\nend 1\n";
    assert_eq!(malformed_line(frame_7), 3);
}

#[test]
fn a_repeated_clock_is_malformed() {
    let text = "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 5 0 1\nsample 0 5 0 1\nend 2\n";
    assert_eq!(malformed_line(text), 5);
}

#[test]
fn weights_summing_past_u64_are_malformed_not_an_overflow_panic() {
    let max = u64::MAX;
    let text = format!(
        "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 1 0 {max}\nsample 0 2 0 {max}\nend 2\n"
    );
    assert_eq!(malformed_line(&text), 5);
    // One sample of the largest weight still decodes, and sums.
    let one = Profile::from_text(&format!(
        "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 1 0 {max}\nend 1\n"
    ))
    .expect("one max weight");
    assert_eq!(one.total_weight(), max);
}

// --------------------------------------------------------------- manifest

fn fixture_manifest() -> RunManifest {
    let mut b = ManifestBuilder::start("reproduce", "quick", "--quick --trace");
    b.artifact(kind::TRACE_JSON, "traces/reproduce.trace.json");
    b.artifact(kind::METRICS, "metrics.json");
    b.pair_ok("505.mcf_r/ref");
    b.pair_failed("999.broken_r/ref", "panicked: \"boom\"");
    let mut m = b.manifest().clone();
    (m.start_unix_ms, m.end_unix_ms) = (1_700_000_000_000, 1_700_000_004_321);
    m
}

/// Decodes `text`; a decoded manifest must re-render and re-parse to itself.
fn manifest_round_trips(text: &str) -> bool {
    match RunManifest::from_json(text) {
        Ok(m) => {
            let again = RunManifest::from_json(&m.to_json()).expect("re-render decodes");
            assert_eq!(again, m, "re-render of\n{text}");
            true
        }
        Err(_) => false,
    }
}

#[test]
fn manifest_survives_every_truncation_and_bit_flip() {
    let text = fixture_manifest().to_json();
    assert!(manifest_round_trips(&text));
    let decoded = every_cut_and_flip("manifest", &text, manifest_round_trips);
    assert!(decoded < FLIPS, "some flips must be rejected");
}

#[test]
fn a_newer_manifest_schema_is_refused() {
    let text = fixture_manifest()
        .to_json()
        .replacen("\"schema\": 1", "\"schema\": 2", 1);
    assert!(matches!(
        RunManifest::from_json(&text),
        Err(ManifestError::SchemaTooNew {
            found: 2,
            supported: 1
        })
    ));
}

#[test]
fn a_backwards_manifest_is_malformed() {
    let mut m = fixture_manifest();
    m.end_unix_ms = m.start_unix_ms - 10;
    assert!(matches!(
        RunManifest::from_json(&m.to_json()),
        Err(ManifestError::Malformed(what)) if what.contains("precedes")
    ));
}

// ------------------------------------------------------ committed artifacts

#[test]
fn committed_artifacts_decode_under_the_strict_decoders() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let spans = spec2017_workchar::simtrace::load(&results.join("traces/reproduce.trace.json"))
        .expect("the committed trace decodes");
    assert_eq!(spans.len(), 1_587);
    let profile = spec2017_workchar::simprof::load(&results.join("profiles/reproduce.prof"))
        .expect("the committed profile decodes");
    assert!(!profile.samples.is_empty());
    // Every manifest decodes (or the audit stops with the file's name),
    // and every artifact pointer resolves (D003) under a unique id (D004).
    let (manifests, report) =
        spec2017_workchar::simdash::lint::check_runs_dir(&results.join("runs"))
            .expect("every committed manifest decodes");
    assert!(manifests >= 1);
    assert!(report.is_empty(), "{}", report.to_table());
}
