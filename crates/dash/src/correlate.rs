//! The cross-layer join: histogram-bucket exemplar → trace span →
//! profile frame → pair id, driven entirely by one run manifest.
//!
//! Each stage histogram bucket keeps its last-k exemplars (value +
//! trace/span id, recorded by `workchar::observe::Stage` while the stage
//! span is still open). Resolving an exemplar is then pure navigation: the
//! span id indexes the run's exported trace, walking parents finds the
//! enclosing `sched/job` span whose `pair` arg names the benchmark/input
//! pair, and the pair label selects the profile stacks whose samples
//! explain where that pair's ops went. No filename matching anywhere —
//! every artifact comes out of the manifest's typed pointers.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use perfmon::json::{self, Value};
use simtrace::SpanRecord;

use crate::manifest::{kind, RunManifest};

/// One resolved exemplar: a latency observation tied back to its span
/// and the pair (and hottest profile frame) that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedRow {
    /// Benchmark/input pair id (`505.mcf_r-in1`), or `"?"` when the
    /// exemplar's span chain reaches no `pair`-tagged ancestor.
    pub pair: String,
    /// Histogram the exemplar came from.
    pub metric: String,
    /// Inclusive upper bound of the bucket that kept the exemplar.
    pub bucket_le: u64,
    /// The recorded value (microseconds for the stage histograms).
    pub value: u64,
    /// Trace id of the recording span.
    pub trace_id: u64,
    /// Span id of the recording span.
    pub span_id: u64,
    /// Name of that span (e.g. `stage/simulate`).
    pub span_name: String,
    /// Wall time of that span, nanoseconds.
    pub span_wall_ns: u64,
    /// Heaviest leaf frame among the pair's profile samples, with its
    /// self weight in ops. `None` without a profile artifact (or when
    /// the pair was never sampled).
    pub top_frame: Option<(String, u64)>,
}

/// The per-pair correlation table for one run.
#[derive(Debug, Clone, Default)]
pub struct CorrelatedRun {
    /// Run id the table was built from.
    pub run_id: String,
    /// Resolved exemplars, metric-major then bucket order.
    pub rows: Vec<CorrelatedRow>,
}

impl CorrelatedRun {
    /// Rows that resolved all the way to a pair id.
    pub fn resolved(&self) -> impl Iterator<Item = &CorrelatedRow> {
        self.rows.iter().filter(|r| r.pair != "?")
    }
}

/// Builds the correlation table for `manifest`, resolving artifacts
/// against `results_dir`. Missing optional layers degrade gracefully: no
/// metrics or no trace artifact means an empty table (the binaries record
/// spans, and so exemplars, on every run, but only `--trace` exports the
/// spans they name), no profile means `top_frame: None`.
pub fn correlate(manifest: &RunManifest, results_dir: &Path) -> io::Result<CorrelatedRun> {
    let mut out = CorrelatedRun {
        run_id: manifest.run_id.clone(),
        rows: Vec::new(),
    };

    let (Some(metrics), Some(trace)) = (
        manifest.artifact_path(kind::METRICS, results_dir),
        manifest.artifact_path(kind::TRACE_JSON, results_dir),
    ) else {
        return Ok(out);
    };
    let exemplars = parse_metrics_exemplars(&std::fs::read_to_string(metrics)?);
    if exemplars.is_empty() {
        return Ok(out);
    }

    let spans: Vec<SpanRecord> = simtrace::load(&trace)?;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();

    let profile = match manifest.artifact_path(kind::PROFILE, results_dir) {
        Some(path) => Some(simprof::load(&path)?),
        None => None,
    };
    let mut top_frames: HashMap<String, (String, u64)> = HashMap::new();
    if let Some(profile) = &profile {
        top_frames = top_frame_per_pair(profile);
    }

    for e in exemplars {
        let mut pair = "?".to_string();
        let mut span_name = String::new();
        let mut span_wall_ns = 0;
        if let Some(span) = by_id.get(&e.span_id) {
            span_name = span.name.clone();
            span_wall_ns = span.wall_ns();
            // Walk ancestors (the span itself first) to the enclosing
            // pair-tagged span; parent_id 0 terminates at the trace root.
            let mut cursor = Some(*span);
            while let Some(s) = cursor {
                if let Some(arg) = s.arg("pair") {
                    pair = arg.to_string();
                    break;
                }
                cursor = by_id.get(&s.parent_id).copied();
            }
        }
        let top_frame = top_frames.get(&pair).cloned();
        out.rows.push(CorrelatedRow {
            pair,
            metric: e.metric,
            bucket_le: e.bucket_le,
            value: e.value,
            trace_id: e.trace_id,
            span_id: e.span_id,
            span_name,
            span_wall_ns,
            top_frame,
        });
    }
    Ok(out)
}

struct RawExemplar {
    metric: String,
    bucket_le: u64,
    value: u64,
    trace_id: u64,
    span_id: u64,
}

/// Pulls every histogram exemplar out of a schema-1 `metrics.json`
/// document. Unparseable documents (or ones without exemplars — all
/// snapshots written before this layer existed) yield an empty list.
fn parse_metrics_exemplars(text: &str) -> Vec<RawExemplar> {
    let mut out = Vec::new();
    let Ok(doc) = json::parse(text) else {
        return out;
    };
    let Some(metrics) = doc.get("metrics").and_then(Value::as_array) else {
        return out;
    };
    for series in metrics {
        let Some(name) = series.get("name").and_then(Value::as_str) else {
            continue;
        };
        let Some(exemplars) = series.get("exemplars").and_then(Value::as_array) else {
            continue;
        };
        for e in exemplars {
            let hex = |key: &str| {
                e.get(key)
                    .and_then(Value::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
            };
            let (Some(bucket_le), Some(value), Some(trace_id), Some(span_id)) = (
                e.get("le").and_then(Value::as_u64),
                e.get("value").and_then(Value::as_u64),
                hex("trace_id"),
                hex("span_id"),
            ) else {
                continue;
            };
            out.push(RawExemplar {
                metric: name.to_string(),
                bucket_le,
                value,
                trace_id,
                span_id,
            });
        }
    }
    out
}

/// The heaviest leaf frame per pair label. A sample belongs to a pair
/// when any frame on its stack carries that pair's bracket suffix
/// (`sched/job [505.mcf_r-in1]` — the shared span/frame vocabulary);
/// its weight is attributed to the stack's leaf frame.
fn top_frame_per_pair(profile: &simprof::Profile) -> HashMap<String, (String, u64)> {
    let mut weights: HashMap<String, HashMap<&str, u64>> = HashMap::new();
    for sample in &profile.samples {
        let Some(names) = profile.stack_names(sample) else {
            continue;
        };
        let Some(&leaf) = names.last() else {
            continue;
        };
        for name in &names {
            let Some(pair) = pair_suffix(name) else {
                continue;
            };
            *weights
                .entry(pair.to_string())
                .or_default()
                .entry(leaf)
                .or_insert(0) += sample.weight;
            break;
        }
    }
    weights
        .into_iter()
        .filter_map(|(pair, frames)| {
            frames
                .into_iter()
                // Heaviest self weight; name as the deterministic tiebreak.
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))
                .map(|(frame, weight)| (pair, (frame.to_string(), weight)))
        })
        .collect()
}

/// The ` [pair]` suffix of a span/frame name, if present.
fn pair_suffix(name: &str) -> Option<&str> {
    let (_, rest) = name.split_once(" [")?;
    rest.strip_suffix(']')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_suffix_parses_the_shared_vocabulary() {
        assert_eq!(
            pair_suffix("sched/job [505.mcf_r-in1]"),
            Some("505.mcf_r-in1")
        );
        assert_eq!(pair_suffix("stage/simulate"), None);
        assert_eq!(pair_suffix("odd [unterminated"), None);
    }

    #[test]
    fn metrics_exemplars_parse_from_rendered_json() {
        let text = "{\"schema\":1,\"metrics\":[\
            {\"name\":\"plain_total\",\"kind\":\"counter\",\"value\":3},\
            {\"name\":\"stage_micros\",\"kind\":\"histogram\",\"count\":1,\"sum\":7,\
             \"exemplars\":[{\"le\":7,\"value\":7,\
             \"trace_id\":\"00000000000000aa\",\"span_id\":\"00000000000000bb\"}]}]}";
        let raw = parse_metrics_exemplars(text);
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].metric, "stage_micros");
        assert_eq!((raw[0].trace_id, raw[0].span_id), (0xAA, 0xBB));
        assert!(parse_metrics_exemplars("not json").is_empty());
    }

    #[test]
    fn top_frames_attribute_leaf_weight_per_pair() {
        let profile = simprof::Profile {
            interval: 1000,
            wall_ns: 1,
            frames: vec![
                "sched/job [505.mcf_r-in1]".to_string(),
                "engine/run".to_string(),
                "uop/load".to_string(),
                "uop/branch".to_string(),
            ],
            stacks: vec![vec![0, 1, 2], vec![0, 1, 3]],
            samples: vec![
                simprof::Sample {
                    tid: 1,
                    clock: 1000,
                    stack_id: 0,
                    weight: 3000,
                },
                simprof::Sample {
                    tid: 1,
                    clock: 2000,
                    stack_id: 1,
                    weight: 1000,
                },
            ],
        };
        let top = top_frame_per_pair(&profile);
        assert_eq!(
            top.get("505.mcf_r-in1"),
            Some(&("uop/load".to_string(), 3000))
        );
    }
}
