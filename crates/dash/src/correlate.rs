//! The per-pair latency table: trace span → pair id → profile frame,
//! driven entirely by one run manifest.
//!
//! Each `stage/simulate` span in the run's exported trace is one pair's
//! engine stage. Walking its parents finds the enclosing `sched/job` span
//! whose `pair` arg names the benchmark/input pair; its `engine/run` child
//! carries the op count, so wall over ops is the pair's cost per op; and
//! the pair label selects the profile stacks whose samples explain where
//! that pair's ops went. No filename matching anywhere — every artifact
//! comes out of the manifest's typed pointers.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use simtrace::{ArgValue, SpanRecord};

use crate::manifest::{kind, RunManifest};

/// One simulated pair: its `stage/simulate` span, the engine ops it ran,
/// and the pair's hottest profile frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatedRow {
    /// Benchmark/input pair id (`505.mcf_r-in1`).
    pub pair: String,
    /// Span id of the pair's `stage/simulate` span.
    pub span_id: u64,
    /// Wall time of that span, nanoseconds.
    pub wall_ns: u64,
    /// The `ops` arg of its `engine/run` child, when it has one.
    pub ops: Option<u64>,
    /// Heaviest leaf frame among the pair's profile samples, with its
    /// self weight in ops. `None` without a profile artifact (or when
    /// the pair was never sampled).
    pub top_frame: Option<(String, u64)>,
}

impl CorrelatedRow {
    /// Wall nanoseconds per engine op; `None` without a nonzero op count.
    pub fn ns_per_op(&self) -> Option<f64> {
        self.ops
            .filter(|&ops| ops > 0)
            .map(|ops| self.wall_ns as f64 / ops as f64)
    }
}

/// The per-pair latency table for one run.
#[derive(Debug, Clone, Default)]
pub struct CorrelatedRun {
    /// Run id the table was built from.
    pub run_id: String,
    /// One row per simulated pair, slowest first.
    pub rows: Vec<CorrelatedRow>,
}

/// Builds the per-pair latency table for `manifest`, resolving artifacts
/// against `results_dir`. Missing optional layers degrade gracefully: no
/// trace artifact means an empty table (the binaries record spans on
/// every run, but only `--trace` exports them), and so does a run whose
/// pairs were all cache hits; no profile means `top_frame: None`.
pub fn correlate(manifest: &RunManifest, results_dir: &Path) -> io::Result<CorrelatedRun> {
    let mut out = CorrelatedRun {
        run_id: manifest.run_id.clone(),
        rows: Vec::new(),
    };
    let Some(trace) = manifest.artifact_path(kind::TRACE_JSON, results_dir) else {
        return Ok(out);
    };
    let spans = simtrace::load(&trace)?;
    let top_frames = match manifest.artifact_path(kind::PROFILE, results_dir) {
        Some(path) => top_frame_per_pair(&simprof::load(&path)?),
        None => HashMap::new(),
    };
    out.rows = pair_rows(&spans, &top_frames);
    Ok(out)
}

/// One row per `stage/simulate` span with a `pair`-tagged ancestor,
/// slowest first (span id breaks ties).
fn pair_rows(
    spans: &[SpanRecord],
    top_frames: &HashMap<String, (String, u64)>,
) -> Vec<CorrelatedRow> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    // Each engine run's op count, keyed by its parent stage span.
    let ops: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == "engine/run")
        .filter_map(|s| match s.arg("ops") {
            Some(ArgValue::U64(ops)) => Some((s.parent_id, *ops)),
            _ => None,
        })
        .collect();
    let mut rows: Vec<CorrelatedRow> = spans
        .iter()
        .filter(|s| s.name == "stage/simulate")
        .filter_map(|stage| {
            let parent = |s: &&SpanRecord| by_id.get(&s.parent_id).copied();
            // A loaded trace is outside input: bound the walk so a parent
            // cycle cannot hang it.
            let pair = std::iter::successors(parent(&stage), parent)
                .take(spans.len())
                .find_map(|s| s.arg("pair"))?
                .to_string();
            Some(CorrelatedRow {
                top_frame: top_frames.get(&pair).cloned(),
                pair,
                span_id: stage.span_id,
                wall_ns: stage.wall_ns(),
                ops: ops.get(&stage.span_id).copied(),
            })
        })
        .collect();
    rows.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.span_id.cmp(&b.span_id)));
    rows
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

    fn span(
        id: u64,
        parent: u64,
        name: &str,
        wall_ns: u64,
        arg: Option<(&str, ArgValue)>,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            tid: 1,
            start_ns: 0,
            end_ns: wall_ns,
            error: None,
            args: arg.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn rows_join_each_simulated_pair_to_its_ops_and_frame_slowest_first() {
        let pair = |p: &str| Some(("pair", ArgValue::Str(p.to_string())));
        let spans = [
            span(1, 0, "run/reproduce", 100_000, None),
            span(2, 1, "sched/job", 50_000, pair("505.mcf_r-in1")),
            span(3, 2, "sched/attempt", 50_000, None),
            span(4, 3, "stage/simulate", 40_000, None),
            span(
                5,
                4,
                "engine/run",
                39_000,
                Some(("ops", ArgValue::U64(2_000))),
            ),
            span(6, 1, "sched/job", 90_000, pair("541.leela_r-in1")),
            span(7, 6, "stage/simulate", 80_000, None),
            span(
                8,
                7,
                "engine/run",
                79_000,
                Some(("ops", ArgValue::U64(1_000))),
            ),
            // No pair-tagged ancestor, or a parent cycle: not a row.
            span(9, 1, "stage/simulate", 99_000, None),
            span(10, 11, "stage/simulate", 99_000, None),
            span(11, 10, "sched/attempt", 99_000, None),
        ];
        let frames =
            HashMap::from([("505.mcf_r-in1".to_string(), ("uop/load".to_string(), 3_000))]);
        let rows = pair_rows(&spans, &frames);
        let pairs: Vec<&str> = rows.iter().map(|r| r.pair.as_str()).collect();
        assert_eq!(pairs, ["541.leela_r-in1", "505.mcf_r-in1"]);
        assert_eq!(
            (rows[0].span_id, rows[0].wall_ns, rows[0].ops),
            (7, 80_000, Some(1_000))
        );
        assert_eq!(rows[0].ns_per_op(), Some(80.0));
        assert_eq!(rows[0].top_frame, None);
        assert_eq!(rows[1].ns_per_op(), Some(20.0));
        assert_eq!(rows[1].top_frame, Some(("uop/load".to_string(), 3_000)));
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
