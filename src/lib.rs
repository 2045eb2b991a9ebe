//! Umbrella crate for the SPEC CPU2017 workload-characterization reproduction.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency. See the individual crates for the real APIs:
//!
//! - [`workload_synth`] — synthetic SPEC-like workload profiles and generators.
//! - [`uarch_sim`] — cache / branch-predictor / pipeline simulator with perf-style counters.
//! - [`stat_analysis`] — PCA, hierarchical clustering, Pareto analysis.
//! - [`simstore`] — content-addressed result store + fault-tolerant scheduler.
//! - [`simcheck`] — static model-analysis diagnostics (rule codes, spans, renderers).
//! - [`perfmon`] — the JSONL run-event schema, its validator, and the JSON codec.
//! - [`simmetrics`] — process-wide metrics registry, its `metrics.json` snapshot, and flight recorder.
//! - [`simpoint`] — phase detection and representative-interval simulation.
//! - [`simdash`] — run manifests, cross-layer correlation, HTML dashboard.
//! - [`workchar`] — the paper's characterization + subsetting pipeline.
//! - [`simreport`] — table and figure rendering.

pub use perfmon;
pub use simcheck;
pub use simdash;
pub use simmetrics;
pub use simpoint;
pub use simprof;
pub use simreport;
pub use simstore;
pub use simtrace;
pub use stat_analysis;
pub use uarch_sim;
pub use workchar;
pub use workload_synth;
