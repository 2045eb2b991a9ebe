//! simdash: the correlation layer over the observability substrates.
//!
//! Five instruments (the perfmon stage events, simmetrics, simtrace,
//! simprof, timelines) each write siloed artifacts; this crate turns them into one
//! system. A versioned [`manifest::RunManifest`] gives every run a stable
//! 128-bit identity plus typed pointers to everything it produced;
//! [`correlate::correlate`] joins histogram-bucket exemplars to trace
//! spans to profile frames to pair ids through those pointers alone; and
//! [`html::render`] folds the whole run into one self-contained HTML
//! dashboard. `dash-report --diff` gates manifest-level regressions with
//! the workspace-wide exit-code contract, and [`lint::check_runs_dir`]
//! audits `results/runs/` with the D-rule family.

pub mod correlate;
pub mod history;
pub mod html;
pub mod lint;
pub mod manifest;

pub use correlate::{correlate, CorrelatedRow, CorrelatedRun};
pub use manifest::{latest, load_manifest, ManifestBuilder, ManifestError, RunManifest, SCHEMA};
