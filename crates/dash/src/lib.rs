//! simdash: the correlation layer over the observability substrates.
//!
//! A run leaves several artifacts (metrics snapshot, trace, profile,
//! timelines); this crate turns them into one system. A versioned
//! [`manifest::RunManifest`] gives every run a stable 128-bit identity
//! plus typed pointers to everything it produced;
//! [`correlate::correlate`] joins each simulated pair's trace span to its
//! engine op count and its hottest profile frame through those pointers
//! alone; and [`html::render`] folds the whole run into one self-contained
//! HTML dashboard. `simgate dash --diff` gates manifest-level regressions with
//! the workspace-wide exit-code contract, and [`lint::check_runs_dir`]
//! audits `results/runs/` with the D-rule family.

pub mod correlate;
pub mod history;
pub mod html;
pub mod lint;
pub mod manifest;

pub use correlate::{correlate, CorrelatedRow, CorrelatedRun};
pub use html::artifact_stem;
pub use manifest::{latest, load_manifest, ManifestBuilder, ManifestError, RunManifest, SCHEMA};
