//! The paper's workload-characterization pipeline.
//!
//! This crate reproduces, end to end, the methodology of *A Workload
//! Characterization of the SPEC CPU2017 Benchmark Suite* (ISPASS 2018):
//!
//! 1. [`characterize`] runs every application–input pair on the simulated
//!    Haswell system and collects a perf-style counter record per pair.
//! 2. [`suitestats`] aggregates records into the paper's Table II overview.
//! 3. [`compare`] produces the CPU2006-vs-CPU2017 comparison rows of
//!    Tables III–VII.
//! 4. [`metrics`] extracts the 20 microarchitecture-independent
//!    characteristics of Table VIII from each record.
//! 5. [`redundancy`] standardizes, runs PCA, and exposes scores and factor
//!    loadings (Figs. 7–8).
//! 6. [`subset`] clusters the PC scores, finds the Pareto-knee cluster
//!    count, and picks the shortest-running representative per cluster
//!    (Figs. 9–10, Table X).
//! 7. [`experiments`] maps every paper table and figure to a regeneration
//!    function; the `reproduce` binary drives it.
//! 8. [`phase`] implements the paper's future-work proposal: windowed phase
//!    detection and SimPoint-style simulation-point selection.
//! 9. [`ablation`] quantifies the reproduction's own design choices
//!    (linkage, subsetter, predictor, replacement policy, prefetcher).
//! 10. [`cache`] memoizes characterization results in a content-addressed
//!     `simstore` store, so repeated campaigns replay from disk; the
//!     parallel runners in [`characterize`] are cache-first and
//!     panic-isolated (one broken profile no longer aborts a campaign).
//! 11. [`lint`] holds the campaign pre-flight gate behind the binaries'
//!     `--lint` flag and the result-store audit (`simcheck` rules `R020`
//!     and `R021`: every cached record must decode, counter identities
//!     included).
//! 12. [`simpoints`] drives roster-wide `simpoint` campaigns (SimPoint-style
//!     representative-interval simulation) behind the binaries' `--simpoint`
//!     flag, persisting speedup-vs-error records under `results/simpoints/`;
//!     `simgate simpoint` renders and gates them.
//!
//! # Example
//!
//! ```no_run
//! use workchar::characterize::{characterize_pair, RunConfig};
//! use workload_synth::cpu2017;
//! use workload_synth::profile::InputSize;
//!
//! let config = RunConfig::default();
//! let app = cpu2017::app("505.mcf_r").expect("known app");
//! let pair = &app.pairs(InputSize::Ref)[0];
//! let record = characterize_pair(pair, &config)?;
//! println!("{} IPC = {:.3}", record.id, record.ipc());
//! # Ok::<(), workchar::error::Error>(())
//! ```

pub mod ablation;
pub mod cache;
pub mod characterize;
pub mod cli;
pub mod compare;
pub mod dataset;
pub mod error;
pub mod experiments;
pub mod lint;
pub mod metrics;
pub mod observe;
pub mod phase;
pub mod redundancy;
pub mod sensitivity;
pub mod simpoints;
pub mod subset;
pub mod suitestats;
pub mod telemetry;
