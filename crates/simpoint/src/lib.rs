//! SimPoint-style representative-interval simulation.
//!
//! The paper subsets *applications* to cut CPU2017's redundancy; this crate
//! applies the same clustering argument one level down, to the *execution
//! intervals* of a single run (Sherwood et al.'s SimPoint methodology).
//! A run is profiled once in fixed-size micro-op intervals, each interval is
//! summarized by a feature vector (µop-mix fractions plus IPC / MPKI /
//! mispredict deltas — a basic-block-vector stand-in, see
//! [`uarch_sim::timeline::IntervalSample::feature_vector`]), the vectors are
//! standardized and clustered with k-medoids (k chosen as the smallest
//! value whose predicted reconstruction error meets the configured budget,
//! with the mean silhouette reported as a phase-separation confidence
//! score), and only the medoid interval of each cluster stands for its
//! cluster. By default each medoid is measured from the exact state a full
//! run gives it ([`analysis::GapMode::Warm`]): a sparse replay would warm
//! the gaps functionally, but since that reproduces the profiled interval
//! sessions bit for bit, the analysis takes the medoid counters from the
//! profiling pass and runs the trace once. In the maximum-speed mode a
//! second engine replays the medoids after RNG-exactly fast-forwarding the
//! generator past the gaps
//! ([`workload_synth::generator::TraceGenerator::fast_forward`]). Whole-run
//! counters are reconstructed as the cluster-size-scaled sum of medoid
//! counters, and the crate reports the speedup a sparse replay achieves
//! (total / detailed ops) alongside the per-counter relative error of the
//! reconstruction.
//!
//! Three layers:
//!
//! - [`analysis`] — the end-to-end pipeline: profile, cluster, reconstruct,
//!   and for skip mode the sparse replay ([`analysis::analyze`]).
//! - [`artifact`] — the schema-versioned binary [`artifact::SimpointRecord`]
//!   persisted through the content-addressed store under
//!   `results/simpoints/`.
//! - [`lint`] — the simcheck S-rule family over stored records
//!   (`lint --simpoint`).
//!
//! The key exactness property, pinned by tests here and in the workspace
//! suite: with `force_k` equal to the number of intervals (every interval
//! its own cluster), the reconstruction degenerates to a full chunked run
//! and the reconstructed counters are **bit-identical** to the reference.

pub mod analysis;
pub mod artifact;
pub mod lint;

pub use analysis::{analyze, rel_error, GapMode, SimpointAnalysis, SimpointConfig, SimpointError};
pub use artifact::{SimpointRecord, SIMPOINT_SCHEMA_VERSION};
