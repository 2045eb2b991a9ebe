//! Execution-driven microarchitecture simulator substrate.
//!
//! The ISPASS 2018 SPEC CPU2017 characterization measured real hardware
//! (a dual-socket Haswell Xeon E5-2650L v3, Table I of the paper) through
//! Linux `perf` hardware counters. This crate stands in for that hardware:
//! a micro-op stream is executed through
//!
//! - a four-cache hierarchy ([`cache`], [`hierarchy`]) with configurable
//!   geometry and replacement policy,
//! - a branch predictor ([`branch`]): bimodal, gshare, or a Haswell-like
//!   tournament predictor,
//! - an interval-analysis pipeline timing model ([`pipeline`]) that converts
//!   event counts into cycles,
//!
//! while a perf-style counter file ([`counters::PerfSession`]) records events
//! under the *same names the paper's methodology section lists*
//! (`inst_retired.any`, `mem_uops_retired.all_loads`,
//! `mem_load_uops_retired.l2_miss`, …), so the downstream characterization
//! code reads counters exactly the way the authors read `perf` output.
//!
//! Execution is fused with generation: a [`exec::UopSource`] drives the
//! engine's execution sink through the [`exec::UopSink`] trait, one typed
//! call per µop, and the engine executes each µop in the call that
//! produces it — no buffer between producer and consumer, and one class
//! dispatch per op (see [`exec`] for the sink model and
//! [`engine::Engine::execute`] for the run loop). Anything that yields
//! [`microop::MicroOp`]s lifts into a source with [`exec::from_iter`];
//! [`exec::UopBatch`] records a stream for callers that want the µops
//! themselves.
//!
//! # Example
//!
//! ```
//! use uarch_sim::config::SystemConfig;
//! use uarch_sim::counters::Event;
//! use uarch_sim::engine::Engine;
//! use uarch_sim::exec::{from_iter, ExecPlan};
//! use uarch_sim::microop::MicroOp;
//! use uarch_sim::timeline::SamplerConfig;
//!
//! let config = SystemConfig::haswell_e5_2650l_v3();
//! let mut engine = Engine::new(&config);
//! // A tiny loop: load, add, conditional branch — repeated over one page.
//! let ops = (0..10_000u64).flat_map(|i| {
//!     [
//!         MicroOp::load(0x1000 + (i % 512) * 8),
//!         MicroOp::Alu,
//!         MicroOp::conditional_branch(0x400, i % 16 != 0),
//!     ]
//! });
//! let plan = ExecPlan::new().sampler(SamplerConfig::every(5_000));
//! let session = engine.execute(from_iter(ops), &plan);
//! assert_eq!(session.count(Event::InstRetiredAny), 30_000);
//! assert!(session.ipc() > 0.0);
//! // The sampler records per-interval counter deltas that sum back to
//! // the final counts exactly.
//! let timeline = session.timeline().unwrap();
//! assert_eq!(timeline.total().count(Event::InstRetiredAny), 30_000);
//! ```

pub mod branch;
pub mod cache;
pub mod config;
pub mod counters;
pub mod engine;
pub mod exec;
pub mod hierarchy;
pub mod lint;
pub mod metrics;
pub mod microop;
pub mod pipeline;
pub mod prefetch;
pub mod replacement;
pub mod timeline;
pub mod tlb;
