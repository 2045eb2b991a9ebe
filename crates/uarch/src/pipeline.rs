//! Interval-analysis pipeline timing model.
//!
//! Following the classic interval model of superscalar performance, total
//! execution cycles decompose into a base component (issue bandwidth limited
//! by the workload's inherent ILP) plus penalty intervals for branch
//! mispredictions and long-latency memory accesses, with memory-level
//! parallelism (MLP) overlapping part of the miss latency. This turns the
//! event counts produced by the cache and branch models into the
//! `cpu_clk_unhalted.ref_tsc` cycle count, from which IPC emerges.
//!
//! [`price`] is the one pricing path: the engine calls it at the end of
//! every counted run, and a sensitivity sweep calls it again with another
//! [`Timing`] to price the same counts on a retimed machine.

use crate::config::Timing;
use crate::counters::{Event, PerfSession};
use crate::engine::WorkloadHints;

/// Event counts and workload parameters consumed by the timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingInputs {
    /// Total retired micro-ops.
    pub uops: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Demand loads served by the L2 (missed L1).
    pub l2_served: u64,
    /// Demand loads served by the L3 (missed L1 and L2).
    pub l3_served: u64,
    /// Demand loads served by main memory.
    pub mem_served: u64,
    /// Instruction fetches that missed the L1I (refetch bubbles).
    pub l1i_misses: u64,
    /// Workload's inherent instruction-level parallelism: the sustainable
    /// micro-ops per cycle absent stalls. Clamped to `[0.1, issue_width]`.
    pub ilp: f64,
    /// Memory-level parallelism: average overlapping long-latency loads.
    /// Clamped to `[1.0, 16.0]`.
    pub mlp: f64,
}

impl TimingInputs {
    /// The inputs of a counted span: its event counts from `counts`, the
    /// L1I misses over the same span, and the workload's ILP and MLP.
    pub fn new(counts: &PerfSession, l1i_misses: u64, hints: &WorkloadHints) -> Self {
        TimingInputs {
            uops: counts.count(Event::UopsRetiredAll),
            mispredicts: counts.count(Event::BrMispExecAllBranches),
            l2_served: counts.count(Event::MemLoadUopsRetiredL2Hit),
            l3_served: counts.count(Event::MemLoadUopsRetiredL3Hit),
            mem_served: counts.count(Event::MemLoadUopsRetiredL3Miss),
            l1i_misses,
            ilp: hints.ilp,
            mlp: hints.mlp,
        }
    }
}

impl Default for TimingInputs {
    fn default() -> Self {
        TimingInputs {
            uops: 0,
            mispredicts: 0,
            l2_served: 0,
            l3_served: 0,
            mem_served: 0,
            l1i_misses: 0,
            ilp: 2.0,
            mlp: 2.0,
        }
    }
}

/// Breakdown of the cycle estimate, useful for CPI-stack style reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleBreakdown {
    /// Cycles bounded by issue bandwidth / inherent ILP.
    pub base: f64,
    /// Cycles lost to branch-mispredict pipeline refills.
    pub branch: f64,
    /// Cycles lost to data-cache misses (after MLP overlap).
    pub memory: f64,
    /// Cycles lost to instruction-fetch misses.
    pub frontend: f64,
}

impl CycleBreakdown {
    /// Total cycles, at least 1.
    pub fn total(&self) -> u64 {
        (self.base + self.branch + self.memory + self.frontend)
            .max(1.0)
            .round() as u64
    }
}

/// Estimates cycles for a run with the given event counts.
///
/// # Example
///
/// ```
/// use uarch_sim::config::SystemConfig;
/// use uarch_sim::pipeline::{estimate_cycles, TimingInputs};
///
/// let timing = SystemConfig::haswell_e5_2650l_v3().timing;
/// let no_stalls = TimingInputs { uops: 4_000, ilp: 4.0, ..TimingInputs::default() };
/// // Pure ALU work at full width: ~1000 cycles.
/// assert_eq!(estimate_cycles(&timing, &no_stalls).total(), 1000);
/// ```
pub fn estimate_cycles(timing: &Timing, inputs: &TimingInputs) -> CycleBreakdown {
    let width = timing.issue_width as f64;
    let ilp = inputs.ilp.clamp(0.1, width);
    let mlp = inputs.mlp.clamp(1.0, 16.0);

    let base = inputs.uops as f64 / ilp;
    let branch = inputs.mispredicts as f64 * timing.mispredict_penalty as f64;
    let raw_memory = inputs.l2_served as f64 * timing.l2_latency as f64
        + inputs.l3_served as f64 * timing.l3_latency as f64
        + inputs.mem_served as f64 * timing.memory_latency as f64;
    let memory = raw_memory / mlp;
    // An L1I miss stalls the front end for roughly an L2 hit; deeper fetch
    // misses are already folded into the L2/L3 served counts.
    let frontend = inputs.l1i_misses as f64 * timing.l2_latency as f64 * 0.5;

    CycleBreakdown {
        base,
        branch,
        memory,
        frontend,
    }
}

/// Prices a counted run: the interval-model total under `timing`, scaled
/// by the thread overhead of a multi-threaded run, and at least one cycle.
/// This is the `cpu_clk_unhalted.ref_tsc` count of the run.
pub fn price(timing: &Timing, inputs: &TimingInputs, hints: &WorkloadHints) -> u64 {
    let mut cycles = estimate_cycles(timing, inputs).total() as f64;
    if hints.threads > 1 {
        // Multi-threaded `speed` runs burn extra unhalted reference
        // cycles on synchronization and shared-cache contention; the
        // paper observes exactly this as the speed-fp IPC collapse.
        cycles *= 1.0 + hints.sync_overhead * (hints.threads - 1) as f64;
    }
    cycles.max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Timing {
        crate::config::SystemConfig::haswell_e5_2650l_v3().timing
    }

    #[test]
    fn ideal_ipc_equals_ilp() {
        let inputs = TimingInputs {
            uops: 40_000,
            ilp: 2.5,
            ..TimingInputs::default()
        };
        let cycles = estimate_cycles(&cfg(), &inputs).total();
        let ipc = inputs.uops as f64 / cycles as f64;
        assert!((ipc - 2.5).abs() < 0.01, "ipc {ipc}");
    }

    #[test]
    fn ilp_clamped_to_issue_width() {
        let inputs = TimingInputs {
            uops: 40_000,
            ilp: 100.0,
            ..TimingInputs::default()
        };
        let cycles = estimate_cycles(&cfg(), &inputs).total();
        let ipc = inputs.uops as f64 / cycles as f64;
        assert!(ipc <= cfg().issue_width as f64 + 1e-9);
    }

    #[test]
    fn mispredicts_add_fixed_penalty() {
        let base = TimingInputs {
            uops: 10_000,
            ilp: 2.0,
            ..TimingInputs::default()
        };
        let with_misp = TimingInputs {
            mispredicts: 100,
            ..base
        };
        let c0 = estimate_cycles(&cfg(), &base).total();
        let c1 = estimate_cycles(&cfg(), &with_misp).total();
        assert_eq!(c1 - c0, 100 * cfg().mispredict_penalty);
    }

    #[test]
    fn memory_misses_slow_execution_by_level() {
        let base = TimingInputs {
            uops: 10_000,
            ilp: 2.0,
            mlp: 1.0,
            ..TimingInputs::default()
        };
        let l2 = TimingInputs {
            l2_served: 100,
            ..base
        };
        let mem = TimingInputs {
            mem_served: 100,
            ..base
        };
        let c_base = estimate_cycles(&cfg(), &base).total();
        let c_l2 = estimate_cycles(&cfg(), &l2).total();
        let c_mem = estimate_cycles(&cfg(), &mem).total();
        assert!(c_l2 > c_base);
        assert!(c_mem > c_l2, "DRAM misses cost more than L2 hits");
        assert_eq!(c_mem - c_base, 100 * cfg().memory_latency);
    }

    #[test]
    fn mlp_overlaps_miss_latency() {
        let serial = TimingInputs {
            uops: 1000,
            mem_served: 1000,
            ilp: 2.0,
            mlp: 1.0,
            ..TimingInputs::default()
        };
        let parallel = TimingInputs { mlp: 4.0, ..serial };
        let cs = estimate_cycles(&cfg(), &serial).total();
        let cp = estimate_cycles(&cfg(), &parallel).total();
        assert!(cp < cs);
        // Memory component shrinks by exactly 4x.
        let bs = estimate_cycles(&cfg(), &serial);
        let bp = estimate_cycles(&cfg(), &parallel);
        assert!((bs.memory / bp.memory - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frontend_misses_cost_cycles() {
        let base = TimingInputs {
            uops: 10_000,
            ilp: 2.0,
            ..TimingInputs::default()
        };
        let icache = TimingInputs {
            l1i_misses: 200,
            ..base
        };
        assert!(estimate_cycles(&cfg(), &icache).total() > estimate_cycles(&cfg(), &base).total());
    }

    #[test]
    fn zero_work_is_one_cycle() {
        assert_eq!(estimate_cycles(&cfg(), &TimingInputs::default()).total(), 1);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let inputs = TimingInputs {
            uops: 5000,
            mispredicts: 10,
            l2_served: 20,
            l3_served: 5,
            mem_served: 2,
            l1i_misses: 3,
            ilp: 1.5,
            mlp: 2.0,
        };
        let b = estimate_cycles(&cfg(), &inputs);
        let sum = b.base + b.branch + b.memory + b.frontend;
        assert_eq!(b.total(), sum.round() as u64);
    }

    #[test]
    fn extreme_ilp_clamps_low() {
        let inputs = TimingInputs {
            uops: 1000,
            ilp: 0.0,
            ..TimingInputs::default()
        };
        let b = estimate_cycles(&cfg(), &inputs);
        assert!(b.base <= 1000.0 / 0.1 + 1.0);
    }
}
