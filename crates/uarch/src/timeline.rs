//! Interval-sampled counter timelines.
//!
//! The paper's methodology is fundamentally *temporal*: hardware counters
//! are read periodically while the benchmark runs, and every reported
//! metric is a rate over those samples. End-of-run totals — all the
//! simulator exposed before this module — cannot show phase behaviour
//! (cf. the memory-centric CPU2017 study's temporal bandwidth profiles).
//!
//! A [`SamplerConfig`] asks the engine to snapshot its [`PerfSession`]
//! every `interval_ops` counted micro-ops; the resulting
//! [`CounterTimeline`] holds one [`IntervalSample`] of counter *deltas*
//! per interval, from which per-interval IPC, MPKI per cache level, and
//! branch mispredict rates are derived. Summing every interval's deltas
//! reproduces the final counter file exactly (an invariant the test suite
//! pins), so the timeline is a lossless decomposition of the run, not an
//! approximation of it.
//!
//! Sampling is strictly opt-in: a run without a sampler executes the
//! identical code path it always did (one extra integer compare per op)
//! and produces a byte-identical session with no timeline attached.

use crate::counters::{Event, PerfSession};

/// Configuration of the engine's interval sampler.
///
/// Passed through [`crate::exec::ExecPlan::sampler`]; `None` disables
/// sampling entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Counted micro-ops per sampling interval (warmup ops are never
    /// sampled). Clamped to at least 1 by the engine.
    pub interval_ops: u64,
}

impl SamplerConfig {
    /// A sampler snapshotting every `interval_ops` counted micro-ops.
    pub fn every(interval_ops: u64) -> Self {
        SamplerConfig {
            interval_ops: interval_ops.max(1),
        }
    }
}

impl Default for SamplerConfig {
    /// 10 000 counted ops per interval — fine enough to resolve the phase
    /// lengths the synthetic workloads produce, coarse enough that a
    /// full-scale pair yields a few hundred samples.
    fn default() -> Self {
        SamplerConfig::every(10_000)
    }
}

/// Counter deltas over one sampling interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalSample {
    /// First counted-op index of the interval (0-based, inclusive).
    pub start_op: u64,
    /// One past the last counted-op index of the interval (exclusive).
    pub end_op: u64,
    /// Counter deltas accumulated within the interval. Cycle deltas are a
    /// consistent decomposition of the whole-run interval-model pricing
    /// (see [`CounterTimeline`]), so `deltas.ipc()` is meaningful.
    pub deltas: PerfSession,
}

impl IntervalSample {
    /// Instructions per cycle within the interval.
    pub fn ipc(&self) -> f64 {
        self.deltas.ipc()
    }

    /// Misses per kilo-instruction for one miss event within the interval.
    pub fn mpki(&self, miss_event: Event) -> f64 {
        let inst = self.deltas.count(Event::InstRetiredAny);
        if inst == 0 {
            0.0
        } else {
            self.deltas.count(miss_event) as f64 * 1000.0 / inst as f64
        }
    }

    /// L1D load misses per kilo-instruction.
    pub fn l1_mpki(&self) -> f64 {
        self.mpki(Event::MemLoadUopsRetiredL1Miss)
    }

    /// L2 load misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        self.mpki(Event::MemLoadUopsRetiredL2Miss)
    }

    /// L3 load misses per kilo-instruction.
    pub fn l3_mpki(&self) -> f64 {
        self.mpki(Event::MemLoadUopsRetiredL3Miss)
    }

    /// Branch mispredict rate within the interval.
    pub fn mispredict_rate(&self) -> f64 {
        self.deltas.mispredict_rate()
    }

    /// Fraction of the interval's retired micro-ops that were loads.
    pub fn load_fraction(&self) -> f64 {
        self.deltas.load_fraction()
    }

    /// Fraction of the interval's retired micro-ops that were stores.
    pub fn store_fraction(&self) -> f64 {
        self.deltas.store_fraction()
    }

    /// Fraction of the interval's retired micro-ops that were branches.
    pub fn branch_fraction(&self) -> f64 {
        self.deltas.branch_fraction()
    }

    /// Fraction of the interval's retired micro-ops that were plain ALU
    /// ops (the remainder after loads, stores, and branches).
    pub fn alu_fraction(&self) -> f64 {
        (1.0 - self.load_fraction() - self.store_fraction() - self.branch_fraction()).max(0.0)
    }

    /// Column names of [`IntervalSample::feature_vector`], in order.
    pub const FEATURE_NAMES: [&'static str; 8] = [
        "load_frac",
        "store_frac",
        "branch_frac",
        "ipc",
        "l1_mpki",
        "l2_mpki",
        "l3_mpki",
        "mispredict_rate",
    ];

    /// The interval's clustering feature vector — the µop-mix fractions
    /// plus IPC / MPKI / mispredict deltas that stand in for a
    /// basic-block vector in the SimPoint-style representative-interval
    /// pipeline (`simpoint` crate). Derived purely from the interval's
    /// own counter deltas, so two intervals with identical deltas map to
    /// the identical point in feature space.
    pub fn feature_vector(&self) -> [f64; 8] {
        [
            self.load_fraction(),
            self.store_fraction(),
            self.branch_fraction(),
            self.ipc(),
            self.l1_mpki(),
            self.l2_mpki(),
            self.l3_mpki(),
            self.mispredict_rate(),
        ]
    }
}

/// The per-interval counter history of one engine run.
///
/// Cycle accounting: the engine prices the *whole* run with the interval
/// timing model, then decomposes the cycle total across intervals in
/// proportion to each interval's own timing-model estimate (cumulative
/// rounding, so the per-interval cycle deltas sum to the final
/// `cpu_clk_unhalted.ref_tsc` count *exactly*). Every other event is a
/// plain counter delta observed at the interval boundary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CounterTimeline {
    /// The configured sampling interval (counted ops).
    pub interval_ops: u64,
    /// The intervals, in execution order. The final interval may be
    /// shorter than `interval_ops`.
    pub intervals: Vec<IntervalSample>,
}

impl CounterTimeline {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// True when no intervals were recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Sums every interval's deltas back into a whole-run session.
    ///
    /// By construction this reproduces the run's final counter file
    /// exactly — the invariant that makes the timeline a decomposition
    /// rather than an approximation.
    pub fn total(&self) -> PerfSession {
        let mut s = PerfSession::new();
        for interval in &self.intervals {
            s.merge(&interval.deltas);
        }
        s
    }

    /// Per-interval values of one derived metric, in execution order.
    pub fn series<F: Fn(&IntervalSample) -> f64>(&self, f: F) -> Vec<f64> {
        self.intervals.iter().map(f).collect()
    }

    /// Column names of [`CounterTimeline::csv`], in order. The trailing
    /// µop-mix columns are the same fractions the SimPoint feature vector
    /// starts from ([`IntervalSample::feature_vector`]).
    pub const CSV_HEADER: &'static str =
        "interval,start_op,end_op,instructions,cycles,ipc,l1_mpki,l2_mpki,l3_mpki,mispredict_rate,load_frac,store_frac,branch_frac";

    /// Renders the timeline as a CSV document (header + one row per
    /// interval) — the machine-readable phase-behaviour artifact.
    pub fn csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for (i, s) in self.intervals.iter().enumerate() {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
                i,
                s.start_op,
                s.end_op,
                s.deltas.count(Event::InstRetiredAny),
                s.deltas.count(Event::CpuClkUnhaltedRefTsc),
                s.ipc(),
                s.l1_mpki(),
                s.l2_mpki(),
                s.l3_mpki(),
                s.mispredict_rate(),
                s.load_fraction(),
                s.store_fraction(),
                s.branch_fraction(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start: u64, end: u64, inst: u64, cycles: u64, l1m: u64) -> IntervalSample {
        let mut deltas = PerfSession::new();
        deltas.set(Event::InstRetiredAny, inst);
        deltas.set(Event::CpuClkUnhaltedRefTsc, cycles);
        deltas.set(Event::MemLoadUopsRetiredL1Miss, l1m);
        IntervalSample {
            start_op: start,
            end_op: end,
            deltas,
        }
    }

    #[test]
    fn sampler_clamps_zero_interval() {
        assert_eq!(SamplerConfig::every(0).interval_ops, 1);
        assert_eq!(SamplerConfig::every(500).interval_ops, 500);
    }

    #[test]
    fn interval_metrics() {
        let s = sample(0, 1000, 1000, 500, 25);
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.l1_mpki() - 25.0).abs() < 1e-12);
        assert_eq!(s.l2_mpki(), 0.0);
    }

    #[test]
    fn empty_interval_yields_zero_metrics() {
        let s = sample(0, 0, 0, 0, 0);
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l1_mpki(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
    }

    #[test]
    fn mix_fractions_and_feature_vector_are_consistent() {
        let mut deltas = PerfSession::new();
        deltas.set(Event::InstRetiredAny, 1000);
        deltas.set(Event::UopsRetiredAll, 1000);
        deltas.set(Event::CpuClkUnhaltedRefTsc, 500);
        deltas.set(Event::MemUopsRetiredAllLoads, 300);
        deltas.set(Event::MemUopsRetiredAllStores, 100);
        deltas.set(Event::BrInstExecAllBranches, 200);
        deltas.set(Event::MemLoadUopsRetiredL1Miss, 25);
        let s = IntervalSample {
            start_op: 0,
            end_op: 1000,
            deltas,
        };
        assert!((s.load_fraction() - 0.3).abs() < 1e-12);
        assert!((s.store_fraction() - 0.1).abs() < 1e-12);
        assert!((s.branch_fraction() - 0.2).abs() < 1e-12);
        assert!((s.alu_fraction() - 0.4).abs() < 1e-12);
        let v = s.feature_vector();
        assert_eq!(v.len(), IntervalSample::FEATURE_NAMES.len());
        assert!((v[0] - s.load_fraction()).abs() < 1e-12);
        assert!((v[3] - s.ipc()).abs() < 1e-12);
        assert!((v[4] - s.l1_mpki()).abs() < 1e-12);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn empty_interval_feature_vector_is_finite() {
        let s = sample(0, 0, 0, 0, 0);
        assert_eq!(s.alu_fraction(), 1.0);
        assert!(s.feature_vector().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn total_sums_intervals() {
        let t = CounterTimeline {
            interval_ops: 1000,
            intervals: vec![
                sample(0, 1000, 1000, 400, 3),
                sample(1000, 1500, 500, 100, 9),
            ],
        };
        let total = t.total();
        assert_eq!(total.count(Event::InstRetiredAny), 1500);
        assert_eq!(total.count(Event::CpuClkUnhaltedRefTsc), 500);
        assert_eq!(total.count(Event::MemLoadUopsRetiredL1Miss), 12);
    }

    #[test]
    fn csv_is_rectangular() {
        let t = CounterTimeline {
            interval_ops: 1000,
            intervals: vec![
                sample(0, 1000, 1000, 400, 3),
                sample(1000, 1500, 500, 100, 9),
            ],
        };
        let csv = t.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let arity = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == arity));
        assert!(lines[0].starts_with("interval,start_op"));
    }

    #[test]
    fn series_extracts_metric_in_order() {
        let t = CounterTimeline {
            interval_ops: 1000,
            intervals: vec![
                sample(0, 1000, 1000, 500, 0),
                sample(1000, 2000, 1000, 250, 0),
            ],
        };
        let ipc = t.series(IntervalSample::ipc);
        assert_eq!(ipc.len(), 2);
        assert!(ipc[1] > ipc[0]);
    }
}
