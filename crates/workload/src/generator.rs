//! The deterministic micro-op trace generator.
//!
//! A [`TraceGenerator`] expands one behaviour profile into a finite stream of
//! [`MicroOp`]s: per-op class selection follows the profile's instruction-mix
//! percentages, data addresses come from the [`LocalityModel`], and
//! branches from the [`BranchModel`]. Everything is driven by a
//! single seeded RNG (the in-tree [`crate::rng::Rng64`]), so a given
//! (application, input, size) pair always produces the identical trace — the
//! reproduction is bit-deterministic.

use uarch_sim::config::SystemConfig;
use uarch_sim::exec::{UopSink, UopSource};
use uarch_sim::microop::MicroOp;

use crate::branchmodel::BranchModel;
use crate::profile::{AppInputPair, Behavior, InvalidBehavior};
use crate::reuse::LocalityModel;
use crate::rng::{threshold, Rng64};

/// Trace-scaling parameters shared by a characterization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceScale {
    /// Simulated micro-ops per billion paper-scale instructions.
    pub ops_per_billion: f64,
    /// Minimum micro-ops regardless of instruction volume (behavioural
    /// fidelity floor: caches need enough accesses to warm).
    pub base_ops: u64,
    /// Hard cap on micro-ops per pair (bounds the hour-scale `speed fp`
    /// volumes and the fidelity boosts below).
    pub max_ops: u64,
}

impl Default for TraceScale {
    fn default() -> Self {
        TraceScale {
            ops_per_billion: 300.0,
            base_ops: 200_000,
            max_ops: 6_000_000,
        }
    }
}

impl TraceScale {
    /// A much smaller scale for unit tests and quick demos.
    pub fn quick() -> Self {
        TraceScale {
            ops_per_billion: 10.0,
            base_ops: 30_000,
            max_ops: 600_000,
        }
    }

    /// The volume-proportional micro-op budget, before fidelity adjustment.
    pub fn budget(&self, behavior: &Behavior) -> u64 {
        behavior
            .ops_budget(self.ops_per_billion, self.base_ops)
            .min(self.max_ops)
    }

    /// The micro-op budget for a behaviour on a given system, raised when
    /// the behaviour's miss-rate targets need more accesses to be
    /// expressible: the L2/L3 working sets must be revisited several times
    /// (see [`crate::reuse`]), which for small miss rates requires a long
    /// trace. Capped at `max_ops`.
    pub fn budget_for(&self, behavior: &Behavior, config: &SystemConfig) -> u64 {
        let base = behavior.ops_budget(self.ops_per_billion, self.base_ops);
        let [_, f2, f3, f4] = behavior.service_fractions();
        let l1_lines = (config.l1d.size_bytes / config.l1d.line_bytes) as f64;
        let mem_frac = behavior.memory_fraction().max(0.02);
        // Accesses needed for viable W2/W3 regions (several revisits of the
        // pollution-assisted minimum size, including a warmup pass); levels
        // carrying < 0.2% of traffic are folded by the locality model
        // instead.
        let miss1 = f2 + f3 + f4;
        let need2 = if f2 > 0.002 {
            9.0 * l1_lines / miss1.max(1e-9)
        } else {
            0.0
        };
        // W3 bypasses the L2, so its minimum size is L1-scaled; the 1152
        // floor is 4.5 revisits of the 256-line region floor.
        let need3 = if f3 > 1.5e-4 {
            (9.0 * l1_lines / miss1.max(1e-9)).max(1152.0 / f3)
        } else {
            0.0
        };
        let needed_ops = (need2.max(need3) / mem_frac) as u64;
        // Fidelity boosts may exceed the volume cap, but only up to 2x it.
        base.min(self.max_ops)
            .max(needed_ops)
            .min(self.max_ops.saturating_mul(2))
    }

    /// Converts a simulated micro-op count back to paper-scale billions of
    /// instructions (inverse of the uncapped [`TraceScale::budget`]).
    pub fn to_billions(&self, sim_ops: u64) -> f64 {
        (sim_ops.saturating_sub(self.base_ops)) as f64 / self.ops_per_billion
    }
}

/// A finite, deterministic micro-op stream for one application–input pair.
///
/// # Example
///
/// ```
/// use uarch_sim::config::SystemConfig;
/// use workload_synth::generator::TraceGenerator;
/// use workload_synth::profile::Behavior;
///
/// let config = SystemConfig::haswell_e5_2650l_v3();
/// let gen = TraceGenerator::new(&Behavior::default(), &config, 7, 10_000).unwrap();
/// assert_eq!(gen.count(), 10_000);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    rng: Rng64,
    locality: LocalityModel,
    branches: BranchModel,
    remaining: u64,
    /// Ops produced by *this instance*, reported on drop.
    produced: u64,
    /// Ops fast-forwarded by *this instance*, reported on drop.
    skipped: u64,
    /// Cumulative class thresholds on a [`Rng64::gen_u53`] draw:
    /// load | store | branch (remainder: ALU).
    cum: [u64; 3],
}

impl Clone for TraceGenerator {
    fn clone(&self) -> Self {
        TraceGenerator {
            rng: self.rng.clone(),
            locality: self.locality.clone(),
            branches: self.branches.clone(),
            remaining: self.remaining,
            // The clone reports only what it produces itself; the ops the
            // original already produced stay on the original's tally.
            produced: 0,
            skipped: 0,
            cum: self.cum,
        }
    }
}

/// A generator that produced or fast-forwarded any op closes a `gen/done`
/// span with its `ops` and `skipped` tallies when it is dropped, so the
/// run's span tree counts every op generated, clones included. The span
/// records only under an open trace root, like any other.
impl Drop for TraceGenerator {
    fn drop(&mut self) {
        if self.produced > 0 || self.skipped > 0 {
            let mut span = simtrace::span("gen/done");
            span.arg("ops", self.produced);
            span.arg("skipped", self.skipped);
        }
    }
}

impl TraceGenerator {
    /// Builds a generator producing exactly `ops` micro-ops.
    ///
    /// # Errors
    ///
    /// Returns the [`InvalidBehavior`] diagnosis when `behavior` fails
    /// validation (see [`Behavior::validate`]).
    pub fn new(
        behavior: &Behavior,
        config: &SystemConfig,
        seed: u64,
        ops: u64,
    ) -> Result<Self, InvalidBehavior> {
        behavior.validate()?;
        let load = behavior.load_pct / 100.0;
        let store = behavior.store_pct / 100.0;
        let branch = behavior.branch_pct / 100.0;
        Ok(TraceGenerator {
            rng: Rng64::seed_from(seed),
            locality: LocalityModel::new(
                behavior.service_fractions(),
                config,
                (ops as f64 * behavior.memory_fraction()).ceil() as u64,
            ),
            branches: BranchModel::new(behavior),
            remaining: ops,
            produced: 0,
            skipped: 0,
            cum: [
                threshold(load),
                threshold(load + store),
                threshold(load + store + branch),
            ],
        })
    }

    /// Builds the canonical generator for an application–input pair: seeded
    /// from the pair identity and sized by `scale`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBehavior`] when the pair's behaviour profile fails
    /// validation.
    pub fn from_pair(
        pair: &AppInputPair<'_>,
        config: &SystemConfig,
        scale: &TraceScale,
    ) -> Result<Self, InvalidBehavior> {
        let mut trace_span = simtrace::span("gen/expand");
        if trace_span.is_recording() {
            trace_span.arg("pair", pair.id());
        }
        let behavior = &pair.input.behavior;
        let generator = TraceGenerator::new(
            behavior,
            config,
            pair.seed(),
            scale.budget_for(behavior, config),
        );
        match &generator {
            Ok(g) => trace_span.arg("ops", g.remaining()),
            Err(e) => trace_span.set_error(&e.to_string()),
        }
        generator
    }

    /// Micro-ops still to be produced.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Fast-forwards over the next `n` micro-ops without materializing them,
    /// returning how many were actually skipped (clamped at the end of the
    /// stream).
    ///
    /// Every stateful model the generator consults is advanced exactly as
    /// [`Iterator::next`] would — one class draw per op, plus the address or
    /// branch draw that class performs — so a skip followed by iteration
    /// yields bit-identical ops to iterating the whole stream and discarding
    /// the first `n`. This is the primitive a SimPoint-style sparse replay
    /// uses to jump between medoid intervals. Skipped ops do not count as
    /// produced: the `gen/done` span reports them under `skipped`.
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        let take = n.min(self.remaining);
        for _ in 0..take {
            self.remaining -= 1;
            let u = self.rng.gen_u53();
            if u < self.cum[1] {
                // Loads and stores each draw exactly one address.
                self.locality.next_addr(&mut self.rng);
            } else if u < self.cum[2] {
                self.branches.next(&mut self.rng);
            }
            // ALU ops draw nothing beyond the class selector.
        }
        self.skipped += take;
        take
    }

    /// Address range of the L3-resident working set; pass this as the
    /// engine's `l2_bypass_range` hint so the scaled-down region behaves
    /// like the multi-megabyte original (see `crate::reuse`).
    pub fn l2_bypass_range(&self) -> (u64, u64) {
        self.locality.l3_set_range()
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.produced += 1;
        let u = self.rng.gen_u53();
        Some(if u < self.cum[0] {
            MicroOp::Load {
                addr: self.locality.next_addr(&mut self.rng),
            }
        } else if u < self.cum[1] {
            MicroOp::Store {
                addr: self.locality.next_addr(&mut self.rng),
            }
        } else if u < self.cum[2] {
            self.branches.next(&mut self.rng)
        } else {
            MicroOp::Alu
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGenerator {}

impl UopSource for TraceGenerator {
    /// Feeds up to `max` µops to `sink`: the class draw selects the sink
    /// method directly, so no [`MicroOp`] is materialized for the three
    /// common classes and a consuming engine executes each op before the
    /// next is drawn.
    ///
    /// Issues exactly the RNG and model draws [`Iterator::next`] would
    /// (one class selector per op, then the address or branch draw that
    /// class performs), so driven and iterated streams from the same
    /// generator state are bit-identical — pinned by this module's tests.
    #[inline]
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let take = (max as u64).min(self.remaining);
        self.remaining -= take;
        self.produced += take;
        for _ in 0..take {
            let u = self.rng.gen_u53();
            if u < self.cum[0] {
                sink.load(self.locality.next_addr(&mut self.rng));
            } else if u < self.cum[1] {
                sink.store(self.locality.next_addr(&mut self.rng));
            } else if u < self.cum[2] {
                sink.push(self.branches.next(&mut self.rng));
            } else {
                sink.alu();
            }
        }
        take as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::microop::BranchKind;

    fn config() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    #[test]
    fn produces_exact_count() {
        let g = TraceGenerator::new(&Behavior::default(), &config(), 1, 5000).unwrap();
        assert_eq!(g.len(), 5000);
        assert_eq!(g.count(), 5000);
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<MicroOp> = TraceGenerator::new(&Behavior::default(), &config(), 9, 2000)
            .unwrap()
            .collect();
        let b: Vec<MicroOp> = TraceGenerator::new(&Behavior::default(), &config(), 9, 2000)
            .unwrap()
            .collect();
        assert_eq!(a, b);
        let c: Vec<MicroOp> = TraceGenerator::new(&Behavior::default(), &config(), 10, 2000)
            .unwrap()
            .collect();
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn instruction_mix_matches_profile() {
        let behavior = Behavior {
            load_pct: 30.0,
            store_pct: 10.0,
            branch_pct: 20.0,
            ..Behavior::default()
        };
        let n = 200_000u64;
        let g = TraceGenerator::new(&behavior, &config(), 3, n).unwrap();
        let (mut loads, mut stores, mut branches) = (0u64, 0u64, 0u64);
        for op in g {
            match op {
                MicroOp::Load { .. } => loads += 1,
                MicroOp::Store { .. } => stores += 1,
                MicroOp::Branch { .. } => branches += 1,
                MicroOp::Alu => {}
            }
        }
        assert!((loads as f64 / n as f64 - 0.30).abs() < 0.01);
        assert!((stores as f64 / n as f64 - 0.10).abs() < 0.01);
        assert!((branches as f64 / n as f64 - 0.20).abs() < 0.01);
    }

    #[test]
    fn branch_kind_composition_flows_through() {
        let behavior = Behavior {
            branch_pct: 30.0,
            ..Behavior::default()
        };
        let g = TraceGenerator::new(&behavior, &config(), 4, 300_000).unwrap();
        let mut cond = 0u64;
        let mut total = 0u64;
        for op in g {
            if let MicroOp::Branch { kind, .. } = op {
                total += 1;
                if kind == BranchKind::Conditional {
                    cond += 1;
                }
            }
        }
        let frac = cond as f64 / total as f64;
        assert!(
            (frac - behavior.cond_frac).abs() < 0.02,
            "conditional fraction {frac}"
        );
    }

    #[test]
    fn scale_budget_and_inverse() {
        let scale = TraceScale::default();
        let b = Behavior {
            instructions_billions: 2000.0,
            ..Behavior::default()
        };
        let ops = scale.budget(&b);
        assert_eq!(ops, 200_000 + 600_000);
        let back = scale.to_billions(ops);
        assert!((back - 2000.0).abs() < 1.0);
    }

    #[test]
    fn budget_for_raises_low_miss_profiles() {
        // A low-miss-rate profile needs a longer trace for its L2/L3
        // working sets to be revisited.
        let scale = TraceScale::default();
        let config = SystemConfig::haswell_e5_2650l_v3();
        let low_miss = Behavior {
            instructions_billions: 100.0,
            l1_miss_target: 0.01,
            ..Behavior::default()
        };
        assert!(scale.budget_for(&low_miss, &config) > scale.budget(&low_miss));
        // And the cap is respected.
        assert!(scale.budget_for(&low_miss, &config) <= scale.max_ops);
    }

    #[test]
    fn quick_scale_is_smaller() {
        let b = Behavior::default();
        assert!(TraceScale::quick().budget(&b) < TraceScale::default().budget(&b));
    }

    #[test]
    fn invalid_behavior_is_reported() {
        let bad = Behavior {
            load_pct: 90.0,
            store_pct: 20.0,
            ..Behavior::default()
        };
        let err = TraceGenerator::new(&bad, &config(), 0, 10).unwrap_err();
        assert!(err.to_string().contains("exceed 100%"), "{err}");
    }

    #[test]
    fn skip_is_bit_identical_to_iterate_and_drop() {
        let behavior = Behavior {
            load_pct: 30.0,
            store_pct: 10.0,
            branch_pct: 20.0,
            ..Behavior::default()
        };
        let full: Vec<MicroOp> = TraceGenerator::new(&behavior, &config(), 11, 4000)
            .unwrap()
            .collect();
        for k in [0u64, 1, 7, 1000, 3999, 4000] {
            let mut g = TraceGenerator::new(&behavior, &config(), 11, 4000).unwrap();
            assert_eq!(g.fast_forward(k), k);
            assert_eq!(g.remaining(), 4000 - k);
            let rest: Vec<MicroOp> = g.collect();
            assert_eq!(rest, full[k as usize..], "fast_forward({k}) diverged");
        }
    }

    #[test]
    fn skip_clamps_at_end_of_stream() {
        let mut g = TraceGenerator::new(&Behavior::default(), &config(), 5, 100).unwrap();
        assert_eq!(g.fast_forward(250), 100);
        assert_eq!(g.remaining(), 0);
        assert_eq!(g.fast_forward(10), 0);
        assert_eq!(g.next(), None);
    }

    /// Records every sink call as the [`MicroOp`] it stands for.
    #[derive(Default)]
    struct Recorder(Vec<MicroOp>);

    impl UopSink for Recorder {
        fn alu(&mut self) {
            self.0.push(MicroOp::Alu);
        }
        fn load(&mut self, addr: u64) {
            self.0.push(MicroOp::Load { addr });
        }
        fn store(&mut self, addr: u64) {
            self.0.push(MicroOp::Store { addr });
        }
        fn branch(&mut self, pc: u64, kind: BranchKind, taken: bool) {
            self.0.push(MicroOp::Branch { pc, kind, taken });
        }
    }

    fn mixed() -> Behavior {
        Behavior {
            load_pct: 30.0,
            store_pct: 10.0,
            branch_pct: 20.0,
            ..Behavior::default()
        }
    }

    #[test]
    fn drive_is_bit_identical_to_iteration_at_any_chunk_size() {
        let full: Vec<MicroOp> = TraceGenerator::new(&mixed(), &config(), 13, 5000)
            .unwrap()
            .collect();
        // Odd chunk sizes straddle every model's internal cadence;
        // `usize::MAX` drives the whole stream in one call.
        for skip in [0u64, 1234] {
            for chunk in [1usize, 7, 611, 4096, usize::MAX] {
                let mut g = TraceGenerator::new(&mixed(), &config(), 13, 5000).unwrap();
                assert_eq!(g.fast_forward(skip), skip);
                let mut sink = Recorder::default();
                loop {
                    let before = sink.0.len();
                    let n = g.drive(&mut sink, chunk);
                    assert!(n <= chunk);
                    assert_eq!(sink.0.len() - before, n, "drive reports its sink calls");
                    if n == 0 {
                        break;
                    }
                }
                assert_eq!(
                    sink.0,
                    full[skip as usize..],
                    "drive({chunk}) after fast_forward({skip}) diverged"
                );
                assert_eq!(g.remaining(), 0);
            }
        }
    }

    #[test]
    fn warming_a_generator_chunk_matches_executing_it() {
        // The simpoint replay's gap invariant on a real generator driven
        // through `TakeOps`: warming chunk A leaves the engine exactly
        // where executing A does, so chunk B's session (timeline included)
        // is the same either way.
        use uarch_sim::counters::Event;
        use uarch_sim::engine::Engine;
        use uarch_sim::exec::ExecPlan;
        use uarch_sim::timeline::SamplerConfig;
        let config = config();
        let (a, b) = (12_345u64, 20_000u64);
        let gen = TraceGenerator::new(&mixed(), &config, 19, a + b).unwrap();
        let mut hints = mixed().hints(&config);
        hints.l2_bypass_range = Some(gen.l2_bypass_range());
        let plan = ExecPlan::new()
            .hints(hints)
            .sampler(SamplerConfig::every(3_000));

        let mut counted_gen = gen.clone();
        let mut counted = Engine::new(&config);
        counted.execute((&mut counted_gen).take_ops(a), &plan);
        let want = counted.execute((&mut counted_gen).take_ops(b), &plan);

        let mut warmed_gen = gen.clone();
        let mut warmed = Engine::new(&config);
        assert_eq!(warmed.warm((&mut warmed_gen).take_ops(a), &hints), a);
        let got = warmed.execute((&mut warmed_gen).take_ops(b), &plan);

        assert_eq!(got.count(Event::InstRetiredAny), b);
        assert_eq!(
            want, got,
            "warming must advance state exactly like executing"
        );
    }

    #[test]
    fn size_hint_is_exact() {
        let mut g = TraceGenerator::new(&Behavior::default(), &config(), 2, 100).unwrap();
        assert_eq!(g.size_hint(), (100, Some(100)));
        g.next();
        assert_eq!(g.size_hint(), (99, Some(99)));
    }
}
