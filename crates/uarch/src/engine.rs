//! The simulation engine: executes a micro-op stream through the cache
//! hierarchy and branch predictor, then prices the run with the pipeline
//! timing model, producing a perf-counter session.
//!
//! This is the stand-in for "run the benchmark under `perf stat` on the
//! Haswell box" in the paper's methodology.
//!
//! Execution is fused with generation (see [`crate::exec`]): a run
//! builds one execution sink — hierarchy, fetch state, predictor, the
//! indirect-target model and per-class tallies, monomorphized over the
//! predictor type and the profiler switch — and lets the [`UopSource`]
//! drive it. Each µop is executed in the sink call that produces it, in
//! stream order: instruction fetch (L1I probes share the L3 with the data
//! path, so their interleaving matters), the demand access or branch
//! prediction, then the taken-branch fetch redirect. Each drive call is
//! capped at the next warmup or sampler edge, so no per-op boundary check
//! survives into the sink; tallies are flushed to the counter session once
//! per call. [`Engine::run_reference`] keeps the original one-op-at-a-time
//! loop over `MicroOp` values as the executable specification; the sink
//! path reproduces its counters bit-for-bit (pinned by this crate's tests
//! and the roster-wide differential suite).

use crate::branch::{target_is_static, BranchPredictor, PredictorImpl, PredictorKind};
use crate::config::SystemConfig;
use crate::counters::{Event, PerfSession};
use crate::exec::{ExecPlan, UopSink, UopSource};
use crate::hierarchy::{Hierarchy, ServedBy};
use crate::microop::{BranchKind, MicroOp};
use crate::pipeline::{estimate_cycles, price, CycleBreakdown, TimingInputs};
use crate::timeline::{CounterTimeline, IntervalSample};

/// Workload-level execution hints that are not visible in the micro-op
/// stream itself.
///
/// These correspond to properties the paper's real binaries have implicitly:
/// how much instruction-level and memory-level parallelism the code exposes,
/// how large its text segment is, how predictable its indirect-branch
/// targets are, and (for `speed` runs) how many OpenMP threads it spawns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadHints {
    /// Inherent ILP (sustainable micro-ops per cycle absent stalls).
    pub ilp: f64,
    /// Memory-level parallelism (overlapping outstanding misses).
    pub mlp: f64,
    /// Code footprint in bytes (drives L1I behaviour).
    pub code_footprint_bytes: u64,
    /// Fraction of indirect-branch executions whose target the BTB misses.
    pub indirect_target_miss_rate: f64,
    /// OpenMP thread count (1 for `rate` runs, 4 for the paper's `speed`).
    pub threads: u32,
    /// Per-extra-thread synchronization/contention cycle overhead fraction.
    pub sync_overhead: f64,
    /// Virtual-address range (base, end) of loads that carry a non-temporal
    /// L2-bypass hint (the workload model's L3-resident working set).
    pub l2_bypass_range: Option<(u64, u64)>,
}

impl Default for WorkloadHints {
    fn default() -> Self {
        WorkloadHints {
            ilp: 2.0,
            mlp: 2.0,
            code_footprint_bytes: 64 * 1024,
            indirect_target_miss_rate: 0.05,
            threads: 1,
            sync_overhead: 0.0,
            l2_bypass_range: None,
        }
    }
}

/// Per-run instruction-fetch state: sequential advance within the code
/// footprint, with taken branches redirecting into the hot region (or,
/// occasionally, across the full text segment).
struct FetchState {
    fetch_off: u64,
    last_fetch_line: u64,
    code_mask: u64,
    hot_code_mask: u64,
    taken_seen: u64,
}

impl FetchState {
    fn new(hints: &WorkloadHints) -> Self {
        let code_mask = hints.code_footprint_bytes.next_power_of_two().max(64) - 1;
        // Loops keep most fetches inside a hot code region much smaller than
        // the L1I; only occasional far jumps (cross-function transfers)
        // touch the rest of the text segment. Big-code applications pay for
        // this proportionally through compulsory far-target misses.
        let hot_code_mask = (8 * 1024u64).min(code_mask + 1) - 1;
        FetchState {
            fetch_off: 0,
            last_fetch_line: u64::MAX,
            code_mask,
            hot_code_mask,
            taken_seen: 0,
        }
    }
}

/// Deterministic indirect-jump target-miss bookkeeping (the engine's BTB
/// model): misses are realized by counting against the hint rate, so the
/// realized rate converges on the hint exactly.
#[derive(Default)]
struct IndirectState {
    seen: u64,
    extra_mispredicts: u64,
}

/// Per-drive event tallies, flushed to the counter session once per
/// counted drive call (warmup calls discard theirs, exactly as the scalar
/// path discarded its warmup sink).
#[derive(Default)]
struct Tallies {
    loads: u64,
    stores: u64,
    l1h: u64,
    l2h: u64,
    l3h: u64,
    l3m: u64,
    branches: u64,
    cond: u64,
    direct_jmp: u64,
    direct_call: u64,
    indirect_jmp: u64,
    returns: u64,
    mispredicts: u64,
}

impl Tallies {
    /// Adds these tallies to `s`. `ops` is the number of ops they cover;
    /// every op retires one instruction and one µop. The per-level load
    /// counters partition exactly as the scalar path's per-op increments
    /// did: L1 misses are loads served below L1, L2 misses loads served
    /// below L2.
    fn flush(&self, s: &mut PerfSession, ops: u64) {
        s.add(Event::InstRetiredAny, ops);
        s.add(Event::UopsRetiredAll, ops);
        s.add(Event::MemUopsRetiredAllLoads, self.loads);
        s.add(Event::MemUopsRetiredAllStores, self.stores);
        s.add(Event::MemLoadUopsRetiredL1Hit, self.l1h);
        s.add(
            Event::MemLoadUopsRetiredL1Miss,
            self.l2h + self.l3h + self.l3m,
        );
        s.add(Event::MemLoadUopsRetiredL2Hit, self.l2h);
        s.add(Event::MemLoadUopsRetiredL2Miss, self.l3h + self.l3m);
        s.add(Event::MemLoadUopsRetiredL3Hit, self.l3h);
        s.add(Event::MemLoadUopsRetiredL3Miss, self.l3m);
        s.add(Event::BrInstExecAllBranches, self.branches);
        s.add(Event::BrInstExecAllConditional, self.cond);
        s.add(Event::BrInstExecAllDirectJmp, self.direct_jmp);
        s.add(Event::BrInstExecAllDirectNearCall, self.direct_call);
        s.add(
            Event::BrInstExecAllIndirectJumpNonCallRet,
            self.indirect_jmp,
        );
        s.add(Event::BrInstExecAllIndirectNearReturn, self.returns);
        s.add(Event::BrMispExecAllBranches, self.mispredicts);
    }
}

/// Evaluates `$body` with `$p` bound to the concrete predictor inside a
/// [`PredictorImpl`], so the body monomorphizes once per predictor type.
macro_rules! with_predictor {
    ($predictor:expr, $p:ident => $body:expr) => {
        match $predictor {
            PredictorImpl::Tournament($p) => $body,
            PredictorImpl::GShare($p) => $body,
            PredictorImpl::Bimodal($p) => $body,
            PredictorImpl::AlwaysTaken($p) => $body,
        }
    };
}

/// The engine's [`UopSink`]: executes each µop as the source produces it,
/// monomorphized over the predictor.
///
/// Every sink call first advances instruction fetch (which shares the L3
/// with the data path, so it stays interleaved with loads and stores),
/// then runs the class's own body: the demand access, or branch
/// classification, conditional direction prediction, the indirect
/// target-miss model and the taken-branch fetch redirect. This is exactly
/// the scalar reference order (see [`Engine::run_reference`]);
/// monomorphizing over `P` removes virtual dispatch from the
/// conditional-branch path. Within one branch op the predictor update and
/// the fetch redirect commute — they touch disjoint state — so their
/// relative order is immaterial to bit-identity.
///
/// `PROFILE` selects the simprof hook: every `prof.interval` ops one
/// sample (stack, µop kind, serving cache level, segment) is recorded via
/// [`simprof::record_engine_sample`]. With `PROFILE = false` the hook
/// code is compiled out entirely, so the unprofiled monomorphization is
/// the exact pre-simprof loop. The hook reads engine state but never
/// writes it, so counters are bit-identical either way.
struct ExecSink<'e, P, const PROFILE: bool> {
    hierarchy: &'e mut Hierarchy,
    predictor: &'e mut P,
    fs: FetchState,
    ind: IndirectState,
    t: Tallies,
    prof: ProfState,
    /// The L2-bypass range as `[lo, hi)`; an empty range never matches, so
    /// the per-load check is branch-free on the hint's presence.
    bypass_lo: u64,
    bypass_hi: u64,
    indirect_target_miss_rate: f64,
}

impl<'e, P: BranchPredictor, const PROFILE: bool> ExecSink<'e, P, PROFILE> {
    fn new(
        hierarchy: &'e mut Hierarchy,
        predictor: &'e mut P,
        hints: &WorkloadHints,
        indirect_target_miss_rate: f64,
        prof: ProfState,
    ) -> Self {
        let (bypass_lo, bypass_hi) = hints.l2_bypass_range.unwrap_or((1, 0));
        ExecSink {
            hierarchy,
            predictor,
            fs: FetchState::new(hints),
            ind: IndirectState::default(),
            t: Tallies::default(),
            prof,
            bypass_lo,
            bypass_hi,
            indirect_target_miss_rate,
        }
    }

    /// Instruction fetch: sequential 4-byte advance within the code
    /// footprint; only line crossings touch the L1I.
    #[inline(always)]
    fn fetch(&mut self) {
        let fs = &mut self.fs;
        fs.fetch_off = (fs.fetch_off + 4) & fs.code_mask;
        let fetch_pc = 0x40_0000 + fs.fetch_off;
        let line = fetch_pc >> 6;
        if line != fs.last_fetch_line {
            self.hierarchy.fetch(fetch_pc);
            fs.last_fetch_line = line;
        }
    }

    /// The profiler's op clock: one tick per µop, a sample every
    /// `prof.interval` ticks. Compiled out when `PROFILE` is false.
    #[inline(always)]
    fn tick(&mut self, kind: u8, level: u8) {
        if PROFILE {
            self.prof.countdown -= 1;
            if self.prof.countdown == 0 {
                self.prof.countdown = self.prof.interval;
                // The sample stands for the whole interval that just
                // elapsed, attributed to the op that closed it — standard
                // statistical attribution, exact in aggregate.
                simprof::record_engine_sample(self.prof.interval, kind, level, self.prof.in_warmup);
            }
        }
    }
}

impl<P: BranchPredictor, const PROFILE: bool> UopSink for ExecSink<'_, P, PROFILE> {
    #[inline(always)]
    fn alu(&mut self) {
        self.fetch();
        self.tick(simprof::KIND_ALU, simprof::LEVEL_NONE);
    }

    #[inline(always)]
    fn load(&mut self, addr: u64) {
        self.fetch();
        self.t.loads += 1;
        let served = if addr >= self.bypass_lo && addr < self.bypass_hi {
            self.hierarchy.load_bypass_l2(addr)
        } else {
            self.hierarchy.load(addr)
        };
        let level = match served {
            ServedBy::L1 => {
                self.t.l1h += 1;
                simprof::LEVEL_L1
            }
            ServedBy::L2 => {
                self.t.l2h += 1;
                simprof::LEVEL_L2
            }
            ServedBy::L3 => {
                self.t.l3h += 1;
                simprof::LEVEL_L3
            }
            ServedBy::Memory => {
                self.t.l3m += 1;
                simprof::LEVEL_MEM
            }
        };
        self.tick(simprof::KIND_LOAD, level);
    }

    #[inline(always)]
    fn store(&mut self, addr: u64) {
        self.fetch();
        self.t.stores += 1;
        self.hierarchy.store(addr);
        self.tick(simprof::KIND_STORE, simprof::LEVEL_NONE);
    }

    #[inline(always)]
    fn branch(&mut self, pc: u64, kind: BranchKind, taken: bool) {
        self.fetch();
        let t = &mut self.t;
        t.branches += 1;
        match kind {
            BranchKind::Conditional => {
                t.cond += 1;
                if !self.predictor.predict_and_update(pc, taken) {
                    t.mispredicts += 1;
                }
            }
            // Direct targets are predicted perfectly once decoded.
            BranchKind::DirectJump => t.direct_jmp += 1,
            BranchKind::DirectNearCall => t.direct_call += 1,
            BranchKind::IndirectJumpNonCallRet => {
                // Indirect jump target: BTB miss modelled by the hint
                // rate, realized deterministically by counting.
                t.indirect_jmp += 1;
                let ind = &mut self.ind;
                ind.seen += 1;
                let due = (ind.seen as f64 * self.indirect_target_miss_rate).floor() as u64;
                if due > ind.extra_mispredicts {
                    ind.extra_mispredicts = due;
                    t.mispredicts += 1;
                }
            }
            // Returns are served by the return-address stack, which is
            // essentially perfect for call-balanced code.
            BranchKind::IndirectNearReturn => t.returns += 1,
        }
        // Taken branches redirect fetch — mostly loop-local (hot region),
        // occasionally a far cross-function transfer through the full text
        // footprint.
        if taken {
            let fs = &mut self.fs;
            fs.taken_seen += 1;
            let h = pc
                .wrapping_add(fs.taken_seen)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                >> 17;
            let mask = if fs.taken_seen.is_multiple_of(32) {
                fs.code_mask
            } else {
                fs.hot_code_mask
            };
            fs.fetch_off = h & mask;
            fs.last_fetch_line = u64::MAX;
        }
        self.tick(simprof::KIND_BRANCH, simprof::LEVEL_NONE);
    }
}

/// Sampling state of the [`ExecSink`]: the countdown persists across drive
/// calls so sample spacing is exact over the whole run. With
/// `PROFILE = false` the fields are never read.
struct ProfState {
    countdown: u64,
    interval: u64,
    in_warmup: bool,
}

impl ProfState {
    fn off() -> Self {
        ProfState {
            countdown: u64::MAX,
            interval: u64::MAX,
            in_warmup: false,
        }
    }
}

/// What a counted run's drive loop hands to pricing.
struct Drive {
    session: PerfSession,
    executed: u64,
    counted: u64,
    l1i_misses_at_warmup: u64,
    /// Snapshots at interval boundaries: (counted-op index, session counts
    /// so far, cumulative L1I misses).
    marks: Vec<(u64, PerfSession, u64)>,
}

/// Drives `source` into `sink` to exhaustion under `plan`. Each drive call
/// is capped at the next warmup or sampler edge and at `plan.batch_ops`,
/// so a call never straddles an edge and its tallies belong to one side.
fn drive_counted<S: UopSource, P: BranchPredictor, const PROFILE: bool>(
    source: &mut S,
    sink: &mut ExecSink<'_, P, PROFILE>,
    plan: &ExecPlan,
) -> Drive {
    let warmup_ops = plan.warmup_ops;
    let batch_ops = plan.batch_ops.max(1) as u64;
    // When sampling is off the boundary is unreachable, so calls are capped
    // only at batch and warmup edges.
    let interval = plan.sampler.map(|c| c.interval_ops.max(1));
    let mut next_sample = interval.unwrap_or(u64::MAX);
    let mut d = Drive {
        session: PerfSession::new(),
        executed: 0,
        counted: 0,
        l1i_misses_at_warmup: 0,
        marks: Vec::new(),
    };
    loop {
        let in_warmup = d.executed < warmup_ops;
        let edge = if in_warmup {
            warmup_ops - d.executed
        } else {
            if d.counted == 0 {
                // About to process the first counted op: snapshot the L1I
                // misses accumulated by warmup, exactly where the scalar
                // loop snapshots them.
                d.l1i_misses_at_warmup = sink.hierarchy.l1i_stats().misses;
            }
            next_sample - d.counted
        };
        sink.prof.in_warmup = in_warmup;
        let n = source.drive(sink, edge.min(batch_ops) as usize) as u64;
        if n == 0 {
            break;
        }
        d.executed += n;
        let t = std::mem::take(&mut sink.t);
        if !in_warmup {
            d.counted += n;
            t.flush(&mut d.session, n);
            if d.counted == next_sample {
                let l1i = sink.hierarchy.l1i_stats().misses;
                d.marks.push((d.counted, d.session.clone(), l1i));
                next_sample = next_sample.saturating_add(interval.unwrap_or(u64::MAX));
            }
        }
    }
    d
}

/// Executes micro-op streams on a fixed system configuration.
///
/// See the [crate-level example](crate) for end-to-end usage.
pub struct Engine {
    config: SystemConfig,
    hierarchy: Hierarchy,
    predictor: PredictorImpl,
    predictor_kind: PredictorKind,
    /// The timing-model inputs of the most recent counted run.
    last_inputs: Option<TimingInputs>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config.name)
            .field("predictor", &self.predictor_kind)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an engine with cold caches and the default tournament
    /// predictor.
    pub fn new(config: &SystemConfig) -> Self {
        Engine::with_predictor(config, PredictorKind::Tournament)
    }

    /// Creates an engine with a specific branch predictor (ablation knob).
    pub fn with_predictor(config: &SystemConfig, kind: PredictorKind) -> Self {
        Engine {
            config: config.clone(),
            hierarchy: Hierarchy::new(config),
            predictor: PredictorImpl::build(kind),
            predictor_kind: kind,
            last_inputs: None,
        }
    }

    /// The system configuration this engine simulates.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The predictor variant in use.
    pub fn predictor_kind(&self) -> PredictorKind {
        self.predictor_kind
    }

    /// Resets microarchitectural state (cold caches, fresh predictor).
    pub fn reset(&mut self) {
        self.hierarchy = Hierarchy::new(&self.config);
        self.predictor = PredictorImpl::build(self.predictor_kind);
    }

    /// Executes a µop source to completion under an [`ExecPlan`]
    /// and returns the counter file.
    ///
    /// The returned session contains every [`Event`], including the cycle
    /// count derived by the interval timing model, so `session.ipc()` is
    /// meaningful. With [`ExecPlan::sampler`] set, the session also
    /// carries a [`CounterTimeline`] whose interval deltas sum exactly to
    /// the session's final counts.
    ///
    /// Counters are bit-identical to [`Engine::run_reference`] on the same
    /// stream for every plan.
    ///
    /// Counters are also independent of profiling: one dispatch here picks
    /// the profiled or unprofiled monomorphization of the hot loop from
    /// the sample interval of the trace in scope (0, or no trace, takes
    /// the unprofiled one), and the simprof hook only ever reads engine
    /// state (pinned by `profiling_does_not_perturb_counters`).
    pub fn execute<S: UopSource>(&mut self, source: S, plan: &ExecPlan) -> PerfSession {
        match simtrace::current_context().sample_interval {
            0 => self.execute_impl::<S, false>(source, plan, 0),
            interval => self.execute_impl::<S, true>(source, plan, interval),
        }
    }

    fn execute_impl<S: UopSource, const PROFILE: bool>(
        &mut self,
        mut source: S,
        plan: &ExecPlan,
        prof_interval: u64,
    ) -> PerfSession {
        // One guard around the whole run: constant cost, never per op, and
        // inert with no trace open so the hot loop is untouched. Profile
        // samples taken in the run are stamped with this span.
        let mut trace_span = simtrace::span("engine/run");
        let prof = if PROFILE {
            ProfState {
                countdown: prof_interval,
                interval: prof_interval,
                in_warmup: false,
            }
        } else {
            ProfState::off()
        };
        self.select_predictor(plan);
        let hints = &plan.hints;
        let rate = hints.indirect_target_miss_rate;
        let h = &mut self.hierarchy;
        let drive = with_predictor!(&mut self.predictor, p => drive_counted(
            &mut source,
            &mut ExecSink::<_, PROFILE>::new(h, p, hints, rate, prof),
            plan,
        ));
        let s = self.finish(drive, plan, &mut trace_span);
        if PROFILE {
            // Hand this run's samples to the collector before the worker
            // moves on, so a drain on another thread sees them.
            simprof::flush_thread();
        }
        s
    }

    /// Switches to the plan's predictor, if it names one, rebuilding it
    /// fresh when it differs from the current one.
    fn select_predictor(&mut self, plan: &ExecPlan) {
        if let Some(kind) = plan.predictor {
            if kind != self.predictor_kind {
                self.predictor = PredictorImpl::build(kind);
                self.predictor_kind = kind;
            }
        }
    }

    /// The tail every counted run shares: prices the counted portion with
    /// [`price`], closes the timeline, and records the run's `engine/run`
    /// span args.
    fn finish(
        &mut self,
        drive: Drive,
        plan: &ExecPlan,
        trace_span: &mut simtrace::SpanGuard,
    ) -> PerfSession {
        let Drive {
            session: mut s,
            executed,
            counted,
            l1i_misses_at_warmup,
            mut marks,
        } = drive;
        let hints = &plan.hints;
        let l1i_total = self.hierarchy.l1i_stats().misses;
        let l1i_counted = if executed > plan.warmup_ops {
            l1i_total - l1i_misses_at_warmup
        } else {
            0
        };
        let inputs = TimingInputs::new(&s, l1i_counted, hints);
        s.set(
            Event::CpuClkUnhaltedRefTsc,
            price(&self.config.timing, &inputs, hints),
        );
        self.last_inputs = Some(inputs);

        if let Some(sampler) = plan.sampler {
            // Close the final (possibly partial) interval with the finished
            // session so the interval deltas telescope to the exact totals.
            if marks.last().is_none_or(|(end, _, _)| *end < counted) {
                marks.push((counted, s.clone(), l1i_total));
            }
            let interval_ops = sampler.interval_ops.max(1);
            s.set_timeline(self.build_timeline(interval_ops, &marks, &s, hints, l1i_counted));
        }

        if trace_span.is_recording() {
            trace_span.arg("ops", executed);
            trace_span.arg("warmup_ops", plan.warmup_ops);
            trace_span.arg("l3_sets", self.hierarchy.l3_materialized_sets() as u64);
        }
        s
    }

    /// Functional warming over a µop source: advances every piece of
    /// persistent microarchitectural state — cache hierarchy (demand and
    /// instruction fetch), branch predictor — through transitions
    /// bit-identical to [`Engine::execute`] on the same stream, but with
    /// no counter accounting, no cycle pricing, and no timeline sampling.
    /// Returns the number of ops warmed.
    ///
    /// This is the warming path of a SimPoint-style sparse replay
    /// (`simpoint` crate): intervals before a simulation point are warmed
    /// so the medoid interval starts from the state a full chunked run
    /// would have given it. The equivalence (`warm` on chunk A then
    /// `execute` on chunk B produces the same session for B as `execute`
    /// on both) is pinned by this crate's tests, and lets a warm-gap
    /// simpoint analysis take its medoid counters from the profiling pass
    /// instead of replaying.
    ///
    /// Under an open trace root, the pass is an `engine/warm` span whose
    /// `ops` arg is the count returned.
    pub fn warm<S: UopSource>(&mut self, mut source: S, hints: &WorkloadHints) -> u64 {
        let mut trace_span = simtrace::span("engine/warm");
        let h = &mut self.hierarchy;
        // Warming has no edges, so the source drives the sink to the end.
        // Rate 0.0 keeps the indirect model inert, matching the scalar warm
        // path (which never counted indirect misses); warming is uncounted
        // gap-filling, so it is never profiled and its tallies are dropped.
        let executed = with_predictor!(&mut self.predictor, p => {
            let mut sink = ExecSink::<_, false>::new(h, p, hints, 0.0, ProfState::off());
            let mut executed = 0u64;
            loop {
                match source.drive(&mut sink, usize::MAX) {
                    0 => break executed,
                    n => executed += n as u64,
                }
            }
        });
        trace_span.arg("ops", executed);
        executed
    }

    /// The original one-op-at-a-time execution loop, kept verbatim as the
    /// executable specification of the engine's counter semantics. Only
    /// the pricing tail is shared with [`Engine::execute`].
    ///
    /// The sink-driven [`Engine::execute`] must produce bit-identical sessions
    /// (including timelines) for every stream and plan; the differential
    /// tests in this crate and the roster-wide suite in `workload-synth`
    /// pin that equivalence. Not a hot path — use [`Engine::execute`].
    pub fn run_reference<I>(&mut self, ops: I, plan: &ExecPlan) -> PerfSession
    where
        I: IntoIterator<Item = MicroOp>,
    {
        let mut trace_span = simtrace::span("engine/run");
        let hints = &plan.hints;
        self.select_predictor(plan);
        let warmup_ops = plan.warmup_ops;
        let interval = plan.sampler.map(|c| c.interval_ops.max(1));
        let mut next_sample = interval.unwrap_or(u64::MAX);
        let mut counted: u64 = 0;
        let mut marks: Vec<(u64, PerfSession, u64)> = Vec::new();

        let mut s = PerfSession::new();
        let mut executed: u64 = 0;
        let mut l1i_misses_at_warmup: u64 = 0;
        let mut fetch_off: u64 = 0; // offset within the text segment
        let mut last_fetch_line = u64::MAX;
        let code_mask = hints.code_footprint_bytes.next_power_of_two().max(64) - 1;
        let hot_code_mask = (8 * 1024u64).min(code_mask + 1) - 1;
        let mut taken_seen: u64 = 0;
        let mut indirect_seen: u64 = 0;
        let mut extra_mispredicts: u64 = 0;

        let mut warm = PerfSession::new();
        for op in ops {
            if executed == warmup_ops {
                l1i_misses_at_warmup = self.hierarchy.l1i_stats().misses;
            }
            executed += 1;
            // During warmup, events land in a discarded session; the
            // microarchitectural state still updates.
            let sink = if executed <= warmup_ops {
                &mut warm
            } else {
                counted += 1;
                &mut s
            };
            sink.incr(Event::InstRetiredAny);
            sink.incr(Event::UopsRetiredAll);

            fetch_off = (fetch_off + 4) & code_mask;
            let fetch_pc = 0x40_0000 + fetch_off;
            let line = fetch_pc >> 6;
            if line != last_fetch_line {
                self.hierarchy.fetch(fetch_pc);
                last_fetch_line = line;
            }

            match op {
                MicroOp::Alu => {}
                MicroOp::Load { addr } => {
                    sink.incr(Event::MemUopsRetiredAllLoads);
                    let bypass = hints
                        .l2_bypass_range
                        .is_some_and(|(base, end)| (base..end).contains(&addr));
                    let served = if bypass {
                        self.hierarchy.load_bypass_l2(addr)
                    } else {
                        self.hierarchy.load(addr)
                    };
                    match served {
                        ServedBy::L1 => sink.incr(Event::MemLoadUopsRetiredL1Hit),
                        ServedBy::L2 => {
                            sink.incr(Event::MemLoadUopsRetiredL1Miss);
                            sink.incr(Event::MemLoadUopsRetiredL2Hit);
                        }
                        ServedBy::L3 => {
                            sink.incr(Event::MemLoadUopsRetiredL1Miss);
                            sink.incr(Event::MemLoadUopsRetiredL2Miss);
                            sink.incr(Event::MemLoadUopsRetiredL3Hit);
                        }
                        ServedBy::Memory => {
                            sink.incr(Event::MemLoadUopsRetiredL1Miss);
                            sink.incr(Event::MemLoadUopsRetiredL2Miss);
                            sink.incr(Event::MemLoadUopsRetiredL3Miss);
                        }
                    }
                }
                MicroOp::Store { addr } => {
                    sink.incr(Event::MemUopsRetiredAllStores);
                    self.hierarchy.store(addr);
                }
                MicroOp::Branch { pc, kind, taken } => {
                    sink.incr(Event::BrInstExecAllBranches);
                    sink.incr(branch_kind_event(kind));
                    if kind.is_conditional() {
                        if !self.predictor.predict_and_update(pc, taken) {
                            sink.incr(Event::BrMispExecAllBranches);
                        }
                    } else if target_is_static(kind) {
                        // Direct target: predicted perfectly once decoded.
                    } else if kind == BranchKind::IndirectNearReturn {
                        // Returns are served by the return-address stack,
                        // which is essentially perfect for call-balanced code.
                    } else {
                        indirect_seen += 1;
                        let due =
                            (indirect_seen as f64 * hints.indirect_target_miss_rate).floor() as u64;
                        if due > extra_mispredicts {
                            extra_mispredicts = due;
                            sink.incr(Event::BrMispExecAllBranches);
                        }
                    }
                    if taken {
                        taken_seen += 1;
                        let h = pc
                            .wrapping_add(taken_seen)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            >> 17;
                        let mask = if taken_seen.is_multiple_of(32) {
                            code_mask
                        } else {
                            hot_code_mask
                        };
                        fetch_off = h & mask;
                        last_fetch_line = u64::MAX;
                    }
                }
            }
            if counted == next_sample {
                marks.push((counted, s.clone(), self.hierarchy.l1i_stats().misses));
                next_sample += interval.unwrap_or(u64::MAX);
            }
        }

        let drive = Drive {
            session: s,
            executed,
            counted,
            l1i_misses_at_warmup,
            marks,
        };
        self.finish(drive, plan, &mut trace_span)
    }

    /// Turns boundary snapshots into a [`CounterTimeline`].
    ///
    /// Non-cycle events are plain snapshot differences, so they telescope
    /// to the final counts exactly. Cycles do not accumulate during the
    /// loop (the timing model prices the whole run at the end), so the
    /// final cycle count is decomposed across intervals in proportion to
    /// each interval's own timing-model estimate, using cumulative-floor
    /// rounding so the per-interval cycles also sum to the total exactly.
    fn build_timeline(
        &self,
        interval_ops: u64,
        marks: &[(u64, PerfSession, u64)],
        finished: &PerfSession,
        hints: &WorkloadHints,
        l1i_counted: u64,
    ) -> CounterTimeline {
        let final_l1i = marks.last().map_or(0, |(_, _, l1i)| *l1i);
        let baseline_l1i = final_l1i.saturating_sub(l1i_counted);
        let mut intervals = Vec::with_capacity(marks.len());
        let mut weights = Vec::with_capacity(marks.len());
        for (i, (end, snap, l1i_cum)) in marks.iter().enumerate() {
            let (prev_end, prev_l1i, mut deltas) = match i.checked_sub(1).map(|p| &marks[p]) {
                Some((pe, psnap, pl1i)) => (*pe, *pl1i, snap.delta(psnap)),
                None => (0, baseline_l1i, snap.clone()),
            };
            // Cycles are assigned below from the whole-run pricing.
            deltas.set(Event::CpuClkUnhaltedRefTsc, 0);
            let inputs = TimingInputs::new(&deltas, l1i_cum.saturating_sub(prev_l1i), hints);
            let b = estimate_cycles(&self.config.timing, &inputs);
            weights.push(b.base + b.branch + b.memory + b.frontend);
            intervals.push(IntervalSample {
                start_op: prev_end,
                end_op: *end,
                deltas,
            });
        }

        let total_cycles = finished.count(Event::CpuClkUnhaltedRefTsc);
        // `weights` and this sum fold in the same order, so every running
        // prefix is <= the sum and the last prefix equals it exactly.
        let weight_sum: f64 = weights.iter().sum();
        let n = intervals.len();
        let mut prefix = 0.0f64;
        let mut assigned = 0u64;
        for (i, interval) in intervals.iter_mut().enumerate() {
            prefix += weights[i];
            let cum = if i + 1 == n {
                total_cycles
            } else if weight_sum > 0.0 {
                ((prefix / weight_sum) * total_cycles as f64).floor() as u64
            } else {
                0
            };
            let cum = cum.min(total_cycles);
            interval
                .deltas
                .set(Event::CpuClkUnhaltedRefTsc, cum - assigned);
            assigned = cum;
        }

        CounterTimeline {
            interval_ops,
            intervals,
        }
    }

    /// The timing-model inputs of the most recent counted run: its event
    /// counts, L1I misses and ILP/MLP. [`price`] turns them into the run's
    /// cycle count under any [`crate::config::Timing`], so a retimed
    /// machine needs no second run.
    pub fn last_inputs(&self) -> Option<TimingInputs> {
        self.last_inputs
    }

    /// The interval-model cycle breakdown of the most recent run — the
    /// CPI-stack view (base / branch / memory / frontend), before any
    /// multi-thread overhead scaling.
    pub fn last_breakdown(&self) -> Option<CycleBreakdown> {
        self.last_inputs
            .map(|inputs| estimate_cycles(&self.config.timing, &inputs))
    }

    /// Simulated seconds for a session produced by this engine's config.
    pub fn seconds(&self, session: &PerfSession) -> f64 {
        session.count(Event::CpuClkUnhaltedRefTsc) as f64 / (self.config.timing.clock_ghz * 1e9)
    }
}

fn branch_kind_event(kind: BranchKind) -> Event {
    match kind {
        BranchKind::Conditional => Event::BrInstExecAllConditional,
        BranchKind::DirectJump => Event::BrInstExecAllDirectJmp,
        BranchKind::DirectNearCall => Event::BrInstExecAllDirectNearCall,
        BranchKind::IndirectJumpNonCallRet => Event::BrInstExecAllIndirectJumpNonCallRet,
        BranchKind::IndirectNearReturn => Event::BrInstExecAllIndirectNearReturn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::from_iter;
    use crate::timeline::SamplerConfig;

    fn engine() -> Engine {
        Engine::new(&SystemConfig::tiny_test())
    }

    #[test]
    fn counts_instruction_classes() {
        let mut e = engine();
        let ops = vec![
            MicroOp::Alu,
            MicroOp::load(0x100),
            MicroOp::store(0x200),
            MicroOp::conditional_branch(0x10, true),
            MicroOp::Branch {
                pc: 0x20,
                kind: BranchKind::DirectJump,
                taken: true,
            },
        ];
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert_eq!(s.count(Event::InstRetiredAny), 5);
        assert_eq!(s.count(Event::UopsRetiredAll), 5);
        assert_eq!(s.count(Event::MemUopsRetiredAllLoads), 1);
        assert_eq!(s.count(Event::MemUopsRetiredAllStores), 1);
        assert_eq!(s.count(Event::BrInstExecAllBranches), 2);
        assert_eq!(s.count(Event::BrInstExecAllConditional), 1);
        assert_eq!(s.count(Event::BrInstExecAllDirectJmp), 1);
    }

    #[test]
    fn load_level_counters_partition_loads() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..10_000u64)
            .map(|i| MicroOp::load((i % 2048) * 64))
            .collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        let loads = s.count(Event::MemUopsRetiredAllLoads);
        let l1h = s.count(Event::MemLoadUopsRetiredL1Hit);
        let l1m = s.count(Event::MemLoadUopsRetiredL1Miss);
        assert_eq!(loads, l1h + l1m);
        let l2h = s.count(Event::MemLoadUopsRetiredL2Hit);
        let l2m = s.count(Event::MemLoadUopsRetiredL2Miss);
        assert_eq!(l1m, l2h + l2m);
        let l3h = s.count(Event::MemLoadUopsRetiredL3Hit);
        let l3m = s.count(Event::MemLoadUopsRetiredL3Miss);
        assert_eq!(l2m, l3h + l3m);
    }

    #[test]
    fn small_working_set_mostly_hits_l1() {
        let mut e = engine();
        // 4 lines, touched 10k times: compulsory misses only.
        let ops: Vec<MicroOp> = (0..10_000u64)
            .map(|i| MicroOp::load((i % 4) * 64))
            .collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert!(s.l1_miss_rate() < 0.01, "l1 miss rate {}", s.l1_miss_rate());
    }

    #[test]
    fn streaming_load_misses_all_levels() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..10_000u64).map(|i| MicroOp::load(i * 64)).collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert!(s.l1_miss_rate() > 0.95);
        assert!(s.l2_miss_rate() > 0.95);
        assert!(s.l3_miss_rate() > 0.9);
    }

    #[test]
    fn predictable_branches_rarely_mispredict() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..50_000)
            .map(|_| MicroOp::conditional_branch(0x40, true))
            .collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert!(s.mispredict_rate() < 0.001, "rate {}", s.mispredict_rate());
    }

    #[test]
    fn random_branches_mispredict_heavily() {
        let mut e = engine();
        let mut x = 0xdead_beefu64;
        let ops: Vec<MicroOp> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                MicroOp::conditional_branch(0x40, x & 1 == 1)
            })
            .collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert!(s.mispredict_rate() > 0.3, "rate {}", s.mispredict_rate());
    }

    #[test]
    fn indirect_branch_miss_rate_follows_hint() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..10_000)
            .map(|_| MicroOp::Branch {
                pc: 0x80,
                kind: BranchKind::IndirectJumpNonCallRet,
                taken: true,
            })
            .collect();
        let hints = WorkloadHints {
            indirect_target_miss_rate: 0.25,
            ..WorkloadHints::default()
        };
        let s = e.execute(from_iter(ops), &ExecPlan::new().hints(hints));
        let rate = s.mispredict_rate();
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn direct_jumps_never_mispredict() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..1000)
            .map(|_| MicroOp::Branch {
                pc: 0x90,
                kind: BranchKind::DirectJump,
                taken: true,
            })
            .collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        assert_eq!(s.count(Event::BrMispExecAllBranches), 0);
    }

    #[test]
    fn higher_ilp_means_higher_ipc() {
        let ops: Vec<MicroOp> = (0..50_000).map(|_| MicroOp::Alu).collect();
        let mut e1 = engine();
        let s1 = e1.execute(
            from_iter(ops.clone()),
            &ExecPlan::new().hints(WorkloadHints {
                ilp: 1.0,
                ..WorkloadHints::default()
            }),
        );
        let mut e2 = engine();
        let s2 = e2.execute(
            from_iter(ops),
            &ExecPlan::new().hints(WorkloadHints {
                ilp: 2.0,
                ..WorkloadHints::default()
            }),
        );
        assert!(s2.ipc() > s1.ipc() * 1.5);
    }

    #[test]
    fn thread_overhead_lowers_ipc() {
        let ops: Vec<MicroOp> = (0..50_000).map(|_| MicroOp::Alu).collect();
        let mut e1 = engine();
        let s1 = e1.execute(from_iter(ops.clone()), &ExecPlan::new());
        let mut e2 = engine();
        let hints = WorkloadHints {
            threads: 4,
            sync_overhead: 0.5,
            ..WorkloadHints::default()
        };
        let s2 = e2.execute(from_iter(ops), &ExecPlan::new().hints(hints));
        assert!(s2.ipc() < s1.ipc() * 0.5);
    }

    #[test]
    fn seconds_follows_clock() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..1000).map(|_| MicroOp::Alu).collect();
        let s = e.execute(from_iter(ops), &ExecPlan::new());
        let secs = e.seconds(&s);
        let expected = s.count(Event::CpuClkUnhaltedRefTsc) as f64 / 1e9; // 1 GHz tiny config
        assert!((secs - expected).abs() < 1e-15);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut e = engine();
        let ops: Vec<MicroOp> = (0..100u64).map(|i| MicroOp::load(i * 64)).collect();
        let s1 = e.execute(from_iter(ops.clone()), &ExecPlan::new());
        e.reset();
        let s2 = e.execute(from_iter(ops), &ExecPlan::new());
        assert_eq!(s1, s2, "cold runs are deterministic and identical");
    }

    #[test]
    fn large_code_footprint_costs_icache_misses() {
        let ops: Vec<MicroOp> = (0..200_000).map(|_| MicroOp::Alu).collect();
        let mut e_small = engine();
        let small = e_small.execute(
            from_iter(ops.clone()),
            &ExecPlan::new().hints(WorkloadHints {
                code_footprint_bytes: 512,
                ..WorkloadHints::default()
            }),
        );
        let mut e_big = engine();
        let big = e_big.execute(
            from_iter(ops),
            &ExecPlan::new().hints(WorkloadHints {
                code_footprint_bytes: 1 << 20,
                ..WorkloadHints::default()
            }),
        );
        assert!(
            big.count(Event::CpuClkUnhaltedRefTsc) > small.count(Event::CpuClkUnhaltedRefTsc),
            "code larger than L1I must fetch-stall"
        );
    }

    /// A mixed stream with phase behaviour: streaming loads, then ALU work,
    /// then hard-to-predict branches.
    fn phased_ops(n: u64) -> Vec<MicroOp> {
        let mut x = 0x1234_5678_9abc_def0u64;
        (0..n)
            .map(|i| match i * 3 / n {
                0 => MicroOp::load(i * 64),
                1 => {
                    if i % 7 == 0 {
                        MicroOp::store(0x9000 + (i % 64) * 8)
                    } else {
                        MicroOp::Alu
                    }
                }
                _ => {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    MicroOp::conditional_branch(0x40 + (i % 16) * 4, x & 1 == 1)
                }
            })
            .collect()
    }

    /// A mixed stream exercising every µop kind, including the branch
    /// classes the phased stream lacks.
    fn full_mix_ops(n: u64) -> Vec<MicroOp> {
        let mut x = 0xfeed_f00d_dead_beefu64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 10 {
                    0..=2 => MicroOp::load((x >> 8) % (1 << 22)),
                    3 => MicroOp::store((x >> 8) % (1 << 20)),
                    4 | 5 => MicroOp::conditional_branch(0x40 + (i % 64) * 4, x & 2 == 2),
                    6 => MicroOp::Branch {
                        pc: 0x600 + (i % 8) * 4,
                        kind: BranchKind::DirectJump,
                        taken: true,
                    },
                    7 => MicroOp::Branch {
                        pc: 0x700 + (i % 8) * 4,
                        kind: BranchKind::IndirectJumpNonCallRet,
                        taken: true,
                    },
                    8 => MicroOp::Branch {
                        pc: 0x800,
                        kind: BranchKind::IndirectNearReturn,
                        taken: true,
                    },
                    _ => MicroOp::Alu,
                }
            })
            .collect()
    }

    #[test]
    fn batched_execute_matches_reference_bit_for_bit() {
        // The sink path vs the preserved scalar loop, across warmup,
        // sampling (with an interval that does not divide the op count),
        // and every µop kind — sessions including timelines must be equal.
        let ops = full_mix_ops(30_000);
        let hints = WorkloadHints {
            l2_bypass_range: Some((0x8000, 0x9800)),
            indirect_target_miss_rate: 0.13,
            ..WorkloadHints::default()
        };
        for base in [
            ExecPlan::new(),
            ExecPlan::new().warmup(7_001),
            ExecPlan::new().sampler(SamplerConfig::every(997)),
            ExecPlan::new()
                .warmup(2_500)
                .sampler(SamplerConfig::every(1_234)),
        ] {
            let mut scalar = Engine::new(&SystemConfig::tiny_test());
            let want = scalar.run_reference(ops.iter().copied(), &base.hints(hints));
            // Both monomorphizations of the execution sink: the profiled one
            // runs under a sampled root of its own.
            for profiled in [false, true] {
                let root = profiled.then(|| simtrace::sampled_root("test/sink", 777));
                // Exercise several per-drive caps, including ones that
                // misalign with the warmup and sampler boundaries.
                for batch_ops in [1usize, 7, 4096, 100_000] {
                    let mut fused = Engine::new(&SystemConfig::tiny_test());
                    let plan = base.hints(hints).batch_ops(batch_ops);
                    let got = fused.execute(from_iter(ops.iter().copied()), &plan);
                    assert_eq!(
                        want, got,
                        "sink (batch_ops={batch_ops}, profiled={profiled}) must match \
                         reference for {base:?}"
                    );
                }
                if let Some(root) = root {
                    assert!(
                        simprof::drain(&root.drain()).total_weight() > 0,
                        "the profiled sink must have taken samples"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_stream_after_warmup_boundary() {
        // Stream length exactly equals warmup: nothing is counted, and the
        // l1i accounting must not underflow.
        let ops = phased_ops(1000);
        let mut a = engine();
        let sa = a.execute(
            from_iter(ops.iter().copied()),
            &ExecPlan::new().warmup(1000),
        );
        let mut b = engine();
        let sb = b.run_reference(ops.iter().copied(), &ExecPlan::new().warmup(1000));
        assert_eq!(sa, sb);
        assert_eq!(sa.count(Event::InstRetiredAny), 0);
    }

    #[test]
    fn disabled_sampling_is_bit_identical() {
        let ops = phased_ops(30_000);
        let hints = WorkloadHints::default();
        let mut a = engine();
        let plain = a.execute(
            from_iter(ops.clone()),
            &ExecPlan::new().warmup(3000).hints(hints),
        );
        assert!(plain.timeline().is_none(), "no sampler, no timeline");
        let mut b = engine();
        let mut sampled = b.execute(
            from_iter(ops),
            &ExecPlan::new()
                .warmup(3000)
                .sampler(SamplerConfig::every(777))
                .hints(hints),
        );
        assert!(sampled.timeline().is_some());
        sampled.take_timeline();
        assert_eq!(plain, sampled, "sampling must not perturb any counter");
    }

    #[test]
    fn timeline_deltas_sum_exactly_to_final_counters() {
        let ops = phased_ops(50_000);
        let hints = WorkloadHints {
            code_footprint_bytes: 256 * 1024,
            ..WorkloadHints::default()
        };
        let mut e = engine();
        let s = e.execute(
            from_iter(ops),
            &ExecPlan::new()
                .warmup(2000)
                .sampler(SamplerConfig::every(1000))
                .hints(hints),
        );
        let t = s.timeline().expect("sampler attaches a timeline");
        assert!(t.len() >= 2, "expected several intervals, got {}", t.len());
        let total = t.total();
        for ev in Event::ALL {
            assert_eq!(total.count(ev), s.count(ev), "event {ev} must telescope");
        }
        // Intervals tile the counted range contiguously.
        let mut prev_end = 0;
        for iv in &t.intervals {
            assert_eq!(iv.start_op, prev_end);
            assert!(iv.end_op > iv.start_op);
            prev_end = iv.end_op;
        }
        assert_eq!(prev_end, 48_000, "counted ops = total - warmup");
    }

    #[test]
    fn interval_mix_fractions_telescope_to_final_counters() {
        // The µop-mix extension of the interval records must not disturb
        // the timeline's core invariant: per-interval deltas (including
        // the class counters the mix fractions derive from) still sum
        // exactly to the final counter file.
        let ops = phased_ops(50_000);
        let hints = WorkloadHints::default();
        let mut e = engine();
        let s = e.execute(
            from_iter(ops),
            &ExecPlan::new()
                .warmup(5000)
                .sampler(SamplerConfig::every(1500))
                .hints(hints),
        );
        let t = s.timeline().expect("sampler attaches a timeline");
        for ev in [
            Event::MemUopsRetiredAllLoads,
            Event::MemUopsRetiredAllStores,
            Event::BrInstExecAllBranches,
        ] {
            let sum: u64 = t.intervals.iter().map(|iv| iv.deltas.count(ev)).sum();
            assert_eq!(sum, s.count(ev), "class counter {ev} must telescope");
        }
        for iv in &t.intervals {
            let mix =
                iv.load_fraction() + iv.store_fraction() + iv.branch_fraction() + iv.alu_fraction();
            assert!(
                iv.deltas.count(Event::InstRetiredAny) == 0 || (mix - 1.0).abs() < 1e-9,
                "mix fractions must partition the interval, got {mix}"
            );
            assert!(iv.feature_vector().iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn warm_reproduces_execute_state_transitions() {
        // Functional warming is only sound if a warmed prefix leaves the
        // engine in the exact state a counted run of the same prefix
        // would: the session of the chunk that follows must be
        // bit-identical either way. This is the invariant that lets a
        // warm-gap simpoint analysis skip its replay.
        let ops = phased_ops(30_000);
        let hints = WorkloadHints {
            l2_bypass_range: Some((0x8000, 0x9800)),
            ..WorkloadHints::default()
        };
        let split = 15_000;

        let mut counted = Engine::new(&SystemConfig::haswell_e5_2650l_v3());
        let _ = counted.execute(
            from_iter(ops[..split].iter().copied()),
            &ExecPlan::new().hints(hints),
        );
        let tail_counted = counted.execute(
            from_iter(ops[split..].iter().copied()),
            &ExecPlan::new().hints(hints),
        );

        let mut warmed = Engine::new(&SystemConfig::haswell_e5_2650l_v3());
        assert_eq!(
            warmed.warm(from_iter(ops[..split].iter().copied()), &hints),
            split as u64
        );
        let tail_warmed = warmed.execute(
            from_iter(ops[split..].iter().copied()),
            &ExecPlan::new().hints(hints),
        );

        assert_eq!(
            tail_counted, tail_warmed,
            "warming must advance hierarchy and predictor exactly like a counted run"
        );
    }

    #[test]
    fn timeline_sees_phase_change() {
        // First half streams through memory, second half is pure ALU: the
        // memory phase must be priced slower than the compute phase.
        let n = 40_000u64;
        let ops: Vec<MicroOp> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    MicroOp::load(i * 64)
                } else {
                    MicroOp::Alu
                }
            })
            .collect();
        let mut e = engine();
        let s = e.execute(
            from_iter(ops),
            &ExecPlan::new().sampler(SamplerConfig::every(n / 4)),
        );
        let t = s.timeline().unwrap();
        assert_eq!(t.len(), 4);
        assert!(
            t.intervals[0].ipc() < t.intervals[3].ipc(),
            "memory phase ipc {} must trail compute phase ipc {}",
            t.intervals[0].ipc(),
            t.intervals[3].ipc()
        );
        assert!(t.intervals[0].l1_mpki() > t.intervals[3].l1_mpki());
    }

    #[test]
    fn empty_run_with_sampler_keeps_invariant() {
        let mut e = engine();
        let s = e.execute(
            from_iter(std::iter::empty()),
            &ExecPlan::new().sampler(SamplerConfig::every(100)),
        );
        let t = s.timeline().expect("even an empty run gets a timeline");
        assert_eq!(t.len(), 1);
        assert_eq!(
            t.total().count(Event::CpuClkUnhaltedRefTsc),
            s.count(Event::CpuClkUnhaltedRefTsc)
        );
    }

    #[test]
    fn profiling_does_not_perturb_counters() {
        // Differential-roster style: the profiled monomorphization must
        // produce the same session, bit for bit, as the unprofiled one —
        // the hook reads engine state but never writes it.
        let ops = full_mix_ops(30_000);
        let hints = WorkloadHints {
            l2_bypass_range: Some((0x8000, 0x9800)),
            indirect_target_miss_rate: 0.13,
            ..WorkloadHints::default()
        };
        let plan = ExecPlan::new()
            .hints(hints)
            .warmup(2_500)
            .sampler(SamplerConfig::every(1_234));
        let mut plain_engine = engine();
        let plain = plain_engine.execute(from_iter(ops.iter().copied()), &plan);
        let (profiled, profile) = {
            let root = simtrace::sampled_root("test/perturb", 777);
            let mut e = engine();
            let session = e.execute(from_iter(ops.iter().copied()), &plan);
            (session, simprof::drain(&root.drain()))
        };
        assert_eq!(plain, profiled, "profiling must not perturb any counter");
        // The profiled sink ran the whole stream: one sample per interval.
        assert_eq!(
            profile.total_weight(),
            (30_000 / 777) * 777,
            "profiled sink sampled {} ops",
            profile.total_weight()
        );
    }

    #[test]
    fn profile_samples_cover_the_run() {
        let interval = 1_000u64;
        let n = 30_000u64;
        let profile = {
            let root = simtrace::sampled_root("test/cover", interval);
            let mut e = engine();
            e.execute(from_iter(phased_ops(n)), &ExecPlan::new().warmup(5_000));
            simprof::drain(&root.drain())
        };
        // One sample per interval, each carrying the interval's weight.
        assert_eq!(profile.interval, interval);
        assert_eq!(profile.total_weight(), (n / interval) * interval);
        assert_eq!(profile.samples.len(), (n / interval) as usize);
        let folded = profile.folded();
        assert!(
            folded.contains("test/cover;engine/run;seg/warmup;"),
            "{folded}"
        );
        assert!(
            folded.contains("test/cover;engine/run;seg/measured;"),
            "{folded}"
        );
        // The phased stream streams loads first: the memory leaves must
        // show up under the load samples.
        assert!(folded.contains("uop/load;mem/"), "{folded}");
    }

    #[test]
    fn concurrent_sampled_roots_drain_only_their_own_runs() {
        let n = 30_000u64;
        let barrier = std::sync::Barrier::new(2);
        let run = |interval: u64| {
            let root = simtrace::sampled_root(&format!("test/iso-{interval}"), interval);
            barrier.wait();
            engine().execute(from_iter(phased_ops(n)), &ExecPlan::new());
            barrier.wait();
            let spans = root.drain();
            let names: Vec<String> = spans.iter().map(|s| s.name.clone()).collect();
            assert_eq!(names, [format!("test/iso-{interval}"), "engine/run".into()]);
            let profile = simprof::drain(&spans);
            assert_eq!(profile.interval, interval);
            assert_eq!(profile.samples.len() as u64, n / interval);
            assert_eq!(profile.total_weight(), (n / interval) * interval);
            let own = format!("test/iso-{interval};engine/run;");
            let folded = profile.folded();
            assert!(folded.lines().all(|l| l.starts_with(&own)), "{folded}");
        };
        std::thread::scope(|scope| {
            let other = scope.spawn(|| run(700));
            run(1_000);
            other.join().unwrap();
        });
    }

    #[test]
    fn plan_predictor_switches_the_engine_predictor() {
        let mut e = engine();
        assert_eq!(e.predictor_kind(), PredictorKind::Tournament);
        let ops: Vec<MicroOp> = (0..100).map(|_| MicroOp::Alu).collect();
        e.execute(
            from_iter(ops.clone()),
            &ExecPlan::new().predictor(PredictorKind::Bimodal),
        );
        assert_eq!(e.predictor_kind(), PredictorKind::Bimodal);
        // None keeps the switched predictor.
        e.execute(from_iter(ops), &ExecPlan::new());
        assert_eq!(e.predictor_kind(), PredictorKind::Bimodal);
    }

    #[test]
    fn every_predictor_kind_matches_reference() {
        let ops = full_mix_ops(15_000);
        let hints = WorkloadHints::default();
        for kind in [
            PredictorKind::Tournament,
            PredictorKind::GShare,
            PredictorKind::Bimodal,
            PredictorKind::AlwaysTaken,
        ] {
            let plan = ExecPlan::new().hints(hints).predictor(kind);
            let mut scalar = engine();
            let want = scalar.run_reference(ops.iter().copied(), &plan);
            let mut fused = engine();
            let got = fused.execute(from_iter(ops.iter().copied()), &plan);
            assert_eq!(want, got, "predictor {kind:?} must match reference");
        }
    }
}
