//! The execution API: the [`UopSink`] every µop moves through, the
//! [`UopSource`]s that drive one, and the [`ExecPlan`] describing a run.
//!
//! A source does not hand the engine µops to decode; it *drives* a sink,
//! calling one typed method per µop (`alu`, `load`, `store`, `branch`).
//! [`crate::engine::Engine::execute`] passes its own execution sink, so a
//! generator's class draw selects the engine's per-class body directly:
//! op *i* is executed before op *i + 1* is generated, with no buffer in
//! between and no second dispatch on the class. Both sides are generic, so
//! each (source, predictor) pair monomorphizes into one loop. [`UopBatch`]
//! is the other sink: a flat record of the stream, for callers that want
//! the µops themselves ([`UopSource::fill`]). Counters are bit-identical to
//! the per-op reference loop (pinned by the differential tests); only the
//! cost per µop changes.
//!
//! ```
//! use uarch_sim::config::SystemConfig;
//! use uarch_sim::counters::Event;
//! use uarch_sim::engine::Engine;
//! use uarch_sim::exec::{from_iter, ExecPlan};
//! use uarch_sim::microop::MicroOp;
//!
//! let mut engine = Engine::new(&SystemConfig::tiny_test());
//! let ops = (0..1000u64).map(|i| MicroOp::load(i * 64));
//! let session = engine.execute(from_iter(ops), &ExecPlan::new());
//! assert_eq!(session.count(Event::InstRetiredAny), 1000);
//! ```

use crate::branch::PredictorKind;
use crate::engine::WorkloadHints;
use crate::microop::{BranchKind, MicroOp};
use crate::timeline::SamplerConfig;

/// Kind byte for an ALU µop.
const KIND_ALU: u8 = 0;
/// Kind byte for a load µop (address in the parallel `addrs` lane).
const KIND_LOAD: u8 = 1;
/// Kind byte for a store µop (address in the parallel `addrs` lane).
const KIND_STORE: u8 = 2;
/// First branch kind byte; branches encode as
/// `KIND_BRANCH_BASE + 2 * kind_index + taken` with `kind_index` the
/// position of the [`BranchKind`] in [`BranchKind::ALL`].
const KIND_BRANCH_BASE: u8 = 3;

/// Default number of µops the engine asks a source for per drive call: the
/// span over which per-class tallies accumulate before they are flushed to
/// the counter session.
pub const DEFAULT_BATCH_OPS: usize = 4096;

/// The consumer side of a µop stream: one method per µop class.
///
/// A [`UopSource`] calls exactly one of these per µop, in stream order.
/// The engine's execution sink simulates each call on the spot; a
/// [`UopBatch`] records it.
pub trait UopSink {
    /// An ALU µop.
    fn alu(&mut self);
    /// A load of `addr`.
    fn load(&mut self, addr: u64);
    /// A store to `addr`.
    fn store(&mut self, addr: u64);
    /// A branch of class `kind` at `pc`, `taken` or not.
    fn branch(&mut self, pc: u64, kind: BranchKind, taken: bool);

    /// Any µop, dispatching on the enum once.
    #[inline]
    fn push(&mut self, op: MicroOp) {
        match op {
            MicroOp::Alu => self.alu(),
            MicroOp::Load { addr } => self.load(addr),
            MicroOp::Store { addr } => self.store(addr),
            MicroOp::Branch { pc, kind, taken } => self.branch(pc, kind, taken),
        }
    }
}

/// A flat structure-of-arrays record of µops: the recording [`UopSink`].
///
/// Two parallel lanes: a kind byte per op and a 64-bit operand per op (the
/// data address for loads/stores, the branch pc for branches, unused for
/// ALU).
#[derive(Debug, Clone, Default)]
pub struct UopBatch {
    kinds: Vec<u8>,
    addrs: Vec<u64>,
}

impl UopBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UopBatch::default()
    }

    /// An empty batch with room for `cap` µops before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        UopBatch {
            kinds: Vec::with_capacity(cap),
            addrs: Vec::with_capacity(cap),
        }
    }

    /// Number of µops currently in the batch.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the batch holds no µops.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Clears the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
    }

    #[inline]
    fn record(&mut self, kind: u8, operand: u64) {
        self.kinds.push(kind);
        self.addrs.push(operand);
    }

    /// Decodes the µop at `index` back into its enum form.
    pub fn get(&self, index: usize) -> Option<MicroOp> {
        let k = *self.kinds.get(index)?;
        let operand = self.addrs[index];
        Some(match k {
            KIND_ALU => MicroOp::Alu,
            KIND_LOAD => MicroOp::Load { addr: operand },
            KIND_STORE => MicroOp::Store { addr: operand },
            _ => MicroOp::Branch {
                pc: operand,
                kind: BranchKind::ALL[((k - KIND_BRANCH_BASE) >> 1) as usize],
                taken: (k - KIND_BRANCH_BASE) & 1 == 1,
            },
        })
    }
}

impl UopSink for UopBatch {
    #[inline]
    fn alu(&mut self) {
        self.record(KIND_ALU, 0);
    }

    #[inline]
    fn load(&mut self, addr: u64) {
        self.record(KIND_LOAD, addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.record(KIND_STORE, addr);
    }

    #[inline]
    fn branch(&mut self, pc: u64, kind: BranchKind, taken: bool) {
        let kind_index = match kind {
            BranchKind::Conditional => 0u8,
            BranchKind::DirectJump => 1,
            BranchKind::DirectNearCall => 2,
            BranchKind::IndirectJumpNonCallRet => 3,
            BranchKind::IndirectNearReturn => 4,
        };
        self.record(KIND_BRANCH_BASE + 2 * kind_index + taken as u8, pc);
    }
}

/// A producer of µops: drives a [`UopSink`].
///
/// `drive` makes up to `max` sink calls and returns how many it made;
/// returning 0 ends the stream. A generator implements it with its own
/// class-dispatch loop, so the class it draws picks the sink method
/// directly and no per-op enum value is built on the hot path.
pub trait UopSource {
    /// Feeds up to `max` µops to `sink`, in stream order; returns the
    /// count fed (0 = exhausted).
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize;

    /// Appends up to `max` µops to `batch`; returns the count appended
    /// (0 = exhausted).
    fn fill(&mut self, batch: &mut UopBatch, max: usize) -> usize {
        self.drive(batch, max)
    }

    /// Caps this source at `n` more µops — the analogue of
    /// `Iterator::take`, used by chunked callers (simpoint profiling and
    /// replay) to run one interval at a time off a shared source.
    fn take_ops(self, n: u64) -> TakeOps<Self>
    where
        Self: Sized,
    {
        TakeOps {
            source: self,
            remaining: n,
        }
    }
}

impl<S: UopSource + ?Sized> UopSource for &mut S {
    #[inline]
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        (**self).drive(sink, max)
    }
}

/// Adapts any µop iterator into a [`UopSource`].
///
/// Sources with a native `drive` (the workload generator) skip the per-op
/// iterator protocol entirely.
#[derive(Debug, Clone)]
pub struct IterSource<I> {
    iter: I,
}

/// Wraps an iterator of µops as a [`UopSource`].
pub fn from_iter<I>(ops: I) -> IterSource<I::IntoIter>
where
    I: IntoIterator<Item = MicroOp>,
{
    IterSource {
        iter: ops.into_iter(),
    }
}

impl<I: Iterator<Item = MicroOp>> UopSource for IterSource<I> {
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.iter.next() {
                Some(op) => {
                    sink.push(op);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

/// A [`UopSource`] capped at a fixed number of µops (see
/// [`UopSource::take_ops`]).
#[derive(Debug)]
pub struct TakeOps<S> {
    source: S,
    remaining: u64,
}

impl<S: UopSource> UopSource for TakeOps<S> {
    #[inline]
    fn drive<K: UopSink>(&mut self, sink: &mut K, max: usize) -> usize {
        let cap = self.remaining.min(max as u64) as usize;
        if cap == 0 {
            return 0;
        }
        let n = self.source.drive(sink, cap);
        self.remaining -= n as u64;
        n
    }
}

/// Everything one run needs: hints, warmup, predictor selection,
/// sampling, and batch sizing.
///
/// ```
/// use uarch_sim::branch::PredictorKind;
/// use uarch_sim::exec::ExecPlan;
/// use uarch_sim::timeline::SamplerConfig;
///
/// let plan = ExecPlan::new()
///     .warmup(10_000)
///     .predictor(PredictorKind::GShare)
///     .sampler(SamplerConfig::every(5_000));
/// assert_eq!(plan.warmup_ops, 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPlan {
    /// Workload-level execution hints (see [`WorkloadHints`]).
    pub hints: WorkloadHints,
    /// Micro-ops that warm caches and predictor without being counted.
    pub warmup_ops: u64,
    /// Branch predictor to run with. `None` keeps the engine's current
    /// predictor (including its trained state); `Some(kind)` switches to
    /// `kind`, rebuilding it fresh if it differs from the current one.
    pub predictor: Option<PredictorKind>,
    /// Interval sampler configuration. `None` (the default) disables
    /// sampling: the run takes the identical hot path and the returned
    /// session carries no timeline.
    pub sampler: Option<SamplerConfig>,
    /// Most µops one drive call may feed the engine (min 1; defaults to
    /// [`DEFAULT_BATCH_OPS`]): the span of one tally flush. Tuning knob
    /// only — results are identical at any size.
    pub batch_ops: usize,
}

impl Default for ExecPlan {
    fn default() -> Self {
        ExecPlan {
            hints: WorkloadHints::default(),
            warmup_ops: 0,
            predictor: None,
            sampler: None,
            batch_ops: DEFAULT_BATCH_OPS,
        }
    }
}

impl ExecPlan {
    /// Default plan: default hints, no warmup, current predictor, sampling
    /// off.
    pub fn new() -> Self {
        ExecPlan::default()
    }

    /// Sets the workload hints.
    pub fn hints(mut self, hints: WorkloadHints) -> Self {
        self.hints = hints;
        self
    }

    /// Sets the number of uncounted warmup micro-ops.
    pub fn warmup(mut self, ops: u64) -> Self {
        self.warmup_ops = ops;
        self
    }

    /// Selects the branch predictor for this run.
    pub fn predictor(mut self, kind: PredictorKind) -> Self {
        self.predictor = Some(kind);
        self
    }

    /// Enables interval sampling with the given configuration.
    pub fn sampler(mut self, config: SamplerConfig) -> Self {
        self.sampler = Some(config);
        self
    }

    /// Sets the per-drive-call µop cap.
    pub fn batch_ops(mut self, ops: usize) -> Self {
        self.batch_ops = ops.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrips_every_kind() {
        let mut b = UopBatch::new();
        let ops = [
            MicroOp::Alu,
            MicroOp::load(0x1234),
            MicroOp::store(0x5678),
            MicroOp::Branch {
                pc: 0x40,
                kind: BranchKind::Conditional,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x44,
                kind: BranchKind::Conditional,
                taken: false,
            },
            MicroOp::Branch {
                pc: 0x48,
                kind: BranchKind::DirectJump,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x4c,
                kind: BranchKind::DirectNearCall,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x50,
                kind: BranchKind::IndirectJumpNonCallRet,
                taken: true,
            },
            MicroOp::Branch {
                pc: 0x54,
                kind: BranchKind::IndirectNearReturn,
                taken: true,
            },
        ];
        for op in ops {
            b.push(op);
        }
        assert_eq!(b.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(b.get(i), Some(*op), "op {i} must round-trip");
        }
        assert_eq!(b.get(ops.len()), None);
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn iter_source_fills_in_chunks() {
        let ops: Vec<MicroOp> = (0..10u64).map(|i| MicroOp::load(i * 64)).collect();
        let mut src = from_iter(ops.iter().copied());
        let mut b = UopBatch::new();
        assert_eq!(src.fill(&mut b, 4), 4);
        assert_eq!(src.fill(&mut b, 4), 4);
        assert_eq!(src.fill(&mut b, 4), 2);
        assert_eq!(src.fill(&mut b, 4), 0);
        assert_eq!(b.len(), 10);
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(b.get(i), Some(*op));
        }
    }

    #[test]
    fn take_ops_caps_a_shared_source() {
        let ops: Vec<MicroOp> = (0..10u64).map(|i| MicroOp::load(i * 64)).collect();
        let mut src = from_iter(ops.iter().copied());
        let mut b = UopBatch::new();
        let mut head = (&mut src).take_ops(3);
        assert_eq!(head.fill(&mut b, 100), 3);
        assert_eq!(head.fill(&mut b, 100), 0, "cap reached");
        // The underlying source resumes where the cap left off.
        let mut rest = src.take_ops(100);
        assert_eq!(rest.fill(&mut b, 100), 7);
        assert_eq!(b.len(), 10);
    }

    #[test]
    fn plan_builder_sets_fields_and_clamps_batch_ops() {
        let plan = ExecPlan::new();
        assert_eq!(plan.hints, WorkloadHints::default());
        assert_eq!(plan.batch_ops, DEFAULT_BATCH_OPS);
        let plan = plan
            .warmup(42)
            .predictor(PredictorKind::Bimodal)
            .sampler(SamplerConfig::every(7))
            .batch_ops(0);
        assert_eq!(plan.batch_ops, 1, "batch_ops clamps to at least 1");
        assert_eq!(plan.warmup_ops, 42);
        assert_eq!(plan.predictor, Some(PredictorKind::Bimodal));
        assert_eq!(plan.sampler, Some(SamplerConfig::every(7)));
    }
}
