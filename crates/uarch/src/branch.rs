//! Branch direction predictors.
//!
//! The paper measures mispredict rates through `br_misp_exec.all_branches`
//! on Haswell, whose predictor is undisclosed but behaves like a large
//! history-based tournament design. [`Tournament`] is the default used by
//! the characterization runs; [`Bimodal`] and [`GShare`] support the
//! predictor ablation bench.

use crate::microop::BranchKind;

/// A branch direction predictor.
///
/// Implementations are updated with the resolved outcome after every
/// prediction, mirroring speculative hardware.
pub trait BranchPredictor {
    /// Predicts whether the branch at `pc` will be taken.
    fn predict(&mut self, pc: u64) -> bool;

    /// Informs the predictor of the actual outcome.
    fn update(&mut self, pc: u64, taken: bool);

    /// Convenience: predict, update, and report whether the prediction was
    /// correct.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        predicted == taken
    }
}

/// Saturating 2-bit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter2(u8);

impl Counter2 {
    const WEAKLY_TAKEN: Counter2 = Counter2(2);

    fn taken(self) -> bool {
        self.0 >= 2
    }

    fn train(&mut self, taken: bool) {
        if taken {
            self.0 = (self.0 + 1).min(3);
        } else {
            self.0 = self.0.saturating_sub(1);
        }
    }
}

/// Classic bimodal predictor: a table of 2-bit counters indexed by PC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    table: Vec<Counter2>,
    mask: u64,
}

impl Bimodal {
    /// Creates a predictor with `entries` counters, reporting illegal table
    /// geometry as coded diagnostics (C012) instead of panicking.
    pub fn try_new(entries: usize) -> Result<Self, simcheck::Report> {
        let report = crate::lint::check_predictor_geometry("bimodal", entries, None);
        if report.has_errors() {
            return Err(report);
        }
        Ok(Bimodal {
            table: vec![Counter2::WEAKLY_TAKEN; entries],
            mask: entries as u64 - 1,
        })
    }

    /// Creates a predictor with `entries` counters (deny-by-default wrapper
    /// over [`Bimodal::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        Self::try_new(entries)
            .unwrap_or_else(|_| panic!("bimodal table size must be a power of two"))
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].train(taken);
    }

    // Single table walk instead of predict + update recomputing the index;
    // state and return value are bit-identical to the default method (see
    // `overridden_predict_and_update_matches_default`).
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let c = &mut self.table[((pc >> 2) & self.mask) as usize];
        let predicted = c.taken();
        c.train(taken);
        predicted == taken
    }
}

/// GShare: global history XOR PC indexes a table of 2-bit counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GShare {
    table: Vec<Counter2>,
    mask: u64,
    history: u64,
    history_bits: u32,
}

impl GShare {
    /// Creates a predictor with `entries` counters and `history_bits` of
    /// global history, reporting illegal geometry as coded diagnostics
    /// (C012) instead of panicking.
    pub fn try_new(entries: usize, history_bits: u32) -> Result<Self, simcheck::Report> {
        let report = crate::lint::check_predictor_geometry("gshare", entries, Some(history_bits));
        if report.has_errors() {
            return Err(report);
        }
        Ok(GShare {
            table: vec![Counter2::WEAKLY_TAKEN; entries],
            mask: entries as u64 - 1,
            history: 0,
            history_bits,
        })
    }

    /// Creates a predictor with `entries` counters and `history_bits` of
    /// global history (deny-by-default wrapper over [`GShare::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two and `history_bits <= 32`.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "gshare table size must be a power of two"
        );
        assert!(history_bits <= 32, "history too long");
        GShare {
            table: vec![Counter2::WEAKLY_TAKEN; entries],
            mask: entries as u64 - 1,
            history: 0,
            history_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }
}

impl BranchPredictor for GShare {
    fn predict(&mut self, pc: u64) -> bool {
        self.table[self.index(pc)].taken()
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i].train(taken);
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | taken as u64) & mask;
    }

    // One index computation (against the pre-shift history, exactly as the
    // default predict-then-update sequence sees it) instead of two.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let c = &mut self.table[i];
        let predicted = c.taken();
        c.train(taken);
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | taken as u64) & mask;
        predicted == taken
    }
}

/// Tournament predictor: a chooser table selects between bimodal and gshare
/// per branch — an Alpha-21264-style design that approximates Haswell-class
/// accuracy on mixed workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tournament {
    bimodal: Bimodal,
    gshare: GShare,
    chooser: Vec<Counter2>, // taken == "use gshare"
    mask: u64,
}

impl Tournament {
    /// Creates a tournament predictor; each component has `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(
            entries.is_power_of_two(),
            "tournament table size must be a power of two"
        );
        Tournament {
            bimodal: Bimodal::new(entries),
            gshare: GShare::new(entries, history_bits),
            chooser: vec![Counter2::WEAKLY_TAKEN; entries],
            mask: entries as u64 - 1,
        }
    }

    /// A Haswell-class default: 16K-entry components, 12 bits of history.
    pub fn haswell_class() -> Self {
        Tournament::new(16 * 1024, 12)
    }

    fn choose_index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl BranchPredictor for Tournament {
    fn predict(&mut self, pc: u64) -> bool {
        let use_gshare = self.chooser[self.choose_index(pc)].taken();
        if use_gshare {
            self.gshare.predict(pc)
        } else {
            self.bimodal.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        let pb = self.bimodal.predict(pc);
        let pg = self.gshare.predict(pc);
        // Train the chooser toward whichever component was right (only when
        // they disagree).
        if pb != pg {
            let i = self.choose_index(pc);
            self.chooser[i].train(pg == taken);
        }
        self.bimodal.update(pc, taken);
        self.gshare.update(pc, taken);
    }

    // The default sequence walks the component tables five times (chooser
    // read + component predict, then both components re-predicted and
    // re-indexed inside update). One walk per table suffices: every index
    // below is computed against the pre-shift gshare history, exactly as
    // the default sequence sees it, so state and return are bit-identical.
    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let bi = self.bimodal.index(pc);
        let gi = self.gshare.index(pc);
        let ci = self.choose_index(pc);
        let pb = self.bimodal.table[bi].taken();
        let pg = self.gshare.table[gi].taken();
        let predicted = if self.chooser[ci].taken() { pg } else { pb };
        if pb != pg {
            self.chooser[ci].train(pg == taken);
        }
        self.bimodal.table[bi].train(taken);
        self.gshare.table[gi].train(taken);
        let mask = (1u64 << self.gshare.history_bits) - 1;
        self.gshare.history = ((self.gshare.history << 1) | taken as u64) & mask;
        predicted == taken
    }
}

/// Predicts every branch taken; baseline for the ablation bench.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysTaken;

impl BranchPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64) -> bool {
        true
    }

    fn update(&mut self, _pc: u64, _taken: bool) {}
}

/// Mispredict bookkeeping shared by the engine.
///
/// Unconditional direct branches are always predicted correctly once seen
/// (their target is static); indirect branches and returns carry a small
/// target-mispredict probability handled by the engine's BTB model. Direction
/// prediction below only applies to conditional branches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Total branches executed.
    pub executed: u64,
    /// Total mispredicted branches.
    pub mispredicted: u64,
}

impl BranchStats {
    /// Mispredict rate in `[0, 1]`; `0.0` with no branches.
    pub fn mispredict_rate(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.executed as f64
        }
    }
}

/// Selector for the engine's direction predictor (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum PredictorKind {
    /// Tournament (bimodal + gshare + chooser) — default.
    #[default]
    Tournament,
    /// GShare only.
    GShare,
    /// Bimodal only.
    Bimodal,
    /// Static always-taken.
    AlwaysTaken,
}

impl PredictorKind {
    /// Instantiates the predictor with Haswell-class sizing.
    pub fn build(self) -> Box<dyn BranchPredictor + Send> {
        match self {
            PredictorKind::Tournament => Box::new(Tournament::haswell_class()),
            PredictorKind::GShare => Box::new(GShare::new(16 * 1024, 12)),
            PredictorKind::Bimodal => Box::new(Bimodal::new(16 * 1024)),
            PredictorKind::AlwaysTaken => Box::new(AlwaysTaken),
        }
    }
}

/// Concrete predictor storage for the engine: an enum instead of a trait
/// object, so a run can match once and build an execution sink
/// monomorphized over the predictor, with no virtual dispatch per branch.
#[derive(Debug, Clone)]
pub(crate) enum PredictorImpl {
    Tournament(Tournament),
    GShare(GShare),
    Bimodal(Bimodal),
    AlwaysTaken(AlwaysTaken),
}

impl PredictorImpl {
    /// Builds the predictor with the same Haswell-class sizing as
    /// [`PredictorKind::build`].
    pub(crate) fn build(kind: PredictorKind) -> Self {
        match kind {
            PredictorKind::Tournament => PredictorImpl::Tournament(Tournament::haswell_class()),
            PredictorKind::GShare => PredictorImpl::GShare(GShare::new(16 * 1024, 12)),
            PredictorKind::Bimodal => PredictorImpl::Bimodal(Bimodal::new(16 * 1024)),
            PredictorKind::AlwaysTaken => PredictorImpl::AlwaysTaken(AlwaysTaken),
        }
    }
}

impl BranchPredictor for PredictorImpl {
    fn predict(&mut self, pc: u64) -> bool {
        match self {
            PredictorImpl::Tournament(p) => p.predict(pc),
            PredictorImpl::GShare(p) => p.predict(pc),
            PredictorImpl::Bimodal(p) => p.predict(pc),
            PredictorImpl::AlwaysTaken(p) => p.predict(pc),
        }
    }

    fn update(&mut self, pc: u64, taken: bool) {
        match self {
            PredictorImpl::Tournament(p) => p.update(pc, taken),
            PredictorImpl::GShare(p) => p.update(pc, taken),
            PredictorImpl::Bimodal(p) => p.update(pc, taken),
            PredictorImpl::AlwaysTaken(p) => p.update(pc, taken),
        }
    }

    fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        match self {
            PredictorImpl::Tournament(p) => p.predict_and_update(pc, taken),
            PredictorImpl::GShare(p) => p.predict_and_update(pc, taken),
            PredictorImpl::Bimodal(p) => p.predict_and_update(pc, taken),
            PredictorImpl::AlwaysTaken(p) => p.predict_and_update(pc, taken),
        }
    }
}

/// Whether a non-conditional branch kind needs BTB-style target prediction
/// that can miss (indirect kinds) or is statically known (direct kinds).
pub fn target_is_static(kind: BranchKind) -> bool {
    matches!(kind, BranchKind::DirectJump | BranchKind::DirectNearCall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accuracy<P: BranchPredictor>(p: &mut P, outcomes: &[(u64, bool)]) -> f64 {
        let correct = outcomes
            .iter()
            .filter(|&&(pc, taken)| p.predict_and_update(pc, taken))
            .count();
        correct as f64 / outcomes.len() as f64
    }

    #[test]
    fn bimodal_learns_biased_branch() {
        let mut p = Bimodal::new(64);
        let outcomes: Vec<(u64, bool)> = (0..1000).map(|_| (0x40u64, true)).collect();
        assert!(accuracy(&mut p, &outcomes) > 0.99);
    }

    #[test]
    fn bimodal_tolerates_loop_exits() {
        // Taken 15 times, not-taken once (loop back-edge): 2-bit hysteresis
        // should keep accuracy near 15/16.
        let mut p = Bimodal::new(64);
        let mut outcomes = Vec::new();
        for _ in 0..100 {
            for i in 0..16 {
                outcomes.push((0x80u64, i != 15));
            }
        }
        let acc = accuracy(&mut p, &outcomes);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn gshare_learns_alternating_pattern_bimodal_cannot() {
        let outcomes: Vec<(u64, bool)> = (0..2000).map(|i| (0x100u64, i % 2 == 0)).collect();
        let mut g = GShare::new(1024, 8);
        let mut b = Bimodal::new(1024);
        let ga = accuracy(&mut g, &outcomes);
        let ba = accuracy(&mut b, &outcomes);
        assert!(ga > 0.95, "gshare accuracy {ga}");
        assert!(ba < 0.7, "bimodal should fail on alternation, got {ba}");
    }

    #[test]
    fn tournament_at_least_matches_components_on_mixed_load() {
        // Mix: one biased branch plus one patterned branch.
        let mut outcomes = Vec::new();
        for i in 0..4000u64 {
            outcomes.push((0x200, true)); // biased
            outcomes.push((0x300, i % 4 < 2)); // pattern TTNN
        }
        let mut t = Tournament::new(4096, 10);
        let acc = accuracy(&mut t, &outcomes);
        assert!(acc > 0.9, "tournament accuracy {acc}");
    }

    #[test]
    fn random_branches_mispredict_about_half() {
        // Deterministic pseudo-random outcomes.
        let mut x = 0x12345678u64;
        let outcomes: Vec<(u64, bool)> = (0..20000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (0x400u64, x & 1 == 1)
            })
            .collect();
        let mut t = Tournament::haswell_class();
        let acc = accuracy(&mut t, &outcomes);
        assert!(
            (0.4..0.6).contains(&acc),
            "random accuracy {acc} should be ~0.5"
        );
    }

    #[test]
    fn always_taken_baseline() {
        let mut p = AlwaysTaken;
        assert!(p.predict(0x1));
        p.update(0x1, false);
        assert!(p.predict(0x1));
    }

    #[test]
    fn predictor_kind_builds_all() {
        for kind in [
            PredictorKind::Tournament,
            PredictorKind::GShare,
            PredictorKind::Bimodal,
            PredictorKind::AlwaysTaken,
        ] {
            let mut p = kind.build();
            let _ = p.predict_and_update(0x10, true);
        }
    }

    #[test]
    fn branch_stats_rate() {
        let s = BranchStats {
            executed: 200,
            mispredicted: 5,
        };
        assert!((s.mispredict_rate() - 0.025).abs() < 1e-12);
        assert_eq!(BranchStats::default().mispredict_rate(), 0.0);
    }

    #[test]
    fn target_static_classification() {
        use crate::microop::BranchKind as K;
        assert!(target_is_static(K::DirectJump));
        assert!(target_is_static(K::DirectNearCall));
        assert!(!target_is_static(K::IndirectJumpNonCallRet));
        assert!(!target_is_static(K::IndirectNearReturn));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bimodal_rejects_non_pow2() {
        Bimodal::new(100);
    }

    /// The fused `predict_and_update` overrides must be indistinguishable —
    /// in both return value and trained state — from the default
    /// predict-then-update sequence they replace.
    #[test]
    fn overridden_predict_and_update_matches_default() {
        // Aliasing pcs (small table) + patterned and pseudo-random outcomes
        // exercise chooser disagreement and history wraparound.
        let mut x = 0x9e37_79b9u64;
        let stream: Vec<(u64, bool)> = (0..20_000u64)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pc = 0x400 + (x % 97) * 4;
                let taken = match i % 3 {
                    0 => true,
                    1 => i % 5 < 3,
                    _ => x & 1 == 1,
                };
                (pc, taken)
            })
            .collect();
        fn check<P: BranchPredictor + Clone + std::fmt::Debug + PartialEq>(
            p: P,
            stream: &[(u64, bool)],
        ) {
            let mut fused = p.clone();
            let mut stepwise = p;
            for &(pc, taken) in stream {
                let a = fused.predict_and_update(pc, taken);
                let predicted = stepwise.predict(pc);
                stepwise.update(pc, taken);
                assert_eq!(a, predicted == taken);
            }
            assert_eq!(fused, stepwise, "trained state must be bit-identical");
        }
        check(Bimodal::new(64), &stream);
        check(GShare::new(64, 6), &stream);
        check(Tournament::new(64, 6), &stream);
    }
}
