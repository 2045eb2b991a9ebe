//! Branch-site population with calibrated predictability.
//!
//! Mispredict rates in this reproduction emerge from running generated
//! branches through a real tournament predictor, so the generator populates
//! three classes of conditional branch *sites* whose hardware behaviour is
//! well understood:
//!
//! - **biased** sites: taken with probability `1 - noise` — a 2-bit bimodal
//!   counter mispredicts roughly at the noise rate;
//! - **loop** sites: `K - 1` taken iterations then one fall-through — a
//!   bimodal counter mispredicts exactly the loop exit, `1/K` of executions;
//! - **random** sites: 50/50 — no predictor beats ~50%.
//!
//! Mixing the classes with calibrated weights dials the aggregate
//! conditional mispredict rate to the paper-reported per-application target;
//! indirect-jump target misses are modelled by the engine's BTB hint (see
//! [`indirect_rate_for`]), and returns are RAS-predicted.

use uarch_sim::microop::{BranchKind, MicroOp};

use crate::profile::Behavior;
use crate::rng::{threshold, Rng64};

/// Empirical mispredict rate of a biased site under a warm bimodal counter.
const BIASED_MISPREDICT: f64 = 0.002;
/// Loop period for loop-class sites.
const LOOP_PERIOD: u64 = 24;
/// Mispredict rate of a loop site (one exit per period).
const LOOP_MISPREDICT: f64 = 1.0 / LOOP_PERIOD as f64;
/// Cap on the loop-class share of conditional branches.
const MAX_LOOP_FRAC: f64 = 0.5;
/// Number of distinct static sites per class.
const SITES_PER_CLASS: u64 = 48;

/// Picks the engine's indirect-jump BTB miss rate for a behaviour.
///
/// Indirect jumps absorb ~20% of the overall mispredict budget when there
/// are conditionals to carry the rest, or all of it for branch-poor
/// profiles.
pub fn indirect_rate_for(b: &Behavior) -> f64 {
    if b.indirect_frac <= 1e-9 {
        return 0.0;
    }
    let share = if b.cond_frac < 0.05 { 1.0 } else { 0.2 };
    (share * b.mispredict_target / b.indirect_frac).clamp(0.0, 0.35)
}

/// Per-class weights for conditional branch sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConditionalMix {
    /// Fraction of conditional executions from biased sites.
    pub biased: f64,
    /// Fraction from loop sites.
    pub looped: f64,
    /// Fraction from random sites.
    pub random: f64,
    /// Not-taken probability of biased sites.
    pub biased_noise: f64,
}

impl ConditionalMix {
    /// Calibrates class weights so the expected conditional mispredict rate
    /// matches `target` (waterfall: biased → loops → random).
    pub fn for_target(target: f64) -> Self {
        let target = target.clamp(0.0, 0.6);
        let noise = (target * 0.5).clamp(0.0002, 0.004);
        let base = (noise + BIASED_MISPREDICT).min(target.max(0.001));
        if target <= base {
            return ConditionalMix {
                biased: 1.0,
                looped: 0.0,
                random: 0.0,
                biased_noise: noise,
            };
        }
        // Loops first.
        let looped = ((target - base) / (LOOP_MISPREDICT - base)).min(MAX_LOOP_FRAC);
        let covered = looped * LOOP_MISPREDICT + (1.0 - looped) * base;
        if covered + 1e-9 >= target {
            return ConditionalMix {
                biased: 1.0 - looped,
                looped,
                random: 0.0,
                biased_noise: noise,
            };
        }
        // Remainder to random sites.
        let random = ((target - MAX_LOOP_FRAC * LOOP_MISPREDICT - (1.0 - MAX_LOOP_FRAC) * base)
            / (0.5 - base))
            .clamp(0.0, 1.0 - MAX_LOOP_FRAC);
        ConditionalMix {
            biased: (1.0 - MAX_LOOP_FRAC - random).max(0.0),
            looped: MAX_LOOP_FRAC,
            random,
            biased_noise: noise,
        }
    }

    /// Expected conditional mispredict rate of this mix (analytic).
    pub fn expected_mispredict(&self) -> f64 {
        self.biased * (self.biased_noise + BIASED_MISPREDICT)
            + self.looped * LOOP_MISPREDICT
            + self.random * 0.5
    }
}

/// Stateful branch generator for one application–input pair.
#[derive(Debug, Clone)]
pub struct BranchModel {
    mix: ConditionalMix,
    /// Cumulative thresholds on a [`Rng64::gen_u53`] draw over branch
    /// kinds: conditional | direct jump | call | indirect (remainder:
    /// return).
    kind_cum: [u64; 4],
    /// Cumulative conditional-class thresholds: biased | biased + looped
    /// (remainder: random).
    class_cum: [u64; 2],
    /// Threshold of a biased site's draw against its bias.
    noise: u64,
    /// Per-loop-site phase counters.
    loop_phase: Vec<u64>,
}

impl BranchModel {
    /// Builds a model from a behaviour's branch-kind fractions and
    /// mispredict target.
    pub fn new(behavior: &Behavior) -> Self {
        let ind_rate = indirect_rate_for(behavior);
        let cond_budget = if behavior.cond_frac > 1e-9 {
            ((behavior.mispredict_target - behavior.indirect_frac * ind_rate) / behavior.cond_frac)
                .max(0.0)
        } else {
            0.0
        };
        let c = behavior.cond_frac;
        let dj = behavior.direct_jump_frac;
        let call = behavior.call_frac;
        let ind = behavior.indirect_frac;
        let mix = ConditionalMix::for_target(cond_budget);
        BranchModel {
            mix,
            kind_cum: [
                threshold(c),
                threshold(c + dj),
                threshold(c + dj + call),
                threshold(c + dj + call + ind),
            ],
            // Like every cumulative bound, `biased + looped` is summed in
            // f64 and thresholded once (see `crate::rng`).
            class_cum: [threshold(mix.biased), threshold(mix.biased + mix.looped)],
            noise: threshold(mix.biased_noise),
            loop_phase: vec![0; SITES_PER_CLASS as usize],
        }
    }

    /// The calibrated conditional mix (for inspection and tests).
    pub fn mix(&self) -> ConditionalMix {
        self.mix
    }

    /// Emits the next dynamic branch micro-op.
    #[inline]
    pub fn next(&mut self, rng: &mut Rng64) -> MicroOp {
        let u = rng.gen_u53();
        if u < self.kind_cum[0] {
            self.next_conditional(rng)
        } else if u < self.kind_cum[1] {
            let site = rng.gen_below(SITES_PER_CLASS);
            MicroOp::Branch {
                pc: 0x10_0000 + site * 64,
                kind: BranchKind::DirectJump,
                taken: true,
            }
        } else if u < self.kind_cum[2] {
            let site = rng.gen_below(SITES_PER_CLASS);
            MicroOp::Branch {
                pc: 0x11_0000 + site * 64,
                kind: BranchKind::DirectNearCall,
                taken: true,
            }
        } else if u < self.kind_cum[3] {
            let site = rng.gen_below(SITES_PER_CLASS);
            MicroOp::Branch {
                pc: 0x12_0000 + site * 64,
                kind: BranchKind::IndirectJumpNonCallRet,
                taken: true,
            }
        } else {
            let site = rng.gen_below(SITES_PER_CLASS);
            MicroOp::Branch {
                pc: 0x13_0000 + site * 64,
                kind: BranchKind::IndirectNearReturn,
                taken: true,
            }
        }
    }

    #[inline]
    fn next_conditional(&mut self, rng: &mut Rng64) -> MicroOp {
        let u = rng.gen_u53();
        let site = rng.gen_below(SITES_PER_CLASS);
        let (class_base, taken) = if u < self.class_cum[0] {
            // Alternate site polarity: half the biased sites are
            // almost-always-taken, half almost-never-taken — real code has
            // both, which is what separates a trained predictor from a
            // static always-taken guess.
            let follows_bias = rng.gen_u53() >= self.noise;
            let taken = if site.is_multiple_of(2) {
                follows_bias
            } else {
                !follows_bias
            };
            (0x20_0000u64, taken)
        } else if u < self.class_cum[1] {
            let phase = self.loop_phase[site as usize];
            self.loop_phase[site as usize] = (phase + 1) % LOOP_PERIOD;
            // Class bases are spaced so (pc >> 2) never aliases between
            // classes in a 16K-entry predictor table.
            (0x20_2000, phase != LOOP_PERIOD - 1)
        } else {
            (0x20_4000, rng.gen_bool())
        };
        MicroOp::Branch {
            pc: class_base + site * 64,
            kind: BranchKind::Conditional,
            taken,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::branch::{BranchPredictor, Tournament};

    /// Measured conditional mispredict rate of a mix under a real predictor.
    fn measure(target: f64) -> f64 {
        let behavior = Behavior {
            mispredict_target: target,
            cond_frac: 1.0,
            direct_jump_frac: 0.0,
            call_frac: 0.0,
            indirect_frac: 0.0,
            return_frac: 0.0,
            ..Behavior::default()
        };
        let mut model = BranchModel::new(&behavior);
        let mut predictor = Tournament::haswell_class();
        let mut rng = Rng64::seed_from(99);
        let n = 400_000;
        let warm = n / 4;
        let mut executed = 0u64;
        let mut wrong = 0u64;
        for i in 0..n {
            if let MicroOp::Branch { pc, taken, .. } = model.next(&mut rng) {
                let correct = predictor.predict_and_update(pc, taken);
                if i >= warm {
                    executed += 1;
                    if !correct {
                        wrong += 1;
                    }
                }
            }
        }
        wrong as f64 / executed as f64
    }

    #[test]
    fn mix_weights_sum_to_one() {
        for t in [0.0, 0.001, 0.01, 0.03, 0.08, 0.15, 0.3] {
            let m = ConditionalMix::for_target(t);
            let sum = m.biased + m.looped + m.random;
            assert!((sum - 1.0).abs() < 1e-9, "target {t}: weights sum {sum}");
            assert!(m.biased >= 0.0 && m.looped >= 0.0 && m.random >= 0.0);
        }
    }

    #[test]
    fn mix_expectation_tracks_target() {
        for t in [0.005, 0.01, 0.02, 0.05, 0.1, 0.2] {
            let m = ConditionalMix::for_target(t);
            let e = m.expected_mispredict();
            assert!((e - t).abs() < 0.004 + t * 0.1, "target {t} expected {e}");
        }
    }

    #[test]
    fn low_target_emerges() {
        let r = measure(0.005);
        assert!((r - 0.005).abs() < 0.004, "measured {r}");
    }

    #[test]
    fn typical_target_emerges() {
        let r = measure(0.022);
        assert!((r - 0.022).abs() < 0.008, "measured {r}");
    }

    #[test]
    fn high_target_emerges() {
        let r = measure(0.087); // leela-like
        assert!((r - 0.087).abs() < 0.02, "measured {r}");
    }

    #[test]
    fn kind_mix_respected() {
        let behavior = Behavior::default();
        let mut model = BranchModel::new(&behavior);
        let mut rng = Rng64::seed_from(5);
        let mut counts = std::collections::HashMap::new();
        let n = 200_000;
        for _ in 0..n {
            if let MicroOp::Branch { kind, .. } = model.next(&mut rng) {
                *counts.entry(kind).or_insert(0u64) += 1;
            }
        }
        let frac = |k: BranchKind| *counts.get(&k).unwrap_or(&0) as f64 / n as f64;
        assert!((frac(BranchKind::Conditional) - behavior.cond_frac).abs() < 0.01);
        assert!((frac(BranchKind::DirectJump) - behavior.direct_jump_frac).abs() < 0.01);
        assert!((frac(BranchKind::DirectNearCall) - behavior.call_frac).abs() < 0.01);
        assert!((frac(BranchKind::IndirectJumpNonCallRet) - behavior.indirect_frac).abs() < 0.01);
        assert!((frac(BranchKind::IndirectNearReturn) - behavior.return_frac).abs() < 0.01);
    }

    #[test]
    fn indirect_rate_zero_without_indirect_branches() {
        let b = Behavior {
            indirect_frac: 0.0,
            cond_frac: 0.81,
            ..Behavior::default()
        };
        assert_eq!(indirect_rate_for(&b), 0.0);
    }

    #[test]
    fn indirect_rate_bounded() {
        let b = Behavior {
            mispredict_target: 0.5,
            indirect_frac: 0.01,
            ..Behavior::default()
        };
        assert!(indirect_rate_for(&b) <= 0.35);
    }

    #[test]
    fn unconditional_branches_always_taken() {
        let behavior = Behavior {
            cond_frac: 0.0,
            direct_jump_frac: 0.4,
            call_frac: 0.2,
            indirect_frac: 0.2,
            return_frac: 0.2,
            ..Behavior::default()
        };
        let mut model = BranchModel::new(&behavior);
        let mut rng = Rng64::seed_from(11);
        for _ in 0..10_000 {
            if let MicroOp::Branch { taken, kind, .. } = model.next(&mut rng) {
                assert!(taken, "unconditional {kind:?} must be taken");
            }
        }
    }
}
