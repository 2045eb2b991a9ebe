//! The benchmark's inputs: the shipped CPU2017 and CPU2006 rosters, made
//! distinct per `--seed`.
//!
//! Seed 0 is the canonical roster. A seed N > 0 renames every input to
//! `<input>~sN`. The generator seeds its RNG from the pair's names and the
//! result cache hashes them into its keys, so a renamed roster draws new
//! trace streams and addresses new cache records, while every `Behavior`
//! and therefore every op budget stays the same: the simulated work per
//! pass is identical across seeds and pass times compare directly.

use workchar::characterize::RunConfig;
use workload_synth::profile::{AppInputPair, AppProfile, InputSize};
use workload_synth::{cpu2006, cpu2017};

/// One seed's CPU2017 (all sizes) and CPU2006 (`ref`) applications.
#[derive(Debug, Clone, PartialEq)]
pub struct Roster {
    pub cpu17: Vec<AppProfile>,
    pub cpu06: Vec<AppProfile>,
}

impl Roster {
    pub fn new(seed: u64) -> Roster {
        let mut roster = Roster {
            cpu17: cpu2017::suite(),
            cpu06: cpu2006::suite(),
        };
        if seed > 0 {
            for app in roster.cpu17.iter_mut().chain(roster.cpu06.iter_mut()) {
                for input in app
                    .test
                    .iter_mut()
                    .chain(app.train.iter_mut())
                    .chain(app.reference.iter_mut())
                {
                    input.name = format!("{}~s{seed}", input.name);
                }
            }
        }
        roster
    }

    /// The pairs of one scheduler batch of `Dataset::collect_apps_with`,
    /// in its order: CPU2017 test, train and ref, then CPU2006 ref.
    pub fn collect_batches(&self) -> Vec<Vec<AppInputPair<'_>>> {
        let mut batches: Vec<Vec<AppInputPair<'_>>> = InputSize::ALL
            .iter()
            .map(|&size| pairs_at(&self.cpu17, size))
            .collect();
        batches.push(pairs_at(&self.cpu06, InputSize::Ref));
        batches
    }

    /// The CPU2017 `ref` pairs, the simpoint campaign's roster.
    pub fn ref_pairs(&self) -> Vec<AppInputPair<'_>> {
        pairs_at(&self.cpu17, InputSize::Ref)
    }
}

fn pairs_at(apps: &[AppProfile], size: InputSize) -> Vec<AppInputPair<'_>> {
    apps.iter().flat_map(|app| app.pairs(size)).collect()
}

/// Micro-ops one pass over `pairs` simulates: the sum of the pairs' trace
/// budgets. A pass whose records add up to anything else skipped work.
pub fn budget_ops(pairs: &[AppInputPair<'_>], config: &RunConfig) -> u64 {
    pairs
        .iter()
        .map(|p| config.scale.budget_for(&p.input.behavior, &config.system))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workchar::cache::pair_key;

    #[test]
    fn seed_zero_is_the_shipped_roster() {
        let roster = Roster::new(0);
        assert_eq!(roster.cpu17, cpu2017::suite());
        assert_eq!(roster.cpu06, cpu2006::suite());
    }

    #[test]
    fn other_seeds_change_streams_and_keys_but_not_work() {
        let base = Roster::new(0);
        let base_pairs: Vec<_> = base.collect_batches().concat();
        assert_eq!(base_pairs.len(), 223);
        for config in [RunConfig::quick(), RunConfig::default()] {
            for seed in [1, 2, 17] {
                let roster = Roster::new(seed);
                let pairs: Vec<_> = roster.collect_batches().concat();
                assert_eq!(pairs.len(), base_pairs.len());
                for (a, b) in base_pairs.iter().zip(&pairs) {
                    assert_ne!(a.seed(), b.seed(), "{a} keeps its trace seed");
                    assert_ne!(pair_key(a, &config), pair_key(b, &config), "{a}");
                    assert_eq!(a.input.behavior, b.input.behavior, "{a}");
                    assert_eq!(
                        config.scale.budget_for(&a.input.behavior, &config.system),
                        config.scale.budget_for(&b.input.behavior, &config.system),
                    );
                }
                assert_eq!(
                    budget_ops(&pairs, &config),
                    budget_ops(&base_pairs, &config)
                );
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_roster() {
        assert_eq!(Roster::new(5), Roster::new(5));
        assert_ne!(Roster::new(5), Roster::new(6));
    }
}
