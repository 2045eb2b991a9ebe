//! Campaign dataset: every characterization record the experiments need.

use workload_synth::profile::{AppProfile, InputSize, Suite};
use workload_synth::{cpu2006, cpu2017};

use crate::cache::CacheContext;
use crate::characterize::{characterize_pairs_with, pairs_at_every_size, CharRecord, RunConfig};
use crate::error::Result;

/// All records of one characterization campaign.
///
/// Collect once, then regenerate any number of tables and figures from it —
/// the analogue of the paper's "run everything under perf, then analyze".
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The configuration the campaign ran with.
    pub config: RunConfig,
    /// CPU2017 records for all input sizes (194 pairs for the full roster).
    pub cpu17: Vec<CharRecord>,
    /// CPU2006 `ref` records (29 for the full roster).
    pub cpu06: Vec<CharRecord>,
}

impl Dataset {
    /// Characterizes the full CPU2017 (all sizes) and CPU2006 (`ref`)
    /// rosters.
    ///
    /// # Errors
    ///
    /// [`crate::error::Error::Characterization`] when any pair fails.
    pub fn collect(config: RunConfig) -> Result<Self> {
        Dataset::collect_apps(config, &cpu2017::suite(), &cpu2006::suite())
    }

    /// [`Dataset::collect`] with an optional result cache: pairs already in
    /// the store are replayed instead of re-simulated.
    ///
    /// # Errors
    ///
    /// [`crate::error::Error::Characterization`] when any pair fails.
    pub fn collect_with(config: RunConfig, cache: Option<&CacheContext>) -> Result<Self> {
        Dataset::collect_apps_with(config, &cpu2017::suite(), &cpu2006::suite(), cache)
    }

    /// Characterizes explicit app lists (used by tests and scaled-down
    /// demos); CPU2017 apps run at every size they define, CPU2006 at `ref`.
    ///
    /// # Errors
    ///
    /// [`crate::error::Error::Characterization`] when any pair fails.
    pub fn collect_apps(
        config: RunConfig,
        cpu17_apps: &[AppProfile],
        cpu06_apps: &[AppProfile],
    ) -> Result<Self> {
        Dataset::collect_apps_with(config, cpu17_apps, cpu06_apps, None)
    }

    /// [`Dataset::collect_apps`] with an optional result cache.
    ///
    /// Every pair of the campaign (CPU2017 test, train and ref, then
    /// CPU2006 ref) runs as one scheduler batch, so the workers join once
    /// per dataset rather than once per input size; the records come back
    /// in that order and split by position.
    ///
    /// # Errors
    ///
    /// [`crate::error::Error::Characterization`] listing every failed pair
    /// of the campaign when any pair fails.
    pub fn collect_apps_with(
        config: RunConfig,
        cpu17_apps: &[AppProfile],
        cpu06_apps: &[AppProfile],
        cache: Option<&CacheContext>,
    ) -> Result<Self> {
        let mut pairs = pairs_at_every_size(cpu17_apps);
        let n17 = pairs.len();
        pairs.extend(cpu06_apps.iter().flat_map(|app| app.pairs(InputSize::Ref)));
        let mut cpu17 = characterize_pairs_with(&pairs, &config, cache)?;
        let cpu06 = cpu17.split_off(n17);
        Ok(Dataset {
            config,
            cpu17,
            cpu06,
        })
    }

    /// A small fast dataset for tests: eight representative CPU2017
    /// applications and four CPU2006 applications at quick scale.
    pub fn demo() -> Self {
        let names17 = [
            "505.mcf_r",
            "519.lbm_r",
            "525.x264_r",
            "541.leela_r",
            "549.fotonik3d_r",
            "603.bwaves_s",
            "607.cactuBSSN_s",
            "657.xz_s",
        ];
        let cpu17: Vec<AppProfile> = names17
            .iter()
            .map(|n| cpu2017::app(n).expect("demo app exists"))
            .collect();
        let cpu06: Vec<AppProfile> = cpu2006::suite()
            .into_iter()
            .filter(|a| ["429.mcf", "470.lbm", "456.hmmer", "433.milc"].contains(&a.name.as_str()))
            .collect();
        Dataset::collect_apps(RunConfig::quick(), &cpu17, &cpu06)
            .expect("demo roster characterizes cleanly")
    }

    /// CPU2017 records at one input size.
    pub fn cpu17_at(&self, size: InputSize) -> Vec<&CharRecord> {
        self.cpu17.iter().filter(|r| r.size == size).collect()
    }

    /// CPU2017 `ref` records of the two `rate` mini-suites (Fig. 9a scope).
    pub fn rate_ref(&self) -> Vec<&CharRecord> {
        self.cpu17
            .iter()
            .filter(|r| r.size == InputSize::Ref && !r.suite.is_speed())
            .collect()
    }

    /// CPU2017 `ref` records of the two `speed` mini-suites (Fig. 9b scope).
    pub fn speed_ref(&self) -> Vec<&CharRecord> {
        self.cpu17
            .iter()
            .filter(|r| r.size == InputSize::Ref && r.suite.is_speed())
            .collect()
    }

    /// CPU2017 `ref` records of one mini-suite, ordered by application name.
    pub fn mini_suite_ref(&self, suite: Suite) -> Vec<&CharRecord> {
        let mut v: Vec<&CharRecord> = self
            .cpu17
            .iter()
            .filter(|r| r.size == InputSize::Ref && r.suite == suite)
            .collect();
        v.sort_by(|a, b| a.id.cmp(&b.id));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_dataset_shape() {
        let d = Dataset::demo();
        // 8 apps; x264 has 3/2/3 inputs, gcc not included; bwaves_s 2/2/2,
        // xz_s 5/2/2; others single.
        assert!(!d.cpu17.is_empty());
        assert_eq!(d.cpu06.len(), 4);
        let ref_records = d.cpu17_at(InputSize::Ref);
        assert!(ref_records.len() >= 8);
        // Accessors partition ref records.
        assert_eq!(d.rate_ref().len() + d.speed_ref().len(), ref_records.len());
    }

    #[test]
    fn one_batch_matches_per_size_batches() {
        let cpu17: Vec<AppProfile> = ["505.mcf_r", "525.x264_r"]
            .iter()
            .map(|n| cpu2017::app(n).unwrap())
            .collect();
        let cpu06: Vec<AppProfile> = cpu2006::suite()
            .into_iter()
            .filter(|a| a.name == "429.mcf")
            .collect();
        let config = RunConfig::quick();
        let root = simtrace::root("run/test");
        let data = Dataset::collect_apps(config.clone(), &cpu17, &cpu06).unwrap();
        let spans = root.drain();
        let batches = spans.iter().filter(|s| s.name == "sched/batch").count();
        assert_eq!(batches, 1, "the whole dataset is one scheduler batch");

        let mut per_size = Vec::new();
        for size in InputSize::ALL {
            per_size
                .extend(crate::characterize::characterize_suite(&cpu17, size, &config).unwrap());
        }
        assert_eq!(data.cpu17, per_size, "same records, same order");
        assert_eq!(
            data.cpu06,
            crate::characterize::characterize_suite(&cpu06, InputSize::Ref, &config).unwrap()
        );
    }

    #[test]
    fn mini_suite_ref_sorted() {
        let d = Dataset::demo();
        let rate_int = d.mini_suite_ref(Suite::RateInt);
        assert!(!rate_int.is_empty());
        assert!(rate_int.windows(2).all(|w| w[0].id <= w[1].id));
        assert!(rate_int.iter().all(|r| r.suite == Suite::RateInt));
    }
}
