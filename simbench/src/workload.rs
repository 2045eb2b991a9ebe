//! The four workloads: what each sets up, what one pass runs, and how a
//! pass is checked.
//!
//! A pass drives the pipeline the way `reproduce` does, through its public
//! functions, and writes its files under a scratch directory:
//!
//! - `quick-cold`: the full 223-pair roster (CPU2017 at every size plus
//!   CPU2006 ref) at `RunConfig::quick()`, no cache; then all 20
//!   experiments, rendered and written. The headline `reproduce --quick
//!   --no-cache` run, and the one where per-pair fixed costs weigh most.
//! - `default-cold`: the same at `RunConfig::default()`. It produces the
//!   committed `results/`, so seed 0 is checked against them byte for byte;
//!   long traces make the engine loop and the scheduler's batch barriers
//!   dominate.
//! - `simpoint-quick`: the simpoint campaign over the 64 CPU2017 ref pairs
//!   at quick scale, no store: short interval runs, warm gaps and
//!   k-medoids clustering.
//! - `cache-replay`: set-up fills a fresh result store with the quick
//!   roster; a pass opens it, collects with every pair a hit, and runs and
//!   renders the experiments (writing nothing: at ~70 passes a second the
//!   file writes' page-cache churn would dominate the pass). No generation
//!   and no engine work: it bypasses what the cold workloads stress and
//!   exposes the store codec and the analysis.

use std::path::{Path, PathBuf};

use simpoint::{SimpointConfig, SimpointRecord};
use workchar::cache::CacheContext;
use workchar::characterize::{characterize_suite, RunConfig};
use workchar::dataset::Dataset;
use workchar::experiments::{self, ExperimentId};
use workchar::simpoints::{run_roster, summary_table};
use workload_synth::profile::InputSize;

use crate::outputs::{artifact_outputs, records_outputs, write_all, Output};
use crate::roster::{budget_ops, Roster};
use crate::BoxResult;

/// Largest reconstruction error a simpoint pair may show; the budget
/// `simpoint-report` gates the shipped roster on.
pub const SIMPOINT_ERROR_BUDGET: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QuickCold,
    DefaultCold,
    SimpointQuick,
    CacheReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::QuickCold,
        Workload::DefaultCold,
        Workload::SimpointQuick,
        Workload::CacheReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickCold => "quick-cold",
            Workload::DefaultCold => "default-cold",
            Workload::SimpointQuick => "simpoint-quick",
            Workload::CacheReplay => "cache-replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn config(self) -> RunConfig {
        match self {
            Workload::DefaultCold => RunConfig::default(),
            _ => RunConfig::quick(),
        }
    }
}

/// A scratch directory for one run's files, removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Root of every run's scratch directory, relative to the working
    /// directory (the repository root).
    pub const ROOT: &'static str = ".simbench_tmp";

    /// # Errors
    ///
    /// Any filesystem error creating the directory.
    pub fn create(workload: Workload) -> std::io::Result<Scratch> {
        let dir = Path::new(Self::ROOT).join(format!("{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails while another run still has its directory there.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// What set-up builds: the seeded roster and, for `cache-replay`, the
/// filled store.
#[derive(Debug)]
pub struct Bench {
    pub workload: Workload,
    pub seed: u64,
    pub roster: Roster,
    pub config: RunConfig,
    /// Where passes write their files.
    pub out_dir: PathBuf,
    /// The filled result store (`cache-replay` only).
    pub store: Option<PathBuf>,
}

/// The records a pass produced.
#[derive(Debug)]
pub enum Records {
    Char(Box<Dataset>),
    Simpoint(Vec<SimpointRecord>),
}

/// One pass's results.
#[derive(Debug)]
pub struct Pass {
    pub outputs: Vec<Output>,
    pub records: Records,
    /// Store lookups that missed (`cache-replay` must have none).
    pub misses: u64,
}

impl Pass {
    /// Micro-ops of trace the pass's records cover.
    pub fn ops(&self) -> u64 {
        match &self.records {
            Records::Char(d) => d.cpu17.iter().chain(&d.cpu06).map(|r| r.sim_ops).sum(),
            Records::Simpoint(rs) => rs.iter().map(|r| r.total_ops).sum(),
        }
    }

    pub fn pairs(&self) -> usize {
        match &self.records {
            Records::Char(d) => d.cpu17.len() + d.cpu06.len(),
            Records::Simpoint(rs) => rs.len(),
        }
    }

    /// Simpoint pairs over the error budget.
    pub fn over_budget(&self) -> usize {
        match &self.records {
            Records::Char(_) => 0,
            Records::Simpoint(rs) => rs
                .iter()
                .filter(|r| r.max_headline_error() > SIMPOINT_ERROR_BUDGET)
                .count(),
        }
    }
}

impl Bench {
    /// Builds the roster for `seed` and warms the process up on it before
    /// any pass is timed (a process's first pass otherwise runs about 20%
    /// slow while the allocator's arenas grow): `cache-replay` fills a
    /// fresh store under `scratch` (the `rep`-th set-up gets its own), the
    /// other workloads run their own pipeline on the roster's CPU2017
    /// `test` pairs, the inputs SPEC's own harness checks a build with.
    ///
    /// # Errors
    ///
    /// Filesystem errors and characterization failures.
    pub fn setup(workload: Workload, seed: u64, scratch: &Path, rep: usize) -> BoxResult<Bench> {
        let roster = Roster::new(seed);
        let config = workload.config();
        let mut store = None;
        match workload {
            Workload::CacheReplay => {
                let dir = scratch.join(format!("store-{rep}"));
                let ctx = CacheContext::open(&dir)?;
                Dataset::collect_apps_with(
                    config.clone(),
                    &roster.cpu17,
                    &roster.cpu06,
                    Some(&ctx),
                )?;
                store = Some(dir);
            }
            // Warming up with another pipeline left allocator arenas that
            // the campaign's passes then grew in a racy order: peak memory
            // read 24 to 29 MB from run to run, against 23 to 24 MB.
            Workload::SimpointQuick => {
                let sp = SimpointConfig::default();
                run_roster(&roster.cpu17, InputSize::Test, &config, &sp, None)?;
            }
            Workload::QuickCold | Workload::DefaultCold => {
                characterize_suite(&roster.cpu17, InputSize::Test, &config)?;
            }
        }
        let out_dir = scratch.join("out");
        std::fs::create_dir_all(&out_dir)?;
        Ok(Bench {
            workload,
            seed,
            roster,
            config,
            out_dir,
            store,
        })
    }

    /// Runs one pass.
    ///
    /// # Errors
    ///
    /// Pipeline and filesystem errors.
    pub fn pass(&self) -> BoxResult<Pass> {
        match self.workload {
            Workload::QuickCold | Workload::DefaultCold => {
                let pass = self.report(self.collect(None)?, 0)?;
                write_all(&self.out_dir, &pass.outputs)?;
                Ok(pass)
            }
            Workload::CacheReplay => {
                let ctx =
                    CacheContext::open(self.store.as_ref().expect("cache-replay has a store"))?;
                let data = self.collect(Some(&ctx))?;
                self.report(data, ctx.stats.snapshot().misses)
            }
            Workload::SimpointQuick => {
                let records = run_roster(
                    &self.roster.cpu17,
                    InputSize::Ref,
                    &self.config,
                    &SimpointConfig::default(),
                    None,
                )?;
                let outputs = vec![simpoint_output(&records)];
                write_all(&self.out_dir, &outputs)?;
                Ok(Pass {
                    outputs,
                    records: Records::Simpoint(records),
                    misses: 0,
                })
            }
        }
    }

    fn collect(&self, cache: Option<&CacheContext>) -> workchar::error::Result<Dataset> {
        Dataset::collect_apps_with(
            self.config.clone(),
            &self.roster.cpu17,
            &self.roster.cpu06,
            cache,
        )
    }

    fn report(&self, data: Dataset, misses: u64) -> BoxResult<Pass> {
        let mut outputs = Vec::new();
        for id in ExperimentId::ALL {
            outputs.extend(artifact_outputs(&experiments::run(id, &data)?));
        }
        outputs.extend(records_outputs(&data));
        Ok(Pass {
            outputs,
            records: Records::Char(Box::new(data)),
            misses,
        })
    }

    /// Micro-ops every pass must cover: the roster's trace budgets.
    pub fn expected_ops(&self) -> u64 {
        match self.workload {
            Workload::SimpointQuick => budget_ops(&self.roster.ref_pairs(), &self.config),
            _ => budget_ops(&self.roster.collect_batches().concat(), &self.config),
        }
    }
}

/// The simpoint campaign's summary table, as `reproduce --simpoint` writes
/// it.
pub fn simpoint_output(records: &[SimpointRecord]) -> Output {
    Output::new("simpoints.txt", summary_table(records).render_ascii())
}
