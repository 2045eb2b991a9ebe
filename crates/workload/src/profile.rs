//! Application behaviour profiles and their calibration.
//!
//! A [`Behavior`] captures, for one application–input pair, every property
//! the paper's characterization observes: instruction mix percentages
//! (Fig. 2–3), branch-type composition (Table VIII), target miss and
//! mispredict rates (Fig. 5–6), footprint (Fig. 4), instruction volume
//! (Table II), and the paper-reported IPC the calibration aims at (Fig. 1).
//! Targets are *inputs to generator calibration*, not outputs: the simulator
//! re-derives all microarchitecture-dependent numbers by executing the
//! generated stream.

use std::fmt;

use uarch_sim::config::SystemConfig;
use uarch_sim::engine::WorkloadHints;

/// The four CPU2017 mini-suites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPECrate 2017 Integer.
    RateInt,
    /// SPECrate 2017 Floating Point.
    RateFp,
    /// SPECspeed 2017 Integer.
    SpeedInt,
    /// SPECspeed 2017 Floating Point.
    SpeedFp,
}

impl Suite {
    /// All mini-suites in the paper's reporting order.
    pub const ALL: [Suite; 4] = [
        Suite::RateInt,
        Suite::RateFp,
        Suite::SpeedInt,
        Suite::SpeedFp,
    ];

    /// True for the two integer mini-suites.
    pub fn is_int(self) -> bool {
        matches!(self, Suite::RateInt | Suite::SpeedInt)
    }

    /// True for the two `speed` mini-suites.
    pub fn is_speed(self) -> bool {
        matches!(self, Suite::SpeedInt | Suite::SpeedFp)
    }

    /// The paper's name for the mini-suite.
    pub fn label(self) -> &'static str {
        match self {
            Suite::RateInt => "rate int",
            Suite::RateFp => "rate fp",
            Suite::SpeedInt => "speed int",
            Suite::SpeedFp => "speed fp",
        }
    }
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// SPEC input sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputSize {
    /// Smallest inputs, shortest runtime.
    Test,
    /// Medium inputs used for feedback-directed builds.
    Train,
    /// The reference inputs every reported SPEC number uses.
    Ref,
}

impl InputSize {
    /// All sizes in ascending-work order.
    pub const ALL: [InputSize; 3] = [InputSize::Test, InputSize::Train, InputSize::Ref];

    /// Lower-case label as used in SPEC tooling.
    pub fn label(self) -> &'static str {
        match self {
            InputSize::Test => "test",
            InputSize::Train => "train",
            InputSize::Ref => "ref",
        }
    }
}

impl fmt::Display for InputSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Behavioural targets for one application–input pair.
///
/// Percentages are in `[0, 100]`; fractions and rates in `[0, 1]`.
/// This is a passive parameter record (in the C-struct spirit), so fields
/// are public; [`Behavior::validate`] checks cross-field invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct Behavior {
    /// Dynamic instruction volume at the paper's scale, in billions.
    pub instructions_billions: f64,
    /// Paper-reported (or estimated) IPC the calibration aims at.
    pub ipc_target: f64,
    /// Load micro-ops as a percentage of all micro-ops.
    pub load_pct: f64,
    /// Store micro-ops as a percentage of all micro-ops.
    pub store_pct: f64,
    /// Branch instructions as a percentage of all instructions.
    pub branch_pct: f64,
    /// Of all branches: fraction that are conditional.
    pub cond_frac: f64,
    /// Of all branches: fraction that are direct jumps.
    pub direct_jump_frac: f64,
    /// Of all branches: fraction that are direct near calls.
    pub call_frac: f64,
    /// Of all branches: fraction that are indirect non-call/ret jumps.
    pub indirect_frac: f64,
    /// Of all branches: fraction that are near returns.
    pub return_frac: f64,
    /// Target overall branch mispredict rate (all branch kinds).
    pub mispredict_target: f64,
    /// Target L1D load miss rate.
    pub l1_miss_target: f64,
    /// Target local L2 load miss rate (of loads that reached L2).
    pub l2_miss_target: f64,
    /// Target local L3 load miss rate (of loads that reached L3).
    pub l3_miss_target: f64,
    /// Maximum resident set size, GiB (the paper's `ps -o rss` maximum).
    pub rss_gib: f64,
    /// Reserved virtual size, GiB (the paper's `ps -o vsz` maximum).
    pub vsz_gib: f64,
    /// Code (text segment) footprint in KiB; drives L1I behaviour.
    pub code_kib: f64,
    /// OpenMP thread count (1 for rate; the paper ran speed with 4).
    pub threads: u32,
}

impl Default for Behavior {
    /// A generic mid-of-the-road integer workload.
    fn default() -> Self {
        Behavior {
            instructions_billions: 1000.0,
            ipc_target: 1.7,
            load_pct: 25.0,
            store_pct: 9.0,
            branch_pct: 15.0,
            cond_frac: 0.79,
            direct_jump_frac: 0.07,
            call_frac: 0.06,
            indirect_frac: 0.02,
            return_frac: 0.06,
            mispredict_target: 0.022,
            l1_miss_target: 0.034,
            l2_miss_target: 0.32,
            l3_miss_target: 0.14,
            rss_gib: 0.5,
            vsz_gib: 0.7,
            code_kib: 256.0,
            threads: 1,
        }
    }
}

/// Validation failure for a behaviour record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidBehavior {
    /// Which invariant was violated.
    pub what: &'static str,
}

impl fmt::Display for InvalidBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid behavior profile: {}", self.what)
    }
}

impl std::error::Error for InvalidBehavior {}

impl Behavior {
    /// Lints this profile, collecting *every* violated invariant as coded
    /// diagnostics (rules P001–P016) instead of stopping at the first.
    /// `object` names the profile in spans; pass a system config to enable
    /// the machine-relative plausibility checks. See
    /// [`crate::lint::check_behavior`].
    pub fn check(&self, object: &str, config: Option<&SystemConfig>) -> simcheck::Report {
        crate::lint::check_behavior(object, self, config)
    }

    /// Checks all cross-field invariants (legacy adapter over
    /// [`Behavior::check`], reporting the first error-severity diagnostic).
    ///
    /// # Errors
    ///
    /// Returns [`InvalidBehavior`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), InvalidBehavior> {
        match self
            .check("behavior", None)
            .diagnostics()
            .iter()
            .find(|d| d.severity == simcheck::Severity::Error)
        {
            Some(diagnostic) => Err(InvalidBehavior {
                what: diagnostic.code.summary,
            }),
            None => Ok(()),
        }
    }

    /// Probability that a given load is served by L1 / L2 / L3 / memory,
    /// derived from the local miss-rate targets.
    pub fn service_fractions(&self) -> [f64; 4] {
        let m1 = self.l1_miss_target;
        let m2 = self.l2_miss_target;
        let m3 = self.l3_miss_target;
        [
            1.0 - m1,
            m1 * (1.0 - m2),
            m1 * m2 * (1.0 - m3),
            m1 * m2 * m3,
        ]
    }

    /// Fraction of all *instructions* that are memory micro-ops.
    pub fn memory_fraction(&self) -> f64 {
        (self.load_pct + self.store_pct) / 100.0
    }

    /// Scales the paper-level instruction volume down to a simulable micro-op
    /// budget: `base + instructions_billions * ops_per_billion`.
    pub fn ops_budget(&self, ops_per_billion: f64, base_ops: u64) -> u64 {
        base_ops + (self.instructions_billions * ops_per_billion) as u64
    }

    /// Calibrates engine hints (ILP, MLP, thread overhead, footprints) so
    /// that the simulated IPC approaches `ipc_target` given the *target*
    /// stall profile. The actual IPC still emerges from simulation: the
    /// cache and predictor models produce the stalls, this only sets the
    /// workload's inherent parallelism.
    pub fn hints(&self, config: &SystemConfig) -> WorkloadHints {
        let width = config.timing.issue_width as f64;
        let cpi_target = 1.0 / self.ipc_target.max(0.02);
        let branches_per_inst = self.branch_pct / 100.0;
        let misp_cycles =
            config.timing.mispredict_penalty as f64 * branches_per_inst * self.mispredict_target;
        // Expected front-end stall: far jumps through a text segment larger
        // than the L1I miss at roughly taken_branches/16 line-fetch rate
        // (see the engine's fetch model), each costing half an L2 hit.
        let taken_rate = branches_per_inst * 0.55;
        let frontend_cycles = if self.code_kib * 1024.0 > config.l1i.size_bytes as f64 {
            taken_rate / 16.0 * config.timing.l2_latency as f64 * 0.5
        } else {
            0.0
        };
        let fixed = misp_cycles + frontend_cycles;
        let [_, f2, f3, f4] = self.service_fractions();
        let loads_per_inst = self.load_pct / 100.0;
        let mem_raw = loads_per_inst
            * (f2 * config.timing.l2_latency as f64
                + f3 * config.timing.l3_latency as f64
                + f4 * config.timing.memory_latency as f64);

        // Search the MLP grid (descending, so ties resolve to the highest
        // MLP — generous overlap is the safe default when memory stalls are
        // a small CPI component) for the (ilp, mlp) pair whose estimated
        // CPI is closest to the target.
        let mut best = (2.0_f64, 2.0_f64, f64::INFINITY);
        let mut step = 60i32;
        while step >= 0 {
            let mlp = 1.0 + step as f64 * 0.25;
            let base_budget = cpi_target - fixed - mem_raw / mlp;
            let ilp = if base_budget > 1.0 / width {
                (1.0 / base_budget).clamp(0.1, width)
            } else {
                width
            };
            let est = 1.0 / ilp + fixed + mem_raw / mlp;
            let err = (est - cpi_target).abs();
            if err < best.2 {
                best = (ilp, mlp, err);
            }
            step -= 1;
        }
        let (ilp, mlp, _) = best;
        let est_cpi = 1.0 / ilp + fixed + mem_raw / mlp;

        // If the target is slower than anything the pipeline model can
        // produce (heavily synchronized speed runs), charge the remainder to
        // thread synchronization overhead.
        let sync_overhead = if self.threads > 1 && est_cpi < cpi_target {
            (cpi_target / est_cpi - 1.0) / (self.threads - 1) as f64
        } else {
            0.0
        };

        WorkloadHints {
            ilp,
            mlp,
            code_footprint_bytes: (self.code_kib * 1024.0) as u64,
            indirect_target_miss_rate: crate::branchmodel::indirect_rate_for(self),
            threads: self.threads,
            sync_overhead,
            l2_bypass_range: None,
        }
    }
}

/// One named input of an application at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct InputProfile {
    /// Input label, e.g. `"in1"` or `"refrate"`.
    pub name: String,
    /// Behavioural targets for this input.
    pub behavior: Behavior,
}

/// A full application: identity plus its inputs at each size.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// SPEC-style name, e.g. `"519.lbm_r"`.
    pub name: String,
    /// Mini-suite membership.
    pub suite: Suite,
    /// Inputs for the `test` size.
    pub test: Vec<InputProfile>,
    /// Inputs for the `train` size.
    pub train: Vec<InputProfile>,
    /// Inputs for the `ref` size.
    pub reference: Vec<InputProfile>,
}

/// A borrowed (application, input, size) triple — the unit the paper calls
/// an "application–input pair".
#[derive(Debug, Clone, Copy)]
pub struct AppInputPair<'a> {
    /// The owning application.
    pub app: &'a AppProfile,
    /// The specific input.
    pub input: &'a InputProfile,
    /// The input size.
    pub size: InputSize,
}

impl AppProfile {
    /// The inputs defined for `size`.
    pub fn inputs(&self, size: InputSize) -> &[InputProfile] {
        match size {
            InputSize::Test => &self.test,
            InputSize::Train => &self.train,
            InputSize::Ref => &self.reference,
        }
    }

    /// All (application, input) pairs at `size`.
    pub fn pairs(&self, size: InputSize) -> Vec<AppInputPair<'_>> {
        self.inputs(size)
            .iter()
            .map(|input| AppInputPair {
                app: self,
                input,
                size,
            })
            .collect()
    }

    /// Validates every input behaviour.
    ///
    /// # Errors
    ///
    /// Returns the first [`InvalidBehavior`] found, if any.
    pub fn validate(&self) -> Result<(), InvalidBehavior> {
        for size in InputSize::ALL {
            for input in self.inputs(size) {
                input.behavior.validate()?;
            }
        }
        Ok(())
    }

    /// Lints every input behaviour at every size, collecting all coded
    /// diagnostics. See [`crate::lint::check_app`].
    pub fn check(&self, config: Option<&SystemConfig>) -> simcheck::Report {
        crate::lint::check_app(self, config)
    }
}

impl AppInputPair<'_> {
    /// Display id, e.g. `"503.bwaves_r-in2"`. Single-input pairs omit the
    /// input suffix, matching the paper's figures.
    pub fn id(&self) -> String {
        if self.app.inputs(self.size).len() == 1 {
            self.app.name.clone()
        } else {
            format!("{}-{}", self.app.name, self.input.name)
        }
    }

    /// Stable seed derived from the pair identity (FNV-1a).
    pub fn seed(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .app
            .name
            .bytes()
            .chain(self.input.name.bytes())
            .chain(self.size.label().bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl fmt::Display for AppInputPair<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.id(), self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_behavior_is_valid() {
        Behavior::default().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_mix() {
        let b = Behavior {
            load_pct: 70.0,
            store_pct: 25.0,
            branch_pct: 20.0,
            ..Behavior::default()
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_kind_sum() {
        let b = Behavior {
            cond_frac: 0.5,
            ..Behavior::default()
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn validation_catches_nonpositive_ipc() {
        let b = Behavior {
            ipc_target: 0.0,
            ..Behavior::default()
        };
        assert!(b.validate().is_err());
        let b = Behavior {
            instructions_billions: 0.0,
            ..Behavior::default()
        };
        assert!(b.validate().is_err());
    }

    #[test]
    fn service_fractions_sum_to_one() {
        let b = Behavior::default();
        let f = b.service_fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(f.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn service_fractions_reflect_targets() {
        let b = Behavior {
            l1_miss_target: 0.10,
            l2_miss_target: 0.50,
            l3_miss_target: 0.20,
            ..Behavior::default()
        };
        let [f1, f2, f3, f4] = b.service_fractions();
        assert!((f1 - 0.90).abs() < 1e-12);
        assert!((f2 - 0.05).abs() < 1e-12);
        assert!((f3 - 0.04).abs() < 1e-12);
        assert!((f4 - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ops_budget_scales() {
        let b = Behavior {
            instructions_billions: 2000.0,
            ..Behavior::default()
        };
        assert_eq!(b.ops_budget(100.0, 50_000), 250_000);
    }

    #[test]
    fn hints_hit_reachable_ipc_analytically() {
        let config = SystemConfig::haswell_e5_2650l_v3();
        let b = Behavior {
            ipc_target: 2.0,
            ..Behavior::default()
        };
        let h = b.hints(&config);
        // Rebuild the analytic estimate (mispredict + frontend + memory
        // stalls) and check closeness to target.
        let frontend = (b.branch_pct / 100.0) * 0.55 / 16.0 * 12.0 * 0.5;
        let cpi = 1.0 / h.ilp
            + 15.0 * (b.branch_pct / 100.0) * b.mispredict_target
            + frontend
            + (b.load_pct / 100.0)
                * (b.service_fractions()[1] * 12.0
                    + b.service_fractions()[2] * 40.0
                    + b.service_fractions()[3] * 220.0)
                / h.mlp;
        assert!((1.0 / cpi - 2.0).abs() < 0.1, "analytic ipc {}", 1.0 / cpi);
        assert_eq!(h.sync_overhead, 0.0);
    }

    #[test]
    fn hints_use_sync_overhead_for_unreachably_low_ipc() {
        let config = SystemConfig::haswell_e5_2650l_v3();
        let b = Behavior {
            ipc_target: 0.06,
            threads: 4,
            ..Behavior::default()
        };
        let h = b.hints(&config);
        assert!(
            h.sync_overhead > 0.0,
            "very low IPC must charge sync overhead"
        );
    }

    #[test]
    fn hints_ilp_bounded_by_width() {
        let config = SystemConfig::haswell_e5_2650l_v3();
        let b = Behavior {
            ipc_target: 10.0,
            ..Behavior::default()
        };
        let h = b.hints(&config);
        assert!(h.ilp <= config.timing.issue_width as f64);
    }

    #[test]
    fn pair_ids_and_seeds() {
        let app = AppProfile {
            name: "503.bwaves_r".into(),
            suite: Suite::RateFp,
            test: vec![],
            train: vec![],
            reference: vec![
                InputProfile {
                    name: "in1".into(),
                    behavior: Behavior::default(),
                },
                InputProfile {
                    name: "in2".into(),
                    behavior: Behavior::default(),
                },
            ],
        };
        let pairs = app.pairs(InputSize::Ref);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].id(), "503.bwaves_r-in1");
        assert_ne!(pairs[0].seed(), pairs[1].seed());
        assert_eq!(
            pairs[0].seed(),
            app.pairs(InputSize::Ref)[0].seed(),
            "seeds stable"
        );
        assert_eq!(format!("{}", pairs[1]), "503.bwaves_r-in2 (ref)");
    }

    #[test]
    fn single_input_pair_id_has_no_suffix() {
        let app = AppProfile {
            name: "519.lbm_r".into(),
            suite: Suite::RateFp,
            test: vec![InputProfile {
                name: "only".into(),
                behavior: Behavior::default(),
            }],
            train: vec![],
            reference: vec![],
        };
        assert_eq!(app.pairs(InputSize::Test)[0].id(), "519.lbm_r");
    }

    #[test]
    fn suite_predicates() {
        assert!(Suite::RateInt.is_int());
        assert!(!Suite::RateFp.is_int());
        assert!(Suite::SpeedFp.is_speed());
        assert!(!Suite::RateInt.is_speed());
        assert_eq!(Suite::SpeedFp.label(), "speed fp");
        assert_eq!(InputSize::Ref.label(), "ref");
    }
}
