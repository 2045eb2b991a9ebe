//! System configuration mirroring Table I of the paper.
//!
//! The paper's testbed is an Intel Xeon E5-2650L v3 (Haswell): per-core
//! 32 KiB 8-way L1I and L1D, 256 KiB 8-way unified L2, a 30 MiB shared L3,
//! 64-byte lines throughout, 64 GiB of DRAM, and Turbo Boost disabled (fixed
//! clock). [`SystemConfig::haswell_e5_2650l_v3`] reproduces that machine;
//! builders allow the cache-sweep examples and ablation benches to vary it.

use crate::replacement::Policy;

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// Creates a cache configuration, collecting every geometry violation
    /// as coded diagnostics (C001–C003) instead of panicking at the first.
    ///
    /// Info-level notes (e.g. C004 non-power-of-two set count) do not fail
    /// construction; the returned report carries only errors.
    pub fn try_new(
        size_bytes: usize,
        ways: usize,
        line_bytes: usize,
        policy: Policy,
    ) -> Result<Self, simcheck::Report> {
        let candidate = CacheConfig {
            size_bytes,
            ways,
            line_bytes,
            policy,
        };
        let report = crate::lint::check_cache("cache", &candidate);
        if report.has_errors() {
            Err(report)
        } else {
            Ok(candidate)
        }
    }

    /// Creates a cache configuration (deny-by-default wrapper over
    /// [`CacheConfig::try_new`]).
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two, `ways >= 1`, and
    /// `size_bytes` is a positive multiple of `ways * line_bytes`.
    pub fn new(size_bytes: usize, ways: usize, line_bytes: usize, policy: Policy) -> Self {
        Self::try_new(size_bytes, ways, line_bytes, policy).unwrap_or_else(|report| {
            let first = report
                .diagnostics()
                .iter()
                .find(|d| d.severity == simcheck::Severity::Error)
                .expect("error report has an error");
            panic!("{}", first.message)
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// The first byte address a [`crate::cache::Cache`] of this geometry
    /// cannot model: line `2^30 · sets` (a way holds the quotient
    /// `line / sets` in 30 bits). With 64-byte lines that is `2^36 · sets`
    /// bytes: 4 TiB for the paper's 64-set L1D, 1.5 PiB for its
    /// 24,576-set L3. Saturates at `u64::MAX` for geometries whose bound
    /// lies beyond the address space.
    pub fn addr_bound(&self) -> u64 {
        (self.line_bytes as u64)
            .checked_mul(1 << 30)
            .and_then(|bytes| bytes.checked_mul(self.sets() as u64))
            .unwrap_or(u64::MAX)
    }
}

impl SystemConfig {
    /// Lints the full configuration: every cache level's geometry plus the
    /// cross-level and core parameters (rules C001–C011). See
    /// [`crate::lint::check_system`].
    pub fn check(&self) -> simcheck::Report {
        crate::lint::check_system(self)
    }
}

/// Full simulated-system configuration (the paper's Table I analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// L1 instruction cache (per core).
    pub l1i: CacheConfig,
    /// L1 data cache (per core).
    pub l1d: CacheConfig,
    /// Unified L2 cache (per core).
    pub l2: CacheConfig,
    /// Shared last-level cache.
    pub l3: CacheConfig,
    /// The parameters that only price a run (see [`Timing`]).
    pub timing: Timing,
    /// Number of hardware cores available to `speed` runs.
    pub cores: usize,
}

/// The timing half of a [`SystemConfig`]: the parameters that reach a run
/// only through [`crate::pipeline::price`].
///
/// Cache and predictor state never read these, so two systems that differ
/// only in `timing` execute a µop stream through identical state
/// transitions and produce identical event counts; only the cycle count
/// (and seconds) differ. That is what lets a sensitivity sweep price a
/// latency or width point from one base run instead of re-simulating it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Core clock in GHz (Turbo disabled in the paper, so a constant).
    pub clock_ghz: f64,
    /// Maximum micro-ops issued per cycle.
    pub issue_width: usize,
    /// Pipeline refill penalty of a branch mispredict, in cycles
    /// (front-end depth).
    pub mispredict_penalty: u64,
    /// L2 hit latency in cycles (load served by L2).
    pub l2_latency: u64,
    /// L3 hit latency in cycles (load served by L3).
    pub l3_latency: u64,
    /// Main-memory latency in cycles (load served by DRAM).
    pub memory_latency: u64,
}

impl SystemConfig {
    /// The paper's experimental machine: Intel Xeon E5-2650L v3, Haswell,
    /// 1.8 GHz base (Turbo Boost disabled), 12 cores per socket.
    pub fn haswell_e5_2650l_v3() -> Self {
        SystemConfig {
            name: "Intel Xeon E5-2650L v3 (Haswell, Turbo disabled)".to_owned(),
            l1i: CacheConfig::new(32 * 1024, 8, 64, Policy::Lru),
            l1d: CacheConfig::new(32 * 1024, 8, 64, Policy::Lru),
            l2: CacheConfig::new(256 * 1024, 8, 64, Policy::Lru),
            l3: CacheConfig::new(30 * 1024 * 1024, 20, 64, Policy::Lru),
            timing: Timing {
                clock_ghz: 1.8,
                issue_width: 4,
                mispredict_penalty: 15,
                l2_latency: 12,
                l3_latency: 40,
                memory_latency: 220,
            },
            cores: 12,
        }
    }

    /// A deliberately small configuration for fast unit tests.
    pub fn tiny_test() -> Self {
        SystemConfig {
            name: "tiny test system".to_owned(),
            l1i: CacheConfig::new(1024, 2, 64, Policy::Lru),
            l1d: CacheConfig::new(1024, 2, 64, Policy::Lru),
            l2: CacheConfig::new(4096, 4, 64, Policy::Lru),
            l3: CacheConfig::new(16 * 1024, 4, 64, Policy::Lru),
            timing: Timing {
                clock_ghz: 1.0,
                issue_width: 2,
                mispredict_penalty: 8,
                l2_latency: 10,
                l3_latency: 30,
                memory_latency: 100,
            },
            cores: 4,
        }
    }

    /// Returns a copy with a different L3 capacity (ablation helper). The
    /// size is rounded down to the nearest valid multiple of
    /// `ways * line_bytes` (at least one set).
    pub fn with_l3_size(mut self, size_bytes: usize) -> Self {
        let quantum = self.l3.ways * self.l3.line_bytes;
        let size = (size_bytes / quantum).max(1) * quantum;
        self.l3 = CacheConfig::new(size, self.l3.ways, self.l3.line_bytes, self.l3.policy);
        self
    }

    /// Returns a copy with a different L2 capacity (ablation helper). The
    /// size is rounded down like [`SystemConfig::with_l3_size`].
    pub fn with_l2_size(mut self, size_bytes: usize) -> Self {
        let quantum = self.l2.ways * self.l2.line_bytes;
        let size = (size_bytes / quantum).max(1) * quantum;
        self.l2 = CacheConfig::new(size, self.l2.ways, self.l2.line_bytes, self.l2.policy);
        self
    }

    /// Returns a copy with a different replacement policy on all levels.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.l1i.policy = policy;
        self.l1d.policy = policy;
        self.l2.policy = policy;
        self.l3.policy = policy;
        self
    }
}

impl Default for SystemConfig {
    /// Defaults to the paper's machine.
    fn default() -> Self {
        SystemConfig::haswell_e5_2650l_v3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_geometry_matches_table_one() {
        let c = SystemConfig::haswell_e5_2650l_v3();
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d.ways, 8);
        assert_eq!(c.l1i.size_bytes, 32 * 1024);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l3.size_bytes, 30 * 1024 * 1024);
        assert_eq!(c.l1d.line_bytes, 64);
        assert_eq!(c.cores, 12);
    }

    #[test]
    fn set_counts() {
        let c = SystemConfig::haswell_e5_2650l_v3();
        assert_eq!(c.l1d.sets(), 64);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.l3.sets(), 24576);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_line() {
        CacheConfig::new(1024, 2, 48, Policy::Lru);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn rejects_bad_size() {
        CacheConfig::new(1000, 2, 64, Policy::Lru);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn rejects_zero_ways() {
        CacheConfig::new(1024, 0, 64, Policy::Lru);
    }

    #[test]
    fn builders_change_one_level() {
        let c = SystemConfig::haswell_e5_2650l_v3().with_l3_size(15 * 1024 * 1024);
        assert_eq!(c.l3.size_bytes, 15 * 1024 * 1024);
        assert_eq!(c.l2.size_bytes, 256 * 1024);
        let c = c.with_policy(Policy::Fifo);
        assert_eq!(c.l1d.policy, Policy::Fifo);
    }

    #[test]
    fn size_builders_round_to_valid_geometry() {
        // 4 MiB is not a multiple of 20 ways x 64 B; it must round down.
        let c = SystemConfig::haswell_e5_2650l_v3().with_l3_size(4 * 1024 * 1024);
        assert!(c.l3.size_bytes <= 4 * 1024 * 1024);
        assert_eq!(c.l3.size_bytes % (20 * 64), 0);
        let c = c.with_l2_size(300 * 1024);
        assert_eq!(c.l2.size_bytes % (8 * 64), 0);
    }

    #[test]
    fn default_is_haswell() {
        assert_eq!(SystemConfig::default(), SystemConfig::haswell_e5_2650l_v3());
    }
}
