//! The full cache hierarchy: L1I + L1D, unified L2, shared L3.
//!
//! A demand access walks down the levels until it hits; every level it missed
//! in is filled on the way back (inclusive allocation, matching how the
//! paper's `mem_load_uops_retired.lX_hit/lX_miss` counters see a Haswell).

use crate::cache::{AccessResult, Cache, CacheStats};
use crate::config::SystemConfig;
use crate::prefetch::{PrefetchStats, Prefetcher, StreamDetector};

/// Which level finally served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Hit in the first-level cache (L1D for data, L1I for fetches).
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed L1 and L2, hit L3.
    L3,
    /// Missed all caches; served by main memory.
    Memory,
}

/// A three-plus-one level cache hierarchy with per-level statistics.
///
/// # Example
///
/// ```
/// use uarch_sim::config::SystemConfig;
/// use uarch_sim::hierarchy::{Hierarchy, ServedBy};
///
/// let mut h = Hierarchy::new(&SystemConfig::tiny_test());
/// assert_eq!(h.load(0x1000), ServedBy::Memory); // cold
/// assert_eq!(h.load(0x1000), ServedBy::L1);     // now everywhere
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    prefetcher: Prefetcher,
    stream: StreamDetector,
    prefetch_stats: PrefetchStats,
}

impl Hierarchy {
    /// Builds cold caches from the system configuration.
    pub fn new(config: &SystemConfig) -> Self {
        Hierarchy::with_prefetcher(config, Prefetcher::None)
    }

    /// Builds cold caches with a data prefetcher (ablation knob; the
    /// default is none because the miss-rate targets already include the
    /// real machine's prefetch effects).
    pub fn with_prefetcher(config: &SystemConfig, prefetcher: Prefetcher) -> Self {
        Hierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            prefetcher,
            stream: StreamDetector::new(),
            prefetch_stats: PrefetchStats::default(),
        }
    }

    /// Prefetch statistics accumulated so far.
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch_stats
    }

    /// Issues a data load; returns the serving level.
    pub fn load(&mut self, addr: u64) -> ServedBy {
        self.data_access(addr, false)
    }

    /// Issues a data load with a non-temporal / streaming hint: on an L1
    /// miss the line fills from the L3 without allocating in the L2.
    ///
    /// The workload model uses this for its L3-resident working set, whose
    /// full-size counterpart would occupy many megabytes; allocating its
    /// scaled stand-in through the 256 KiB L2 would let it thrash the L2
    /// working set in a way the real data does not (see DESIGN.md).
    pub fn load_bypass_l2(&mut self, addr: u64) -> ServedBy {
        match self.l1d.access(addr, false) {
            AccessResult::Hit => ServedBy::L1,
            AccessResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    self.l3.access(wb, true);
                }
                match self.l3.access(addr, false) {
                    AccessResult::Hit => ServedBy::L3,
                    AccessResult::Miss { .. } => ServedBy::Memory,
                }
            }
        }
    }

    /// Issues a data store (write-allocate); returns the serving level.
    pub fn store(&mut self, addr: u64) -> ServedBy {
        self.data_access(addr, true)
    }

    fn data_access(&mut self, addr: u64, write: bool) -> ServedBy {
        match self.l1d.access(addr, write) {
            AccessResult::Hit => ServedBy::L1,
            AccessResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    // Dirty L1 victims land in L2 (write-back).
                    self.l2.access(wb, true);
                }
                let served = self.lower_levels(addr);
                self.maybe_prefetch(addr);
                served
            }
        }
    }

    /// Issues prefetches into the L2 according to the configured model.
    fn maybe_prefetch(&mut self, miss_addr: u64) {
        let line = miss_addr >> 6;
        let depth = match self.prefetcher {
            Prefetcher::None => 0,
            Prefetcher::NextLine => 1,
            Prefetcher::Stream => self.stream.observe(line),
        };
        for ahead in 1..=u64::from(depth) {
            let target = (line + ahead) << 6;
            if !self.l2.contains(target) {
                // Fill L2 (and L3, keeping inclusion) without touching L1.
                self.l3.access(target, false);
                self.l2.access(target, false);
                self.prefetch_stats.issued += 1;
            }
        }
    }

    /// Issues an instruction fetch; returns the serving level.
    ///
    /// Fetch misses bypass L2 *allocation* and fill from the L3: with the
    /// data working sets scaled down for simulation, letting multi-megabyte
    /// text segments compete for the 256 KiB L2 would crowd out the data
    /// sets in a way the full-size workloads do not (see DESIGN.md). The
    /// front-end stall cost of the miss is still charged by the timing
    /// model.
    pub fn fetch(&mut self, addr: u64) -> ServedBy {
        match self.l1i.access(addr, false) {
            AccessResult::Hit => ServedBy::L1,
            AccessResult::Miss { .. } => match self.l3.access(addr, false) {
                AccessResult::Hit => ServedBy::L3,
                AccessResult::Miss { .. } => ServedBy::Memory,
            },
        }
    }

    fn lower_levels(&mut self, addr: u64) -> ServedBy {
        match self.l2.access(addr, false) {
            AccessResult::Hit => ServedBy::L2,
            AccessResult::Miss { writeback } => {
                if let Some(wb) = writeback {
                    self.l3.access(wb, true);
                }
                match self.l3.access(addr, false) {
                    AccessResult::Hit => ServedBy::L3,
                    AccessResult::Miss { .. } => ServedBy::Memory,
                }
            }
        }
    }

    /// L1 instruction-cache statistics.
    pub fn l1i_stats(&self) -> CacheStats {
        self.l1i.stats()
    }

    /// L1 data-cache statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// L3 statistics.
    pub fn l3_stats(&self) -> CacheStats {
        self.l3.stats()
    }

    /// Number of L3 sets holding storage (see [`Cache::materialized_sets`]).
    pub fn l3_materialized_sets(&self) -> usize {
        self.l3.materialized_sets()
    }

    /// Invalidates all levels and clears statistics.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(&SystemConfig::tiny_test())
    }

    #[test]
    fn cold_access_reaches_memory_then_l1() {
        let mut h = tiny();
        assert_eq!(h.load(0x0), ServedBy::Memory);
        assert_eq!(h.load(0x0), ServedBy::L1);
    }

    #[test]
    fn l2_serves_after_l1_eviction() {
        let mut h = tiny();
        // tiny L1D: 1 KiB, 2-way, 64B lines -> 8 sets. Lines 0x000 and
        // 0x200*k map to set 0. Fill set 0 beyond 2 ways.
        h.load(0x0000);
        h.load(0x0200);
        h.load(0x0400); // evicts 0x0000 from L1
                        // L2 (4 KiB) still holds 0x0000.
        assert_eq!(h.load(0x0000), ServedBy::L2);
    }

    #[test]
    fn l3_serves_after_l2_eviction() {
        let mut h = tiny();
        // Touch enough distinct lines to overflow L2 (4 KiB = 64 lines) but
        // not L3 (16 KiB = 256 lines).
        for i in 0..128u64 {
            h.load(i * 64);
        }
        // The earliest line fell out of L1 and L2 but lives in L3.
        assert_eq!(h.load(0x0), ServedBy::L3);
    }

    #[test]
    fn per_level_counts_are_consistent() {
        let mut h = tiny();
        for i in 0..512u64 {
            h.load((i % 64) * 64);
        }
        let l1 = h.l1d_stats();
        let l2 = h.l2_stats();
        // Every L1 miss produced at least an L2 access (plus writebacks).
        assert!(l2.accesses() >= l1.misses);
        assert_eq!(l1.accesses(), 512);
    }

    #[test]
    fn fetch_uses_l1i_not_l1d() {
        let mut h = tiny();
        h.fetch(0x4000);
        assert_eq!(h.l1i_stats().accesses(), 1);
        assert_eq!(h.l1d_stats().accesses(), 0);
    }

    #[test]
    fn store_then_load_hits_l1() {
        let mut h = tiny();
        assert_eq!(h.store(0x80), ServedBy::Memory);
        assert_eq!(h.load(0x80), ServedBy::L1);
    }

    #[test]
    fn flush_resets() {
        let mut h = tiny();
        h.load(0x0);
        h.flush();
        assert_eq!(h.l1d_stats().accesses(), 0);
        assert_eq!(h.load(0x0), ServedBy::Memory);
    }

    #[test]
    fn next_line_prefetcher_turns_stream_misses_into_l2_hits() {
        let config = SystemConfig::tiny_test();
        let mut off = Hierarchy::new(&config);
        let mut on = Hierarchy::with_prefetcher(&config, Prefetcher::NextLine);
        for i in 0..500u64 {
            off.load(i * 64);
            on.load(i * 64);
        }
        assert!(on.prefetch_stats().issued > 0);
        assert!(
            on.l2_stats().hits > off.l2_stats().hits + 100,
            "prefetching must convert stream misses into L2 hits: {} vs {}",
            on.l2_stats().hits,
            off.l2_stats().hits
        );
    }

    #[test]
    fn stream_prefetcher_ramps_only_on_streams() {
        let config = SystemConfig::tiny_test();
        // Random-ish (non-sequential) misses: stream prefetcher stays quiet.
        let mut h = Hierarchy::with_prefetcher(&config, Prefetcher::Stream);
        for i in 0..200u64 {
            h.load(((i * 7919) % 4096) * 64 + (1 << 22));
        }
        let random_issued = h.prefetch_stats().issued;
        // Pure stream: it ramps up.
        let mut h2 = Hierarchy::with_prefetcher(&config, Prefetcher::Stream);
        for i in 0..200u64 {
            h2.load(i * 64 + (1 << 23));
        }
        assert!(h2.prefetch_stats().issued > random_issued * 3 + 10);
    }

    #[test]
    fn default_hierarchy_never_prefetches() {
        let mut h = tiny();
        for i in 0..200u64 {
            h.load(i * 64);
        }
        assert_eq!(h.prefetch_stats().issued, 0);
    }

    #[test]
    fn streaming_misses_everywhere() {
        let mut h = tiny();
        // Unique lines forever: every access should be a full miss.
        for i in 0..1000u64 {
            assert_eq!(h.load(i * 64 + 1_000_000), ServedBy::Memory);
        }
    }
}
