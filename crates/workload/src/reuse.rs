//! The four-working-set reuse-distance locality model.
//!
//! Cache miss rates in this reproduction *emerge* from simulating an address
//! stream through real LRU caches, so the generator must produce streams
//! whose reuse-distance distribution lands each access in the right level.
//! The model keeps four regions:
//!
//! 1. a **hot set** much smaller than the L1D — accesses to it always hit L1
//!    after warmup;
//! 2. an **L2 working set**, cyclically walked, sized to exceed the L1 but
//!    (together with expected pollution from lower regions) stay resident in
//!    the L2;
//! 3. an **L3 working set**, sized to defeat the L2 but stay within the L3;
//! 4. a **stream region** of effectively unbounded fresh lines — every
//!    access is a compulsory miss all the way to memory.
//!
//! Drawing regions with the per-level service probabilities derived from the
//! paper's target miss rates then reproduces those rates through an actual
//! cache simulation rather than by assertion. Region sizes adapt to the
//! pollution ratio so residency assumptions hold across the whole range of
//! CPU2017 behaviours (see `DESIGN.md`).

use uarch_sim::config::SystemConfig;

use crate::rng::{threshold, Rng64};

const LINE: u64 = 64;

/// Base virtual addresses for the four regions, far apart so they never
/// alias in the model (caches see them modulo sets, which is fine).
const HOT_BASE: u64 = 0x1000_0000;
const W2_BASE: u64 = 0x2000_0000;
const W3_BASE: u64 = 0x4000_0000;
const STREAM_BASE: u64 = 0x10_0000_0000;

/// Generates data addresses with a target per-cache-level service mix.
#[derive(Debug, Clone)]
pub struct LocalityModel {
    /// Cumulative probability thresholds for (L1, L2, L3) on a
    /// [`Rng64::gen_u53`] draw; the remainder is the stream (memory) share.
    cum: [u64; 3],
    hot_lines: u64,
    w2_lines: u64,
    w2_cursor: u64,
    w3_lines: u64,
    w3_cursor: u64,
    stream_lines: u64,
    stream_cursor: u64,
}

impl LocalityModel {
    /// Builds a model for the given per-level service fractions
    /// `[f_l1, f_l2, f_l3, f_mem]` (must sum to ~1) on `config`'s hierarchy.
    ///
    /// `expected_accesses` is the approximate number of data accesses the
    /// trace will issue; working sets are additionally capped so each region
    /// is revisited several times within the trace (a region larger than the
    /// trace can cover would degenerate into a pure miss stream).
    ///
    /// # Panics
    ///
    /// Panics if fractions are negative or do not sum to ~1 (deny-by-default
    /// wrapper over [`LocalityModel::try_new`]).
    pub fn new(fractions: [f64; 4], config: &SystemConfig, expected_accesses: u64) -> Self {
        Self::try_new(fractions, config, expected_accesses)
            .unwrap_or_else(|report| panic!("{}", report.diagnostics()[0].message))
    }

    /// Builds the model, reporting a denormalized service distribution as a
    /// coded diagnostic (P012: the reuse-distance CDF must be monotone and
    /// normalized) instead of panicking.
    pub fn try_new(
        fractions: [f64; 4],
        config: &SystemConfig,
        expected_accesses: u64,
    ) -> Result<Self, simcheck::Report> {
        let sum: f64 = fractions.iter().sum();
        if !((sum - 1.0).abs() < 1e-6 && fractions.iter().all(|&f| f >= 0.0)) {
            let mut report = simcheck::Report::new();
            report.push(simcheck::Diagnostic::new(
                &simcheck::codes::P012,
                simcheck::Span::field("locality_model", "fractions"),
                format!("service fractions must be non-negative and sum to 1, got {fractions:?}"),
            ));
            return Err(report);
        }
        let [mut f1, mut f2, mut f3, mut f4] = fractions;
        let l1_lines = (config.l1d.size_bytes / config.l1d.line_bytes) as f64;
        let l2_lines = (config.l2.size_bytes / config.l2.line_bytes) as f64;
        let l3_lines = (config.l3.size_bytes / config.l3.line_bytes) as f64;
        let acc = expected_accesses.max(1) as f64;

        // Hot set: a quarter of the L1 keeps it resident under pollution.
        let hot_lines = (l1_lines / 4.0).max(16.0) as u64;

        // Pollution-assisted minimum sizes: a working set only needs reuse
        // distances exceeding the level above it, and traffic from the lower
        // regions inserted between revisits contributes to that distance.
        let miss1 = (f2 + f3 + f4).max(1e-9);
        let w2_min = (2.0 * l1_lines * f2 / miss1).max(64.0);
        // W3 carries an L2-bypass hint (see `uarch_sim::hierarchy`), so it
        // only needs to defeat the L1, not the L2 — which keeps the region
        // small enough to be revisited even at tiny L3-traffic fractions.
        let w3_min = (2.0 * l1_lines * f3 / miss1).max(256.0);

        // Viability: each region must be revisited a few times within the
        // trace budget or it degenerates into a pure compulsory-miss stream
        // mispriced at DRAM latency. Non-viable levels fold away: f2 into
        // the hot set (slightly under-reporting the L1 miss target), f3
        // into the stream (preserving L1/L2 rates; the few L3-range
        // accesses become DRAM misses). Both folds only trigger for
        // behaviours where the folded level carries negligible traffic.
        let w3_lines = if f3 > 1e-9 && f3 * acc >= 3.0 * w3_min {
            let pollution3 = f4 / f3.max(1e-9);
            let raw = (0.5 * l3_lines / (1.0 + pollution3)).min(f3 * acc / 3.0);
            // max-then-min, not `clamp`: on a cache too small for the
            // minimum (`tiny_test`'s 256-line L3) the residency cap wins
            // instead of a panic.
            raw.max(w3_min).min(0.6 * l3_lines) as u64
        } else {
            f4 += f3;
            f3 = 0.0;
            256
        };
        let w2_lines = if f2 > 1e-9 && f2 * acc >= 3.0 * w2_min {
            let pollution2 = (f3 + f4) / f2;
            let raw = (0.6 * l2_lines / (1.0 + pollution2)).min(f2 * acc / 3.0);
            raw.max(w2_min).min(0.7 * l2_lines) as u64
        } else {
            f1 += f2;
            f2 = 0.0;
            64
        };

        // Stream: long enough that it never wraps within a run.
        let stream_lines = (64.0 * l3_lines) as u64;

        Ok(LocalityModel {
            cum: [threshold(f1), threshold(f1 + f2), threshold(f1 + f2 + f3)],
            hot_lines,
            w2_lines,
            w2_cursor: 0,
            w3_lines,
            w3_cursor: 0,
            stream_lines,
            stream_cursor: 0,
        })
    }

    /// Draws the next data address.
    #[inline]
    pub fn next_addr(&mut self, rng: &mut Rng64) -> u64 {
        let u = rng.gen_u53();
        if u < self.cum[0] {
            // Hot set: uniform line, uniform offset within the line.
            let line = rng.gen_below(self.hot_lines);
            HOT_BASE + line * LINE + rng.gen_below(LINE / 8) * 8
        } else if u < self.cum[1] {
            let line = Self::advance(&mut self.w2_cursor, self.w2_lines);
            W2_BASE + line * LINE
        } else if u < self.cum[2] {
            let line = Self::advance(&mut self.w3_cursor, self.w3_lines);
            W3_BASE + line * LINE
        } else {
            let line = Self::advance(&mut self.stream_cursor, self.stream_lines);
            STREAM_BASE + line * LINE
        }
    }

    /// Cyclic cursor step. Cursors are kept pre-wrapped in `[0, lines)` so
    /// the walk needs no division in the address hot path; stepping by one
    /// and resetting at the boundary emits the same sequence as
    /// `cursor % lines` over an ever-growing counter.
    #[inline]
    fn advance(cursor: &mut u64, lines: u64) -> u64 {
        let line = *cursor;
        *cursor += 1;
        if *cursor == lines {
            *cursor = 0;
        }
        line
    }

    /// The W3 (L3-resident) region's address range; loads in this range
    /// should carry the engine's L2-bypass hint.
    pub fn l3_set_range(&self) -> (u64, u64) {
        (W3_BASE, W3_BASE + self.w3_lines * LINE)
    }

    /// Working-set sizes in bytes: (hot, l2 set, l3 set, stream span).
    pub fn region_bytes(&self) -> (u64, u64, u64, u64) {
        (
            self.hot_lines * LINE,
            self.w2_lines * LINE,
            self.w3_lines * LINE,
            self.stream_lines * LINE,
        )
    }

    /// One past the highest address [`LocalityModel::next_addr`] can
    /// return: the end of the highest region (the stream, at 64 GiB plus
    /// 64 × the L3 size). Every cache level must model it (see
    /// [`uarch_sim::config::CacheConfig::addr_bound`]).
    pub fn addr_end(&self) -> u64 {
        let (hot, w2, w3, stream) = self.region_bytes();
        (HOT_BASE + hot)
            .max(W2_BASE + w2)
            .max(W3_BASE + w3)
            .max(STREAM_BASE + stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::hierarchy::{Hierarchy, ServedBy};

    fn haswell() -> SystemConfig {
        SystemConfig::haswell_e5_2650l_v3()
    }

    /// Runs `n` model-driven loads through a real hierarchy and returns the
    /// measured (l1_miss, l2_local_miss, l3_local_miss) rates.
    fn measure(fractions: [f64; 4], n: u64) -> (f64, f64, f64) {
        let config = haswell();
        let mut model = LocalityModel::new(fractions, &config, n);
        let mut h = Hierarchy::new(&config);
        let mut rng = Rng64::seed_from(42);
        let (mut l1h, mut l1m, mut l2h, mut l2m, mut l3h, mut l3m) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        // Warmup third, measure the rest.
        let warm = n / 3;
        for i in 0..n {
            let served = h.load(model.next_addr(&mut rng));
            if i < warm {
                continue;
            }
            match served {
                ServedBy::L1 => l1h += 1,
                ServedBy::L2 => {
                    l1m += 1;
                    l2h += 1;
                }
                ServedBy::L3 => {
                    l1m += 1;
                    l2m += 1;
                    l3h += 1;
                }
                ServedBy::Memory => {
                    l1m += 1;
                    l2m += 1;
                    l3m += 1;
                }
            }
        }
        let m1 = l1m as f64 / (l1h + l1m) as f64;
        let m2 = if l2h + l2m == 0 {
            0.0
        } else {
            l2m as f64 / (l2h + l2m) as f64
        };
        let m3 = if l3h + l3m == 0 {
            0.0
        } else {
            l3m as f64 / (l3h + l3m) as f64
        };
        (m1, m2, m3)
    }

    #[test]
    fn regions_ordered_by_level() {
        let m = LocalityModel::new([0.9, 0.05, 0.03, 0.02], &haswell(), 2_000_000);
        let (hot, w2, w3, stream) = m.region_bytes();
        assert!(hot < 32 * 1024);
        assert!(w2 > 32 * 1024 && w2 <= 256 * 1024);
        assert!(w3 > 256 * 1024 && w3 <= 30 * 1024 * 1024);
        assert!(stream > 30 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_fractions() {
        LocalityModel::new([0.5, 0.1, 0.1, 0.1], &haswell(), 1_000_000);
    }

    #[test]
    fn all_hot_hits_l1() {
        let (m1, _, _) = measure([1.0, 0.0, 0.0, 0.0], 200_000);
        assert!(m1 < 0.01, "l1 miss {m1}");
    }

    #[test]
    fn typical_int_profile_emerges() {
        // Paper-average-ish: m1 = 3.9%, local m2 = 39%, local m3 = 15%.
        let m1t = 0.039;
        let m2t = 0.39;
        let m3t = 0.15;
        let f = [
            1.0 - m1t,
            m1t * (1.0 - m2t),
            m1t * m2t * (1.0 - m3t),
            m1t * m2t * m3t,
        ];
        let (m1, m2, m3) = measure(f, 2_000_000);
        assert!((m1 - m1t).abs() < 0.012, "m1 {m1} vs {m1t}");
        assert!((m2 - m2t).abs() < 0.12, "m2 {m2} vs {m2t}");
        assert!((m3 - m3t).abs() < 0.15, "m3 {m3} vs {m3t}");
    }

    #[test]
    fn memory_bound_profile_emerges() {
        // mcf-like: m1 = 9%, m2 = 66%, m3 = 25%.
        let (m1t, m2t, m3t) = (0.09, 0.66, 0.25);
        let f = [
            1.0 - m1t,
            m1t * (1.0 - m2t),
            m1t * m2t * (1.0 - m3t),
            m1t * m2t * m3t,
        ];
        let (m1, m2, m3) = measure(f, 2_000_000);
        assert!((m1 - m1t).abs() < 0.03, "m1 {m1} vs {m1t}");
        assert!((m2 - m2t).abs() < 0.15, "m2 {m2} vs {m2t}");
        assert!((m3 - m3t).abs() < 0.20, "m3 {m3} vs {m3t}");
    }

    #[test]
    fn streaming_profile_misses_everything() {
        let (m1, m2, m3) = measure([0.2, 0.05, 0.05, 0.7], 500_000);
        assert!(m1 > 0.7, "m1 {m1}");
        assert!(m2 > 0.8, "m2 {m2}");
        assert!(m3 > 0.8, "m3 {m3}");
    }

    #[test]
    fn deterministic_given_seed() {
        let config = haswell();
        let mut a = LocalityModel::new([0.7, 0.1, 0.1, 0.1], &config, 100_000);
        let mut b = LocalityModel::new([0.7, 0.1, 0.1, 0.1], &config, 100_000);
        let mut ra = Rng64::seed_from(7);
        let mut rb = Rng64::seed_from(7);
        for _ in 0..1000 {
            assert_eq!(a.next_addr(&mut ra), b.next_addr(&mut rb));
        }
    }

    #[test]
    fn addresses_stay_in_declared_regions() {
        let config = haswell();
        let mut m = LocalityModel::new([0.25, 0.25, 0.25, 0.25], &config, 100_000);
        let mut rng = Rng64::seed_from(1);
        let (hot, w2, w3, stream) = m.region_bytes();
        for _ in 0..10_000 {
            let a = m.next_addr(&mut rng);
            let ok = (HOT_BASE..HOT_BASE + hot).contains(&a)
                || (W2_BASE..W2_BASE + w2).contains(&a)
                || (W3_BASE..W3_BASE + w3).contains(&a)
                || (STREAM_BASE..STREAM_BASE + stream).contains(&a);
            assert!(ok, "address {a:#x} outside every region");
            assert!(a < m.addr_end(), "address {a:#x} past addr_end");
        }
    }
}
