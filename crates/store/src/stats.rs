//! Cache-effectiveness accounting.
//!
//! A [`CacheStats`] is a bundle of atomic counters shared by every worker
//! thread touching a store: hits, misses, record bytes moved, and the
//! simulation time actually spent on misses. From the last two it estimates
//! the wall time the cache *saved* — hits × mean cost of a miss — which is
//! the number the end-of-run summary reports. All methods take `&self`, so
//! one instance can sit behind an `Arc` (or a plain reference with scoped
//! threads) with no locking.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Thread-safe cache hit/miss/byte accounting.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    miss_nanos: AtomicU64,
}

impl CacheStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records a hit that read `bytes` from the store.
    pub fn record_hit(&self, bytes: usize) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records a miss whose recomputation took `computed_in`.
    pub fn record_miss(&self, computed_in: Duration) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.miss_nanos
            .fetch_add(computed_in.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records a store write of `bytes`.
    pub fn record_store(&self, bytes: usize) {
        self.stores.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            miss_nanos: self.miss_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of a [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Records written.
    pub stores: u64,
    /// Payload bytes read on hits.
    pub bytes_read: u64,
    /// Payload bytes written on stores.
    pub bytes_written: u64,
    /// Nanoseconds spent recomputing on misses.
    pub miss_nanos: u64,
}

impl StatsSnapshot {
    /// Fraction of lookups that hit, or 0 with no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Estimated wall time the cache saved: hits × the mean observed miss
    /// cost. Zero when no miss cost has been observed (an all-hit run has
    /// no in-run basis; the caller knows it skipped everything).
    pub fn saved(&self) -> Duration {
        if self.misses == 0 {
            return Duration::ZERO;
        }
        let mean = self.miss_nanos as f64 / self.misses as f64;
        Duration::from_nanos((mean * self.hits as f64) as u64)
    }
}

fn human_bytes(n: u64) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

impl fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses ({:.1}% hit rate), {} read, {} written",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            human_bytes(self.bytes_read),
            human_bytes(self.bytes_written),
        )?;
        let saved = self.saved();
        if saved > Duration::ZERO {
            write!(f, ", ~{:.1} s of simulation avoided", saved.as_secs_f64())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = CacheStats::new();
        stats.record_hit(100);
        stats.record_hit(50);
        stats.record_miss(Duration::from_millis(200));
        stats.record_store(70);
        let snap = stats.snapshot();
        assert_eq!(snap.hits, 2);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.bytes_read, 150);
        assert_eq!(snap.bytes_written, 70);
        assert!((snap.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn saved_estimate_scales_with_hits() {
        let stats = CacheStats::new();
        for _ in 0..4 {
            stats.record_miss(Duration::from_millis(100));
        }
        for _ in 0..10 {
            stats.record_hit(10);
        }
        let saved = stats.snapshot().saved();
        assert!((saved.as_secs_f64() - 1.0).abs() < 0.01, "saved {saved:?}");
    }

    #[test]
    fn empty_snapshot_is_calm() {
        let snap = CacheStats::new().snapshot();
        assert_eq!(snap.hit_rate(), 0.0);
        assert_eq!(snap.saved(), Duration::ZERO);
        let line = snap.to_string();
        assert!(line.contains("0 hits"));
        assert!(!line.contains("avoided"));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let stats = CacheStats::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        stats.record_hit(1);
                    }
                });
            }
        });
        assert_eq!(stats.snapshot().hits, 4000);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(12), "12 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }
}
