//! Log-linear histograms with bounded-error quantile estimation.
//!
//! Observations are non-negative integers (the pipeline records
//! microseconds). Buckets are log-linear: values below 16 get exact
//! single-value buckets, and every power-of-two range `[2^m, 2^(m+1))`
//! above that is split into 16 linear sub-buckets. A bucket's width is
//! therefore at most 1/16 of its lower bound, which bounds the relative
//! error of any reported quantile at 6.25% — the classic HdrHistogram
//! trade: fixed memory (976 atomic buckets, ~7.7 KiB), lock-free
//! recording, and quantiles that are wrong by at most one sub-bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::is_enabled;

/// Single-value buckets below this threshold (must be a power of two).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power-of-two range above the linear region.
const SUBS: u64 = 16;
/// Total bucket count: 16 linear + 60 ranges (m = 4..=63) x 16 subs.
const BUCKETS: usize = 976;
/// Exemplars retained per bucket (last-k; older ones are evicted).
const EXEMPLARS_PER_BUCKET: usize = 4;

/// The bucket holding value `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let m = 63 - u64::from(v.leading_zeros()); // floor(log2 v), >= 4
        let sub = (v >> (m - 4)) - SUBS; // 0..16 within the range
        (LINEAR_MAX + (m - 4) * SUBS + sub) as usize
    }
}

/// The largest value stored in bucket `index` (inclusive upper bound).
fn bucket_upper(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        index as u64
    } else {
        let m = 4 + (index - LINEAR_MAX as usize) as u64 / SUBS;
        let sub = (index - LINEAR_MAX as usize) as u64 % SUBS;
        let width = 1u64 << (m - 4);
        let lower = (SUBS + sub) << (m - 4);
        lower + (width - 1)
    }
}

/// One retained observation with the trace context it happened under,
/// linking a histogram bucket back to a concrete span in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The recorded value (same unit as the histogram, microseconds for
    /// the pipeline's stage histograms).
    pub value: u64,
    /// Trace id of the span that was current when the value was recorded.
    pub trace_id: u64,
    /// Span id of that span (never 0 — a zero context records nothing).
    pub span_id: u64,
}

struct Core {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first observation.
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
    /// Sparse per-bucket exemplar store (`(bucket index, last-k)`),
    /// touched only by [`Histogram::record_spanned`] with a live span.
    exemplars: Mutex<Vec<(usize, Vec<Exemplar>)>>,
}

/// A lock-free log-linear histogram. Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<Core>,
}

impl Histogram {
    /// A standalone histogram (the registry wraps this; tests use it
    /// directly).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(Core {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
                buckets: buckets.into_boxed_slice(),
                exemplars: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Records one observation (no-op while metrics are disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !is_enabled() {
            return;
        }
        self.record_enabled(v);
    }

    /// Records one observation together with the trace context it happened
    /// under. The value lands in the histogram exactly as [`record`] would
    /// place it; additionally, when `span_id` is non-zero (a live span),
    /// the bucket keeps the observation as one of its last-k
    /// [`Exemplar`]s. A no-op while metrics are disabled, and identical to
    /// `record` under a `SpanContext::NONE`-style zero context — so the
    /// exemplar path inherits the same inert-when-disabled guarantees as
    /// every other layer.
    ///
    /// [`record`]: Histogram::record
    #[inline]
    pub fn record_spanned(&self, v: u64, trace_id: u64, span_id: u64) {
        if !is_enabled() {
            return;
        }
        self.record_enabled(v);
        if span_id != 0 {
            self.capture_exemplar(v, trace_id, span_id);
        }
    }

    /// The slow half of [`record_spanned`]: pushes the observation into
    /// the bucket's last-k exemplar slot. Kept out of line so the
    /// span-absent fast path (tracing off — the common case) stays as
    /// cheap as a plain [`record`].
    ///
    /// [`record`]: Histogram::record
    /// [`record_spanned`]: Histogram::record_spanned
    #[cold]
    fn capture_exemplar(&self, v: u64, trace_id: u64, span_id: u64) {
        let index = bucket_index(v);
        let mut store = self.core.exemplars.lock().unwrap();
        let slot = match store.iter_mut().find(|(i, _)| *i == index) {
            Some((_, slot)) => slot,
            None => {
                store.push((index, Vec::with_capacity(EXEMPLARS_PER_BUCKET)));
                &mut store.last_mut().unwrap().1
            }
        };
        if slot.len() == EXEMPLARS_PER_BUCKET {
            slot.remove(0);
        }
        slot.push(Exemplar {
            value: v,
            trace_id,
            span_id,
        });
    }

    fn record_enabled(&self, v: u64) {
        let c = &self.core;
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a wall-clock timer that records elapsed **microseconds** on
    /// drop. While metrics are disabled the timer never reads the clock.
    pub fn start_timer(&self) -> Timer {
        Timer {
            hist: self.clone(),
            start: is_enabled().then(Instant::now),
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// An upper bound for the `q`-quantile (`0.0 < q <= 1.0`), or `None`
    /// on an empty histogram. The bound is the inclusive upper edge of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the exact observed maximum — so relative error is at
    /// most one sub-bucket width (6.25%) and `quantile(1.0)` is exact.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let c = &self.core;
        let count = c.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, bucket) in c.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= target {
                return Some(bucket_upper(i).min(c.max.load(Ordering::Relaxed)));
            }
        }
        // Racing writers may have bumped `count` after our bucket reads;
        // the maximum is the correct answer for any tail quantile.
        Some(c.max.load(Ordering::Relaxed))
    }

    /// Freezes the current state (count, sum, extrema, exemplars and the
    /// three headline quantiles).
    pub fn snapshot(&self) -> HistSnapshot {
        let c = &self.core;
        let count = c.count.load(Ordering::Relaxed);
        let min = c.min.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: (min != u64::MAX).then_some(min),
            max: (count > 0).then(|| c.max.load(Ordering::Relaxed)),
            exemplars: {
                let store = self.core.exemplars.lock().unwrap();
                let mut out: Vec<(u64, Vec<Exemplar>)> = store
                    .iter()
                    .map(|(i, slot)| (bucket_upper(*i), slot.clone()))
                    .collect();
                out.sort_by_key(|(upper, _)| *upper);
                out
            },
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Scope guard from [`Histogram::start_timer`]: records elapsed
/// microseconds when dropped.
pub struct Timer {
    hist: Histogram,
    start: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_micros() as u64);
        }
    }
}

/// A histogram frozen at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Exact smallest observation, if any.
    pub min: Option<u64>,
    /// Exact largest observation, if any.
    pub max: Option<u64>,
    /// Buckets that captured span exemplars, as `(inclusive upper bound,
    /// last-k exemplars oldest-first)`, ascending by bound. Empty unless
    /// values were recorded via [`Histogram::record_spanned`] under a live
    /// trace span.
    pub exemplars: Vec<(u64, Vec<Exemplar>)>,
    /// Median upper bound.
    pub p50: Option<u64>,
    /// 90th-percentile upper bound.
    pub p90: Option<u64>,
    /// 99th-percentile upper bound.
    pub p99: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn bucket_layout_is_exhaustive_and_monotone() {
        // Every bucket's upper bound maps back to its own index, bounds
        // strictly increase, and the last bucket absorbs u64::MAX.
        let mut prev = None;
        for i in 0..BUCKETS {
            let upper = bucket_upper(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            if let Some(p) = prev {
                assert!(upper > p, "bounds must increase at bucket {i}");
                // Lower edge = previous upper + 1: no gaps, no overlap.
                assert_eq!(bucket_index(p + 1), i, "gap below bucket {i}");
            }
            prev = Some(upper);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn boundary_values_land_in_exact_linear_buckets() {
        for v in 0..LINEAR_MAX {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // First log-linear bucket starts exactly at 16 with width 1.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_upper(16), 16);
        // Width doubles each power of two: [32,33] share a bucket.
        assert_eq!(bucket_index(32), bucket_index(33));
        assert_ne!(bucket_index(33), bucket_index(34));
    }

    #[test]
    fn quantiles_bound_a_known_uniform_distribution() {
        let _on = test_support::enabled();
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        // Exact quantiles are 5000 / 9000 / 9900; estimates may only
        // round *up* to a bucket edge, by at most 6.25%.
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let est = h.quantile(q).unwrap() as f64;
            assert!(est >= exact, "q{q}: {est} underestimates {exact}");
            assert!(
                est <= exact * 1.0625,
                "q{q}: {est} exceeds the 6.25% error bound on {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), Some(10_000), "p100 is the exact max");
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn quantiles_bound_a_two_mode_distribution() {
        let _on = test_support::enabled();
        let h = Histogram::new();
        // 90 fast ops at 100us, 10 slow ops at 50_000us.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let p50 = h.quantile(0.50).unwrap();
        assert!((100..=106).contains(&p50), "p50 {p50} should sit near 100");
        assert_eq!(h.quantile(0.99), Some(50_000), "p99 clamps to exact max");
        let snap = h.snapshot();
        assert_eq!(snap.min, Some(100));
        assert_eq!(snap.max, Some(50_000));
        assert_eq!(snap.count, 100);
    }

    #[test]
    fn empty_and_disabled_histograms_stay_empty() {
        let _off = test_support::disabled();
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.min, snap.max), (0, None, None));
        h.record(42); // metrics disabled: must not record
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn zero_and_extreme_values_record_safely() {
        let _on = test_support::enabled();
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.snapshot().min, Some(0));
        assert_eq!(h.snapshot().max, Some(u64::MAX));
        assert_eq!(h.quantile(0.25), Some(0));
    }

    #[test]
    fn record_spanned_keeps_last_k_exemplars_per_bucket() {
        let _on = test_support::enabled();
        let h = Histogram::new();
        // Six observations into the same exact bucket (value 7): only the
        // last four survive, oldest first.
        for span_id in 1..=6u64 {
            h.record_spanned(7, 0xABCD, span_id);
        }
        h.record_spanned(50_000, 0xABCD, 99);
        let snap = h.snapshot();
        assert_eq!(snap.count, 7, "exemplar path must still count values");
        assert_eq!(snap.exemplars.len(), 2, "two distinct buckets");
        let (upper, slot) = &snap.exemplars[0];
        assert_eq!(*upper, 7);
        let ids: Vec<u64> = slot.iter().map(|e| e.span_id).collect();
        assert_eq!(ids, vec![3, 4, 5, 6], "last-{EXEMPLARS_PER_BUCKET} only");
        assert_eq!(slot[0].trace_id, 0xABCD);
        assert_eq!(snap.exemplars[1].1[0].value, 50_000);
    }

    #[test]
    fn record_spanned_is_inert_when_disabled_or_contextless() {
        let h = Histogram::new();
        let off = test_support::disabled();
        h.record_spanned(7, 1, 2); // metrics disabled: nothing at all
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().exemplars.is_empty());
        drop(off);
        let _on = test_support::enabled();
        h.record_spanned(7, 0, 0); // zero span context: count, no exemplar
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.exemplars.is_empty());
        // The snapshot of a spanned and an unspanned histogram with the
        // same values differ only in the exemplars field.
        let plain = Histogram::new();
        plain.record(7);
        let mut spanned = snap.clone();
        spanned.exemplars.clear();
        assert_eq!(spanned, plain.snapshot());
    }

    #[test]
    fn timer_records_microseconds_only_when_enabled() {
        let h = Histogram::new();
        let off = test_support::disabled();
        drop(h.start_timer()); // disabled: no clock read, no record
        assert_eq!(h.count(), 0);
        drop(off);
        let _on = test_support::enabled();
        {
            let _t = h.start_timer();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 2_000, "2ms sleep is at least 2000us");
    }
}
