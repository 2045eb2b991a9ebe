//! simmetrics: always-on process metrics for the characterization pipeline.
//!
//! A dependency-free, thread-safe metrics core: atomic [`Counter`]s and
//! [`Gauge`]s plus log-linear [`Histogram`]s with quantile estimation,
//! behind a static [`Registry`] of namespaced metric names. The pipeline
//! is a batch run, so the registry has one sink: [`json::render`] writes a
//! snapshot document to `results/metrics.json` when the run ends.
//!
//! A second component, the [`flight`] recorder, is a fixed-size lock-free
//! ring of recent pipeline events whose tail is dumped to JSON from a
//! chained panic hook, so scheduler-isolated panics leave a forensic trail.
//!
//! # Zero overhead when disabled
//!
//! Recording is gated on one process-wide [`AtomicBool`], the same
//! sentinel-check discipline the sampling engine uses: when metrics are
//! disabled (the default for library consumers), every record operation is
//! a single relaxed load and an untaken branch. The binaries call
//! [`enable`] at startup — that is the "always-on" in the crate's charter —
//! and a paired bench (`engine_run_100k` vs `engine_run_100k_metrics`)
//! holds the enabled overhead under 5% on the hottest path.
//!
//! Metric names follow Prometheus conventions and are linted by the
//! `M…` rule family ([`lint::check_snapshot`]), wired into the `lint`
//! binary as `--metrics`.

pub mod flight;
pub mod hist;
pub mod json;
pub mod lint;

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub use hist::{Exemplar, HistSnapshot, Histogram, Timer};

// ------------------------------------------------------------ the sentinel

/// Process-wide recording switch. Off by default so embedding the
/// instrumented crates costs one relaxed load per record site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns recording on for the whole process (binaries call this at startup).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording back off. Existing counter values are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------- handles

/// What a registered metric measures; drives the snapshot's `kind` field
/// and the M005 suffix-convention lint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Monotonically increasing event count (`_total` names).
    Counter,
    /// Instantaneous signed level (queue depths, in-flight work).
    Gauge,
    /// Log-linear distribution of non-negative integer observations.
    Histogram,
}

impl Kind {
    /// The kind's name in the JSON snapshot (`counter`, `gauge`,
    /// `histogram`).
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1 (no-op while metrics are disabled).
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if is_enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level (no-op while metrics are disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if is_enabled() {
            self.cell.store(v, Ordering::Relaxed);
        }
    }

    /// Moves the level by `d` (no-op while metrics are disabled).
    #[inline]
    pub fn add(&self, d: i64) {
        if is_enabled() {
            self.cell.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Moves the level by `-d` (no-op while metrics are disabled).
    #[inline]
    pub fn sub(&self, d: i64) {
        self.add(-d);
    }

    /// The current level.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

// --------------------------------------------------------------- registry

enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> Kind {
        match self {
            Handle::Counter(_) => Kind::Counter,
            Handle::Gauge(_) => Kind::Gauge,
            Handle::Histogram(_) => Kind::Histogram,
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

/// A set of named metrics. Registration is get-or-create: asking twice for
/// the same `(name, kind, labels)` returns a handle to the same cell, so
/// hot paths can cache handles in `OnceLock` statics while tests and
/// late-bound sinks re-resolve by name. A re-registration that *conflicts*
/// (same name, different kind) is deliberately appended rather than
/// rejected — the `M002` lint turns it into a diagnostic instead of a
/// runtime panic on an instrumentation path.
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

impl Registry {
    /// An empty registry (const, so the global can live in a `static`).
    pub const fn new() -> Self {
        Registry {
            entries: RwLock::new(Vec::new()),
        }
    }

    /// Registers (or finds) an unlabelled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers (or finds) a counter with constant labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, help, labels, || {
            Handle::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("get_or_insert returned the inserted kind"),
        }
    }

    /// Registers (or finds) an unlabelled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.get_or_insert(name, help, &[], || {
            Handle::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("get_or_insert returned the inserted kind"),
        }
    }

    /// Registers (or finds) an unlabelled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.get_or_insert(name, help, &[], || Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            _ => unreachable!("get_or_insert returned the inserted kind"),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let wanted = make();
        let matches = |e: &Entry| {
            e.name == name
                && e.handle.kind() == wanted.kind()
                && e.labels.len() == labels.len()
                && e.labels
                    .iter()
                    .zip(labels)
                    .all(|((k, v), (wk, wv))| k == wk && v == wv)
        };
        let entries = poison_ok(self.entries.read());
        if let Some(e) = entries.iter().find(|e| matches(e)) {
            return clone_handle(&e.handle);
        }
        drop(entries);
        let mut entries = poison_ok(self.entries.write());
        // Re-check under the write lock: another thread may have raced us.
        if let Some(e) = entries.iter().find(|e| matches(e)) {
            return clone_handle(&e.handle);
        }
        let out = clone_handle(&wanted);
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            handle: wanted,
        });
        out
    }

    /// A point-in-time copy of every registered series, sorted by name
    /// (stable, so registration order breaks ties) for deterministic
    /// snapshot output.
    pub fn snapshot(&self) -> Snapshot {
        let entries = poison_ok(self.entries.read());
        let mut series: Vec<Series> = entries
            .iter()
            .map(|e| Series {
                name: e.name.clone(),
                help: e.help.clone(),
                kind: e.handle.kind(),
                labels: e.labels.clone(),
                value: match &e.handle {
                    Handle::Counter(c) => SeriesValue::Counter(c.value()),
                    Handle::Gauge(g) => SeriesValue::Gauge(g.value()),
                    Handle::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        series.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { series }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

fn clone_handle(h: &Handle) -> Handle {
    match h {
        Handle::Counter(c) => Handle::Counter(c.clone()),
        Handle::Gauge(g) => Handle::Gauge(g.clone()),
        Handle::Histogram(hist) => Handle::Histogram(hist.clone()),
    }
}

/// Lock poisoning only happens if a panic escaped mid-registration; the
/// registry's state is still a valid Vec, so keep serving it.
fn poison_ok<G>(r: Result<G, std::sync::PoisonError<G>>) -> G {
    r.unwrap_or_else(|e| e.into_inner())
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Registers (or finds) an unlabelled counter in the global registry.
pub fn counter(name: &str, help: &str) -> Counter {
    GLOBAL.counter(name, help)
}

/// Registers (or finds) a labelled counter in the global registry.
pub fn counter_with(name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
    GLOBAL.counter_with(name, help, labels)
}

/// Registers (or finds) an unlabelled gauge in the global registry.
pub fn gauge(name: &str, help: &str) -> Gauge {
    GLOBAL.gauge(name, help)
}

/// Registers (or finds) an unlabelled histogram in the global registry.
pub fn histogram(name: &str, help: &str) -> Histogram {
    GLOBAL.histogram(name, help)
}

/// A point-in-time copy of the global registry.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

// --------------------------------------------------------------- snapshot

/// One registered series frozen at snapshot time.
pub struct Series {
    /// Metric name, e.g. `simstore_cache_hits_total`.
    pub name: String,
    /// One-line description given at registration.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: Kind,
    /// Constant labels attached at registration.
    pub labels: Vec<(String, String)>,
    /// The frozen value.
    pub value: SeriesValue,
}

/// The frozen value of one series.
pub enum SeriesValue {
    /// Counter count.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram state (sum, count, extrema, exemplars, quantiles).
    Histogram(HistSnapshot),
}

/// A point-in-time copy of a registry, sorted by metric name.
pub struct Snapshot {
    /// Every series, name-sorted.
    pub series: Vec<Series>,
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Unit tests that flip the process-wide enable flag serialize on this
    /// so parallel test threads don't observe each other's toggles.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    pub struct EnabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    /// Guard from [`disabled`]: holds metrics off until dropped.
    pub struct DisabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            crate::disable();
        }
    }

    /// Enables metrics for the duration of the returned guard.
    pub fn enabled() -> EnabledGuard {
        let g = ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        EnabledGuard(g)
    }

    /// Holds metrics off for the duration of the returned guard, so a test
    /// asserting the disabled path cannot overlap one that enabled it.
    pub fn disabled() -> DisabledGuard {
        DisabledGuard(ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_metrics_record_nothing() {
        let _off = test_support::disabled();
        let r = Registry::new();
        let c = r.counter("t_disabled_total", "x");
        let g = r.gauge("t_disabled_level", "x");
        c.add(7);
        g.set(3);
        assert_eq!(c.value(), 0, "counter moved while disabled");
        assert_eq!(g.value(), 0, "gauge moved while disabled");
    }

    #[test]
    fn enabled_counters_and_gauges_record() {
        let _on = test_support::enabled();
        let r = Registry::new();
        let c = r.counter("t_enabled_total", "x");
        let g = r.gauge("t_enabled_level", "x");
        c.inc();
        c.add(4);
        g.add(10);
        g.sub(3);
        assert_eq!(c.value(), 5);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn registration_is_get_or_create() {
        let _on = test_support::enabled();
        let r = Registry::new();
        let a = r.counter("t_shared_total", "x");
        let b = r.counter("t_shared_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.value(), 2, "same name must share one cell");
        assert_eq!(r.snapshot().series.len(), 1);
    }

    #[test]
    fn conflicting_kinds_register_both_for_the_lint_to_catch() {
        let r = Registry::new();
        let _c = r.counter("t_conflict", "x");
        let _g = r.gauge("t_conflict", "x");
        assert_eq!(r.snapshot().series.len(), 2);
    }

    #[test]
    fn labelled_series_are_distinct() {
        let _on = test_support::enabled();
        let r = Registry::new();
        let a = r.counter_with("t_lab_total", "x", &[("size", "ref")]);
        let b = r.counter_with("t_lab_total", "x", &[("size", "test")]);
        a.add(2);
        b.add(5);
        let snap = r.snapshot();
        assert_eq!(snap.series.len(), 2);
        let values: Vec<u64> = snap
            .series
            .iter()
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => panic!("expected counters"),
            })
            .collect();
        assert_eq!(values.iter().sum::<u64>(), 7);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("t_zz_total", "x");
        r.counter("t_aa_total", "x");
        let snap = r.snapshot();
        let names: Vec<&str> = snap.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["t_aa_total", "t_zz_total"]);
    }
}
