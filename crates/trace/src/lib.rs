//! Causal tracing for the characterization pipeline, and its one span
//! primitive.
//!
//! Every pipeline stage is a span of this crate, from the binaries'
//! top-level stages down to the per-pair `stage/*` work. One span tree
//! feeds several views: the trace files, the stage table the binaries
//! derive from the run root's children, and the histogram exemplars
//! simmetrics keeps. Spans carry **causality**: when
//! the scheduler fans a suite run out across worker threads, a worker's
//! `stage/simulate` span still nests under the pair job that ran it and
//! the run root that submitted it, through explicit contexts that survive
//! thread boundaries:
//!
//! - [`SpanContext`] — a `(trace_id, span_id)` pair naming one live span.
//!   The submitting thread captures [`current_context`], hands it to the
//!   worker, and the worker opens children with [`child_of`]; the whole
//!   run becomes one tree regardless of which thread ran what.
//! - [`SpanGuard`] — a scope guard recording name, thread, wall-clock
//!   window, error status, and key/value args into the process-global
//!   collector on drop. Within one thread, [`span`] nests automatically
//!   under the innermost live guard.
//! - [`chrome`] — Chrome Trace Event JSON, loadable in Perfetto or
//!   `about://tracing`, plus a strict parser that round-trips it.
//! - [`binfmt`] — a compact versioned binary codec for the same records.
//! - [`analyze`] — self-time aggregation, critical-path extraction,
//!   worker-utilization accounting, and differential trace comparison
//!   with a regression gate (`simgate trace` drives it).
//! - [`lint`] — `T…` rule checks (name legality, orphan parents,
//!   non-monotonic timestamps, duplicate ids) over a collected trace.
//!
//! Like simmetrics, recording is gated on one process-wide flag: while
//! [`is_enabled`] is false every guard is inert — no allocation, no clock
//! read, no lock — so the engine path is bit-identical with tracing off.

pub mod analyze;
pub mod binfmt;
pub mod chrome;
pub mod lint;

use std::cell::Cell;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns span recording off process-wide.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are currently being recorded. One relaxed atomic load —
/// cheap enough to gate label formatting on hot paths.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The identity of one live span: which trace it belongs to and which span
/// it is. Copy it across a thread boundary and open children with
/// [`child_of`] to keep causality intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Trace (suite-run) identity; 0 means "no trace".
    pub trace_id: u64,
    /// Span identity within the process; 0 means "no span".
    pub span_id: u64,
}

impl SpanContext {
    /// The absent context: children of it start fresh traces.
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
    };

    /// True when this context names no live span.
    pub fn is_none(&self) -> bool {
        self.span_id == 0
    }
}

/// A value attached to a span as a key/value arg.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Counts, bytes, ids.
    U64(u64),
    /// Rates and ratios.
    F64(f64),
    /// Pair ids, outcomes, paths.
    Str(String),
    /// Flags (cache hit, retried).
    Bool(bool),
}

impl fmt::Display for ArgValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgValue::U64(v) => write!(f, "{v}"),
            ArgValue::F64(v) => write!(f, "{v}"),
            ArgValue::Str(s) => f.write_str(s),
            ArgValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(v as u64)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// The completed record of one span, as collected, exported, and analyzed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique (process-wide) span id.
    pub span_id: u64,
    /// Parent span id; 0 for trace roots.
    pub parent_id: u64,
    /// Span name, `/`-separated hierarchy (`stage/simulate`).
    pub name: String,
    /// Small per-thread index (1-based, assigned on first span per thread).
    pub tid: u32,
    /// Start, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector epoch.
    pub end_ns: u64,
    /// Error message when the span finished in error status.
    pub error: Option<String>,
    /// Key/value args in insertion order.
    pub args: Vec<(String, ArgValue)>,
}

impl SpanRecord {
    /// Wall-clock duration in nanoseconds (0 for corrupt end < start).
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The arg under `key`, if present.
    pub fn arg(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

struct Collector {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    next_tid: AtomicU64,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_span: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
    static TID: Cell<u32> = const { Cell::new(0) };
}

fn thread_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            return v;
        }
        let assigned = collector().next_tid.fetch_add(1, Ordering::Relaxed) as u32;
        t.set(assigned);
        assigned
    })
}

/// The innermost live span on this thread ([`SpanContext::NONE`] when no
/// guard is live or tracing is disabled). Capture this on the submitting
/// thread and pass it to workers.
pub fn current_context() -> SpanContext {
    if !is_enabled() {
        return SpanContext::NONE;
    }
    CURRENT.with(Cell::get)
}

/// Opens a root span starting a fresh trace.
pub fn root(name: &str) -> SpanGuard {
    open(name, SpanContext::NONE, true)
}

/// Opens a span nested under this thread's innermost live guard (a fresh
/// trace root when there is none).
pub fn span(name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { inner: None };
    }
    open(name, CURRENT.with(Cell::get), false)
}

/// Opens a span under an explicitly propagated parent context — the
/// cross-thread edge. A [`SpanContext::NONE`] parent degrades to [`span`].
pub fn child_of(parent: SpanContext, name: &str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { inner: None };
    }
    if parent.is_none() {
        span(name)
    } else {
        open(name, parent, false)
    }
}

fn open(name: &str, parent: SpanContext, force_root: bool) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { inner: None };
    }
    let c = collector();
    let span_id = c.next_span.fetch_add(1, Ordering::Relaxed);
    let (trace_id, parent_id) = if force_root || parent.is_none() {
        (c.next_trace.fetch_add(1, Ordering::Relaxed), 0)
    } else {
        (parent.trace_id, parent.span_id)
    };
    let prev = CURRENT.with(|cur| cur.replace(SpanContext { trace_id, span_id }));
    SpanGuard {
        inner: Some(ActiveSpan {
            record: SpanRecord {
                trace_id,
                span_id,
                parent_id,
                name: name.to_string(),
                tid: thread_tid(),
                start_ns: c.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                error: None,
                args: Vec::new(),
            },
            prev,
        }),
    }
}

struct ActiveSpan {
    record: SpanRecord,
    prev: SpanContext,
}

/// A live span: records itself into the collector when finished or
/// dropped, restoring the thread's previous context either way. Inert
/// (and free) while tracing is disabled.
#[derive(Debug)]
#[must_use = "a span measures the scope it is held across"]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

impl fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("name", &self.record.name)
            .field("span_id", &self.record.span_id)
            .finish()
    }
}

impl SpanGuard {
    /// Whether this guard records anything (false when tracing was
    /// disabled at creation) — gate expensive label formatting on it.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's context, for handing to other threads.
    /// [`SpanContext::NONE`] when inert.
    pub fn context(&self) -> SpanContext {
        match &self.inner {
            Some(a) => SpanContext {
                trace_id: a.record.trace_id,
                span_id: a.record.span_id,
            },
            None => SpanContext::NONE,
        }
    }

    /// Attaches a key/value arg (pair id, op count, hit flag, …).
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if let Some(a) = &mut self.inner {
            a.record.args.push((key.to_string(), value.into()));
        }
    }

    /// Marks the span as failed with `message` (retried attempts, panics).
    pub fn set_error(&mut self, message: &str) {
        if let Some(a) = &mut self.inner {
            a.record.error = Some(message.to_string());
        }
    }

    /// Finishes the span now (drop does the same).
    pub fn finish(self) {}

    fn close(&mut self) {
        if let Some(mut a) = self.inner.take() {
            a.record.end_ns = collector().epoch.elapsed().as_nanos() as u64;
            CURRENT.with(|cur| cur.set(a.prev));
            collector()
                .spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(a.record);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Takes every finished span out of the collector, sorted by start time.
/// Live (unfinished) guards are not included — finish the root first.
pub fn drain() -> Vec<SpanRecord> {
    let mut spans =
        std::mem::take(&mut *collector().spans.lock().unwrap_or_else(|e| e.into_inner()));
    spans.sort_by_key(|s| (s.start_ns, s.span_id));
    spans
}

/// Writes `<name>.trace.json` (Chrome Trace Event, Perfetto-loadable) and
/// `<name>.trace.bin` (the compact binary codec) under `dir`, creating it
/// if needed. Returns both paths.
///
/// # Errors
///
/// Any filesystem error creating the directory or writing the files.
pub fn export(dir: &Path, name: &str, spans: &[SpanRecord]) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{name}.trace.json"));
    let bin_path = dir.join(format!("{name}.trace.bin"));
    std::fs::write(&json_path, chrome::render(spans))?;
    std::fs::write(&bin_path, binfmt::encode(spans))?;
    Ok((json_path, bin_path))
}

/// Loads a trace file in either on-disk format: Chrome Trace Event JSON
/// (sniffed by a leading `{` or `[`) or the compact binary codec.
///
/// # Errors
///
/// `io::ErrorKind::InvalidData` when the bytes parse as neither format,
/// plus any underlying read error.
pub fn load(path: &Path) -> io::Result<Vec<SpanRecord>> {
    let bytes = std::fs::read(path)?;
    let first = bytes
        .iter()
        .find(|b| !b.is_ascii_whitespace())
        .copied()
        .unwrap_or(0);
    if first == b'{' || first == b'[' {
        let text = String::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        chrome::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    } else {
        binfmt::decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Test-only coordination: the tracer is process-global, so tests that
/// enable it serialize on one lock and start from a drained collector.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes every test that flips the process-wide enable flag.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    /// Guard from [`enabled`]: disables tracing and drains leftovers on
    /// drop.
    pub struct EnabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    /// Guard from [`disabled`]: holds tracing off until dropped.
    pub struct DisabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            crate::disable();
            let _ = crate::drain();
        }
    }

    /// Enables tracing for the duration of the returned guard, starting
    /// from an empty collector.
    pub fn enabled() -> EnabledGuard {
        let g = ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = crate::drain();
        crate::enable();
        EnabledGuard(g)
    }

    /// Holds tracing off for the duration of the returned guard, so a test
    /// asserting the disabled path cannot overlap one that enabled it.
    pub fn disabled() -> DisabledGuard {
        DisabledGuard(ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guards_are_inert() {
        let _off = test_support::disabled();
        assert!(!is_enabled());
        let mut g = span("noop");
        assert!(!g.is_recording());
        assert!(g.context().is_none());
        g.arg("k", 1u64);
        g.set_error("nope");
        drop(g);
        assert_eq!(current_context(), SpanContext::NONE);
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let _on = test_support::enabled();
        let root = root("run/test");
        let rctx = root.context();
        {
            let outer = span("outer");
            let octx = outer.context();
            let inner = span("inner");
            assert_eq!(inner.context().trace_id, rctx.trace_id);
            drop(inner);
            drop(outer);
            // After inner+outer close, the root is current again.
            assert_eq!(current_context(), rctx);
            let spans = {
                let c = collector();
                let guard = c.spans.lock().unwrap();
                guard.clone()
            };
            let inner_rec = spans.iter().find(|s| s.name == "inner").unwrap();
            assert_eq!(inner_rec.parent_id, octx.span_id);
            let outer_rec = spans.iter().find(|s| s.name == "outer").unwrap();
            assert_eq!(outer_rec.parent_id, rctx.span_id);
        }
        drop(root);
        let spans = drain();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace_id == rctx.trace_id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn context_propagates_across_threads() {
        let _on = test_support::enabled();
        let root = root("run/xthread");
        let parent = root.context();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut job = child_of(parent, "sched/job");
                    job.arg("index", i as u64);
                    let nested = span("stage/simulate");
                    let nctx = nested.context();
                    drop(nested);
                    (job.context(), nctx)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        drop(root);
        let spans = drain();
        for (jctx, nctx) in results {
            assert_eq!(jctx.trace_id, parent.trace_id);
            let job = spans.iter().find(|s| s.span_id == jctx.span_id).unwrap();
            assert_eq!(job.parent_id, parent.span_id);
            let nested = spans.iter().find(|s| s.span_id == nctx.span_id).unwrap();
            assert_eq!(nested.parent_id, jctx.span_id, "worker-local nesting");
        }
        // Worker threads get their own tids, distinct from the main thread.
        let root_rec = spans.iter().find(|s| s.name == "run/xthread").unwrap();
        assert!(spans
            .iter()
            .filter(|s| s.name == "sched/job")
            .all(|s| s.tid != root_rec.tid));
    }

    #[test]
    fn errors_and_args_land_in_the_record() {
        let _on = test_support::enabled();
        {
            let mut g = root("run/err");
            g.arg("pair", "505.mcf_r");
            g.arg("ops", 1234u64);
            g.arg("hit", false);
            g.set_error("injected failure");
        }
        let spans = drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].error.as_deref(), Some("injected failure"));
        assert_eq!(
            spans[0].arg("pair"),
            Some(&ArgValue::Str("505.mcf_r".to_string()))
        );
        assert_eq!(spans[0].arg("ops"), Some(&ArgValue::U64(1234)));
        assert_eq!(spans[0].arg("hit"), Some(&ArgValue::Bool(false)));
    }

    #[test]
    fn span_without_parent_starts_a_fresh_trace() {
        let _on = test_support::enabled();
        let a = span("lone/a");
        let b_ctx = {
            let b = child_of(SpanContext::NONE, "lone/b");
            b.context()
        };
        // `b` was opened while `a` was current, so NONE degrades to span().
        assert_eq!(b_ctx.trace_id, a.context().trace_id);
        drop(a);
        let c = span("lone/c");
        let c_ctx = c.context();
        drop(c);
        assert_ne!(c_ctx.trace_id, b_ctx.trace_id, "fresh trace once a closed");
    }
}
