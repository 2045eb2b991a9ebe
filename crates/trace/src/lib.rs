//! Causal tracing for the characterization pipeline, and its one span
//! primitive.
//!
//! Every pipeline stage is a span of this crate, from the binaries'
//! top-level stages down to the per-pair `stage/*` work. One span tree
//! feeds several views: the trace files, the stage table the binaries
//! derive from the run root's children, the profile's stacks, and the
//! latency summaries in `metrics.json`. Spans carry **causality**: when
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
//!   window, error status, and key/value args into its trace on drop.
//!   Within one thread, [`span`] nests automatically under the innermost
//!   live guard.
//! - [`chrome`] — Chrome Trace Event JSON, the one trace file format,
//!   loadable in Perfetto or `about://tracing`, plus a strict parser
//!   that round-trips it and rejects what the format forbids (illegal
//!   names, orphan parents, duplicate ids, bad windows) with a typed
//!   error.
//! - [`analyze`] — self-time aggregation, per-name latency summaries,
//!   critical-path extraction, worker-utilization accounting, and
//!   differential trace comparison with a regression gate (`simgate
//!   trace` drives it).
//!
//! An open root is the only on-switch. [`root`] starts a trace; [`span`]
//! records only under a live context on its thread and [`child_of`] only
//! under a live parent, so code that runs with no root open gets inert
//! guards — no allocation, no clock read, no lock — and the engine path
//! is bit-identical untraced. Each trace collects apart from every other
//! one and [`SpanGuard::drain`] on its root takes exactly its spans, so
//! two roots on two threads (two tests, say) never see each other's
//! records. A root opened with [`sampled_root`] also carries the
//! profiler's sample interval, which reaches every descendant, on any
//! thread, through its [`SpanContext`].

pub mod analyze;
pub mod chrome;

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The root arg a [`sampled_root`] records its sample interval under, so
/// the profile drained from the trace can stamp it.
pub const SAMPLE_INTERVAL_ARG: &str = "sample_interval";

/// The identity of one live span: which trace it belongs to, which span
/// it is, and the trace's profile sample interval. Copy it across a
/// thread boundary and open children with [`child_of`] to keep causality
/// intact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Trace (suite-run) identity; 0 means "no trace".
    pub trace_id: u64,
    /// Span identity within the process; 0 means "no span".
    pub span_id: u64,
    /// Engine ops per profile sample, set by [`sampled_root`] and
    /// inherited by every descendant; 0 means the trace is not profiled.
    pub sample_interval: u64,
}

impl SpanContext {
    /// The absent context: nothing opened under it records.
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
        sample_interval: 0,
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
    /// Wall-clock duration in nanoseconds (saturating: a record built in
    /// memory may end before it starts, a decoded one cannot).
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
    /// Finished spans per open trace. A root's drain or drop removes its
    /// trace, and spans that close after that are dropped.
    traces: Mutex<HashMap<u64, Vec<SpanRecord>>>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    next_tid: AtomicU64,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        epoch: Instant::now(),
        traces: Mutex::new(HashMap::new()),
        next_span: AtomicU64::new(1),
        next_trace: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
    })
}

fn traces() -> std::sync::MutexGuard<'static, HashMap<u64, Vec<SpanRecord>>> {
    collector().traces.lock().unwrap_or_else(|e| e.into_inner())
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
/// guard is live). Capture this on the submitting thread and pass it to
/// workers.
pub fn current_context() -> SpanContext {
    CURRENT.with(Cell::get)
}

/// Opens a root span starting a fresh, unprofiled trace.
pub fn root(name: &str) -> SpanGuard {
    sampled_root(name, 0)
}

/// Opens a root span starting a fresh trace whose engine runs record one
/// profile sample per `interval` ops (0 leaves the trace unprofiled). A
/// nonzero interval is also recorded as the root's
/// [`SAMPLE_INTERVAL_ARG`] arg.
pub fn sampled_root(name: &str, interval: u64) -> SpanGuard {
    let trace_id = collector().next_trace.fetch_add(1, Ordering::Relaxed);
    traces().insert(trace_id, Vec::new());
    let parent = SpanContext {
        trace_id,
        span_id: 0,
        sample_interval: interval,
    };
    let mut guard = open(name, parent);
    if interval != 0 {
        guard.arg(SAMPLE_INTERVAL_ARG, interval);
    }
    guard
}

/// Opens a span nested under this thread's innermost live guard; inert
/// when there is none.
pub fn span(name: &str) -> SpanGuard {
    child_of(current_context(), name)
}

/// Opens a span under an explicitly propagated parent context — the
/// cross-thread edge. Inert under [`SpanContext::NONE`].
pub fn child_of(parent: SpanContext, name: &str) -> SpanGuard {
    if parent.is_none() {
        return SpanGuard { inner: None };
    }
    open(name, parent)
}

/// Opens a span under `parent`; a `parent` with span id 0 makes it its
/// trace's root.
fn open(name: &str, parent: SpanContext) -> SpanGuard {
    let c = collector();
    let ctx = SpanContext {
        span_id: c.next_span.fetch_add(1, Ordering::Relaxed),
        ..parent
    };
    let prev = CURRENT.with(|cur| cur.replace(ctx));
    SpanGuard {
        inner: Some(ActiveSpan {
            record: SpanRecord {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_id: parent.span_id,
                name: name.to_string(),
                tid: thread_tid(),
                start_ns: c.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                error: None,
                args: Vec::new(),
            },
            ctx,
            prev,
        }),
    }
}

struct ActiveSpan {
    record: SpanRecord,
    ctx: SpanContext,
    prev: SpanContext,
}

/// A live span: records itself into its trace when finished or dropped,
/// restoring the thread's previous context either way. Inert (and free)
/// when opened with no live parent. Dropping a root without
/// [`SpanGuard::drain`] discards its trace.
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
    /// Whether this guard records anything (false when it was opened
    /// with no live parent) — gate expensive label formatting on it.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's context, for handing to other threads.
    /// [`SpanContext::NONE`] when inert.
    pub fn context(&self) -> SpanContext {
        self.inner.as_ref().map_or(SpanContext::NONE, |a| a.ctx)
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

    /// Finishes this span and takes its trace's finished spans, sorted by
    /// start time: the whole tree when this is the root. Spans still open
    /// elsewhere are not included, and a root's trace is gone afterwards.
    /// Empty when inert.
    pub fn drain(mut self) -> Vec<SpanRecord> {
        let Some(trace_id) = self.close() else {
            return Vec::new();
        };
        let mut spans = traces().remove(&trace_id).unwrap_or_default();
        spans.sort_by_key(|s| (s.start_ns, s.span_id));
        spans
    }

    /// Records the span into its trace and restores the thread's previous
    /// context; returns the trace id when the span was live.
    fn close(&mut self) -> Option<u64> {
        let mut a = self.inner.take()?;
        a.record.end_ns = collector().epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|cur| cur.set(a.prev));
        let trace_id = a.record.trace_id;
        if let Some(spans) = traces().get_mut(&trace_id) {
            spans.push(a.record);
        }
        Some(trace_id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let root = self.inner.as_ref().is_some_and(|a| a.record.parent_id == 0);
        if let Some(trace_id) = self.close() {
            if root {
                traces().remove(&trace_id);
            }
        }
    }
}

/// Whether `name` is a legal span name: non-empty `/`-separated segments
/// of `[a-z0-9_.-]+`, the charset diff alignment and Perfetto grouping
/// rely on. Profile frames share it (simprof adds a ` [pair]` suffix).
pub fn is_legal_name(name: &str) -> bool {
    name.split('/').all(|segment| {
        !segment.is_empty()
            && segment
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b".-_".contains(&b))
    })
}

/// Writes `<name>.trace.json` (Chrome Trace Event, Perfetto-loadable)
/// under `dir`, creating it if needed, and returns its path.
///
/// # Errors
///
/// Any filesystem error creating the directory or writing the file.
pub fn export(dir: &Path, name: &str, spans: &[SpanRecord]) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, chrome::render(spans))?;
    Ok(path)
}

/// Loads a Chrome Trace Event file through [`chrome::parse`].
///
/// # Errors
///
/// `io::ErrorKind::InvalidData` carrying the decoder's message when the
/// file is not UTF-8 or does not decode, plus any underlying read error.
pub fn load(path: &Path) -> io::Result<Vec<SpanRecord>> {
    let invalid = |e: &dyn fmt::Display| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
    let text = String::from_utf8(std::fs::read(path)?).map_err(|e| invalid(&e))?;
    chrome::parse(&text).map_err(|e| invalid(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording is off until a root opens: every guard opened without
    /// one is inert.
    #[test]
    fn disabled_guards_are_inert() {
        assert_eq!(current_context(), SpanContext::NONE);
        let mut g = span("noop");
        assert!(!g.is_recording());
        assert!(g.context().is_none());
        g.arg("k", 1u64);
        g.set_error("nope");
        let orphan = child_of(SpanContext::NONE, "orphan");
        assert!(!orphan.is_recording());
        assert!(orphan.drain().is_empty());
        drop(g);
        assert_eq!(current_context(), SpanContext::NONE);
    }

    /// Only a root starts a trace: a root opened inside another trace
    /// does not join it, while a parentless `child_of` stays inert rather
    /// than falling back to the current context.
    #[test]
    fn span_without_parent_starts_a_fresh_trace() {
        let a = root("lone/a");
        let a_ctx = a.context();
        let b = child_of(SpanContext::NONE, "lone/b");
        assert!(!b.is_recording(), "NONE no longer degrades to span()");
        drop(b);
        let c = root("lone/c");
        let c_ctx = c.context();
        assert_ne!(c_ctx.trace_id, a_ctx.trace_id);
        let c_spans = c.drain();
        assert_eq!(current_context(), a_ctx);
        let a_spans = a.drain();
        assert_eq!(c_spans.len(), 1);
        assert_eq!(c_spans[0].parent_id, 0);
        assert_eq!(a_spans.len(), 1);
        assert_eq!(a_spans[0].parent_id, 0);
        let d = root("lone/d");
        assert_ne!(
            d.context().trace_id,
            a_ctx.trace_id,
            "fresh trace once a closed"
        );
        assert_ne!(d.context().trace_id, c_ctx.trace_id);
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let root = root("run/test");
        let rctx = root.context();
        let (octx, ictx) = {
            let outer = span("outer");
            let octx = outer.context();
            let inner = span("inner");
            let ictx = inner.context();
            assert_eq!(ictx.trace_id, rctx.trace_id);
            drop(inner);
            drop(outer);
            // After inner+outer close, the root is current again.
            assert_eq!(current_context(), rctx);
            (octx, ictx)
        };
        let spans = root.drain();
        assert_eq!(current_context(), SpanContext::NONE);
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.trace_id == rctx.trace_id));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let parent_of = |id: u64| spans.iter().find(|s| s.span_id == id).unwrap().parent_id;
        assert_eq!(parent_of(ictx.span_id), octx.span_id);
        assert_eq!(parent_of(octx.span_id), rctx.span_id);
        assert_eq!(parent_of(rctx.span_id), 0);
    }

    #[test]
    fn context_propagates_across_threads() {
        let root = sampled_root("run/xthread", 77);
        let parent = root.context();
        assert_eq!(parent.sample_interval, 77);
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
        let spans = root.drain();
        for (jctx, nctx) in results {
            assert_eq!(jctx.trace_id, parent.trace_id);
            assert_eq!(nctx.sample_interval, 77, "the interval reaches workers");
            let job = spans.iter().find(|s| s.span_id == jctx.span_id).unwrap();
            assert_eq!(job.parent_id, parent.span_id);
            let nested = spans.iter().find(|s| s.span_id == nctx.span_id).unwrap();
            assert_eq!(nested.parent_id, jctx.span_id, "worker-local nesting");
        }
        // Worker threads get their own tids, distinct from the main thread.
        let root_rec = spans.iter().find(|s| s.name == "run/xthread").unwrap();
        assert_eq!(root_rec.arg(SAMPLE_INTERVAL_ARG), Some(&ArgValue::U64(77)));
        assert!(spans
            .iter()
            .filter(|s| s.name == "sched/job")
            .all(|s| s.tid != root_rec.tid));
    }

    #[test]
    fn errors_and_args_land_in_the_record() {
        let mut g = root("run/err");
        g.arg("pair", "505.mcf_r");
        g.arg("ops", 1234u64);
        g.arg("hit", false);
        g.set_error("injected failure");
        let spans = g.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].error.as_deref(), Some("injected failure"));
        assert_eq!(
            spans[0].arg("pair"),
            Some(&ArgValue::Str("505.mcf_r".to_string()))
        );
        assert_eq!(spans[0].arg("ops"), Some(&ArgValue::U64(1234)));
        assert_eq!(spans[0].arg("hit"), Some(&ArgValue::Bool(false)));
        assert_eq!(spans[0].arg(SAMPLE_INTERVAL_ARG), None, "unprofiled root");
    }

    #[test]
    fn each_root_drains_only_its_own_trace() {
        let a = root("run/a");
        let b_spans = {
            let b = root("run/b");
            span("b/child").finish();
            b.drain()
        };
        span("a/child").finish();
        let a_spans = a.drain();
        let names = |spans: &[SpanRecord]| -> Vec<String> {
            spans.iter().map(|s| s.name.clone()).collect()
        };
        assert_eq!(names(&b_spans), ["run/b", "b/child"]);
        assert_eq!(names(&a_spans), ["run/a", "a/child"]);
        assert_ne!(a_spans[0].trace_id, b_spans[0].trace_id);
    }

    #[test]
    fn a_dropped_root_discards_its_trace() {
        let root = root("run/dropped");
        let ctx = root.context();
        span("child").finish();
        drop(root);
        assert!(!traces().contains_key(&ctx.trace_id));
        // A straggler closing after its root is dropped, not kept.
        child_of(ctx, "late").finish();
        assert!(!traces().contains_key(&ctx.trace_id));
    }
}
