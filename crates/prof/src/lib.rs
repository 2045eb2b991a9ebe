//! simprof: a deterministic, inert-when-disabled statistical profiler.
//!
//! Wall-clock profilers answer "where did the time go" with samples taken
//! on a timer; their output changes run to run and machine to machine,
//! which makes it useless as a CI gate. This profiler samples on the
//! engine's *op-count clock* instead: every `interval` simulated micro-ops
//! the engine records one sample carrying the logical stack of frames
//! currently open on the executing thread plus three synthesized leaves —
//! the warmup/measured segment, the µop kind, and (for loads) the cache
//! level that served it. Sample positions and weights are then a pure
//! function of the workload, so two runs of the same code produce the same
//! folded profile and a *differential* profile isolates the frame whose
//! work actually grew.
//!
//! The moving parts:
//!
//! - [`frame`] — RAII context frames (`run/reproduce`, `sched/job [pair]`,
//!   `stage/simulate`, `engine/run`), reusing the simtrace span-naming
//!   scheme so profiles and traces share one vocabulary. Inert (one
//!   relaxed atomic load, no allocation) while profiling is disabled.
//! - [`record_engine_sample`] — the engine hot-loop hook: pushes a compact
//!   entry onto a per-thread ring that is flushed to the global collector
//!   in batches, never per sample.
//! - [`drain`] — snapshots everything recorded so far into a [`Profile`]:
//!   interned frame/stack tables plus `(tid, clock, stack, weight)`
//!   samples.
//! - [`Profile::to_text`] / [`Profile::from_text`] — the versioned
//!   line-based artifact (`.prof`), plus [`Profile::folded`] (classic
//!   folded-stack text) and [`flame::flamegraph_svg`] (a self-contained
//!   SVG, no external flamegraph.pl).
//! - [`analyze`](mod@analyze) — self/total attribution tables and the
//!   pct+abs differential regression gate behind `simgate prof --diff`.
//! - [`lint`](mod@lint) — the simcheck F-rule family over artifacts.
//!
//! Threading model: frames are per-thread context; samples recorded on a
//! worker thread carry whatever frames that worker has open. Thread ids
//! and per-thread clocks depend on scheduling, but the *folded* view
//! aggregates across threads by stack, so folded weights — and everything
//! the diff gate compares — are deterministic for a deterministic
//! workload.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod analyze;
pub mod flame;
pub mod lint;

/// Artifact schema version written by [`Profile::to_text`]. Version 2
/// added the `end <sample count>` trailer, so a truncated artifact no
/// longer parses as a shorter profile.
pub const SCHEMA_VERSION: u32 = 2;

/// Default op-count sampling interval (one sample per this many ops).
pub const DEFAULT_INTERVAL: u64 = 10_000;

/// µop-kind code carried by an engine sample: ALU.
pub const KIND_ALU: u8 = 0;
/// µop-kind code carried by an engine sample: load.
pub const KIND_LOAD: u8 = 1;
/// µop-kind code carried by an engine sample: store.
pub const KIND_STORE: u8 = 2;
/// µop-kind code carried by an engine sample: branch.
pub const KIND_BRANCH: u8 = 3;

/// Cache-level code: load served by the L1D.
pub const LEVEL_L1: u8 = 0;
/// Cache-level code: load served by the L2.
pub const LEVEL_L2: u8 = 1;
/// Cache-level code: load served by the L3.
pub const LEVEL_L3: u8 = 2;
/// Cache-level code: load served by memory.
pub const LEVEL_MEM: u8 = 3;
/// Cache-level code: sample is not a load (no memory leaf).
pub const LEVEL_NONE: u8 = 0xff;

static ENABLED: AtomicBool = AtomicBool::new(false);
static INTERVAL: AtomicU64 = AtomicU64::new(0);
/// Interval as configured at the last `enable`, kept readable after
/// `disable` so a post-run `drain` can still stamp the artifact.
static LAST_INTERVAL: AtomicU64 = AtomicU64::new(DEFAULT_INTERVAL);

/// Flush a thread's pending ring to the collector at this many samples.
const RING_FLUSH_AT: usize = 1024;

/// Enables profiling at [`DEFAULT_INTERVAL`].
pub fn enable() {
    enable_with_interval(DEFAULT_INTERVAL);
}

/// Enables profiling, sampling every `interval` simulated ops (minimum 1).
pub fn enable_with_interval(interval: u64) {
    let interval = interval.max(1);
    let c = collector();
    *c.started.lock().unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
    LAST_INTERVAL.store(interval, Ordering::SeqCst);
    INTERVAL.store(interval, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables profiling. Already-recorded samples stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    INTERVAL.store(0, Ordering::SeqCst);
}

/// Whether profiling is currently enabled (one relaxed load — callers
/// gate any formatting work on this, like the other observability layers).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The engine's sampling interval in ops; `0` means profiling is off and
/// the hot loop must take its unhooked path.
#[inline]
pub fn engine_interval() -> u64 {
    INTERVAL.load(Ordering::Relaxed)
}

// ------------------------------------------------------------- collector

/// One raw engine sample after leaving its thread: the interned context
/// stack plus the leaf codes, expanded into full stacks at [`drain`].
#[derive(Clone, Copy)]
struct RawSample {
    tid: u32,
    clock: u64,
    stack_id: u32,
    weight: u64,
    kind: u8,
    level: u8,
    warmup: bool,
}

/// Global frame/stack interner. Stack id 0 is the empty stack.
struct Interner {
    frames: Vec<String>,
    frame_ids: HashMap<String, u32>,
    stacks: Vec<Vec<u32>>,
    stack_ids: HashMap<Vec<u32>, u32>,
}

impl Interner {
    fn new() -> Self {
        let mut stack_ids = HashMap::new();
        stack_ids.insert(Vec::new(), 0);
        Interner {
            frames: Vec::new(),
            frame_ids: HashMap::new(),
            stacks: vec![Vec::new()],
            stack_ids,
        }
    }

    fn frame(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.frame_ids.get(name) {
            return id;
        }
        let id = self.frames.len() as u32;
        self.frames.push(name.to_string());
        self.frame_ids.insert(name.to_string(), id);
        id
    }

    fn stack(&mut self, frames: Vec<u32>) -> u32 {
        if let Some(&id) = self.stack_ids.get(&frames) {
            return id;
        }
        let id = self.stacks.len() as u32;
        self.stacks.push(frames.clone());
        self.stack_ids.insert(frames, id);
        id
    }
}

struct Collector {
    interner: Mutex<Interner>,
    samples: Mutex<Vec<RawSample>>,
    started: Mutex<Option<Instant>>,
    next_tid: AtomicU32,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        interner: Mutex::new(Interner::new()),
        samples: Mutex::new(Vec::new()),
        started: Mutex::new(None),
        next_tid: AtomicU32::new(1),
    })
}

struct ThreadState {
    tid: u32,
    /// Current frame-id stack (root first) and its interned id, cached so
    /// the per-sample hook never touches the interner lock.
    frames: Vec<u32>,
    stack_id: u32,
    /// Persistent per-thread sample clock: strictly increases across every
    /// engine run this thread ever executes, so per-thread monotonicity
    /// (rule F002) holds for a whole campaign, not just one run.
    clock: u64,
    pending: Vec<RawSample>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: collector().next_tid.fetch_add(1, Ordering::Relaxed),
        frames: Vec::new(),
        stack_id: 0,
        clock: 0,
        pending: Vec::new(),
    });
}

fn flush_state(t: &mut ThreadState) {
    if t.pending.is_empty() {
        return;
    }
    let mut samples = collector()
        .samples
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    samples.append(&mut t.pending);
}

/// Moves this thread's pending samples into the global collector. Called
/// automatically when the ring fills, when the outermost frame closes,
/// and by [`drain`] for the draining thread; long-lived worker threads
/// that sample outside any frame should call it when their batch ends.
pub fn flush_thread() {
    THREAD.with(|t| flush_state(&mut t.borrow_mut()));
}

// ----------------------------------------------------------------- frames

/// RAII guard for one logical frame; see [`frame`].
#[must_use = "a frame is open only while its guard lives"]
#[derive(Debug)]
pub struct FrameGuard {
    /// `Some(previous stack id)` when the frame was actually pushed.
    prev: Option<u32>,
}

/// Pushes `name` as a frame on this thread's logical stack until the
/// returned guard drops. Inert while profiling is disabled. Frame names
/// follow the simtrace span-naming scheme (`sched/job`, `stage/simulate`),
/// optionally suffixed with a bracketed pair label (`sched/job [505.mcf_r
/// /refrate-1]`) so per-pair attribution folds separately.
pub fn frame(name: &str) -> FrameGuard {
    if !is_enabled() {
        return FrameGuard { prev: None };
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let (fid, sid) = {
            let mut interner = collector()
                .interner
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            let fid = interner.frame(name);
            let mut stack = t.frames.clone();
            stack.push(fid);
            (fid, interner.stack(stack))
        };
        let prev = t.stack_id;
        t.frames.push(fid);
        t.stack_id = sid;
        FrameGuard { prev: Some(prev) }
    })
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            THREAD.with(|t| {
                let mut t = t.borrow_mut();
                t.frames.pop();
                t.stack_id = prev;
                if t.frames.is_empty() {
                    // Outermost frame closed: hand the thread's samples to
                    // the collector so a later drain on another thread
                    // (the scheduler's submitting thread) sees them.
                    flush_state(&mut t);
                }
            });
        }
    }
}

/// Records one engine sample standing for `weight` ops: the current
/// thread's frame stack plus `(kind, level, warmup)` leaf codes. Called by
/// the engine every `interval` ops — per-thread state only, no locks
/// unless the ring fills.
#[inline]
pub fn record_engine_sample(weight: u64, kind: u8, level: u8, warmup: bool) {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.clock += weight;
        let sample = RawSample {
            tid: t.tid,
            clock: t.clock,
            stack_id: t.stack_id,
            weight,
            kind,
            level,
            warmup,
        };
        t.pending.push(sample);
        if t.pending.len() >= RING_FLUSH_AT {
            flush_state(&mut t);
        }
    });
}

// ---------------------------------------------------------------- profile

/// One attributed sample: `weight` ops spent under `stack_id` on thread
/// `tid`, taken at per-thread op-clock `clock`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Recording thread (dense ids assigned in first-sample order).
    pub tid: u32,
    /// Per-thread op clock at the sample (strictly increasing per tid).
    pub clock: u64,
    /// Index into [`Profile::stacks`].
    pub stack_id: u32,
    /// Ops this sample stands for (the sampling interval).
    pub weight: u64,
}

/// A drained profile: interned frame/stack tables plus samples.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Profile {
    /// Sampling interval the recording ran with (ops per sample).
    pub interval: u64,
    /// Wall-clock span of the recording in nanoseconds (enable → drain);
    /// display-only — every gate compares op weights.
    pub wall_ns: u64,
    /// Frame id → name.
    pub frames: Vec<String>,
    /// Stack id → frame ids, root first, never empty.
    pub stacks: Vec<Vec<u32>>,
    /// Samples sorted by `(tid, clock)`.
    pub samples: Vec<Sample>,
}

impl Profile {
    /// Total sampled weight (ops) across all samples.
    pub fn total_weight(&self) -> u64 {
        self.samples.iter().map(|s| s.weight).sum()
    }

    /// The stack of `sample` as frame names, root first; `None` when the
    /// sample or one of its frames dangles (lint rules F001/F006).
    pub fn stack_names(&self, sample: &Sample) -> Option<Vec<&str>> {
        let stack = self.stacks.get(sample.stack_id as usize)?;
        stack
            .iter()
            .map(|&f| self.frames.get(f as usize).map(String::as_str))
            .collect()
    }

    /// Folded-stack text: one `root;child;leaf weight` line per distinct
    /// stack, aggregated across threads, sorted by path — the classic
    /// flamegraph interchange format. Samples with dangling references
    /// are skipped (the linter reports them).
    pub fn folded(&self) -> String {
        let mut agg: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for s in &self.samples {
            if let Some(names) = self.stack_names(s) {
                *agg.entry(names.join(";")).or_insert(0) += s.weight;
            }
        }
        let mut out = String::new();
        for (path, weight) in agg {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }

    /// Serializes to the versioned line-based artifact format: a
    /// `simprof <version>` header, the `interval`, `wall_ns`, `frame`,
    /// `stack` and `sample` records, and an `end <sample count>` trailer.
    pub fn to_text(&self) -> String {
        let mut out = format!("simprof {SCHEMA_VERSION}\n");
        out.push_str(&format!("interval {}\n", self.interval));
        out.push_str(&format!("wall_ns {}\n", self.wall_ns));
        for (i, name) in self.frames.iter().enumerate() {
            out.push_str(&format!("frame {i} {name}\n"));
        }
        for (i, stack) in self.stacks.iter().enumerate() {
            let ids: Vec<String> = stack.iter().map(u32::to_string).collect();
            out.push_str(&format!("stack {i} {}\n", ids.join(";")));
        }
        for s in &self.samples {
            out.push_str(&format!(
                "sample {} {} {} {}\n",
                s.tid, s.clock, s.stack_id, s.weight
            ));
        }
        out.push_str(&format!("end {}\n", self.samples.len()));
        out
    }

    /// Parses the artifact format.
    ///
    /// Structural errors (unknown record, bad field count, id gaps) fail
    /// with [`ParseError::Malformed`], and so does a truncated artifact: the
    /// `end` trailer must be the last record, end in a newline, and count
    /// exactly the samples parsed. A header version above
    /// [`SCHEMA_VERSION`] fails with [`ParseError::SchemaTooNew`].
    /// Cross-reference validity (stack → frame, sample → stack) is *not*
    /// checked here — that is the linter's job (F001/F006), and analyses
    /// skip dangling samples.
    pub fn from_text(text: &str) -> Result<Profile, ParseError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| malformed(1, "empty file"))?;
        let version: u32 = header
            .strip_prefix("simprof ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| malformed(1, "header must be `simprof <version>`"))?;
        if version > SCHEMA_VERSION {
            return Err(ParseError::SchemaTooNew {
                found: version,
                supported: SCHEMA_VERSION,
            });
        }
        let mut p = Profile::default();
        let mut end: Option<(usize, u64)> = None;
        let mut last = 1;
        for (idx, line) in lines {
            let lineno = idx + 1;
            last = lineno;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if end.is_some() {
                return Err(malformed(lineno, "record after the `end` trailer"));
            }
            let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
            match kind {
                "end" => end = Some((lineno, parse_u64(rest, lineno, "end sample count")?)),
                "interval" => {
                    p.interval = parse_u64(rest, lineno, "interval")?;
                }
                "wall_ns" => {
                    p.wall_ns = parse_u64(rest, lineno, "wall_ns")?;
                }
                "frame" => {
                    let (id, name) = rest
                        .split_once(' ')
                        .ok_or_else(|| malformed(lineno, "frame needs `<id> <name>`"))?;
                    let id: usize = id
                        .parse()
                        .map_err(|_| malformed(lineno, "frame id is not a number"))?;
                    if id != p.frames.len() {
                        return Err(malformed(lineno, "frame ids must be sequential from 0"));
                    }
                    p.frames.push(name.to_string());
                }
                "stack" => {
                    let (id, ids) = rest
                        .split_once(' ')
                        .ok_or_else(|| malformed(lineno, "stack needs `<id> <fid;fid;...>`"))?;
                    let id: usize = id
                        .parse()
                        .map_err(|_| malformed(lineno, "stack id is not a number"))?;
                    if id != p.stacks.len() {
                        return Err(malformed(lineno, "stack ids must be sequential from 0"));
                    }
                    let frames: Result<Vec<u32>, ParseError> = ids
                        .split(';')
                        .map(|f| {
                            f.parse()
                                .map_err(|_| malformed(lineno, "stack frame id is not a number"))
                        })
                        .collect();
                    p.stacks.push(frames?);
                }
                "sample" => {
                    let fields: Vec<&str> = rest.split(' ').collect();
                    if fields.len() != 4 {
                        return Err(malformed(
                            lineno,
                            "sample needs `<tid> <clock> <stack> <weight>`",
                        ));
                    }
                    p.samples.push(Sample {
                        tid: parse_u32(fields[0], lineno, "sample tid")?,
                        clock: parse_u64(fields[1], lineno, "sample clock")?,
                        stack_id: parse_u32(fields[2], lineno, "sample stack")?,
                        weight: parse_u64(fields[3], lineno, "sample weight")?,
                    });
                }
                other => {
                    return Err(malformed(lineno, &format!("unknown record '{other}'")));
                }
            }
        }
        match end {
            None => Err(malformed(
                last,
                "no `end` trailer: the artifact is truncated",
            )),
            Some((line, count)) if count != p.samples.len() as u64 => Err(malformed(
                line,
                &format!(
                    "`end` counts {count} samples but {} were parsed",
                    p.samples.len()
                ),
            )),
            Some(_) if !text.ends_with('\n') => Err(malformed(
                last,
                "the `end` trailer is not newline-terminated: the artifact is truncated",
            )),
            Some(_) => Ok(p),
        }
    }
}

/// Why an artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A structurally invalid line.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The header names a schema this build does not understand.
    SchemaTooNew {
        /// Version in the header.
        found: u32,
        /// Newest version this build supports.
        supported: u32,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed { line, message } => write!(f, "line {line}: {message}"),
            ParseError::SchemaTooNew { found, supported } => write!(
                f,
                "profile schema {found} is newer than the supported {supported}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

fn malformed(line: usize, message: &str) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.to_string(),
    }
}

fn parse_u64(s: &str, line: usize, what: &str) -> Result<u64, ParseError> {
    s.trim()
        .parse()
        .map_err(|_| malformed(line, &format!("{what} is not a number")))
}

/// Parses a 32-bit id; a value above `u32::MAX` is malformed rather than
/// truncated (a corrupt stack id of 2³² must not alias stack 0).
fn parse_u32(s: &str, line: usize, what: &str) -> Result<u32, ParseError> {
    u32::try_from(parse_u64(s, line, what)?)
        .map_err(|_| malformed(line, &format!("{what} exceeds u32::MAX")))
}

/// Drains everything recorded so far into a [`Profile`] and leaves the
/// collector empty. Frame/stack tables are rebuilt per drain, so only
/// referenced entries survive and ids are dense; the engine's leaf codes
/// are expanded into `seg/…`, `uop/…`, and `mem/…` frames here, off the
/// hot path.
pub fn drain() -> Profile {
    flush_thread();
    let c = collector();
    let raw: Vec<RawSample> =
        std::mem::take(&mut *c.samples.lock().unwrap_or_else(|p| p.into_inner()));
    let wall_ns = c
        .started
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .map(|t| t.elapsed().as_nanos() as u64)
        .unwrap_or(0);
    let global = c.interner.lock().unwrap_or_else(|p| p.into_inner());

    let mut local = Interner::new();
    // Drop the placeholder empty stack: profile stacks are never empty
    // because every sample gains at least the seg and uop leaves.
    local.stacks.clear();
    local.stack_ids.clear();
    // Dense tids in first-sample order so artifacts do not leak the
    // process's global thread counter.
    let mut tids: HashMap<u32, u32> = HashMap::new();
    let mut samples = Vec::with_capacity(raw.len());
    for r in &raw {
        let Some(context) = global.stacks.get(r.stack_id as usize) else {
            continue;
        };
        let mut frames: Vec<u32> = Vec::with_capacity(context.len() + 3);
        for &fid in context {
            if let Some(name) = global.frames.get(fid as usize) {
                frames.push(local.frame(name));
            }
        }
        frames.push(local.frame(if r.warmup {
            "seg/warmup"
        } else {
            "seg/measured"
        }));
        frames.push(local.frame(match r.kind {
            KIND_ALU => "uop/alu",
            KIND_LOAD => "uop/load",
            KIND_STORE => "uop/store",
            _ => "uop/branch",
        }));
        match r.level {
            LEVEL_L1 => frames.push(local.frame("mem/l1")),
            LEVEL_L2 => frames.push(local.frame("mem/l2")),
            LEVEL_L3 => frames.push(local.frame("mem/l3")),
            LEVEL_MEM => frames.push(local.frame("mem/dram")),
            _ => {}
        }
        let stack_id = local.stack(frames);
        let next = tids.len() as u32;
        let tid = *tids.entry(r.tid).or_insert(next);
        samples.push(Sample {
            tid,
            clock: r.clock,
            stack_id,
            weight: r.weight,
        });
    }
    samples.sort_by_key(|s| (s.tid, s.clock, s.stack_id));
    Profile {
        interval: LAST_INTERVAL.load(Ordering::SeqCst),
        wall_ns,
        frames: local.frames,
        stacks: local.stacks,
        samples,
    }
}

// ----------------------------------------------------------------- export

/// Paths written by [`export`].
#[derive(Debug, Clone)]
pub struct ProfilePaths {
    /// The versioned `.prof` artifact (machine-read by `simgate prof`).
    pub prof: PathBuf,
    /// Folded-stack text (`.folded`), flamegraph.pl-compatible.
    pub folded: PathBuf,
    /// The self-contained flamegraph SVG.
    pub svg: PathBuf,
}

/// Writes `<name>.prof`, `<name>.folded`, and `<name>.svg` under `dir`
/// (created if needed) and returns the paths.
///
/// # Errors
///
/// Propagates I/O errors from directory creation or the writes.
pub fn export(dir: &Path, name: &str, profile: &Profile) -> io::Result<ProfilePaths> {
    std::fs::create_dir_all(dir)?;
    let paths = ProfilePaths {
        prof: dir.join(format!("{name}.prof")),
        folded: dir.join(format!("{name}.folded")),
        svg: dir.join(format!("{name}.svg")),
    };
    std::fs::write(&paths.prof, profile.to_text())?;
    std::fs::write(&paths.folded, profile.folded())?;
    std::fs::write(&paths.svg, flame::flamegraph_svg(name, profile))?;
    Ok(paths)
}

/// Reads a `.prof` artifact, mapping parse failures to `InvalidData`.
///
/// # Errors
///
/// I/O errors from the read; `InvalidData` for malformed or
/// newer-than-supported artifacts.
pub fn load(path: &Path) -> io::Result<Profile> {
    let text = std::fs::read_to_string(path)?;
    Profile::from_text(&text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

/// Serialized test coordination for the global profiler state, mirroring
/// the other observability layers' `test_support`.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static ENABLE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    /// Holds profiling enabled; disables and drains on drop.
    pub struct EnabledGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            super::disable();
            super::drain();
        }
    }

    /// Enables profiling at `interval` for the guard's lifetime. Tests
    /// that toggle the global profiler must hold this guard so they
    /// serialize against each other.
    pub fn enabled(interval: u64) -> EnabledGuard {
        let lock = ENABLE_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        // A panicked predecessor may have left state behind.
        super::disable();
        super::drain();
        super::enable_with_interval(interval);
        EnabledGuard { _lock: lock }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_inert() {
        let _guard = test_support::enabled(100);
        disable();
        let _f = frame("run/test");
        let p = drain();
        assert!(p.samples.is_empty());
        assert!(p.frames.is_empty());
    }

    #[test]
    fn samples_fold_under_open_frames() {
        let _guard = test_support::enabled(50);
        {
            let _root = frame("run/test");
            let _inner = frame("stage/simulate");
            record_engine_sample(50, KIND_LOAD, LEVEL_L2, false);
            record_engine_sample(50, KIND_ALU, LEVEL_NONE, true);
        }
        let p = drain();
        assert_eq!(p.samples.len(), 2);
        assert_eq!(p.total_weight(), 100);
        let folded = p.folded();
        assert!(
            folded.contains("run/test;stage/simulate;seg/measured;uop/load;mem/l2 50"),
            "{folded}"
        );
        assert!(
            folded.contains("run/test;stage/simulate;seg/warmup;uop/alu 50"),
            "{folded}"
        );
    }

    #[test]
    fn clocks_are_monotonic_within_a_thread() {
        let _guard = test_support::enabled(10);
        for _ in 0..5 {
            record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
        }
        let p = drain();
        let clocks: Vec<u64> = p.samples.iter().map(|s| s.clock).collect();
        assert!(clocks.windows(2).all(|w| w[0] < w[1]), "{clocks:?}");
    }

    #[test]
    fn artifact_round_trips() {
        let _guard = test_support::enabled(25);
        {
            let _root = frame("run/test");
            record_engine_sample(25, KIND_STORE, LEVEL_NONE, false);
            record_engine_sample(25, KIND_LOAD, LEVEL_MEM, false);
        }
        let p = drain();
        let text = p.to_text();
        let back = Profile::from_text(&text).expect("round trip");
        assert_eq!(p, back);
        assert!(text.starts_with("simprof 2\n"), "{text}");
        assert!(text.ends_with("\nend 2\n"), "{text}");
    }

    #[test]
    fn every_truncation_is_an_error() {
        let _guard = test_support::enabled(10);
        {
            let _root = frame("run/test");
            for kind in [KIND_ALU, KIND_LOAD, KIND_STORE] {
                let _stage = frame("stage/simulate");
                for _ in 0..4 {
                    record_engine_sample(10, kind, LEVEL_MEM, false);
                }
            }
        }
        let p = drain();
        let text = p.to_text();
        assert_eq!(Profile::from_text(&text).expect("whole text"), p);
        assert!(p.samples.len() >= 10, "a two-digit count: {text}");
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(
                Profile::from_text(&text[..cut]).is_err(),
                "truncated at byte {cut} of {} parsed",
                text.len()
            );
        }
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        for keep in 0..lines.len() {
            let cut = lines[..keep].concat();
            assert!(
                matches!(Profile::from_text(&cut), Err(ParseError::Malformed { .. })),
                "first {keep} of {} lines parsed",
                lines.len()
            );
        }
    }

    #[test]
    fn trailer_must_be_last_and_agree_with_the_samples() {
        let base = "simprof 2\nframe 0 run/x\nstack 0 0\nsample 0 5 0 7\n";
        assert!(Profile::from_text(&format!("{base}end 1\n")).is_ok());
        for (tail, line, what) in [
            ("", 4, "no `end` trailer"),
            ("end 2\n", 5, "counts 2 samples but 1"),
            ("end 1\nsample 0 6 0 7\n", 6, "after the `end` trailer"),
            ("end x\n", 5, "end sample count"),
        ] {
            match Profile::from_text(&format!("{base}{tail}")).unwrap_err() {
                ParseError::Malformed { line: at, message } => {
                    assert_eq!(at, line, "{tail:?}: {message}");
                    assert!(message.contains(what), "{tail:?}: {message}");
                }
                other => panic!("{tail:?}: wrong error {other:?}"),
            }
        }
    }

    #[test]
    fn cross_thread_samples_fold_by_stack() {
        let _guard = test_support::enabled(10);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _f = frame("sched/job [pair]");
                    record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = drain();
        assert_eq!(p.samples.len(), 3);
        let folded = p.folded();
        assert!(
            folded.contains("sched/job [pair];seg/measured;uop/alu 30"),
            "three threads, one folded line: {folded}"
        );
        // Dense tids, one per thread.
        let tids: std::collections::HashSet<u32> = p.samples.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3);
        assert!(tids.iter().all(|&t| t < 3));
    }

    #[test]
    fn schema_too_new_is_typed() {
        let err = Profile::from_text("simprof 99\n").unwrap_err();
        assert!(matches!(err, ParseError::SchemaTooNew { found: 99, .. }));
        let err = Profile::from_text("flamegraph?\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 1, .. }));
    }

    #[test]
    fn malformed_lines_name_their_line() {
        let err = Profile::from_text("simprof 2\nfrobnicate 3\n").unwrap_err();
        match err {
            ParseError::Malformed { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("frobnicate"), "{message}");
            }
            other => panic!("wrong error {other:?}"),
        }
        // Non-sequential ids are structural errors, not lint findings.
        let err = Profile::from_text("simprof 2\nframe 3 run/x\n").unwrap_err();
        assert!(matches!(err, ParseError::Malformed { line: 2, .. }));
    }

    #[test]
    fn sample_ids_above_u32_are_malformed_not_truncated() {
        let base = "simprof 2\nframe 0 run/x\nstack 0 0\n";
        let ok = Profile::from_text(&format!("{base}sample 4294967295 5 0 7\nend 1\n")).unwrap();
        assert_eq!(ok.samples[0].tid, u32::MAX);
        for (sample, what) in [
            ("sample 0 5 4294967296 7", "sample stack"),
            ("sample 4294967296 5 0 7", "sample tid"),
            ("sample 0 5 18446744073709551615 7", "sample stack"),
        ] {
            match Profile::from_text(&format!("{base}{sample}\n")).unwrap_err() {
                ParseError::Malformed { line, message } => {
                    assert_eq!(line, 4, "{sample}");
                    assert!(message.contains(what), "{sample}: {message}");
                    assert!(message.contains("u32::MAX"), "{sample}: {message}");
                }
                other => panic!("{sample}: wrong error {other:?}"),
            }
        }
    }

    #[test]
    fn export_writes_all_three_artifacts() {
        let _guard = test_support::enabled(10);
        record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
        let p = drain();
        let dir = std::env::temp_dir().join(format!("simprof-export-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let paths = export(&dir, "test", &p).expect("export");
        assert_eq!(load(&paths.prof).expect("load"), p);
        assert!(std::fs::read_to_string(&paths.folded)
            .unwrap()
            .contains("uop/alu"));
        assert!(std::fs::read_to_string(&paths.svg)
            .unwrap()
            .starts_with("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
