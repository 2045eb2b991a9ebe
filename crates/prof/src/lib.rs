//! simprof: a deterministic statistical profiler whose stacks are the
//! simtrace span tree.
//!
//! Wall-clock profilers answer "where did the time go" with samples taken
//! on a timer; their output changes run to run and machine to machine,
//! which makes it useless as a CI gate. This profiler samples on the
//! engine's *op-count clock* instead: every `interval` simulated micro-ops
//! the engine records one sample carrying the span open on the executing
//! thread plus three synthesized leaves — the warmup/measured segment, the
//! µop kind, and (for loads) the cache level that served it. Sample
//! positions and weights are then a pure function of the workload, so two
//! runs of the same code produce the same folded profile and a
//! *differential* profile isolates the frame whose work actually grew.
//!
//! The moving parts:
//!
//! - A trace opened with `simtrace::sampled_root` is the only on-switch:
//!   its interval travels in every descendant's `SpanContext`, across
//!   scheduler workers too, and the engine reads it once per run. With no
//!   sampled root in scope nothing is recorded.
//! - [`record_engine_sample`] — the engine hot-loop hook: stamps the
//!   current span id onto a compact entry in a per-thread ring that is
//!   flushed to the collector in batches, never per sample.
//! - [`drain`] — takes one trace's samples into a [`Profile`]: each stack
//!   is the sample's span walked up to the root (`run/reproduce`, a stage,
//!   `sched/batch`, `sched/job [pair]`, `sched/attempt`, `stage/simulate`,
//!   `engine/run`), then the leaves; frame and stack tables are numbered in
//!   sorted order, so the same samples give the same tables whichever
//!   thread flushed first.
//! - [`Profile::to_text`] / [`Profile::from_text`] — the versioned
//!   line-based artifact (`.prof`), plus [`Profile::folded`] (classic
//!   folded-stack text) and [`flame::flamegraph_svg`] (a self-contained
//!   SVG, no external flamegraph.pl).
//! - [`analyze`](mod@analyze) — self/total attribution tables and the
//!   pct+abs differential regression gate behind `simgate prof --diff`.
//!
//! Threading model: thread ids and per-thread clocks depend on
//! scheduling, but the *folded* view aggregates across threads by stack,
//! so folded weights — and everything the diff gate compares — are
//! deterministic for a deterministic workload.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};

use simtrace::{ArgValue, SpanRecord};

pub mod analyze;
pub mod flame;

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

/// Flush a thread's pending ring to the collector at this many samples.
const RING_FLUSH_AT: usize = 1024;

// ------------------------------------------------------------- collector

/// One raw engine sample after leaving its thread: the span it was taken
/// under plus the leaf codes, expanded into a full stack at [`drain`].
#[derive(Clone, Copy)]
struct RawSample {
    trace_id: u64,
    span_id: u64,
    tid: u32,
    clock: u64,
    weight: u64,
    kind: u8,
    level: u8,
    warmup: bool,
}

struct Collector {
    /// Flushed samples per trace id, held until [`drain`] takes that trace.
    samples: Mutex<HashMap<u64, Vec<RawSample>>>,
    next_tid: AtomicU32,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        samples: Mutex::new(HashMap::new()),
        next_tid: AtomicU32::new(1),
    })
}

struct ThreadState {
    tid: u32,
    /// Persistent per-thread sample clock: strictly increases across every
    /// engine run this thread ever executes, so the per-thread
    /// monotonicity [`Profile::from_text`] requires holds for a whole
    /// campaign, not just one run.
    clock: u64,
    pending: Vec<RawSample>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = RefCell::new(ThreadState {
        tid: collector().next_tid.fetch_add(1, Ordering::Relaxed),
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
    for s in t.pending.drain(..) {
        samples.entry(s.trace_id).or_default().push(s);
    }
}

/// Moves this thread's pending samples into the collector. The engine
/// calls it at the end of every profiled run and [`drain`] calls it for
/// the draining thread; anything else that records samples on a worker
/// thread calls it before the worker's job ends.
pub fn flush_thread() {
    THREAD.with(|t| flush_state(&mut t.borrow_mut()));
}

/// Records one engine sample standing for `weight` ops: the thread's
/// current span plus `(kind, level, warmup)` leaf codes. Called by the
/// engine every `interval` ops — per-thread state only, no locks unless
/// the ring fills. Without a live span it records nothing.
#[inline]
pub fn record_engine_sample(weight: u64, kind: u8, level: u8, warmup: bool) {
    let ctx = simtrace::current_context();
    if ctx.is_none() {
        return;
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        t.clock += weight;
        let sample = RawSample {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            tid: t.tid,
            clock: t.clock,
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
    /// sample or one of its frames dangles, which a profile built in
    /// memory can do and a decoded one cannot.
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
    /// are skipped.
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
    /// exactly the samples parsed. So does a broken invariant: a frame
    /// name off the span scheme ([`is_legal_frame_name`]), an empty stack
    /// or one naming a frame not yet declared, a sample naming a stack
    /// not yet declared, a per-tid clock that does not strictly increase,
    /// and weights whose sum overflows a `u64`. A header version above
    /// [`SCHEMA_VERSION`] fails with [`ParseError::SchemaTooNew`].
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
        let mut clocks: HashMap<u32, u64> = HashMap::new();
        let mut total: u64 = 0;
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
                    if !is_legal_frame_name(name) {
                        return Err(malformed(
                            lineno,
                            &format!("frame name {name:?} does not follow the span-naming scheme"),
                        ));
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
                            let fid: u32 = f
                                .parse()
                                .map_err(|_| malformed(lineno, "stack frame id is not a number"))?;
                            if fid as usize >= p.frames.len() {
                                return Err(malformed(
                                    lineno,
                                    &format!("stack {id} names undeclared frame {fid}"),
                                ));
                            }
                            Ok(fid)
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
                    let sample = Sample {
                        tid: parse_u32(fields[0], lineno, "sample tid")?,
                        clock: parse_u64(fields[1], lineno, "sample clock")?,
                        stack_id: parse_u32(fields[2], lineno, "sample stack")?,
                        weight: parse_u64(fields[3], lineno, "sample weight")?,
                    };
                    if sample.stack_id as usize >= p.stacks.len() {
                        return Err(malformed(
                            lineno,
                            &format!("sample names undeclared stack {}", sample.stack_id),
                        ));
                    }
                    if let Some(prev) = clocks.insert(sample.tid, sample.clock) {
                        if sample.clock <= prev {
                            return Err(malformed(
                                lineno,
                                &format!(
                                    "tid {} clock went {prev} -> {} (must strictly increase)",
                                    sample.tid, sample.clock
                                ),
                            ));
                        }
                    }
                    total = total
                        .checked_add(sample.weight)
                        .ok_or_else(|| malformed(lineno, "sample weights sum past u64::MAX"))?;
                    p.samples.push(sample);
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

/// Whether `name` is a legal frame name: a span name
/// ([`simtrace::is_legal_name`]), optionally followed by one bracketed
/// pair label (`sched/job [505.mcf_r/refrate-1]`).
pub fn is_legal_frame_name(name: &str) -> bool {
    let base = match name.split_once(" [") {
        Some((base, rest)) if rest.ends_with(']') => base,
        Some(_) => return false,
        None => name,
    };
    simtrace::is_legal_name(base)
}

/// A span's frame name: its name, suffixed ` [pair]` when it carries a
/// `pair` arg (`sched/job [505.mcf_r-in1]`), the convention per-pair
/// attribution folds on.
fn frame_name(span: &SpanRecord) -> String {
    match span.arg("pair") {
        Some(ArgValue::Str(pair)) => format!("{} [{pair}]", span.name),
        _ => span.name.clone(),
    }
}

/// Takes the samples of the trace whose drained spans are `trace` into a
/// [`Profile`]; `interval` and `wall_ns` come from its root (the span
/// with no parent). Each sample's stack is its span walked up to that
/// root, then the engine's leaf codes expanded into `seg/…`, `uop/…` and
/// `mem/…` frames, off the hot path. Frames and stacks are numbered in
/// sorted order, so the tables do not depend on which thread flushed
/// first. Empty without a root.
pub fn drain(trace: &[SpanRecord]) -> Profile {
    let Some(root) = trace.iter().find(|s| s.parent_id == 0) else {
        return Profile::default();
    };
    flush_thread();
    let raw = collector()
        .samples
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .remove(&root.trace_id)
        .unwrap_or_default();

    let by_id: HashMap<u64, &SpanRecord> = trace.iter().map(|s| (s.span_id, s)).collect();
    let mut contexts: HashMap<u64, Vec<String>> = HashMap::new();
    let paths: Vec<Vec<String>> = raw
        .iter()
        .map(|r| {
            let mut path = contexts
                .entry(r.span_id)
                .or_insert_with(|| {
                    let mut names = Vec::new();
                    let mut cursor = by_id.get(&r.span_id);
                    while let Some(span) = cursor {
                        names.push(frame_name(span));
                        cursor = by_id.get(&span.parent_id);
                    }
                    names.reverse();
                    names
                })
                .clone();
            let seg = if r.warmup {
                "seg/warmup"
            } else {
                "seg/measured"
            };
            let uop = ["uop/alu", "uop/load", "uop/store", "uop/branch"];
            let mem = ["mem/l1", "mem/l2", "mem/l3", "mem/dram"].get(usize::from(r.level));
            let uop = uop[usize::from(r.kind.min(KIND_BRANCH))];
            path.extend(
                [seg, uop]
                    .into_iter()
                    .chain(mem.copied())
                    .map(str::to_string),
            );
            path
        })
        .collect();

    let frames: Vec<String> = BTreeSet::from_iter(paths.iter().flatten().cloned())
        .into_iter()
        .collect();
    let named_stacks: Vec<&Vec<String>> = BTreeSet::from_iter(&paths).into_iter().collect();
    let frame_id = |name: &String| {
        frames
            .binary_search(name)
            .expect("every frame is in the table") as u32
    };
    let stacks = named_stacks
        .iter()
        .map(|path| path.iter().map(frame_id).collect())
        .collect();
    let mut samples: Vec<Sample> = raw
        .iter()
        .zip(&paths)
        .map(|(r, path)| Sample {
            tid: r.tid,
            clock: r.clock,
            stack_id: named_stacks
                .binary_search(&path)
                .expect("every stack is in the table") as u32,
            weight: r.weight,
        })
        .collect();
    // Dense tids in first-sample order over the sorted samples, so
    // artifacts neither leak the process's thread counter nor depend on
    // flush order.
    samples.sort_by_key(|s| (s.stack_id, s.clock, s.tid));
    let mut tids: HashMap<u32, u32> = HashMap::new();
    for s in &mut samples {
        let next = tids.len() as u32;
        s.tid = *tids.entry(s.tid).or_insert(next);
    }
    samples.sort_by_key(|s| (s.tid, s.clock, s.stack_id));
    let interval = match root.arg(simtrace::SAMPLE_INTERVAL_ARG) {
        Some(ArgValue::U64(interval)) => *interval,
        _ => 0,
    };
    Profile {
        interval,
        wall_ns: root.wall_ns(),
        frames,
        stacks,
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Closes `root` and drains its trace's profile.
    fn drain_root(root: simtrace::SpanGuard) -> Profile {
        drain(&root.drain())
    }

    #[test]
    fn recording_without_a_root_is_inert() {
        record_engine_sample(100, KIND_ALU, LEVEL_NONE, false);
        flush_thread();
        let p = drain_root(simtrace::sampled_root("run/test", 100));
        assert!(p.samples.is_empty());
        assert!(p.frames.is_empty());
        assert_eq!(p.interval, 100);
        assert_eq!(drain(&[]), Profile::default(), "no root, no profile");
    }

    #[test]
    fn samples_fold_under_open_frames() {
        let root = simtrace::sampled_root("run/test", 50);
        {
            let _inner = simtrace::span("stage/simulate");
            record_engine_sample(50, KIND_LOAD, LEVEL_L2, false);
            record_engine_sample(50, KIND_ALU, LEVEL_NONE, true);
        }
        let p = drain_root(root);
        assert_eq!(p.interval, 50);
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
        let root = simtrace::sampled_root("run/test", 10);
        for _ in 0..5 {
            record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
        }
        let p = drain_root(root);
        let clocks: Vec<u64> = p.samples.iter().map(|s| s.clock).collect();
        assert!(clocks.windows(2).all(|w| w[0] < w[1]), "{clocks:?}");
    }

    #[test]
    fn artifact_round_trips() {
        let root = simtrace::sampled_root("run/test", 25);
        record_engine_sample(25, KIND_STORE, LEVEL_NONE, false);
        record_engine_sample(25, KIND_LOAD, LEVEL_MEM, false);
        let p = drain_root(root);
        let text = p.to_text();
        let back = Profile::from_text(&text).expect("round trip");
        assert_eq!(p, back);
        assert!(text.starts_with("simprof 2\n"), "{text}");
        assert!(text.ends_with("\nend 2\n"), "{text}");
    }

    #[test]
    fn every_truncation_is_an_error() {
        let root = simtrace::sampled_root("run/test", 10);
        for kind in [KIND_ALU, KIND_LOAD, KIND_STORE] {
            let _stage = simtrace::span("stage/simulate");
            for _ in 0..4 {
                record_engine_sample(10, kind, LEVEL_MEM, false);
            }
        }
        let p = drain_root(root);
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
        let root = simtrace::sampled_root("run/test", 10);
        let ctx = root.context();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut job = simtrace::child_of(ctx, "sched/job");
                    job.arg("pair", "a-pair");
                    record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
                    flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let p = drain_root(root);
        assert_eq!(p.samples.len(), 3);
        let folded = p.folded();
        assert_eq!(
            folded, "run/test;sched/job [a-pair];seg/measured;uop/alu 30\n",
            "three threads, one folded line"
        );
        // Dense tids, one per thread.
        let tids: std::collections::HashSet<u32> = p.samples.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 3);
        assert!(tids.iter().all(|&t| t < 3));
    }

    #[test]
    fn tables_do_not_depend_on_flush_order() {
        // Two workers record the same samples under their own job spans;
        // only the order in which they reach the collector differs.
        let profile = |order: [usize; 2]| {
            let root = simtrace::sampled_root("run/test", 10);
            let ctx = root.context();
            for worker in order {
                std::thread::spawn(move || {
                    let mut job = simtrace::child_of(ctx, "sched/job");
                    job.arg("pair", format!("pair-{worker}"));
                    let _stage = simtrace::span("stage/simulate");
                    for kind in [KIND_BRANCH, KIND_LOAD, KIND_ALU][worker..].iter() {
                        record_engine_sample(10, *kind, LEVEL_L3, worker == 1);
                    }
                    flush_thread();
                })
                .join()
                .unwrap();
            }
            let mut p = drain_root(root);
            p.wall_ns = 0;
            p
        };
        let ab = profile([0, 1]);
        let ba = profile([1, 0]);
        assert_eq!(ab.samples.len(), 5);
        assert_eq!(ab.to_text(), ba.to_text());
        assert!(ab.frames.windows(2).all(|w| w[0] < w[1]), "sorted frames");
        assert!(ab.stacks.windows(2).all(|w| w[0] < w[1]), "sorted stacks");
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

    /// A three-frame, one-stack, two-sample artifact that decodes.
    fn clean_profile() -> Profile {
        let sample = |clock| Sample {
            tid: 0,
            clock,
            stack_id: 0,
            weight: 100,
        };
        Profile {
            interval: 100,
            wall_ns: 5000,
            frames: ["run/reproduce", "engine/run", "uop/alu"]
                .map(String::from)
                .to_vec(),
            stacks: vec![vec![0, 1, 2]],
            samples: vec![sample(100), sample(200)],
        }
    }

    /// The line and message of the `Malformed` error `text` must fail with.
    fn malformed_at(text: &str) -> (usize, String) {
        match Profile::from_text(text) {
            Err(ParseError::Malformed { line, message }) => (line, message),
            other => panic!("expected Malformed, got {other:?} for\n{text}"),
        }
    }

    #[test]
    fn clean_artifact_decodes() {
        let p = clean_profile();
        assert_eq!(Profile::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn stacks_naming_undeclared_frames_are_malformed() {
        let mut p = clean_profile();
        p.stacks[0].push(99);
        let (line, message) = malformed_at(&p.to_text());
        assert_eq!(line, 7, "{message}");
        assert!(message.contains("undeclared frame 99"), "{message}");
        // A frame declared after the stack that names it is not yet declared.
        let text = "simprof 2\nstack 0 0\nframe 0 run/x\nsample 0 5 0 1\nend 1\n";
        assert_eq!(malformed_at(text).0, 2);
        // An empty stack has no frame list at all.
        let mut p = clean_profile();
        p.stacks[0].clear();
        let (line, message) = malformed_at(&p.to_text());
        assert_eq!(line, 7, "{message}");
    }

    #[test]
    fn samples_naming_undeclared_stacks_are_malformed() {
        let mut p = clean_profile();
        p.samples[0].stack_id = 7;
        let (line, message) = malformed_at(&p.to_text());
        assert_eq!(line, 8, "{message}");
        assert!(message.contains("undeclared stack 7"), "{message}");
    }

    #[test]
    fn per_tid_clocks_must_strictly_increase() {
        let mut p = clean_profile();
        p.samples[1].clock = 100; // equal to its predecessor on tid 0
        let (line, message) = malformed_at(&p.to_text());
        assert_eq!(line, 9, "{message}");
        assert!(message.contains("100 -> 100"), "{message}");
        p.samples[1].clock = 50;
        assert_eq!(malformed_at(&p.to_text()).0, 9);
        // A different thread re-using the clock value is fine.
        let mut p = clean_profile();
        p.samples[1].tid = 1;
        p.samples[1].clock = 100;
        assert_eq!(Profile::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn off_scheme_frame_names_are_malformed() {
        for bad in ["Uop/ALU", "a//b", "sched/job [unclosed", "stage simulate"] {
            let mut p = clean_profile();
            p.frames[2] = bad.to_string();
            let (line, message) = malformed_at(&p.to_text());
            assert_eq!(line, 6, "{bad:?}: {message}");
            assert!(message.contains("span-naming scheme"), "{message}");
        }
        assert!(!is_legal_frame_name("sched/job [unclosed"));
        assert!(!is_legal_frame_name(""));
        assert!(!is_legal_frame_name("a//b"));
        assert!(!is_legal_frame_name("Sched/job [x]"));
    }

    #[test]
    fn bracketed_pair_labels_are_legal_frame_names() {
        assert!(is_legal_frame_name("sched/job [505.mcf_r/refrate-1]"));
        assert!(is_legal_frame_name("seg/measured"));
        let mut p = clean_profile();
        p.frames[1] = "sched/job [505.mcf_r/refrate-1]".to_string();
        assert_eq!(Profile::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn newer_schemas_are_refused_before_the_body_is_read() {
        let text = clean_profile().to_text();
        let body = text.split_once('\n').unwrap().1;
        let newer = format!("simprof {}\n{body}", SCHEMA_VERSION + 1);
        let err = Profile::from_text(&newer).unwrap_err();
        assert_eq!(
            err,
            ParseError::SchemaTooNew {
                found: SCHEMA_VERSION + 1,
                supported: SCHEMA_VERSION
            }
        );
        assert_eq!(
            err.to_string(),
            format!(
                "profile schema {} is newer than the supported {SCHEMA_VERSION}",
                SCHEMA_VERSION + 1
            )
        );
    }

    #[test]
    fn unknown_directives_report_their_position() {
        let (line, message) = malformed_at("simprof 2\nzorp 1 2\n");
        assert_eq!(line, 2);
        assert!(message.contains("zorp"), "{message}");
        let err = Profile::from_text("simprof 2\nzorp 1 2\n").unwrap_err();
        assert!(err.to_string().starts_with("line 2: "), "{err}");
        // Deeper in a clean artifact the error still names its own line.
        let mut text = clean_profile().to_text();
        let lines = text.lines().count();
        text.insert_str(text.rfind("end ").unwrap(), "zorp 1 2\n");
        assert_eq!(malformed_at(&text).0, lines);
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
        let root = simtrace::sampled_root("run/test", 10);
        record_engine_sample(10, KIND_ALU, LEVEL_NONE, false);
        let p = drain_root(root);
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
