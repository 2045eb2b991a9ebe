//! simrace: concurrency-correctness analysis for the pipeline.
//!
//! simcheck audits *data shape* — profiles, configs, counters — but nothing
//! in the repo audits *execution order*: the scheduler fans jobs across
//! worker threads, the store shards its index behind `RwLock`s, and the
//! metrics registry is mutated from whichever thread first touches a
//! handle. All of that is trusted to be well-synchronized because "tests
//! pass". This crate makes the synchronization itself checkable:
//!
//! - [`event`] — a tiny synchronization-event vocabulary (spawn/join via
//!   [`ForkToken`]s, lock acquire/release in exclusive and shared flavours,
//!   channel send/recv, named-resource read/write) plus the process-global
//!   collector the instrumentation hooks feed.
//! - [`vclock`] — the vector clocks the checker runs on.
//! - [`checker`] — a happens-before checker over a recorded event stream:
//!   it replays the events through vector clocks and reports violations as
//!   the `X…` simcheck rule family (`X001` unordered conflicting access,
//!   `X002` lock-order inversion, `X003` join-less spawn, `X004` release
//!   without acquire).
//! - [`shuffle`] — a deterministic seed-driven schedule explorer
//!   (loom-lite): scripted virtual threads are interleaved under permuted
//!   schedules with bounded preemptions, producing event streams for the
//!   checker and detecting outright deadlocks.
//! - [`scenarios`] — models of the scheduler's job/slot/failure protocol,
//!   clean and with deliberately planted bugs, plus the exploration driver
//!   the `lint --race` pass runs.
//!
//! Like simtrace and simmetrics, recording is gated on one process-wide
//! flag: while [`is_enabled`] is false every hook is a single relaxed
//! atomic load and an untaken branch — no allocation, no lock — so the
//! instrumented crates are bit-identical with checking off.

pub mod checker;
pub mod event;
pub mod scenarios;
pub mod shuffle;
pub mod vclock;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

pub use event::{Event, EventKind};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns synchronization-event recording on process-wide. Enable *before*
/// submitting work: a thread forked while recording was off has no spawn
/// edge, and its later events would look unordered.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off process-wide.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether events are currently being recorded. One relaxed atomic load —
/// cheap enough to gate name formatting at every hook site.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A spawn/join rendezvous token minted by [`fork`].
///
/// The forking thread calls [`fork`] *before* spawning and hands the token
/// to the new thread, which calls [`begin`] first thing and [`end`] last
/// thing; the thread that waits for it calls [`join`] after the child has
/// finished. The token carries the happens-before edges across the thread
/// boundary in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ForkToken(u64);

impl ForkToken {
    /// The inert token [`fork`] returns while recording is disabled; every
    /// hook taking it becomes a no-op.
    pub const NONE: ForkToken = ForkToken(0);

    /// True when this token records nothing.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// The raw token id (0 for [`ForkToken::NONE`]).
    pub fn id(self) -> u64 {
        self.0
    }
}

struct Collector {
    events: Mutex<Vec<Event>>,
    next_token: AtomicU64,
    next_tid: AtomicU64,
}

fn collector() -> &'static Collector {
    static C: OnceLock<Collector> = OnceLock::new();
    C.get_or_init(|| Collector {
        events: Mutex::new(Vec::new()),
        next_token: AtomicU64::new(1),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
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

fn record(kind: EventKind, what: &str) {
    let event = Event {
        thread: thread_tid(),
        kind,
        what: what.to_string(),
    };
    collector()
        .events
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(event);
}

/// Mints a fresh rendezvous token and records the fork on the calling
/// thread. Returns [`ForkToken::NONE`] (and records nothing) while
/// recording is disabled.
pub fn fork() -> ForkToken {
    if !is_enabled() {
        return ForkToken::NONE;
    }
    let token = collector().next_token.fetch_add(1, Ordering::Relaxed);
    record(EventKind::Fork { token }, "");
    ForkToken(token)
}

/// First hook of a forked thread: orders everything the forker did before
/// [`fork`] before everything this thread does.
pub fn begin(token: ForkToken) {
    if is_enabled() && !token.is_none() {
        record(EventKind::Begin { token: token.0 }, "");
    }
}

/// Last hook of a forked thread: publishes its work for [`join`].
pub fn end(token: ForkToken) {
    if is_enabled() && !token.is_none() {
        record(EventKind::End { token: token.0 }, "");
    }
}

/// Records that the calling thread waited for the thread behind `token`
/// (call after the join/scope-exit actually happened): orders everything
/// the forked thread did before everything the caller does next.
pub fn join(token: ForkToken) {
    if is_enabled() && !token.is_none() {
        record(EventKind::Join { token: token.0 }, "");
    }
}

/// Records an exclusive (mutex or write) lock acquisition of `name`.
/// Call *after* the real lock is held so the recorded order matches the
/// real acquisition order.
pub fn acquire(name: &str) {
    if is_enabled() {
        record(EventKind::Acquire, name);
    }
}

/// Records an exclusive lock release of `name`. Call *before* the real
/// guard drops.
pub fn release(name: &str) {
    if is_enabled() {
        record(EventKind::Release, name);
    }
}

/// Records a shared (read) lock acquisition of `name`.
pub fn acquire_read(name: &str) {
    if is_enabled() {
        record(EventKind::AcquireRead, name);
    }
}

/// Records a shared lock release of `name`.
pub fn release_read(name: &str) {
    if is_enabled() {
        record(EventKind::ReleaseRead, name);
    }
}

/// Records a message (or slot hand-off) sent on channel `name`.
pub fn send(name: &str) {
    if is_enabled() {
        record(EventKind::Send, name);
    }
}

/// Records a message received on channel `name`; pairs FIFO with sends.
pub fn recv(name: &str) {
    if is_enabled() {
        record(EventKind::Recv, name);
    }
}

/// Records a read of the named shared resource.
pub fn read(name: &str) {
    if is_enabled() {
        record(EventKind::Read, name);
    }
}

/// Records a write of the named shared resource.
pub fn write(name: &str) {
    if is_enabled() {
        record(EventKind::Write, name);
    }
}

/// RAII witness of a held lock: records the acquire when constructed and
/// the release when dropped. Declare it *after* the real guard in a struct
/// (or bind it after locking in a scope) so the release event lands before
/// the real unlock.
#[derive(Debug)]
#[must_use = "a held-lock witness records the scope it is held across"]
pub struct HeldLock {
    name: Option<String>,
    shared: bool,
}

impl HeldLock {
    /// Whether this witness records anything.
    pub fn is_recording(&self) -> bool {
        self.name.is_some()
    }
}

impl Drop for HeldLock {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            if self.shared {
                release_read(&name);
            } else {
                release(&name);
            }
        }
    }
}

/// An exclusive [`HeldLock`] witness; `name` is only evaluated while
/// recording is enabled, so hook sites can format lazily.
pub fn exclusive_held(name: impl FnOnce() -> String) -> HeldLock {
    if !is_enabled() {
        return HeldLock {
            name: None,
            shared: false,
        };
    }
    let name = name();
    acquire(&name);
    HeldLock {
        name: Some(name),
        shared: false,
    }
}

/// A shared [`HeldLock`] witness (read side of an `RwLock`).
pub fn shared_held(name: impl FnOnce() -> String) -> HeldLock {
    if !is_enabled() {
        return HeldLock {
            name: None,
            shared: true,
        };
    }
    let name = name();
    acquire_read(&name);
    HeldLock {
        name: Some(name),
        shared: true,
    }
}

/// Takes every recorded event out of the collector, in recording order
/// (a valid linearization: events are appended at occurrence time).
pub fn drain() -> Vec<Event> {
    std::mem::take(&mut *collector().events.lock().unwrap_or_else(|e| e.into_inner()))
}

/// Test/driver coordination: the collector is process-global, so every
/// caller that flips the enable flag serializes on one lock and starts
/// from a drained collector.
pub mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes everything that flips the process-wide enable flag.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    /// Guard from [`enabled`]: disables recording and drains leftovers on
    /// drop.
    pub struct EnabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    /// Guard from [`disabled`]: holds recording off until dropped.
    pub struct DisabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            crate::disable();
            let _ = crate::drain();
        }
    }

    /// Enables recording for the duration of the returned guard, starting
    /// from an empty collector.
    pub fn enabled() -> EnabledGuard {
        let g = ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = crate::drain();
        crate::enable();
        EnabledGuard(g)
    }

    /// Holds recording off for the duration of the returned guard, so code
    /// that records when enabled (a scheduler batch, say) cannot leak
    /// events into a sibling test that enabled the collector.
    pub fn disabled() -> DisabledGuard {
        DisabledGuard(ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_are_inert() {
        let _off = test_support::disabled();
        assert!(!is_enabled());
        let token = fork();
        assert!(token.is_none());
        begin(token);
        acquire("l");
        write("r");
        release("l");
        end(token);
        join(token);
        let held = exclusive_held(|| unreachable!("name must not be formatted"));
        assert!(!held.is_recording());
        drop(held);
        assert!(drain().is_empty());
    }

    #[test]
    fn hooks_record_in_order_with_thread_ids() {
        let _on = test_support::enabled();
        let token = fork();
        assert!(!token.is_none());
        let t = std::thread::spawn(move || {
            begin(token);
            let held = exclusive_held(|| "lk".to_string());
            write("res");
            drop(held);
            end(token);
        });
        t.join().unwrap();
        join(token);
        let events = drain();
        let kinds: Vec<String> = events.iter().map(|e| format!("{}", e.kind)).collect();
        assert_eq!(
            kinds,
            ["fork", "begin", "acquire", "write", "release", "end", "join"]
        );
        assert_eq!(events[2].what, "lk");
        assert_eq!(events[3].what, "res");
        let forker = events[0].thread;
        let child = events[1].thread;
        assert_ne!(forker, child);
        assert!(events[1..6].iter().all(|e| e.thread == child));
        assert_eq!(events[6].thread, forker);
    }

    #[test]
    fn shared_held_records_read_side() {
        let _on = test_support::enabled();
        {
            let _held = shared_held(|| "rw".to_string());
            read("res");
        }
        let events = drain();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0].kind, EventKind::AcquireRead));
        assert!(matches!(events[2].kind, EventKind::ReleaseRead));
    }
}
