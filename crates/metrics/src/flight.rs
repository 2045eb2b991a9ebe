//! The flight recorder: a fixed-size lock-free ring of recent pipeline
//! events, dumped to JSON from a chained panic hook.
//!
//! Hot paths call [`note`] ("job-start 505.mcf_r/ref/in1", "job-retry …");
//! the ring keeps the most recent [`CAPACITY`] events. Writers never
//! block: the cursor is an atomic fetch-add and each slot is guarded by a
//! `try_lock` — a contended slot drops the event and bumps a drop counter
//! rather than stalling the pipeline (the honest, `unsafe`-free reading of
//! "lock-free": recording always completes in bounded time).
//!
//! [`install_dump`] registers a panic hook (chained in front of the
//! default one) that appends a `panic` event and writes the ring's tail to
//! a JSON file — so when the scheduler isolates a worker panic, the dump
//! still happened at panic time and names the failing job.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use perfmon::json::escape;

/// Ring capacity: the dump holds at most this many most-recent events.
pub const CAPACITY: usize = 256;

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (global across the process).
    pub seq: u64,
    /// Nanoseconds since the recorder's first use.
    pub elapsed_ns: u64,
    /// Short machine-readable kind, e.g. `job-start`, `panic`.
    pub kind: &'static str,
    /// Free-form detail, e.g. the pair id or panic payload.
    pub detail: String,
}

struct Ring {
    epoch: Instant,
    cursor: AtomicU64,
    dropped: AtomicU64,
    slots: Vec<Mutex<Option<Event>>>,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        epoch: Instant::now(),
        cursor: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
        slots: (0..CAPACITY).map(|_| Mutex::new(None)).collect(),
    })
}

/// Records an event (no-op while the recorder is off). Never blocks: a
/// slot contended by another writer drops the event instead.
pub fn note(kind: &'static str, detail: impl Into<String>) {
    if crate::is_enabled() {
        note_always(kind, detail);
    }
}

/// Records regardless of the enable flag — used by the panic hook so a
/// dump always contains at least the panic itself.
fn note_always(kind: &'static str, detail: impl Into<String>) {
    let r = ring();
    let seq = r.cursor.fetch_add(1, Ordering::Relaxed);
    let slot = &r.slots[(seq % CAPACITY as u64) as usize];
    match slot.try_lock() {
        Ok(mut guard) => {
            *guard = Some(Event {
                seq,
                elapsed_ns: r.epoch.elapsed().as_nanos() as u64,
                kind,
                detail: detail.into(),
            });
        }
        Err(_) => {
            r.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The ring's current contents in sequence order, plus how many events
/// were dropped to slot contention.
pub fn snapshot() -> (Vec<Event>, u64) {
    let r = ring();
    let mut events: Vec<Event> = r
        .slots
        .iter()
        .filter_map(|slot| {
            slot.lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .cloned()
        })
        .collect();
    events.sort_by_key(|e| e.seq);
    (events, r.dropped.load(Ordering::Relaxed))
}

/// Renders the ring as a schema-1 JSON document.
pub fn render() -> String {
    use std::fmt::Write as _;
    let (events, dropped) = snapshot();
    let mut out = format!("{{\"schema\":1,\"dropped\":{dropped},\"events\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"elapsed_ns\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}",
            e.seq,
            e.elapsed_ns,
            escape(e.kind),
            escape(&e.detail)
        );
    }
    out.push_str("]}\n");
    out
}

/// Writes the ring to `path` right now (the panic hook calls this; run
/// ends may too, for a dump that survives clean exits).
pub fn dump_to(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, render())
}

fn dump_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Arms the panic-time dump: on any panic (including ones the scheduler
/// later catches), a `panic` event is appended and the ring is written to
/// `path`. The hook chains in front of the previously installed hook and
/// is installed once per process; later calls just retarget the path.
pub fn install_dump(path: &Path) {
    *dump_path().lock().unwrap_or_else(|e| e.into_inner()) = Some(path.to_path_buf());
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current();
            note_always(
                "panic",
                format!("{} [thread {}]", info, thread.name().unwrap_or("?")),
            );
            let target = dump_path()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            if let Some(target) = target {
                let _ = dump_to(&target);
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    // The ring and its cursor are process-global, so these tests assert on
    // relative behaviour (their own markers) rather than absolute state.

    #[test]
    fn disabled_notes_are_dropped_enabled_notes_are_kept() {
        let off = test_support::disabled();
        note("t-disabled", "must not appear");
        let (events, _) = snapshot();
        assert!(events.iter().all(|e| e.kind != "t-disabled"));
        drop(off);

        let _on = test_support::enabled();
        note("t-enabled", "pair 999.broken_r/ref/in1");
        let (events, _) = snapshot();
        let found = events.iter().find(|e| e.kind == "t-enabled").unwrap();
        assert!(found.detail.contains("999.broken_r"));
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let _on = test_support::enabled();
        for i in 0..(CAPACITY * 2) {
            note("t-flood", format!("event {i}"));
        }
        let (events, _) = snapshot();
        let flood: Vec<&Event> = events.iter().filter(|e| e.kind == "t-flood").collect();
        assert!(flood.len() <= CAPACITY);
        // The newest flood event always survives; seqs are in order.
        assert!(flood
            .last()
            .unwrap()
            .detail
            .ends_with(&format!("{}", CAPACITY * 2 - 1)));
        assert!(flood.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn wraparound_dump_keeps_exactly_the_newest_capacity_events() {
        let _on = test_support::enabled();
        // Flood well past one revolution so every slot is ours, then check
        // the panic-dump path sees exactly the newest CAPACITY, in order.
        let total = CAPACITY * 2 + 7;
        for i in 0..total {
            note("t-wrap", format!("wrap {i} end"));
        }
        let (events, _) = snapshot();
        let wrap: Vec<&Event> = events.iter().filter(|e| e.kind == "t-wrap").collect();
        assert_eq!(wrap.len(), CAPACITY, "the flood overwrites every slot");
        assert!(
            wrap.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "survivors are a contiguous run of sequence numbers"
        );
        assert_eq!(
            wrap[0].detail,
            format!("wrap {} end", total - CAPACITY),
            "the oldest survivor is exactly CAPACITY back from the newest"
        );
        assert_eq!(wrap[CAPACITY - 1].detail, format!("wrap {} end", total - 1));

        let path = std::env::temp_dir().join(format!(
            "simmetrics-flight-wrap-{}.json",
            std::process::id()
        ));
        dump_to(&path).expect("dump");
        let text = std::fs::read_to_string(&path).expect("read dump");
        std::fs::remove_file(&path).ok();
        assert!(
            text.contains(&format!("wrap {} end", total - 1)),
            "dump holds the newest event"
        );
        assert!(
            !text.contains(&format!("wrap {} end", total - CAPACITY - 1)),
            "dump has evicted the event just past the ring"
        );
    }

    #[test]
    fn render_is_valid_json_with_escaping() {
        let _on = test_support::enabled();
        note("t-escape", "a\"b\\c");
        let text = render();
        assert!(text.starts_with("{\"schema\":1,\"dropped\":"));
        assert!(text.contains("a\\\"b\\\\c"), "{text}");
        assert!(text.trim_end().ends_with("]}"));
    }
}
