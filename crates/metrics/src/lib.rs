//! simmetrics: the pipeline's panic flight recorder.
//!
//! The [`flight`] recorder is a fixed-size lock-free ring of recent
//! pipeline events whose tail is dumped to JSON from a chained panic hook,
//! so scheduler-isolated panics leave a forensic trail.
//!
//! The run's counts and latencies are not recorded here: the run's span
//! tree holds every one of them, and `workchar::telemetry` computes
//! `metrics.json` from it when the run ends.
//!
//! # Zero overhead when disabled
//!
//! Recording is gated on one process-wide [`AtomicBool`]: while the
//! recorder is off (the default for library consumers), [`flight::note`]
//! is a single relaxed load and an untaken branch, and call sites skip
//! formatting their detail. The binaries call [`enable`] at startup.

pub mod flight;

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide recording switch. Off by default so embedding the
/// scheduler costs one relaxed load per note site.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the flight recorder on for the whole process (binaries call this
/// at startup).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the flight recorder back off. Recorded events are kept.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the flight recorder is currently on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// Unit tests that flip the process-wide enable flag serialize on this
    /// so parallel test threads don't observe each other's toggles.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    pub struct EnabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    /// Guard from [`disabled`]: holds the recorder off until dropped.
    pub struct DisabledGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for EnabledGuard {
        fn drop(&mut self) {
            crate::disable();
        }
    }

    /// Enables the recorder for the duration of the returned guard.
    pub fn enabled() -> EnabledGuard {
        let g = ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::enable();
        EnabledGuard(g)
    }

    /// Holds the recorder off for the duration of the returned guard, so a
    /// test asserting the disabled path cannot overlap one that enabled it.
    pub fn disabled() -> DisabledGuard {
        DisabledGuard(ENABLE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}
