//! This crate's process-metric handles (the `simstore_*` namespace).
//!
//! Handles are resolved once through `OnceLock` statics so hot paths never
//! touch the registry lock; recording itself is gated on the simmetrics
//! enable sentinel, so embedding the store without metrics costs one
//! relaxed load per site.

use std::sync::OnceLock;

use simmetrics::{Counter, Gauge};

macro_rules! handle {
    ($vis:vis $fn_name:ident, $ctor:ident, $ty:ty, $name:literal, $help:literal) => {
        $vis fn $fn_name() -> &'static $ty {
            static H: OnceLock<$ty> = OnceLock::new();
            H.get_or_init(|| simmetrics::$ctor($name, $help))
        }
    };
}

handle!(pub(crate) cache_hits, counter, Counter,
    "simstore_cache_hits_total",
    "Cache lookups served from the store.");
handle!(pub(crate) cache_misses, counter, Counter,
    "simstore_cache_misses_total",
    "Cache lookups that fell through to recomputation.");
handle!(pub(crate) cache_read_bytes, counter, Counter,
    "simstore_cache_read_bytes_total",
    "Payload bytes read from the store on hits.");
handle!(pub(crate) cache_written_bytes, counter, Counter,
    "simstore_cache_written_bytes_total",
    "Payload bytes written to the store.");
// Nothing increments this since the store lost its in-memory index: it
// stays registered, reading 0, so the metric series keep their names.
handle!(pub(crate) index_contention, counter, Counter,
    "simstore_index_contention_total",
    "Index shard lock acquisitions that found the lock held.");
handle!(pub(crate) jobs, counter, Counter,
    "simstore_jobs_total",
    "Scheduler jobs settled (success or failure).");
handle!(pub(crate) job_retries, counter, Counter,
    "simstore_job_retries_total",
    "Scheduler jobs retried after a first-attempt panic.");
handle!(pub(crate) job_panics, counter, Counter,
    "simstore_job_panics_total",
    "Panics caught by the scheduler (both attempts counted).");
handle!(pub(crate) queue_depth, gauge, Gauge,
    "simstore_queue_depth",
    "Scheduler jobs submitted but not yet settled.");

/// Forces registration of every `simstore_*` metric (the lint binary's
/// `--metrics` pass calls this so the M-rules see the full namespace).
pub fn register() {
    cache_hits();
    cache_misses();
    cache_read_bytes();
    cache_written_bytes();
    index_contention();
    jobs();
    job_retries();
    job_panics();
    queue_depth();
}
