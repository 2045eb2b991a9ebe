//! Fault-tolerant bounded-worker job scheduler.
//!
//! The pipeline's previous thread pool let one panicking job unwind the
//! whole `thread::scope`, poisoning the slot mutexes and aborting every
//! sibling — a single mis-parameterized profile destroyed an hour of
//! simulation. [`Scheduler`] isolates each job with `catch_unwind`, retries
//! it once (some failures are environmental: a full disk mid-cache-write),
//! and on the second panic records a [`JobFailure`] carrying the job's label
//! and panic message while every other job runs to completion. Results come
//! back positionally so callers can correlate outputs with inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use simmetrics::flight;

/// One job that panicked on both attempts.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job's position in the submitted batch.
    pub index: usize,
    /// Caller-provided human-readable job label.
    pub label: String,
    /// The panic payload, if it was a string (the common case).
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job #{} ({}): {}", self.index, self.label, self.message)
    }
}

/// Outcome of a batch: positional results plus the jobs that failed.
///
/// `results[i]` is `None` exactly when `failures` contains index `i`.
#[derive(Debug)]
pub struct RunReport<T> {
    /// Per-job outcomes, in submission order.
    pub results: Vec<Option<T>>,
    /// Jobs that panicked twice, sorted by label then index so failure
    /// reports are identical across thread interleavings.
    pub failures: Vec<JobFailure>,
}

impl<T> RunReport<T> {
    /// All successful results in submission order, if *every* job
    /// succeeded.
    ///
    /// # Errors
    ///
    /// The failure list, when any job failed.
    pub fn into_results(self) -> Result<Vec<T>, Vec<JobFailure>> {
        if self.failures.is_empty() {
            Ok(self
                .results
                .into_iter()
                .map(|r| r.expect("no failures recorded"))
                .collect())
        } else {
            Err(self.failures)
        }
    }
}

/// Progress snapshot passed to the batch callback after every job settles.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Jobs settled so far (success or failure).
    pub done: usize,
    /// Jobs in the batch.
    pub total: usize,
    /// Jobs failed so far.
    pub failed: usize,
}

/// A bounded-worker, panic-isolating batch executor.
///
/// # Example
///
/// ```
/// use simstore::scheduler::Scheduler;
///
/// let report = Scheduler::new(4).run(
///     10,
///     |i| format!("job-{i}"),
///     |i| i * i,
///     |_progress| {},
/// );
/// assert_eq!(report.results[3], Some(9));
/// assert!(report.failures.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    workers: usize,
}

impl Scheduler {
    /// A scheduler with exactly `workers` worker threads (minimum one).
    pub fn new(workers: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
        }
    }

    /// A scheduler sized to the machine's available parallelism.
    pub fn available() -> Self {
        Scheduler::new(
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )
    }

    /// Worker threads this scheduler uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `total` jobs, pulling indices `0..total` across the workers.
    ///
    /// `job(i)` computes job `i`'s result; a panic is caught, the job is
    /// retried once, and a second panic records a failure labelled
    /// `label(i)`. `progress` is invoked after every job settles (from
    /// worker threads — keep it cheap and reentrant).
    pub fn run<T, J, L, P>(&self, total: usize, label: L, job: J, progress: P) -> RunReport<T>
    where
        T: Send,
        J: Fn(usize) -> T + Sync,
        L: Fn(usize) -> String + Sync,
        P: Fn(Progress) + Sync,
    {
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let failed = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
        // The batch span nests under whatever the submitting thread has
        // open (the suite-run root); its context is copied to every worker
        // so per-job spans join the same trace across thread boundaries.
        let worker_count = self.workers.min(total.max(1));
        let mut batch_span = simtrace::span("sched/batch");
        batch_span.arg("workers", worker_count);
        batch_span.arg("jobs", total);
        let batch_ctx = batch_span.context();
        thread::scope(|scope| {
            let (next, done, failed) = (&next, &done, &failed);
            let (slots, failures) = (&slots, &failures);
            let (label, job, progress) = (&label, &job, &progress);
            for _ in 0..worker_count {
                scope.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        // Flight breadcrumbs carry the job label (the pair id
                        // in the pipeline), so a panic dump names what was in
                        // flight. Label formatting is skipped entirely while
                        // the recorder is off.
                        if simmetrics::is_enabled() {
                            flight::note("job-start", label(i));
                        }
                        // The `pair` arg also names the job's profile frame
                        // (`sched/job [pair]`), so each pair's engine samples
                        // fold separately in the flamegraph.
                        let mut job_span = simtrace::child_of(batch_ctx, "sched/job");
                        if job_span.is_recording() {
                            job_span.arg("pair", label(i));
                            job_span.arg("index", i);
                        }
                        let mut outcome = None;
                        let mut message = String::new();
                        for attempt in 0..2 {
                            // The job span is this thread's current context
                            // while held, so the attempt (and anything the job
                            // itself opens) nests under it automatically.
                            let mut attempt_span = simtrace::span("sched/attempt");
                            match catch_unwind(AssertUnwindSafe(|| job(i))) {
                                Ok(value) => {
                                    outcome = Some(value);
                                    break;
                                }
                                Err(payload) => {
                                    message = panic_message(payload.as_ref());
                                    attempt_span.set_error(&message);
                                    if attempt == 0 {
                                        if job_span.is_recording() {
                                            job_span.arg("retried", true);
                                        }
                                        if simmetrics::is_enabled() {
                                            flight::note("job-retry", label(i));
                                        }
                                    }
                                }
                            }
                        }
                        if outcome.is_none() {
                            job_span.set_error(&message);
                        }
                        drop(job_span);
                        match outcome {
                            Some(value) => {
                                // A previous panic cannot have poisoned slot i:
                                // jobs run outside any lock and each slot is
                                // touched exactly once.
                                *slots[i].lock().unwrap_or_else(|poison| poison.into_inner()) =
                                    Some(value);
                            }
                            None => {
                                failed.fetch_add(1, Ordering::Relaxed);
                                if simmetrics::is_enabled() {
                                    flight::note("job-failed", format!("{}: {message}", label(i)));
                                }
                                let mut list =
                                    failures.lock().unwrap_or_else(|poison| poison.into_inner());
                                list.push(JobFailure {
                                    index: i,
                                    label: label(i),
                                    message,
                                });
                            }
                        }
                        progress(Progress {
                            done: done.fetch_add(1, Ordering::Relaxed) + 1,
                            total,
                            failed: failed.load(Ordering::Relaxed),
                        });
                    }
                });
            }
        });
        let results = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poison| poison.into_inner())
            })
            .collect();
        let mut failures = failures
            .into_inner()
            .unwrap_or_else(|poison| poison.into_inner());
        // Label-first ordering keeps failure reports stable across thread
        // interleavings even if two jobs ever share an index space (e.g.
        // merged batches); index breaks ties deterministically.
        failures.sort_by(|a, b| a.label.cmp(&b.label).then(a.index.cmp(&b.index)));
        RunReport { results, failures }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_jobs_in_order_slots() {
        let report = Scheduler::new(3).run(17, |i| format!("j{i}"), |i| i * 2, |_| {});
        assert!(report.failures.is_empty());
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(*r, Some(i * 2));
        }
        assert_eq!(report.into_results().unwrap().len(), 17);
    }

    #[test]
    fn panicking_job_is_recorded_and_others_complete() {
        let report = Scheduler::new(4).run(
            10,
            |i| format!("pair-{i}"),
            |i| {
                if i == 5 {
                    panic!("injected failure for job five");
                }
                i
            },
            |_| {},
        );
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].index, 5);
        assert_eq!(report.failures[0].label, "pair-5");
        assert!(report.failures[0].message.contains("injected failure"));
        assert_eq!(report.results[5], None);
        assert_eq!(report.results.iter().filter(|r| r.is_some()).count(), 9);
        assert!(report.into_results().is_err());
    }

    #[test]
    fn transient_panic_succeeds_on_retry() {
        let attempts = AtomicU64::new(0);
        let report = Scheduler::new(1).run(
            1,
            |_| "flaky".to_string(),
            |_| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("first attempt fails");
                }
                42
            },
            |_| {},
        );
        assert!(report.failures.is_empty());
        assert_eq!(report.results[0], Some(42));
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn jobs_record_profile_frames_per_pair() {
        let root = simtrace::sampled_root("run/test", 10);
        let report = Scheduler::new(2).run(
            3,
            |i| format!("pair-{i}"),
            |_| {
                simprof::record_engine_sample(10, simprof::KIND_ALU, simprof::LEVEL_NONE, false);
                simprof::flush_thread();
            },
            |_| {},
        );
        assert!(report.failures.is_empty());
        let profile = simprof::drain(&root.drain());
        assert_eq!(profile.samples.len(), 3);
        let folded = profile.folded();
        for i in 0..3 {
            assert!(
                folded.contains(&format!(
                    "run/test;sched/batch;sched/job [pair-{i}];sched/attempt;seg/measured;uop/alu 10"
                )),
                "job frame for pair-{i} missing:\n{folded}"
            );
        }
    }

    #[test]
    fn progress_reaches_total() {
        let peak = AtomicUsize::new(0);
        let report = Scheduler::new(2).run(
            8,
            |i| i.to_string(),
            |i| i,
            |p| {
                peak.fetch_max(p.done, Ordering::Relaxed);
                assert_eq!(p.total, 8);
            },
        );
        assert_eq!(peak.load(Ordering::Relaxed), 8);
        assert!(report.failures.is_empty());
    }

    #[test]
    fn empty_batch_is_fine() {
        let report = Scheduler::available().run(0, |i| i.to_string(), |i| i, |_| {});
        assert!(report.results.is_empty());
        assert!(report.failures.is_empty());
    }

    #[test]
    fn string_panic_payload_captured() {
        let report = Scheduler::new(1).run(
            1,
            |_| "x".into(),
            |_| -> usize { panic!("{}", format!("formatted {}", 7)) },
            |_| {},
        );
        assert_eq!(report.failures[0].message, "formatted 7");
    }

    #[test]
    fn failures_are_sorted_by_label_then_index() {
        // Labels deliberately sort opposite to indices so the test fails
        // under the old index-only ordering.
        let report = Scheduler::new(4).run(
            6,
            |i| format!("pair-{}", 9 - i),
            |i| {
                if i == 1 || i == 3 {
                    panic!("planted double failure");
                }
                i
            },
            |_| {},
        );
        let order: Vec<(usize, &str)> = report
            .failures
            .iter()
            .map(|f| (f.index, f.label.as_str()))
            .collect();
        assert_eq!(order, [(3, "pair-6"), (1, "pair-8")]);
    }

    #[test]
    fn single_worker_serial_batch_runs_every_job() {
        let report = Scheduler::new(1).run(5, |i| format!("job-{i}"), |i| i * 3, |_| {});
        assert!(report.failures.is_empty());
        assert_eq!(report.results[4], Some(12));
    }

    #[test]
    fn fewer_jobs_than_workers_fills_every_slot() {
        let report = Scheduler::new(8).run(3, |i| format!("job-{i}"), |i| i, |_| {});
        assert_eq!(report.results.iter().filter(|r| r.is_some()).count(), 3);
    }

    #[test]
    fn empty_batch_on_many_workers_is_fine() {
        let report = Scheduler::new(4).run(0, |i| format!("job-{i}"), |i| i, |_| {});
        assert!(report.results.is_empty());
    }

    #[test]
    fn double_panic_failure_path_records_every_failure() {
        let report = Scheduler::new(4).run(
            8,
            |i| format!("job-{i}"),
            |i| {
                if i % 3 == 0 {
                    panic!("always fails");
                }
                i
            },
            |_| {},
        );
        assert_eq!(report.failures.len(), 3);
    }

    #[test]
    fn contended_batch_runs_without_failures() {
        let report = Scheduler::new(4).run(
            64,
            |i| format!("job-{i}"),
            |i| i.wrapping_mul(0x9e37),
            |_| {},
        );
        assert!(report.failures.is_empty());
    }
}
