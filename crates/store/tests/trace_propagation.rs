//! Cross-thread causal propagation: scheduler jobs run on worker threads,
//! but their spans must join the submitting thread's trace — that is the
//! whole point of stamping each job with the batch span's context.

use simstore::Scheduler;

#[test]
fn scheduler_jobs_join_the_submitters_trace_across_threads() {
    let root = simtrace::root("run/test");
    let root_ctx = root.context();
    let report = Scheduler::new(2).run(
        4,
        |i| format!("pair-{i}"),
        |i| {
            // What the job itself opens must nest under its sched spans.
            let inner = simtrace::span("work/inner");
            drop(inner);
            i
        },
        |_| {},
    );
    assert!(report.failures.is_empty());
    let spans = root.drain();

    let batch = spans
        .iter()
        .find(|s| s.name == "sched/batch")
        .expect("batch span recorded");
    assert_eq!(batch.trace_id, root_ctx.trace_id);
    assert_eq!(
        batch.parent_id, root_ctx.span_id,
        "batch nests under the run root"
    );

    let jobs: Vec<_> = spans.iter().filter(|s| s.name == "sched/job").collect();
    assert_eq!(jobs.len(), 4);
    for job in &jobs {
        assert_eq!(job.trace_id, root_ctx.trace_id, "one trace across threads");
        assert_eq!(job.parent_id, batch.span_id, "jobs nest under the batch");
        assert_ne!(job.tid, batch.tid, "jobs run on worker threads");
    }

    let attempts: Vec<_> = spans.iter().filter(|s| s.name == "sched/attempt").collect();
    assert_eq!(attempts.len(), 4, "one attempt per clean job");
    assert!(attempts
        .iter()
        .all(|a| jobs.iter().any(|j| j.span_id == a.parent_id)));

    let inner: Vec<_> = spans.iter().filter(|s| s.name == "work/inner").collect();
    assert_eq!(inner.len(), 4);
    assert!(
        inner
            .iter()
            .all(|s| attempts.iter().any(|a| a.span_id == s.parent_id)),
        "job bodies nest under their attempt"
    );
}

#[test]
fn panicking_jobs_become_error_spans_with_retry_marked() {
    let root = simtrace::root("run/test");
    let report = Scheduler::new(1).run(
        1,
        |_| "flaky".to_string(),
        |_| -> usize { panic!("injected trace-test failure") },
        |_| {},
    );
    assert_eq!(report.failures.len(), 1);
    let spans = root.drain();

    let attempts: Vec<_> = spans.iter().filter(|s| s.name == "sched/attempt").collect();
    assert_eq!(
        attempts.len(),
        2,
        "the retry produces a second attempt span"
    );
    assert!(attempts.iter().all(|a| a
        .error
        .as_deref()
        .is_some_and(|e| e.contains("injected trace-test failure"))));

    let job = spans
        .iter()
        .find(|s| s.name == "sched/job")
        .expect("job span");
    assert!(job.error.is_some(), "a twice-failed job is an error span");
    assert_eq!(job.arg("retried"), Some(&simtrace::ArgValue::Bool(true)));
}

#[test]
fn untraced_batches_record_nothing() {
    // With no root open, every span the batch and its jobs open is inert,
    // on the submitting thread and on every worker.
    let inner = |_| simtrace::span("work/inner").is_recording();
    let report = Scheduler::new(2).run(3, |i| i.to_string(), inner, |_| {});
    assert!(report.failures.is_empty());
    assert_eq!(report.results, [Some(false); 3]);
    assert!(simtrace::current_context().is_none());
}
