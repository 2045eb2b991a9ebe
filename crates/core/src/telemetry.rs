//! This crate's process-metric handles (the `workchar_*` namespace), plus
//! the one-stop registration entry point for the whole pipeline.
//!
//! [`crate::characterize::characterize_pair`] splits into three stages —
//! preparing the trace and hints, running the engine, and sampling the
//! footprint model — and each gets a latency histogram here, fed by the
//! stage's [`crate::observe::Stage`], so a scrape of a long campaign shows
//! where pair wall-time actually goes. The handles
//! are `OnceLock`-cached so the per-pair cost is one pointer load per
//! stage; when metrics are disabled the histograms' own sentinel check
//! makes every record a no-op.

use std::sync::OnceLock;

use simmetrics::{Counter, Histogram};

macro_rules! handle {
    ($(#[$doc:meta])* $vis:vis fn $fn_name:ident() -> &'static $ty:ident {
        $ctor:ident($name:expr, $help:expr)
    }) => {
        $(#[$doc])*
        $vis fn $fn_name() -> &'static $ty {
            static H: OnceLock<$ty> = OnceLock::new();
            H.get_or_init(|| simmetrics::$ctor($name, $help))
        }
    };
}

handle! {
    /// Pairs fully characterized (cache hits included).
    pub(crate) fn pairs_characterized() -> &'static Counter {
        counter(
            "workchar_pairs_characterized_total",
            "Application-input pairs fully characterized, cache hits included."
        )
    }
}

handle! {
    /// Trace-generator and hint construction latency.
    pub(crate) fn stage_prepare_micros() -> &'static Histogram {
        histogram(
            "workchar_stage_prepare_micros",
            "Per-pair latency of trace-generator and hint construction."
        )
    }
}

handle! {
    /// Engine simulation latency (the dominant stage).
    pub(crate) fn stage_simulate_micros() -> &'static Histogram {
        histogram(
            "workchar_stage_simulate_micros",
            "Per-pair latency of the engine run, warmup included."
        )
    }
}

handle! {
    /// Footprint-model sampling latency.
    pub(crate) fn stage_footprint_micros() -> &'static Histogram {
        histogram(
            "workchar_stage_footprint_micros",
            "Per-pair latency of the ps-style memory-footprint sampling."
        )
    }
}

/// Forces registration of every metric the pipeline can emit — this
/// crate's `workchar_*` handles plus the `simstore_*`, `uarch_*`, and
/// `workload_*` families owned by the substrate crates.
///
/// Call this before rendering an exposition (or linting the registry with
/// `--metrics`) so the output is complete even when a run never exercised
/// a given path.
pub fn register_pipeline_metrics() {
    pairs_characterized();
    stage_prepare_micros();
    stage_simulate_micros();
    stage_footprint_micros();
    simstore::metrics::register();
    uarch_sim::metrics::register();
    workload_synth::metrics::register();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_registry_is_lint_clean() {
        register_pipeline_metrics();
        let report = simmetrics::lint::check_registry();
        assert!(
            !report.has_errors(),
            "pipeline metric registry has lint errors: {report:?}"
        );
    }
}
