//! This crate's process-metric handles (the `uarch_*` namespace).
//!
//! The engine records once per *run*, not per op — two counter adds at the
//! end of [`crate::engine::Engine::execute`] — so enabled-mode overhead on
//! the hot loop is a constant, which is what keeps the paired
//! `engine_run_100k` bench under its 5% budget.

use std::sync::OnceLock;

use simmetrics::Counter;

macro_rules! handle {
    ($vis:vis $fn_name:ident, $ctor:ident, $ty:ty, $name:literal, $help:literal) => {
        $vis fn $fn_name() -> &'static $ty {
            static H: OnceLock<$ty> = OnceLock::new();
            H.get_or_init(|| simmetrics::$ctor($name, $help))
        }
    };
}

handle!(pub(crate) ops_retired, counter, Counter,
    "uarch_ops_retired_total",
    "Micro-ops executed by the engine (warmup included); rate() of this \
     is the fleet-wide simulation throughput in ops/sec.");
handle!(pub(crate) engine_runs, counter, Counter,
    "uarch_engine_runs_total",
    "Completed engine runs (one per characterized pair or ablation leg).");
handle!(pub(crate) ops_warmed, counter, Counter,
    "uarch_ops_warmed_total",
    "Micro-ops run through functional warming (state updates without \
     counter accounting) by Engine::warm, e.g. the lead-in intervals of \
     a Skip-mode simpoint replay.");

/// Forces registration of every `uarch_*` metric for the lint pass.
pub fn register() {
    ops_retired();
    engine_runs();
    ops_warmed();
}
