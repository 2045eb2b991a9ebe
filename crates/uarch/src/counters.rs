//! Perf-style hardware performance counters.
//!
//! The paper instruments 15 Haswell counters through the Linux `perf`
//! utility and derives every reported metric from them (Section III).
//! [`Event`] reproduces those counter names verbatim so the characterization
//! layer can be read side-by-side with the paper's methodology; a
//! [`PerfSession`] is the analogue of one `perf stat` output file.

use std::fmt;

use crate::timeline::CounterTimeline;

/// A hardware event, named after the Haswell `perf` flag the paper used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
#[non_exhaustive]
pub enum Event {
    /// `inst_retired.any` — retired instructions.
    InstRetiredAny,
    /// `cpu_clk_unhalted.ref_tsc` — reference clock cycles.
    CpuClkUnhaltedRefTsc,
    /// `uops_retired.all` — retired micro-operations.
    UopsRetiredAll,
    /// `mem_uops_retired.all_loads` — retired load micro-ops.
    MemUopsRetiredAllLoads,
    /// `mem_uops_retired.all_stores` — retired store micro-ops.
    MemUopsRetiredAllStores,
    /// `br_inst_exec.all_branches` — executed branch instructions.
    BrInstExecAllBranches,
    /// `br_inst_exec.all_conditional` — conditional branches.
    BrInstExecAllConditional,
    /// `br_inst_exec.all_direct_jmp` — direct jumps.
    BrInstExecAllDirectJmp,
    /// `br_inst_exec.all_direct_near_call` — direct near calls.
    BrInstExecAllDirectNearCall,
    /// `br_inst_exec.all_indirect_jump_non_call_ret` — indirect jumps.
    BrInstExecAllIndirectJumpNonCallRet,
    /// `br_inst_exec.all_indirect_near_return` — near returns.
    BrInstExecAllIndirectNearReturn,
    /// `br_misp_exec.all_branches` — mispredicted branches.
    BrMispExecAllBranches,
    /// `mem_load_uops_retired.l1_hit` — loads served by L1D.
    MemLoadUopsRetiredL1Hit,
    /// `mem_load_uops_retired.l1_miss` — loads that missed L1D.
    MemLoadUopsRetiredL1Miss,
    /// `mem_load_uops_retired.l2_hit` — loads served by L2.
    MemLoadUopsRetiredL2Hit,
    /// `mem_load_uops_retired.l2_miss` — loads that missed L2.
    MemLoadUopsRetiredL2Miss,
    /// `mem_load_uops_retired.l3_hit` — loads served by L3.
    MemLoadUopsRetiredL3Hit,
    /// `mem_load_uops_retired.l3_miss` — loads that missed L3.
    MemLoadUopsRetiredL3Miss,
}

impl Event {
    /// All events, in declaration order.
    pub const ALL: [Event; 18] = [
        Event::InstRetiredAny,
        Event::CpuClkUnhaltedRefTsc,
        Event::UopsRetiredAll,
        Event::MemUopsRetiredAllLoads,
        Event::MemUopsRetiredAllStores,
        Event::BrInstExecAllBranches,
        Event::BrInstExecAllConditional,
        Event::BrInstExecAllDirectJmp,
        Event::BrInstExecAllDirectNearCall,
        Event::BrInstExecAllIndirectJumpNonCallRet,
        Event::BrInstExecAllIndirectNearReturn,
        Event::BrMispExecAllBranches,
        Event::MemLoadUopsRetiredL1Hit,
        Event::MemLoadUopsRetiredL1Miss,
        Event::MemLoadUopsRetiredL2Hit,
        Event::MemLoadUopsRetiredL2Miss,
        Event::MemLoadUopsRetiredL3Hit,
        Event::MemLoadUopsRetiredL3Miss,
    ];

    /// The `perf` flag string used in the paper's methodology section.
    pub fn perf_flag(self) -> &'static str {
        match self {
            Event::InstRetiredAny => "inst_retired.any",
            Event::CpuClkUnhaltedRefTsc => "cpu_clk_unhalted.ref_tsc",
            Event::UopsRetiredAll => "uops_retired.all",
            Event::MemUopsRetiredAllLoads => "mem_uops_retired.all_loads",
            Event::MemUopsRetiredAllStores => "mem_uops_retired.all_stores",
            Event::BrInstExecAllBranches => "br_inst_exec.all_branches",
            Event::BrInstExecAllConditional => "br_inst_exec.all_conditional",
            Event::BrInstExecAllDirectJmp => "br_inst_exec.all_direct_jmp",
            Event::BrInstExecAllDirectNearCall => "br_inst_exec.all_direct_near_call",
            Event::BrInstExecAllIndirectJumpNonCallRet => {
                "br_inst_exec.all_indirect_jump_non_call_ret"
            }
            Event::BrInstExecAllIndirectNearReturn => "br_inst_exec.all_indirect_near_return",
            Event::BrMispExecAllBranches => "br_misp_exec.all_branches",
            Event::MemLoadUopsRetiredL1Hit => "mem_load_uops_retired.l1_hit",
            Event::MemLoadUopsRetiredL1Miss => "mem_load_uops_retired.l1_miss",
            Event::MemLoadUopsRetiredL2Hit => "mem_load_uops_retired.l2_hit",
            Event::MemLoadUopsRetiredL2Miss => "mem_load_uops_retired.l2_miss",
            Event::MemLoadUopsRetiredL3Hit => "mem_load_uops_retired.l3_hit",
            Event::MemLoadUopsRetiredL3Miss => "mem_load_uops_retired.l3_miss",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.perf_flag())
    }
}

/// One run's collected counters — the analogue of a `perf stat` output file.
///
/// When the producing engine ran with a sampler (see
/// [`crate::exec::ExecPlan::sampler`]), the session additionally carries
/// the per-interval [`CounterTimeline`]; unsampled runs leave it `None` and
/// are indistinguishable from pre-timeline sessions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfSession {
    counts: [u64; Event::ALL.len()],
    timeline: Option<Box<CounterTimeline>>,
}

impl PerfSession {
    /// Creates an all-zero session.
    pub fn new() -> Self {
        PerfSession::default()
    }

    /// Adds `n` to an event's count.
    pub fn add(&mut self, event: Event, n: u64) {
        self.counts[event as usize] += n;
    }

    /// Increments an event by one.
    pub fn incr(&mut self, event: Event) {
        self.add(event, 1);
    }

    /// Sets an event to an absolute value (used for cycle totals).
    pub fn set(&mut self, event: Event, n: u64) {
        self.counts[event as usize] = n;
    }

    /// Reads an event's count.
    pub fn count(&self, event: Event) -> u64 {
        self.counts[event as usize]
    }

    /// Instructions per cycle, the paper's headline metric
    /// (`inst_retired.any / cpu_clk_unhalted.ref_tsc`). `0.0` if no cycles.
    pub fn ipc(&self) -> f64 {
        let cycles = self.count(Event::CpuClkUnhaltedRefTsc);
        if cycles == 0 {
            0.0
        } else {
            self.count(Event::InstRetiredAny) as f64 / cycles as f64
        }
    }

    /// Load micro-ops as a fraction of all retired micro-ops.
    pub fn load_fraction(&self) -> f64 {
        ratio(
            self.count(Event::MemUopsRetiredAllLoads),
            self.count(Event::UopsRetiredAll),
        )
    }

    /// Store micro-ops as a fraction of all retired micro-ops.
    pub fn store_fraction(&self) -> f64 {
        ratio(
            self.count(Event::MemUopsRetiredAllStores),
            self.count(Event::UopsRetiredAll),
        )
    }

    /// Branch instructions as a fraction of retired instructions.
    pub fn branch_fraction(&self) -> f64 {
        ratio(
            self.count(Event::BrInstExecAllBranches),
            self.count(Event::InstRetiredAny),
        )
    }

    /// L1 data-load miss rate (`l1_miss / (l1_hit + l1_miss)`).
    pub fn l1_miss_rate(&self) -> f64 {
        let h = self.count(Event::MemLoadUopsRetiredL1Hit);
        let m = self.count(Event::MemLoadUopsRetiredL1Miss);
        ratio(m, h + m)
    }

    /// L2 *local* load miss rate (`l2_miss / (l2_hit + l2_miss)`), i.e. of
    /// the loads that reached L2 — the definition behind the paper's
    /// high L2 percentages.
    pub fn l2_miss_rate(&self) -> f64 {
        let h = self.count(Event::MemLoadUopsRetiredL2Hit);
        let m = self.count(Event::MemLoadUopsRetiredL2Miss);
        ratio(m, h + m)
    }

    /// L3 local load miss rate (`l3_miss / (l3_hit + l3_miss)`).
    pub fn l3_miss_rate(&self) -> f64 {
        let h = self.count(Event::MemLoadUopsRetiredL3Hit);
        let m = self.count(Event::MemLoadUopsRetiredL3Miss);
        ratio(m, h + m)
    }

    /// Branch mispredict rate (`br_misp_exec / br_inst_exec`).
    pub fn mispredict_rate(&self) -> f64 {
        ratio(
            self.count(Event::BrMispExecAllBranches),
            self.count(Event::BrInstExecAllBranches),
        )
    }

    /// Counter-wise difference `self - earlier` (saturating), e.g. the
    /// events accumulated between two snapshots of a running session. The
    /// result carries no timeline.
    pub fn delta(&self, earlier: &PerfSession) -> PerfSession {
        let mut out = PerfSession::new();
        for (o, (a, b)) in out
            .counts
            .iter_mut()
            .zip(self.counts.iter().zip(&earlier.counts))
        {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// The interval timeline recorded for this run, if sampling was enabled.
    pub fn timeline(&self) -> Option<&CounterTimeline> {
        self.timeline.as_deref()
    }

    /// Attaches an interval timeline (set by the engine after pricing).
    pub fn set_timeline(&mut self, timeline: CounterTimeline) {
        self.timeline = Some(Box::new(timeline));
    }

    /// Removes and returns the timeline, leaving the counts untouched.
    pub fn take_timeline(&mut self) -> Option<CounterTimeline> {
        self.timeline.take().map(|b| *b)
    }

    /// Merges another session's counts into this one (multi-thread runs).
    /// Timelines are per-run artifacts and are not merged.
    pub fn merge(&mut self, other: &PerfSession) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Renders the session like a `perf stat` report (one event per line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in Event::ALL {
            out.push_str(&format!("{:>16}  {}\n", self.count(e), e.perf_flag()));
        }
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_match_paper_strings() {
        assert_eq!(Event::InstRetiredAny.perf_flag(), "inst_retired.any");
        assert_eq!(
            Event::BrInstExecAllIndirectJumpNonCallRet.perf_flag(),
            "br_inst_exec.all_indirect_jump_non_call_ret"
        );
        assert_eq!(
            Event::MemLoadUopsRetiredL3Miss.perf_flag(),
            "mem_load_uops_retired.l3_miss"
        );
    }

    #[test]
    fn all_flags_unique() {
        let set: std::collections::HashSet<_> = Event::ALL.iter().map(|e| e.perf_flag()).collect();
        assert_eq!(set.len(), Event::ALL.len());
    }

    #[test]
    fn add_incr_set_count() {
        let mut s = PerfSession::new();
        s.incr(Event::InstRetiredAny);
        s.add(Event::InstRetiredAny, 9);
        assert_eq!(s.count(Event::InstRetiredAny), 10);
        s.set(Event::CpuClkUnhaltedRefTsc, 5);
        assert_eq!(s.count(Event::CpuClkUnhaltedRefTsc), 5);
    }

    #[test]
    fn ipc_definition() {
        let mut s = PerfSession::new();
        assert_eq!(s.ipc(), 0.0);
        s.set(Event::InstRetiredAny, 300);
        s.set(Event::CpuClkUnhaltedRefTsc, 100);
        assert!((s.ipc() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_metrics() {
        let mut s = PerfSession::new();
        s.set(Event::UopsRetiredAll, 1000);
        s.set(Event::MemUopsRetiredAllLoads, 250);
        s.set(Event::MemUopsRetiredAllStores, 100);
        s.set(Event::InstRetiredAny, 800);
        s.set(Event::BrInstExecAllBranches, 160);
        assert!((s.load_fraction() - 0.25).abs() < 1e-12);
        assert!((s.store_fraction() - 0.10).abs() < 1e-12);
        assert!((s.branch_fraction() - 0.20).abs() < 1e-12);
    }

    #[test]
    fn local_miss_rates() {
        let mut s = PerfSession::new();
        s.set(Event::MemLoadUopsRetiredL1Hit, 90);
        s.set(Event::MemLoadUopsRetiredL1Miss, 10);
        s.set(Event::MemLoadUopsRetiredL2Hit, 4);
        s.set(Event::MemLoadUopsRetiredL2Miss, 6);
        s.set(Event::MemLoadUopsRetiredL3Hit, 5);
        s.set(Event::MemLoadUopsRetiredL3Miss, 1);
        assert!((s.l1_miss_rate() - 0.10).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 0.60).abs() < 1e-12);
        assert!((s.l3_miss_rate() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn mispredict_rate() {
        let mut s = PerfSession::new();
        s.set(Event::BrInstExecAllBranches, 400);
        s.set(Event::BrMispExecAllBranches, 8);
        assert!((s.mispredict_rate() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = PerfSession::new();
        let mut b = PerfSession::new();
        a.set(Event::InstRetiredAny, 5);
        b.set(Event::InstRetiredAny, 7);
        b.set(Event::UopsRetiredAll, 2);
        a.merge(&b);
        assert_eq!(a.count(Event::InstRetiredAny), 12);
        assert_eq!(a.count(Event::UopsRetiredAll), 2);
    }

    #[test]
    fn render_lists_every_event() {
        let s = PerfSession::new();
        let text = s.render();
        for e in Event::ALL {
            assert!(text.contains(e.perf_flag()));
        }
    }

    #[test]
    fn delta_subtracts_counterwise() {
        let mut a = PerfSession::new();
        let mut b = PerfSession::new();
        a.set(Event::InstRetiredAny, 3);
        b.set(Event::InstRetiredAny, 10);
        b.set(Event::UopsRetiredAll, 4);
        let d = b.delta(&a);
        assert_eq!(d.count(Event::InstRetiredAny), 7);
        assert_eq!(d.count(Event::UopsRetiredAll), 4);
        // Saturating: a - b does not underflow.
        assert_eq!(a.delta(&b).count(Event::InstRetiredAny), 0);
    }

    #[test]
    fn timeline_attach_take_roundtrip() {
        let mut s = PerfSession::new();
        assert!(s.timeline().is_none());
        s.set_timeline(CounterTimeline {
            interval_ops: 42,
            intervals: Vec::new(),
        });
        assert_eq!(s.timeline().unwrap().interval_ops, 42);
        let plain = PerfSession::new();
        assert_ne!(s, plain, "timeline participates in equality");
        let taken = s.take_timeline().unwrap();
        assert_eq!(taken.interval_ops, 42);
        assert_eq!(s, plain);
    }

    #[test]
    fn zero_denominators_yield_zero() {
        let s = PerfSession::new();
        assert_eq!(s.l1_miss_rate(), 0.0);
        assert_eq!(s.l2_miss_rate(), 0.0);
        assert_eq!(s.l3_miss_rate(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.load_fraction(), 0.0);
    }
}
