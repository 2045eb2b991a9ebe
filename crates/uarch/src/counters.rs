//! Perf-style hardware performance counters.
//!
//! The paper instruments 15 Haswell counters through the Linux `perf`
//! utility and derives every reported metric from them (Section III).
//! [`Event`] reproduces those counter names verbatim so the characterization
//! layer can be read side-by-side with the paper's methodology; a
//! [`PerfSession`] is the analogue of one `perf stat` output file.
//!
//! The events partition: L1 hits and misses split the retired loads, L2
//! hits and misses split the L1 misses, and so on. [`PerfSession::check`]
//! holds a session to those identities wherever one is built or decoded.

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

    /// Checks the counter identities every engine run satisfies by
    /// construction: the L1/L2/L3 load partitions, the branch-kind
    /// partition, mispredicts within branches, cycles behind retired
    /// instructions, and loads and the counted classes within retired
    /// instructions. Sums are taken in `u128`, so a corrupt session with
    /// saturated counters is an error, never an overflow.
    ///
    /// # Errors
    ///
    /// The first [`IdentityError`] found, naming both sides of it.
    pub fn check(&self) -> Result<(), IdentityError> {
        let n = |e: Event| self.count(e);
        let sum = |events: &[Event]| events.iter().map(|&e| u128::from(n(e))).sum::<u128>();
        let loads = n(Event::MemUopsRetiredAllLoads);
        let l1_misses = n(Event::MemLoadUopsRetiredL1Miss);
        let l2_misses = n(Event::MemLoadUopsRetiredL2Miss);
        let branches = n(Event::BrInstExecAllBranches);
        let mispredicts = n(Event::BrMispExecAllBranches);
        let instructions = n(Event::InstRetiredAny);

        let parts = sum(&[
            Event::MemLoadUopsRetiredL1Hit,
            Event::MemLoadUopsRetiredL1Miss,
        ]);
        if parts != u128::from(loads) {
            return Err(IdentityError::L1Partition { parts, loads });
        }
        let parts = sum(&[
            Event::MemLoadUopsRetiredL2Hit,
            Event::MemLoadUopsRetiredL2Miss,
        ]);
        if parts != u128::from(l1_misses) {
            return Err(IdentityError::L2Partition { parts, l1_misses });
        }
        let parts = sum(&[
            Event::MemLoadUopsRetiredL3Hit,
            Event::MemLoadUopsRetiredL3Miss,
        ]);
        if parts != u128::from(l2_misses) {
            return Err(IdentityError::L3Partition { parts, l2_misses });
        }
        let kinds = sum(&[
            Event::BrInstExecAllConditional,
            Event::BrInstExecAllDirectJmp,
            Event::BrInstExecAllDirectNearCall,
            Event::BrInstExecAllIndirectJumpNonCallRet,
            Event::BrInstExecAllIndirectNearReturn,
        ]);
        if kinds != u128::from(branches) {
            return Err(IdentityError::BranchKinds { kinds, branches });
        }
        if mispredicts > branches {
            return Err(IdentityError::Mispredicts {
                mispredicts,
                branches,
            });
        }
        if instructions > 0 && n(Event::CpuClkUnhaltedRefTsc) == 0 {
            return Err(IdentityError::NoCycles { instructions });
        }
        if loads > instructions {
            return Err(IdentityError::Loads {
                loads,
                instructions,
            });
        }
        let classes = sum(&[
            Event::MemUopsRetiredAllLoads,
            Event::MemUopsRetiredAllStores,
            Event::BrInstExecAllBranches,
        ]);
        if classes > u128::from(instructions) {
            return Err(IdentityError::Classes {
                classes,
                instructions,
            });
        }
        Ok(())
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

/// A counter identity a [`PerfSession`] breaks, with both of its sides
/// (see [`PerfSession::check`]). Sums of several counters are `u128`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentityError {
    /// L1 hits + L1 misses differ from the retired loads.
    L1Partition {
        /// `l1_hit + l1_miss`.
        parts: u128,
        /// `mem_uops_retired.all_loads`.
        loads: u64,
    },
    /// L2 hits + L2 misses differ from the L1 misses.
    L2Partition {
        /// `l2_hit + l2_miss`.
        parts: u128,
        /// `mem_load_uops_retired.l1_miss`.
        l1_misses: u64,
    },
    /// L3 hits + L3 misses differ from the L2 misses.
    L3Partition {
        /// `l3_hit + l3_miss`.
        parts: u128,
        /// `mem_load_uops_retired.l2_miss`.
        l2_misses: u64,
    },
    /// The five branch-kind counters differ from all executed branches.
    BranchKinds {
        /// The sum of the kind counters.
        kinds: u128,
        /// `br_inst_exec.all_branches`.
        branches: u64,
    },
    /// More mispredicts than executed branches.
    Mispredicts {
        /// `br_misp_exec.all_branches`.
        mispredicts: u64,
        /// `br_inst_exec.all_branches`.
        branches: u64,
    },
    /// Retired instructions with zero cycles.
    NoCycles {
        /// `inst_retired.any`.
        instructions: u64,
    },
    /// More retired loads than retired instructions.
    Loads {
        /// `mem_uops_retired.all_loads`.
        loads: u64,
        /// `inst_retired.any`.
        instructions: u64,
    },
    /// Loads + stores + branches exceed the retired instructions.
    Classes {
        /// `all_loads + all_stores + all_branches`.
        classes: u128,
        /// `inst_retired.any`.
        instructions: u64,
    },
}

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentityError::L1Partition { parts, loads } => {
                write!(f, "L1 hits + misses {parts} != retired loads {loads}")
            }
            IdentityError::L2Partition { parts, l1_misses } => {
                write!(f, "L2 hits + misses {parts} != L1 misses {l1_misses}")
            }
            IdentityError::L3Partition { parts, l2_misses } => {
                write!(f, "L3 hits + misses {parts} != L2 misses {l2_misses}")
            }
            IdentityError::BranchKinds { kinds, branches } => {
                write!(f, "branch kinds {kinds} != executed branches {branches}")
            }
            IdentityError::Mispredicts {
                mispredicts,
                branches,
            } => write!(
                f,
                "mispredicts {mispredicts} > executed branches {branches}"
            ),
            IdentityError::NoCycles { instructions } => {
                write!(f, "retired instructions {instructions} but cycles 0")
            }
            IdentityError::Loads {
                loads,
                instructions,
            } => write!(
                f,
                "retired loads {loads} > retired instructions {instructions}"
            ),
            IdentityError::Classes {
                classes,
                instructions,
            } => write!(
                f,
                "loads + stores + branches {classes} > retired instructions {instructions}"
            ),
        }
    }
}

impl std::error::Error for IdentityError {}

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
    fn each_identity_rejects_its_violation() {
        use crate::config::SystemConfig;
        use crate::engine::Engine;
        use crate::exec::{from_iter, ExecPlan};
        use crate::microop::{BranchKind, MicroOp};

        // A real engine run over every op kind, its loads reaching DRAM.
        let ops = (0..4_000u64).map(|i| match i % 5 {
            0 => MicroOp::Alu,
            1 => MicroOp::load(i.wrapping_mul(0x9e37_79b9) % (1 << 24)),
            2 => MicroOp::store(i * 64),
            3 => MicroOp::conditional_branch(i % 97, i % 3 == 0),
            _ => MicroOp::Branch {
                pc: i,
                kind: BranchKind::IndirectNearReturn,
                taken: true,
            },
        });
        let good = Engine::new(&SystemConfig::tiny_test())
            .execute(from_iter(ops), &ExecPlan::new().warmup(1_000));
        assert_eq!(good.check(), Ok(()));
        assert!(good.count(Event::MemLoadUopsRetiredL3Miss) > 0);

        // One edit per identity, and the variant that must name the break.
        let n = |e: Event| good.count(e);
        let inst = n(Event::InstRetiredAny);
        let l1_hits = Event::MemLoadUopsRetiredL1Hit;
        let cases: [(&[(Event, u64)], &str); 8] = [
            (&[(l1_hits, n(l1_hits) + 1)], "L1Partition"),
            (
                &[(
                    Event::MemLoadUopsRetiredL2Hit,
                    n(Event::MemLoadUopsRetiredL2Hit) + 1,
                )],
                "L2Partition",
            ),
            (
                &[(
                    Event::MemLoadUopsRetiredL3Miss,
                    n(Event::MemLoadUopsRetiredL3Miss) + 1,
                )],
                "L3Partition",
            ),
            (
                &[(
                    Event::BrInstExecAllDirectJmp,
                    n(Event::BrInstExecAllDirectJmp) + 1,
                )],
                "BranchKinds",
            ),
            (
                &[(
                    Event::BrMispExecAllBranches,
                    n(Event::BrInstExecAllBranches) + 1,
                )],
                "Mispredicts",
            ),
            (&[(Event::CpuClkUnhaltedRefTsc, 0)], "NoCycles"),
            // A balanced L1 partition whose loads outnumber the instructions.
            (
                &[
                    (Event::MemUopsRetiredAllLoads, inst + 1),
                    (l1_hits, inst + 1 - n(Event::MemLoadUopsRetiredL1Miss)),
                ],
                "Loads",
            ),
            (&[(Event::MemUopsRetiredAllStores, inst)], "Classes"),
        ];
        for (edits, variant) in cases {
            let mut s = good.clone();
            for &(event, value) in edits {
                s.set(event, value);
            }
            let err = s.check().expect_err(variant);
            assert!(format!("{err:?}").starts_with(variant), "{variant}: {err}");
        }

        // Saturated counters are an error, not an overflow panic.
        let mut saturated = PerfSession::new();
        for e in Event::ALL {
            saturated.set(e, u64::MAX);
        }
        assert!(saturated.check().is_err());
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
