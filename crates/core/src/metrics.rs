//! The 20 microarchitecture-independent characteristics of Table VIII.
//!
//! These — and only these — feed the PCA redundancy analysis: six absolute
//! counts, seven instruction-mix percentages, five branch-type percentages,
//! and the two footprint metrics. All are derivable without knowing the
//! cache or predictor configuration, which is what makes the subsetting
//! methodology portable across machines.

use uarch_sim::counters::Event;

use crate::characterize::CharRecord;

/// One named characteristic: an extractor over a [`CharRecord`].
#[derive(Clone, Copy)]
pub struct Characteristic {
    /// The paper's name for the characteristic (Table VIII).
    pub name: &'static str,
    extract: fn(&CharRecord) -> f64,
}

impl Characteristic {
    /// Extracts the characteristic's value from a record.
    pub fn value(&self, record: &CharRecord) -> f64 {
        (self.extract)(record)
    }
}

impl std::fmt::Debug for Characteristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Characteristic")
            .field("name", &self.name)
            .finish()
    }
}

/// Table VIII: the 20 characteristics used for PCA, in the paper's order.
pub const CHARACTERISTICS: [Characteristic; 20] = [
    Characteristic {
        name: "inst_retired.any",
        extract: |r| r.instructions_billions,
    },
    Characteristic {
        name: "mem_uops_retired.all_loads",
        extract: |r| r.projected_billions(Event::MemUopsRetiredAllLoads),
    },
    Characteristic {
        name: "mem_uops_retired.all_stores",
        extract: |r| r.projected_billions(Event::MemUopsRetiredAllStores),
    },
    Characteristic {
        name: "load_uops(%)",
        extract: |r| r.load_pct(),
    },
    Characteristic {
        name: "store_uops(%)",
        extract: |r| r.store_pct(),
    },
    Characteristic {
        name: "total_mem_uops(%)",
        extract: |r| r.load_pct() + r.store_pct(),
    },
    Characteristic {
        name: "br_inst_exec.all_branches",
        extract: |r| r.projected_billions(Event::BrInstExecAllBranches),
    },
    Characteristic {
        name: "branch_inst(%)",
        extract: |r| r.branch_pct(),
    },
    Characteristic {
        name: "br_inst_exec.all_conditional",
        extract: |r| r.projected_billions(Event::BrInstExecAllConditional),
    },
    Characteristic {
        name: "br_inst_exec.all_direct_jmp",
        extract: |r| r.projected_billions(Event::BrInstExecAllDirectJmp),
    },
    Characteristic {
        name: "br_inst_exec.all_direct_near_call",
        extract: |r| r.projected_billions(Event::BrInstExecAllDirectNearCall),
    },
    Characteristic {
        name: "br_inst_exec.all_indirect_jump_non_call_ret",
        extract: |r| r.projected_billions(Event::BrInstExecAllIndirectJumpNonCallRet),
    },
    Characteristic {
        name: "br_inst_exec.all_indirect_near_return",
        extract: |r| r.projected_billions(Event::BrInstExecAllIndirectNearReturn),
    },
    Characteristic {
        name: "branch_conditional(%)",
        extract: |r| r.branch_kind_frac(Event::BrInstExecAllConditional) * 100.0,
    },
    Characteristic {
        name: "branch_direct_jump(%)",
        extract: |r| r.branch_kind_frac(Event::BrInstExecAllDirectJmp) * 100.0,
    },
    Characteristic {
        name: "branch_near_call(%)",
        extract: |r| r.branch_kind_frac(Event::BrInstExecAllDirectNearCall) * 100.0,
    },
    Characteristic {
        name: "branch_indirect_jump_non_call_ret(%)",
        extract: |r| r.branch_kind_frac(Event::BrInstExecAllIndirectJumpNonCallRet) * 100.0,
    },
    Characteristic {
        name: "branch_indirect_near_return(%)",
        extract: |r| r.branch_kind_frac(Event::BrInstExecAllIndirectNearReturn) * 100.0,
    },
    Characteristic {
        name: "rss",
        extract: |r| r.rss_gib,
    },
    Characteristic {
        name: "vsz",
        extract: |r| r.vsz_gib,
    },
];

/// Extracts the full `[records × 20]` characteristic matrix rows.
pub fn characteristic_rows(records: &[CharRecord]) -> Vec<Vec<f64>> {
    records
        .iter()
        .map(|r| CHARACTERISTICS.iter().map(|c| c.value(r)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_pair, RunConfig};
    use workload_synth::cpu2017;
    use workload_synth::profile::InputSize;

    #[test]
    fn exactly_twenty_characteristics() {
        assert_eq!(CHARACTERISTICS.len(), 20);
        let names: std::collections::HashSet<_> = CHARACTERISTICS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 20, "names must be unique");
    }

    #[test]
    fn names_match_table_eight() {
        let names: Vec<&str> = CHARACTERISTICS.iter().map(|c| c.name).collect();
        for expected in [
            "inst_retired.any",
            "mem_uops_retired.all_loads",
            "mem_uops_retired.all_stores",
            "load_uops(%)",
            "store_uops(%)",
            "total_mem_uops(%)",
            "br_inst_exec.all_branches",
            "branch_inst(%)",
            "br_inst_exec.all_conditional",
            "br_inst_exec.all_direct_jmp",
            "br_inst_exec.all_direct_near_call",
            "br_inst_exec.all_indirect_jump_non_call_ret",
            "br_inst_exec.all_indirect_near_return",
            "branch_conditional(%)",
            "branch_direct_jump(%)",
            "branch_near_call(%)",
            "branch_indirect_jump_non_call_ret(%)",
            "branch_indirect_near_return(%)",
            "rss",
            "vsz",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn extraction_produces_finite_rows() {
        let app = cpu2017::app("520.omnetpp_r").unwrap();
        let record = characterize_pair(&app.pairs(InputSize::Ref)[0], &RunConfig::quick()).unwrap();
        let rows = characteristic_rows(&[record]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), 20);
        assert!(rows[0].iter().all(|v| v.is_finite()));
        // total mem % = load % + store %.
        assert!((rows[0][5] - (rows[0][3] + rows[0][4])).abs() < 1e-9);
        // branch kind percentages sum to 100.
        let kind_sum: f64 = rows[0][13..18].iter().sum();
        assert!((kind_sum - 100.0).abs() < 1e-6);
    }
}
