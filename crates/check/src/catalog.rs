//! The rule registry: stable codes, families, default severities, and the
//! `--explain` catalog.
//!
//! Codes never change meaning once shipped: `P004` is the instruction-mix
//! budget forever. New rules get new codes; retired rules leave gaps.

use crate::diag::Severity;

/// Which layer of the pipeline a rule audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// `P…` — behaviour-profile well-formedness (workload-synth).
    Profile,
    /// `C…` — system/cache/predictor/TLB config legality (uarch-sim).
    Config,
    /// `R…` — result-store entries that do not read back as records
    /// (workchar).
    Result,
    /// `S…` — simpoint artifact consistency (simpoint).
    Simpoint,
    /// `D…` — cross-manifest integrity under `results/runs/` (simdash).
    Dash,
}

impl Family {
    /// Human label used by renderers and `--explain`.
    pub fn label(self) -> &'static str {
        match self {
            Family::Profile => "profile",
            Family::Config => "config",
            Family::Result => "result",
            Family::Simpoint => "simpoint",
            Family::Dash => "dash",
        }
    }
}

/// A registered static rule: stable identity plus documentation.
///
/// `summary` doubles as the legacy error string where a panicking
/// constructor or `Behavior::validate` used to hard-code a message, so the
/// thin compatibility wrappers keep their exact historical wording.
#[derive(Debug)]
pub struct RuleCode {
    /// Stable code, e.g. `"P004"`.
    pub code: &'static str,
    /// Short kebab-case rule name, e.g. `"mix-budget"`.
    pub name: &'static str,
    /// Default severity of a violation.
    pub severity: Severity,
    /// Which layer the rule audits.
    pub family: Family,
    /// One-line invariant statement (legacy-compatible where applicable).
    pub summary: &'static str,
    /// Full rationale for `--explain`: what breaks when violated and which
    /// paper figure/table the invariant protects.
    pub explanation: &'static str,
}

impl PartialEq for RuleCode {
    fn eq(&self, other: &Self) -> bool {
        self.code == other.code
    }
}
impl Eq for RuleCode {}

/// All registered rules as statics, grouped by family.
pub mod codes {
    use super::{Family, RuleCode};
    use crate::diag::Severity;

    macro_rules! rule {
        ($vis:vis $ident:ident, $code:literal, $name:literal, $sev:ident, $fam:ident,
         $summary:literal, $explanation:literal) => {
            $vis static $ident: RuleCode = RuleCode {
                code: $code,
                name: $name,
                severity: Severity::$sev,
                family: Family::$fam,
                summary: $summary,
                explanation: $explanation,
            };
        };
    }

    // ---------------------------------------------------------------- P: profile

    rule!(pub P001, "P001", "volume-positive", Error, Profile,
        "instructions_billions must be positive",
        "The dynamic instruction volume drives every projection (runtime, \
         MPKI denominators, Table 2 instruction counts). A zero or negative \
         volume makes per-kilo-instruction rates undefined and runtime \
         projections meaningless.");
    rule!(pub P002, "P002", "ipc-target-positive", Error, Profile,
        "ipc_target must be positive",
        "The profile's IPC target calibrates the CPI stack the simulator \
         decomposes (paper Fig. 9). A non-positive target implies infinite \
         or negative cycles per instruction.");
    rule!(pub P003, "P003", "mix-pct-range", Error, Profile,
        "mix percentages must be within [0, 100]",
        "load_pct / store_pct / branch_pct are percentages of retired \
         instructions (paper Fig. 2, instruction-mix characterization). \
         Values outside [0, 100] cannot describe a real mix.");
    rule!(pub P004, "P004", "mix-budget", Error, Profile,
        "loads + stores + branches exceed 100%",
        "Loads, stores and branches partition a subset of the retired \
         instruction stream; their percentages summing past 100% leaves a \
         negative share for compute ops. Protects the instruction-mix \
         breakdown of paper Fig. 2.");
    rule!(pub P005, "P005", "branch-kind-sum", Error, Profile,
        "branch kind fractions must sum to 1",
        "Conditional / unconditional / indirect / call-return fractions \
         partition the branch stream feeding the predictor model (paper \
         Fig. 7 branch characterization). The four fractions must sum to \
         1 within 1e-6.");
    rule!(pub P006, "P006", "rate-range", Error, Profile,
        "fractions and rates must be within [0, 1]",
        "Reuse fractions, mispredict targets, dirty ratios and similar \
         fields are probabilities. A value outside [0, 1] is not a rate \
         and silently corrupts the locality model driving Figs. 4-6.");
    rule!(pub P007, "P007", "vsz-vs-rss", Error, Profile,
        "vsz must be non-trivially sized vs rss",
        "Virtual size far below resident size is physically impossible \
         (RSS is a subset of VSZ). Protects the memory-footprint \
         characterization of paper Table 3 / Fig. 3.");
    rule!(pub P008, "P008", "code-positive", Error, Profile,
        "code footprint must be positive",
        "The instruction-side working set sizes the L1I/frontend model. A \
         non-positive code footprint disables instruction-fetch modelling \
         entirely.");
    rule!(pub P009, "P009", "threads-positive", Error, Profile,
        "threads must be at least 1",
        "Speed (_s) benchmarks run OpenMP threads; rate (_r) benchmarks \
         run one copy per core. Zero threads means no execution stream \
         exists to simulate.");
    rule!(pub P010, "P010", "ipc-plausible", Warning, Profile,
        "ipc_target outside the paper-plausible range",
        "CPU2017 IPC on Haswell spans roughly 0.2-3.3 (paper Fig. 9); the \
         lint accepts [0.05, 4.0] and, when a system config is given, \
         flags targets above the machine's issue width, which the engine \
         can never reach.");
    rule!(pub P011, "P011", "mispredict-plausible", Warning, Profile,
        "branch mispredict target outside the paper-plausible range",
        "Measured CPU2017 mispredict rates stay below ~15 MPKI / ~10% of \
         branches (paper Fig. 7). A target above 25% of branches usually \
         means a rate was entered where a fraction belongs.");
    rule!(pub P012, "P012", "reuse-cdf", Error, Profile,
        "service fractions must be non-negative and sum to 1",
        "The four-region reuse-distance model (hot / L2-sized / L3-sized / \
         streaming) is a discretized CDF: each service fraction must be \
         non-negative and the set must sum to 1, i.e. the CDF must be \
         monotone and normalized. Protects the reuse/locality results of \
         paper Figs. 4-6.");
    rule!(pub P013, "P013", "vsz-below-rss", Warning, Profile,
        "vsz smaller than rss",
        "VSZ modestly below RSS (but above the hard P007 floor) is \
         suspicious: real processes always map at least as much as they \
         touch. Usually a transposed pair of columns from Table 3.");
    rule!(pub P014, "P014", "footprint-vs-reuse", Warning, Profile,
        "memory-service fraction inconsistent with resident footprint",
        "A profile that claims a large DRAM-serviced fraction while its \
         resident set fits comfortably inside the L3 (or vice versa: a \
         multi-GiB footprint with a purely cache-resident reuse pattern) \
         describes a locality distribution its own footprint cannot \
         produce. Cross-checks Fig. 3 footprints against Figs. 4-6 \
         locality.");
    rule!(pub P015, "P015", "duplicate-fingerprint", Warning, Profile,
        "identical behaviour fingerprint across distinct inputs",
        "Two pairs with byte-identical behaviour profiles (same 128-bit \
         stable hash) are redundant before any simulation runs — the \
         cheap static counterpart of the PCA/clustering redundancy \
         analysis (paper §V, Table 5). Keep one representative or make \
         the inputs actually differ.");
    rule!(pub P016, "P016", "volume-plausible", Warning, Profile,
        "instruction volume outside the paper-plausible range",
        "CPU2017 ref workloads retire roughly 0.4-30 trillion \
         instructions (paper Table 2). Volumes outside [0.001, 100000] \
         billions are almost certainly unit mistakes (count given in \
         millions or raw instructions).");
    rule!(pub P017, "P017", "app-naming", Warning, Profile,
        "app name does not follow the NNN.name convention",
        "Pair ids are the app name, or `app-input` for multi-input \
         applications, with app names shaped `NNN.name` (suite-suffixed \
         for CPU2017, e.g. 505.mcf_r). Other shapes will not join against \
         the roster tables, the records CSV and the figures keyed by id.");

    // ----------------------------------------------------------------- C: config

    rule!(pub C001, "C001", "line-pow2", Error, Config,
        "line size must be a power of two",
        "Set indexing and tag extraction decompose addresses with shifts \
         and masks; a non-power-of-two line size breaks the address \
         arithmetic of every cache level.");
    rule!(pub C002, "C002", "associativity-min", Error, Config,
        "associativity must be at least 1",
        "A set needs at least one way to hold a line; zero ways means the \
         cache cannot store anything.");
    rule!(pub C003, "C003", "size-multiple", Error, Config,
        "cache size must be a positive multiple of ways * line size",
        "Capacity must divide evenly into sets of (associativity x line \
         size) bytes, or the geometry implies a fractional set count.");
    rule!(pub C004, "C004", "sets-pow2", Info, Config,
        "set count is not a power of two",
        "Most caches index with low-order address bits, which needs a \
         power-of-two set count — but real parts break this: the modelled \
         Haswell E5-2650L v3's 30 MiB 20-way L3 has 24576 sets. \
         Informational only; the simulator handles either.");
    rule!(pub C005, "C005", "capacity-ordering", Error, Config,
        "inclusive hierarchy requires L1 <= L2 <= L3 capacity",
        "The modelled hierarchy is inclusive: every L1-resident line also \
         occupies L2 and L3. An inner level larger than an outer level \
         cannot be contained by it, and the miss-rate identities of paper \
         Figs. 4-6 stop holding.");
    rule!(pub C006, "C006", "latency-ordering", Error, Config,
        "access latencies must increase strictly down the hierarchy",
        "The CPI stack charges each miss the *additional* latency of the \
         next level; l2 < l3 < memory (all >= 1 cycle) is what makes \
         those charges non-negative. Protects the Fig. 9 CPI \
         decomposition.");
    rule!(pub C007, "C007", "line-uniform", Warning, Config,
        "cache levels disagree on line size",
        "The locality model reasons about one line granularity end to \
         end; mixed line sizes silently rescale miss counts between \
         levels. All modelled Intel parts use 64 B throughout.");
    rule!(pub C008, "C008", "issue-width-range", Error, Config,
        "issue width must be within [1, 16]",
        "Width 0 retires nothing (cycles diverge); widths beyond 16 are \
         outside any shipped core and the engine's ILP model. Haswell is \
         4-wide.");
    rule!(pub C009, "C009", "clock-range", Error, Config,
        "clock frequency must be positive, finite, and at most 10 GHz",
        "Runtime projection divides cycles by clock_ghz; zero, negative, \
         NaN or >10 GHz clocks turn Table 2 projected runtimes into \
         garbage.");
    rule!(pub C010, "C010", "mispredict-penalty-range", Warning, Config,
        "branch mispredict penalty outside [5, 30] cycles",
        "Pipeline refill costs on modelled cores sit in the 5-30 cycle \
         band (Haswell ~15). Outliers skew the branch component of the \
         Fig. 9 CPI stack far outside measured behaviour.");
    rule!(pub C011, "C011", "cores-range", Error, Config,
        "core count must be within [1, 1024]",
        "Rate runs scale by core count; zero cores means no copies run, \
         and >1024 is outside the scaling model's validated range.");
    rule!(pub C012, "C012", "predictor-geometry", Error, Config,
        "branch predictor table geometry is illegal",
        "Bimodal/gshare tables index with masked history/PC bits: table \
         sizes must be powers of two and gshare history at most 32 bits, \
         or indexing aliases unpredictably. Protects Fig. 7 mispredict \
         reproduction.");
    rule!(pub C013, "C013", "tlb-geometry", Error, Config,
        "TLB geometry is illegal",
        "The TLB needs at least one entry and a power-of-two page size \
         for page-number extraction. Haswell's DTLB is 64 entries of \
         4 KiB pages.");
    rule!(pub C014, "C014", "tlb-page-range", Warning, Config,
        "TLB page size outside [4 KiB, 1 GiB]",
        "x86-64 supports 4 KiB / 2 MiB / 1 GiB pages. Other sizes are \
         legal to simulate but almost always a typo'd exponent.");
    rule!(pub C015, "C015", "prefetch-depth", Error, Config,
        "prefetch depth beyond the modelled maximum",
        "The stream detector ramps 1 -> 2 -> 4 lines ahead and the model \
         is validated only to depth 8; deeper prefetch would fabricate \
         bandwidth the memory model does not charge for.");

    // ----------------------------------------------------------------- R: result

    rule!(pub R020, "R020", "store-envelope", Error, Result,
        "cached entry has a corrupt storage envelope",
        "The simstore envelope (magic, version, key echo, length, digest) \
         failed verification; the entry is unreadable and reads as a miss. \
         Usually torn writes or bit rot in results/cache.");
    rule!(pub R021, "R021", "store-payload", Error, Result,
        "cached entry payload does not decode as a record",
        "The envelope verified but the payload is not a valid versioned \
         CharRecord encoding (typically a schema-version mismatch from \
         an older binary), or its counters break an identity the engine \
         guarantees: the L1/L2/L3 load partitions, the branch-kind \
         partition, mispredicts within branches, cycles behind retired \
         instructions, loads and the counted classes within retired \
         instructions. The message names the identity and both sides. \
         Such an entry reads as a miss; re-run to repopulate.");

    // --------------------------------------------------------------- S: simpoint

    rule!(pub S001, "S001", "weights-sum", Error, Simpoint,
        "cluster weights must each lie in (0, 1] and sum to 1",
        "A simpoint record's cluster weights are the fractions of the \
         run's intervals each medoid stands for; whole-run counters are \
         reconstructed as the weight-scaled sum of medoid counters. \
         Weights that do not partition the run (sum != 1 within 1e-6, or \
         a weight outside (0, 1]) bias every reconstructed counter and \
         invalidate the reported speedup/error trade-off.");
    rule!(pub S002, "S002", "empty-cluster", Error, Simpoint,
        "every cluster must own at least one interval",
        "k-medoids assigns each interval to exactly one medoid, so a \
         cluster with zero member intervals cannot occur in a valid \
         clustering: it means the labels and medoids arrays were edited \
         or truncated independently. An empty cluster's medoid was \
         simulated for nothing and its weight misallocates the run's \
         interval mass to the remaining clusters.");
    rule!(pub S003, "S003", "medoid-range", Error, Simpoint,
        "medoid indices must be unique, in range, and in their own cluster",
        "Medoids are interval indices into the profiled run, so each must \
         be < n_intervals, appear once, and be labelled with its own \
         cluster (a medoid is by definition the member minimizing its \
         cluster's distance sum). An out-of-range or misassigned medoid \
         means the reconstruction scaled intervals that do not \
         correspond to the clusters being reconstructed.");
    rule!(pub S004, "S004", "interval-count", Error, Simpoint,
        "interval bookkeeping must be consistent with the run size",
        "The interval grid is derived from the run: labels has one entry \
         per interval, n_intervals = ceil(total_ops / interval_ops), \
         simulated ops cannot exceed total ops, and the reference \
         instruction counter equals total_ops (one retired instruction \
         per counted micro-op). Any mismatch means the record mixes two \
         different runs and its per-counter errors compare apples to \
         oranges.");
    rule!(pub S005, "S005", "record-decodes", Error, Simpoint,
        "stored simpoint payload fails to decode",
        "Entries under results/simpoints/ are schema-versioned binary \
         simpoint records written through the content-addressed store. A \
         payload that fails to decode (bad magic, wrong schema version, \
         or trailing bytes) is either corruption or a foreign artifact \
         under the simpoint prefix; the reporter would otherwise skip it \
         silently and under-report the roster.");

    // ------------------------------------------------------------------- D: dash

    rule!(pub D003, "D003", "dangling-artifact-pointer", Error, Dash,
        "every artifact a manifest points at must exist on disk",
        "Manifests carry typed pointers (traces, profiles, \
         timelines, simpoints, metrics, records) relative to the results \
         directory, and the dashboard joins across them by pointer — \
         never by filename guessing. A pointer whose target is missing \
         means artifacts were deleted or moved after the run, or the \
         manifest was copied without its artifacts; the correlation join \
         and the HTML report would silently render an incomplete run.");
    rule!(pub D004, "D004", "duplicate-run-id", Error, Dash,
        "run ids must be unique across results/runs/",
        "The 128-bit run id is the primary key every other layer joins \
         on (trace root arg, dashboard file name, diff gate identity). \
         Two manifests sharing an id means a manifest was copied by hand \
         or the id inputs lost their entropy — `simgate dash --run ID` and \
         the baseline gate would pick one of the two arbitrarily.");
}

/// Every registered rule, in catalog order.
pub static CATALOG: &[&RuleCode] = &[
    &codes::P001,
    &codes::P002,
    &codes::P003,
    &codes::P004,
    &codes::P005,
    &codes::P006,
    &codes::P007,
    &codes::P008,
    &codes::P009,
    &codes::P010,
    &codes::P011,
    &codes::P012,
    &codes::P013,
    &codes::P014,
    &codes::P015,
    &codes::P016,
    &codes::P017,
    &codes::C001,
    &codes::C002,
    &codes::C003,
    &codes::C004,
    &codes::C005,
    &codes::C006,
    &codes::C007,
    &codes::C008,
    &codes::C009,
    &codes::C010,
    &codes::C011,
    &codes::C012,
    &codes::C013,
    &codes::C014,
    &codes::C015,
    &codes::R020,
    &codes::R021,
    &codes::S001,
    &codes::S002,
    &codes::S003,
    &codes::S004,
    &codes::S005,
    &codes::D003,
    &codes::D004,
];

/// Looks up a rule by its code, case-insensitively (`"p004"` finds `P004`).
pub fn find(code: &str) -> Option<&'static RuleCode> {
    CATALOG
        .iter()
        .find(|rule| rule.code.eq_ignore_ascii_case(code))
        .copied()
}

/// The `--explain CODE` text: severity, family, invariant, and rationale.
pub fn explain(code: &str) -> Option<String> {
    let rule = find(code)?;
    Some(format!(
        "{} ({}) — {} [{}]\n\n  invariant: {}\n\n  {}\n",
        rule.code,
        rule.name,
        rule.severity,
        rule.family.label(),
        rule.summary,
        rule.explanation
    ))
}

/// The closest registered code to a mistyped one (edit distance ≤ 2 on the
/// uppercased input), for "did you mean" hints; earliest catalog entry wins
/// ties so the suggestion is deterministic.
pub fn suggest(code: &str) -> Option<&'static str> {
    let needle = code.to_ascii_uppercase();
    let mut best: Option<(usize, &'static str)> = None;
    for rule in CATALOG {
        let d = edit_distance(&needle, rule.code);
        if d <= 2 && best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, rule.code));
        }
    }
    best.map(|(_, code)| code)
}

/// Plain Levenshtein distance over bytes (codes are ASCII).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for rule in CATALOG {
            assert!(seen.insert(rule.code), "duplicate code {}", rule.code);
            let family_letter = match rule.family {
                Family::Profile => 'P',
                Family::Config => 'C',
                Family::Result => 'R',
                Family::Simpoint => 'S',
                Family::Dash => 'D',
            };
            assert!(
                rule.code.starts_with(family_letter),
                "{} is in the wrong family",
                rule.code
            );
            assert_eq!(rule.code.len(), 4, "{} not letter+3 digits", rule.code);
            assert!(!rule.summary.is_empty() && !rule.explanation.is_empty());
        }
        assert_eq!(CATALOG.len(), 41, "five families, 41 rules");
    }

    #[test]
    fn find_is_case_insensitive() {
        assert_eq!(find("p004"), Some(&codes::P004));
        assert_eq!(find("R020").map(|r| r.code), Some("R020"));
        assert!(find("Z999").is_none());
    }

    #[test]
    fn suggest_finds_near_misses_only() {
        assert_eq!(suggest("d03"), Some("D003"));
        assert_eq!(suggest("D0004"), Some("D004"));
        assert_eq!(suggest("P04"), Some("P004"));
        assert_eq!(suggest("R0200"), Some("R020"));
        assert_eq!(suggest("qqqqqq"), None, "far-off strings get no hint");
    }

    #[test]
    fn explain_includes_invariant_and_rationale() {
        let text = explain("C005").unwrap();
        assert!(text.contains("C005"));
        assert!(text.contains("capacity-ordering"));
        assert!(text.contains("inclusive"));
        assert!(explain("nope").is_none());
    }

    #[test]
    fn legacy_messages_are_preserved() {
        // These summaries double as the historical panic / validate()
        // messages; downstream tests assert on the exact wording.
        assert_eq!(codes::P004.summary, "loads + stores + branches exceed 100%");
        assert_eq!(codes::C001.summary, "line size must be a power of two");
        assert_eq!(codes::C002.summary, "associativity must be at least 1");
        assert_eq!(
            codes::C003.summary,
            "cache size must be a positive multiple of ways * line size"
        );
        assert_eq!(
            codes::P012.summary,
            "service fractions must be non-negative and sum to 1"
        );
    }
}
