//! Config-legality rules (the `C…` family of [`simcheck`] codes).
//!
//! These checks collect *every* violation in a [`Report`] instead of
//! panicking at the first one; the panicking constructors
//! ([`CacheConfig::new`](crate::config::CacheConfig::new) and friends) are
//! thin deny-by-default wrappers over the `try_new` variants that call into
//! this module.

use simcheck::{codes, Diagnostic, Report, Span};

use crate::config::{CacheConfig, SystemConfig};

/// Checks one cache level's geometry (C001–C004). `object` names the cache
/// in spans, e.g. `"haswell.l3"`.
pub fn check_cache(object: &str, cache: &CacheConfig) -> Report {
    let mut report = Report::new();
    if !cache.line_bytes.is_power_of_two() {
        report.push(Diagnostic::new(
            &codes::C001,
            Span::field(object, "line_bytes"),
            format!(
                "line size must be a power of two, got {} B",
                cache.line_bytes
            ),
        ));
    }
    if cache.ways < 1 {
        report.push(Diagnostic::new(
            &codes::C002,
            Span::field(object, "ways"),
            "associativity must be at least 1, got 0",
        ));
    }
    let quantum = cache.ways * cache.line_bytes;
    if cache.size_bytes == 0 || quantum == 0 || !cache.size_bytes.is_multiple_of(quantum) {
        report.push(Diagnostic::new(
            &codes::C003,
            Span::field(object, "size_bytes"),
            format!(
                "cache size must be a positive multiple of ways * line size \
                 ({} B is not a multiple of {} ways x {} B)",
                cache.size_bytes, cache.ways, cache.line_bytes
            ),
        ));
    } else if !cache.sets().is_power_of_two() {
        report.push(Diagnostic::new(
            &codes::C004,
            Span::field(object, "size_bytes"),
            format!(
                "{} sets is not a power of two (fine for the simulator; \
                 real Haswell L3 slices do this too)",
                cache.sets()
            ),
        ));
    }
    report
}

/// Checks a full system configuration: every cache level (C001–C004) plus
/// the cross-level and core parameters (C005–C011).
pub fn check_system(config: &SystemConfig) -> Report {
    let name = config.name.as_str();
    let mut report = Report::new();
    for (level, cache) in [
        ("l1i", &config.l1i),
        ("l1d", &config.l1d),
        ("l2", &config.l2),
        ("l3", &config.l3),
    ] {
        let sub = check_cache(&format!("{name}.{level}"), cache);
        report.merge(sub);
    }

    // C005: inclusive hierarchy containment.
    for (inner_name, inner, outer_name, outer) in [
        ("l1d", &config.l1d, "l2", &config.l2),
        ("l1i", &config.l1i, "l2", &config.l2),
        ("l2", &config.l2, "l3", &config.l3),
    ] {
        if inner.size_bytes > outer.size_bytes {
            report.push(Diagnostic::new(
                &codes::C005,
                Span::field(name, format!("{outer_name}.size_bytes")),
                format!(
                    "inclusive hierarchy requires {inner_name} ({} B) <= \
                     {outer_name} ({} B)",
                    inner.size_bytes, outer.size_bytes
                ),
            ));
        }
    }

    // C006: strictly increasing service latencies, at least one cycle.
    if config.timing.l2_latency < 1 {
        report.push(Diagnostic::new(
            &codes::C006,
            Span::field(name, "l2_latency"),
            "L2 latency must be at least 1 cycle",
        ));
    }
    if config.timing.l3_latency <= config.timing.l2_latency {
        report.push(Diagnostic::new(
            &codes::C006,
            Span::field(name, "l3_latency"),
            format!(
                "L3 latency ({} cy) must exceed L2 latency ({} cy)",
                config.timing.l3_latency, config.timing.l2_latency
            ),
        ));
    }
    if config.timing.memory_latency <= config.timing.l3_latency {
        report.push(Diagnostic::new(
            &codes::C006,
            Span::field(name, "memory_latency"),
            format!(
                "memory latency ({} cy) must exceed L3 latency ({} cy)",
                config.timing.memory_latency, config.timing.l3_latency
            ),
        ));
    }

    // C007: one line granularity end to end.
    for (level, cache) in [("l1i", &config.l1i), ("l2", &config.l2), ("l3", &config.l3)] {
        if cache.line_bytes != config.l1d.line_bytes {
            report.push(Diagnostic::new(
                &codes::C007,
                Span::field(name, format!("{level}.line_bytes")),
                format!(
                    "{level} line size {} B differs from l1d line size {} B",
                    cache.line_bytes, config.l1d.line_bytes
                ),
            ));
        }
    }

    // C008: issue width.
    if !(1..=16).contains(&config.timing.issue_width) {
        report.push(Diagnostic::new(
            &codes::C008,
            Span::field(name, "issue_width"),
            format!(
                "issue width must be within [1, 16], got {}",
                config.timing.issue_width
            ),
        ));
    }

    // C009: clock.
    if !config.timing.clock_ghz.is_finite()
        || config.timing.clock_ghz <= 0.0
        || config.timing.clock_ghz > 10.0
    {
        report.push(Diagnostic::new(
            &codes::C009,
            Span::field(name, "clock_ghz"),
            format!(
                "clock must be positive, finite, and at most 10 GHz, got {}",
                config.timing.clock_ghz
            ),
        ));
    }

    // C010: mispredict penalty band.
    if !(5..=30).contains(&config.timing.mispredict_penalty) {
        report.push(Diagnostic::new(
            &codes::C010,
            Span::field(name, "mispredict_penalty"),
            format!(
                "mispredict penalty {} cy outside the modelled [5, 30] band",
                config.timing.mispredict_penalty
            ),
        ));
    }

    // C011: core count.
    if !(1..=1024).contains(&config.cores) {
        report.push(Diagnostic::new(
            &codes::C011,
            Span::field(name, "cores"),
            format!("core count must be within [1, 1024], got {}", config.cores),
        ));
    }

    report
}

/// Checks branch-predictor table geometry (C012). `history_bits` is `None`
/// for history-less predictors (bimodal).
pub fn check_predictor_geometry(object: &str, entries: usize, history_bits: Option<u32>) -> Report {
    let mut report = Report::new();
    if !entries.is_power_of_two() {
        report.push(Diagnostic::new(
            &codes::C012,
            Span::field(object, "entries"),
            format!("table size must be a power of two, got {entries}"),
        ));
    }
    if let Some(bits) = history_bits {
        if bits > 32 {
            report.push(Diagnostic::new(
                &codes::C012,
                Span::field(object, "history_bits"),
                format!("history too long: {bits} bits exceeds the 32-bit maximum"),
            ));
        }
    }
    report
}

/// Checks TLB geometry (C013) and page-size plausibility (C014).
pub fn check_tlb(object: &str, entries: usize, page_bytes: usize) -> Report {
    let mut report = Report::new();
    if !page_bytes.is_power_of_two() {
        report.push(Diagnostic::new(
            &codes::C013,
            Span::field(object, "page_bytes"),
            format!("page size must be a power of two, got {page_bytes} B"),
        ));
    }
    if entries < 1 {
        report.push(Diagnostic::new(
            &codes::C013,
            Span::field(object, "entries"),
            "TLB needs at least one entry, got 0",
        ));
    }
    if page_bytes.is_power_of_two() && !(4096..=(1usize << 30)).contains(&page_bytes) {
        report.push(Diagnostic::new(
            &codes::C014,
            Span::field(object, "page_bytes"),
            format!("page size {page_bytes} B outside the x86-64 [4 KiB, 1 GiB] range"),
        ));
    }
    report
}

/// Checks a prefetch depth against the modelled maximum (C015).
pub fn check_prefetch_depth(object: &str, depth: u32) -> Report {
    let mut report = Report::new();
    if depth > 8 {
        report.push(Diagnostic::new(
            &codes::C015,
            Span::field(object, "depth"),
            format!("prefetch depth {depth} exceeds the modelled maximum of 8"),
        ));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::Policy;

    #[test]
    fn haswell_and_tiny_lint_clean_of_errors() {
        for config in [
            SystemConfig::haswell_e5_2650l_v3(),
            SystemConfig::tiny_test(),
        ] {
            let report = check_system(&config);
            assert!(
                !report.failed(true),
                "{} should lint clean:\n{}",
                config.name,
                report.to_table()
            );
        }
    }

    #[test]
    fn haswell_l3_sets_get_an_info_note_only() {
        let report = check_system(&SystemConfig::haswell_e5_2650l_v3());
        let c004: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code.code == "C004")
            .collect();
        assert_eq!(c004.len(), 1, "24576-set L3 should note C004 once");
        assert_eq!(c004[0].severity, simcheck::Severity::Info);
    }

    #[test]
    fn bad_cache_collects_all_violations() {
        let cache = CacheConfig {
            size_bytes: 1000,
            ways: 0,
            line_bytes: 48,
            policy: Policy::Lru,
        };
        let report = check_cache("bad", &cache);
        let fired: Vec<&str> = report.diagnostics().iter().map(|d| d.code.code).collect();
        assert_eq!(fired, ["C001", "C002", "C003"], "all three, in order");
    }

    #[test]
    fn capacity_inversion_fires_c005() {
        let mut config = SystemConfig::tiny_test();
        config.l2 = CacheConfig::new(512, 2, 64, Policy::Lru); // smaller than 1 KiB L1s
        let report = check_system(&config);
        assert!(report.diagnostics().iter().any(|d| d.code.code == "C005"));
        assert!(report.has_errors());
    }

    #[test]
    fn latency_inversion_fires_c006() {
        let mut config = SystemConfig::tiny_test();
        config.timing.memory_latency = config.timing.l3_latency; // not strictly greater
        let report = check_system(&config);
        assert!(report.diagnostics().iter().any(|d| d.code.code == "C006"));
    }

    #[test]
    fn width_clock_cores_ranges() {
        let mut config = SystemConfig::tiny_test();
        config.timing.issue_width = 0;
        config.timing.clock_ghz = f64::NAN;
        config.cores = 0;
        let report = check_system(&config);
        for code in ["C008", "C009", "C011"] {
            assert!(
                report.diagnostics().iter().any(|d| d.code.code == code),
                "expected {code}:\n{}",
                report.to_table()
            );
        }
    }

    #[test]
    fn predictor_and_tlb_geometry() {
        assert!(check_predictor_geometry("p", 16 * 1024, Some(12)).is_empty());
        assert!(check_predictor_geometry("p", 100, None).has_errors());
        assert!(check_predictor_geometry("p", 1024, Some(48)).has_errors());
        assert!(check_tlb("t", 64, 4096).is_empty());
        assert!(check_tlb("t", 0, 1000).has_errors());
        let small_pages = check_tlb("t", 64, 512);
        assert!(!small_pages.has_errors() && small_pages.has_warnings());
    }

    #[test]
    fn prefetch_depth_cap() {
        assert!(check_prefetch_depth("pf", 4).is_empty());
        assert!(check_prefetch_depth("pf", 9).has_errors());
    }
}
