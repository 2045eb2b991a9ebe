//! Suite-level aggregation — the paper's Table II overview.

use stat_analysis::summary;
use workload_synth::profile::{AppProfile, InputSize, Suite};

use crate::cache::CacheContext;
use crate::characterize::{characterize_pairs_with, pairs_at_every_size, CharRecord, RunConfig};
use crate::error::Result;

/// Average execution characteristics of one mini-suite at one input size
/// (one row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Mini-suite.
    pub suite: Suite,
    /// Input size.
    pub size: InputSize,
    /// Number of application–input pairs aggregated.
    pub pairs: usize,
    /// Average paper-scale instruction count, billions.
    pub instructions_billions: f64,
    /// Average measured IPC.
    pub ipc: f64,
    /// Average projected execution time, seconds.
    pub execution_seconds: f64,
}

/// Aggregates records into Table II rows (suite-major, size-minor order).
///
/// Records not matching any (suite, size) combination simply produce no row.
pub fn table_two_rows(records: &[CharRecord]) -> Vec<SuiteRow> {
    let mut rows = Vec::new();
    for suite in Suite::ALL {
        for size in InputSize::ALL {
            let subset: Vec<&CharRecord> = records
                .iter()
                .filter(|r| r.suite == suite && r.size == size)
                .collect();
            if subset.is_empty() {
                continue;
            }
            // The paper averages multi-input applications over their inputs
            // first, then averages applications.
            let mut by_app: std::collections::BTreeMap<&str, Vec<&CharRecord>> =
                std::collections::BTreeMap::new();
            for r in &subset {
                by_app.entry(r.app.as_str()).or_default().push(r);
            }
            let app_means = |f: fn(&CharRecord) -> f64| -> f64 {
                let means: Vec<f64> = by_app
                    .values()
                    .map(|rs| rs.iter().map(|r| f(r)).sum::<f64>() / rs.len() as f64)
                    .collect();
                summary::mean(&means).expect("non-empty suite")
            };
            rows.push(SuiteRow {
                suite,
                size,
                pairs: subset.len(),
                instructions_billions: app_means(|r| r.instructions_billions),
                ipc: app_means(|r| r.ipc()),
                execution_seconds: app_means(|r| r.projected_seconds),
            });
        }
    }
    rows
}

/// Characterizes `apps` at every input size (cache-first when a context is
/// given) and aggregates the records into Table II rows — the one-call path
/// from a roster to the suite overview.
pub fn table_two_rows_cached(
    apps: &[AppProfile],
    config: &RunConfig,
    cache: Option<&CacheContext>,
) -> Result<Vec<SuiteRow>> {
    let records = characterize_pairs_with(&pairs_at_every_size(apps), config, cache)?;
    Ok(table_two_rows(&records))
}

/// Mean and sample standard deviation of a metric over `items` (records,
/// or per-application record groups) — the building block of the
/// Tables III–VII comparison rows.
pub fn mean_std<T, F: Fn(&T) -> f64>(items: &[T], f: F) -> (f64, f64) {
    let values: Vec<f64> = items.iter().map(f).collect();
    let mean = summary::mean(&values).unwrap_or(0.0);
    let std = if values.len() >= 2 {
        summary::std_dev(&values).unwrap_or(0.0)
    } else {
        0.0
    };
    (mean, std)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_suite, RunConfig};
    use workload_synth::cpu2017;

    #[test]
    fn rows_cover_suites_and_sizes_present() {
        let apps = vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("619.lbm_s").unwrap(),
        ];
        let config = RunConfig::quick();
        let mut records = characterize_suite(&apps, InputSize::Test, &config).unwrap();
        records.extend(characterize_suite(&apps, InputSize::Ref, &config).unwrap());
        let rows = table_two_rows(&records);
        // 2 suites x 2 sizes.
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .any(|r| r.suite == Suite::RateInt && r.size == InputSize::Test));
        assert!(rows
            .iter()
            .any(|r| r.suite == Suite::SpeedFp && r.size == InputSize::Ref));
    }

    #[test]
    fn ref_rows_have_more_instructions_than_test() {
        let apps = vec![cpu2017::app("505.mcf_r").unwrap()];
        let config = RunConfig::quick();
        let mut records = characterize_suite(&apps, InputSize::Test, &config).unwrap();
        records.extend(characterize_suite(&apps, InputSize::Ref, &config).unwrap());
        let rows = table_two_rows(&records);
        let test_row = rows.iter().find(|r| r.size == InputSize::Test).unwrap();
        let ref_row = rows.iter().find(|r| r.size == InputSize::Ref).unwrap();
        assert!(ref_row.instructions_billions > test_row.instructions_billions * 5.0);
        assert!(ref_row.execution_seconds > test_row.execution_seconds);
    }

    #[test]
    fn multi_input_apps_average_inputs_first() {
        // gcc has 5 ref inputs; the row must count 5 pairs but weight gcc as
        // one application.
        let apps = vec![
            cpu2017::app("502.gcc_r").unwrap(),
            cpu2017::app("505.mcf_r").unwrap(),
        ];
        let config = RunConfig::quick();
        let records = characterize_suite(&apps, InputSize::Ref, &config).unwrap();
        let rows = table_two_rows(&records);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].pairs, 6);
        // Application-mean of instructions, not pair-mean.
        let gcc_mean = records
            .iter()
            .filter(|r| r.app == "502.gcc_r")
            .map(|r| r.instructions_billions)
            .sum::<f64>()
            / 5.0;
        let mcf = records
            .iter()
            .find(|r| r.app == "505.mcf_r")
            .unwrap()
            .instructions_billions;
        let expected = (gcc_mean + mcf) / 2.0;
        assert!((rows[0].instructions_billions - expected).abs() < 1e-9);
    }

    #[test]
    fn cached_table_two_matches_direct_aggregation() {
        let root =
            std::env::temp_dir().join(format!("workchar-suitestats-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::CacheContext::open(&root).unwrap();
        let apps = vec![cpu2017::app("505.mcf_r").unwrap()];
        let config = RunConfig::quick();
        let mut records = Vec::new();
        for size in InputSize::ALL {
            records.extend(characterize_suite(&apps, size, &config).unwrap());
        }
        let direct = table_two_rows(&records);
        let cold = table_two_rows_cached(&apps, &config, Some(&cache)).unwrap();
        let warm = table_two_rows_cached(&apps, &config, Some(&cache)).unwrap();
        assert_eq!(direct, cold);
        assert_eq!(cold, warm);
        assert_eq!(cache.stats.snapshot().hits, 3, "three sizes replayed");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn mean_std_basics() {
        let apps = vec![cpu2017::app("541.leela_r").unwrap()];
        let records = characterize_suite(&apps, InputSize::Ref, &RunConfig::quick()).unwrap();
        let refs: Vec<&CharRecord> = records.iter().collect();
        let (mean, std) = mean_std(&refs, |r| r.ipc());
        assert!(mean > 0.0);
        assert_eq!(std, 0.0, "single record has zero std");
    }
}
