//! CPU2006 vs CPU2017 suite comparison — Tables III–VII.

use crate::characterize::CharRecord;
use crate::suitestats::mean_std;

/// Which generation a comparison row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generation {
    /// SPEC CPU2006.
    Cpu2006,
    /// SPEC CPU2017.
    Cpu2017,
}

impl Generation {
    /// The paper's row label prefix.
    pub fn label(self) -> &'static str {
        match self {
            Generation::Cpu2006 => "CPU06",
            Generation::Cpu2017 => "CPU17",
        }
    }
}

/// Which application class a comparison row aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Integer applications only.
    Int,
    /// Floating-point applications only.
    Fp,
    /// Every application.
    All,
}

impl Class {
    /// The three classes in the paper's row order.
    pub const ALL: [Class; 3] = [Class::Int, Class::Fp, Class::All];

    /// The paper's row label suffix.
    pub fn label(self) -> &'static str {
        match self {
            Class::Int => "int",
            Class::Fp => "fp",
            Class::All => "all",
        }
    }

    fn matches(self, record: &CharRecord) -> bool {
        match self {
            Class::Int => record.suite.is_int(),
            Class::Fp => !record.suite.is_int(),
            Class::All => true,
        }
    }
}

/// One (mean, standard deviation) cell of a comparison table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Suite mean of the metric.
    pub mean: f64,
    /// Sample standard deviation across applications.
    pub std: f64,
}

/// A comparison row: generation × class, with cells per requested metric.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Which generation.
    pub generation: Generation,
    /// Which class.
    pub class: Class,
    /// Cells in the metric order passed to [`compare_rows`].
    pub cells: Vec<Cell>,
}

impl CompareRow {
    /// The paper-style row label, e.g. `"CPU17 fp"`.
    pub fn label(&self) -> String {
        format!("{} {}", self.generation.label(), self.class.label())
    }
}

/// A metric extractor with its display name.
pub type Metric<'a> = (&'static str, &'a dyn Fn(&CharRecord) -> f64);

/// The per-application record groups every comparison row reads: one set
/// per (generation, class), in the paper's row order, each app's records in
/// input order. Tables III–VII differ only in the metrics they take from
/// these, so a run builds them once.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteAverages {
    sets: Vec<(Generation, Class, Vec<Vec<CharRecord>>)>,
}

impl SuiteAverages {
    /// Groups `cpu06` and `cpu17` per application, for each class.
    pub fn new(cpu06: &[CharRecord], cpu17: &[CharRecord]) -> SuiteAverages {
        let mut sets = Vec::with_capacity(6);
        for class in Class::ALL {
            for (generation, records) in
                [(Generation::Cpu2006, cpu06), (Generation::Cpu2017, cpu17)]
            {
                sets.push((generation, class, app_groups(records, class)));
            }
        }
        SuiteAverages { sets }
    }
}

/// Builds the six comparison rows (`CPU06/CPU17 × int/fp/all`) for a metric
/// list: each metric is averaged over every application's inputs first, so
/// multi-input applications weigh as one, then across applications.
pub fn compare_rows(averages: &SuiteAverages, metrics: &[Metric<'_>]) -> Vec<CompareRow> {
    averages
        .sets
        .iter()
        .map(|(generation, class, apps)| {
            let cells = metrics
                .iter()
                .map(|(_, f)| {
                    let (mean, std) =
                        mean_std(apps, |rs| rs.iter().map(f).sum::<f64>() / rs.len() as f64);
                    Cell { mean, std }
                })
                .collect();
            CompareRow {
                generation: *generation,
                class: *class,
                cells,
            }
        })
        .collect()
}

/// The records of `class`, one group per application in name order.
fn app_groups(records: &[CharRecord], class: Class) -> Vec<Vec<CharRecord>> {
    let mut by_app: std::collections::BTreeMap<&str, Vec<CharRecord>> =
        std::collections::BTreeMap::new();
    for r in records.iter().filter(|r| class.matches(r)) {
        by_app.entry(r.app.as_str()).or_default().push(r.clone());
    }
    by_app.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize_suite, RunConfig};
    use workload_synth::profile::InputSize;
    use workload_synth::{cpu2006, cpu2017};

    fn records() -> (Vec<CharRecord>, Vec<CharRecord>) {
        let config = RunConfig::quick();
        let cpu06 = vec![
            cpu2006::suite()
                .into_iter()
                .find(|a| a.name == "429.mcf")
                .unwrap(),
            cpu2006::suite()
                .into_iter()
                .find(|a| a.name == "470.lbm")
                .unwrap(),
        ];
        let cpu17 = vec![
            cpu2017::app("505.mcf_r").unwrap(),
            cpu2017::app("519.lbm_r").unwrap(),
        ];
        (
            characterize_suite(&cpu06, InputSize::Ref, &config).unwrap(),
            characterize_suite(&cpu17, InputSize::Ref, &config).unwrap(),
        )
    }

    #[test]
    fn six_rows_in_paper_order() {
        let (c06, c17) = records();
        let ipc: Metric<'_> = ("IPC", &|r: &CharRecord| r.ipc());
        let rows = compare_rows(&SuiteAverages::new(&c06, &c17), &[ipc]);
        let labels: Vec<String> = rows.iter().map(|r| r.label()).collect();
        assert_eq!(
            labels,
            vec![
                "CPU06 int",
                "CPU17 int",
                "CPU06 fp",
                "CPU17 fp",
                "CPU06 all",
                "CPU17 all"
            ]
        );
    }

    #[test]
    fn all_class_combines_int_and_fp() {
        let (c06, c17) = records();
        let ipc: Metric<'_> = ("IPC", &|r: &CharRecord| r.ipc());
        let rows = compare_rows(&SuiteAverages::new(&c06, &c17), &[ipc]);
        let get = |label: &str| rows.iter().find(|r| r.label() == label).unwrap().cells[0].mean;
        let int17 = get("CPU17 int");
        let fp17 = get("CPU17 fp");
        let all17 = get("CPU17 all");
        assert!((all17 - (int17 + fp17) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_metrics_produce_multiple_cells() {
        let (c06, c17) = records();
        let m1: Metric<'_> = ("loads", &|r: &CharRecord| r.load_pct());
        let m2: Metric<'_> = ("stores", &|r: &CharRecord| r.store_pct());
        let rows = compare_rows(&SuiteAverages::new(&c06, &c17), &[m1, m2]);
        assert!(rows.iter().all(|r| r.cells.len() == 2));
    }

    #[test]
    fn app_averaging_prevents_input_overweighting() {
        let config = RunConfig::quick();
        let apps = vec![
            cpu2017::app("502.gcc_r").unwrap(), // 5 inputs
            cpu2017::app("505.mcf_r").unwrap(), // 1 input
        ];
        let records = characterize_suite(&apps, InputSize::Ref, &config).unwrap();
        // Every metric is averaged per app, derived or stored alike.
        let ipc: Metric<'_> = ("IPC", &|r: &CharRecord| r.ipc());
        let cpi: Metric<'_> = ("CPI memory", &|r: &CharRecord| r.cpi_memory);
        let rows = compare_rows(&SuiteAverages::new(&[], &records), &[ipc, cpi]);
        let int_row = rows.iter().find(|r| r.label() == "CPU17 int").unwrap();
        for (cell, (name, f)) in int_row.cells.iter().zip([ipc, cpi]) {
            // Mean of two app-level values, not six pair-level ones.
            let gcc_mean = records
                .iter()
                .filter(|r| r.app == "502.gcc_r")
                .map(f)
                .sum::<f64>()
                / 5.0;
            let mcf = f(records.iter().find(|r| r.app == "505.mcf_r").unwrap());
            assert!((cell.mean - (gcc_mean + mcf) / 2.0).abs() < 1e-9, "{name}");
        }
    }
}
