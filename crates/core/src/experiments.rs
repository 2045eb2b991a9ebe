//! The experiment registry: one entry per table and figure of the paper.
//!
//! Every [`ExperimentId`] regenerates the corresponding artifact from a
//! collected [`Dataset`]; the `reproduce` binary drives all twenty and
//! writes the renderings under `results/`.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::rc::Rc;

use simreport::figure::{Figure, Kind, Series};
use simreport::fixed::Fixed;
use simreport::table::{num, Table};
use stat_analysis::cluster::Linkage;
use stat_analysis::summary;
use uarch_sim::counters::Event;
use workload_synth::profile::{InputSize, Suite};

use crate::characterize::CharRecord;
use crate::compare::{compare_rows, Metric, SuiteAverages};
use crate::dataset::Dataset;
use crate::error::Result;
use crate::metrics::CHARACTERISTICS;
use crate::redundancy::RedundancyAnalysis;
use crate::subset::SubsetAnalysis;
use crate::suitestats::table_two_rows;

/// Identifier of one paper table or figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are self-describing table/figure ids
pub enum ExperimentId {
    Table1,
    Table2,
    Table3,
    Table4,
    Table5,
    Table6,
    Table7,
    Table8,
    Table9,
    Table10,
    Fig1,
    Fig2,
    Fig3,
    Fig4,
    Fig5,
    Fig6,
    Fig7,
    Fig8,
    Fig9,
    Fig10,
}

impl ExperimentId {
    /// All experiments in paper order.
    pub const ALL: [ExperimentId; 20] = [
        ExperimentId::Table1,
        ExperimentId::Table2,
        ExperimentId::Table3,
        ExperimentId::Table4,
        ExperimentId::Table5,
        ExperimentId::Table6,
        ExperimentId::Table7,
        ExperimentId::Table8,
        ExperimentId::Table9,
        ExperimentId::Table10,
        ExperimentId::Fig1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Fig10,
    ];

    /// Short machine-friendly name, e.g. `"table2"` / `"fig10"`.
    pub fn slug(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "table1",
            ExperimentId::Table2 => "table2",
            ExperimentId::Table3 => "table3",
            ExperimentId::Table4 => "table4",
            ExperimentId::Table5 => "table5",
            ExperimentId::Table6 => "table6",
            ExperimentId::Table7 => "table7",
            ExperimentId::Table8 => "table8",
            ExperimentId::Table9 => "table9",
            ExperimentId::Table10 => "table10",
            ExperimentId::Fig1 => "fig1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
        }
    }

    /// Parses a slug back to an id.
    pub fn from_slug(slug: &str) -> Option<ExperimentId> {
        ExperimentId::ALL
            .iter()
            .copied()
            .find(|id| id.slug() == slug)
    }

    /// Human-readable description of the paper artifact.
    pub fn description(self) -> &'static str {
        match self {
            ExperimentId::Table1 => "Experimental system configuration",
            ExperimentId::Table2 => {
                "Average performance characteristics per mini-suite and input size"
            }
            ExperimentId::Table3 => "IPC comparison of CPU2017 and CPU2006",
            ExperimentId::Table4 => "Instruction-mix comparison of CPU2017 and CPU2006",
            ExperimentId::Table5 => "RSS and VSZ comparison of CPU2017 and CPU2006",
            ExperimentId::Table6 => "Cache miss-rate comparison of CPU2017 and CPU2006",
            ExperimentId::Table7 => "Branch-predictor accuracy comparison of CPU2017 and CPU2006",
            ExperimentId::Table8 => "The 20 PCA characteristics",
            ExperimentId::Table9 => "Validating PC clustering (bwaves_s inputs vs cactuBSSN_s)",
            ExperimentId::Table10 => "Suggested representative subset and time savings",
            ExperimentId::Fig1 => "IPC per application (rate, speed)",
            ExperimentId::Fig2 => "Memory micro-operation breakdown per application",
            ExperimentId::Fig3 => "Branch characteristics per application",
            ExperimentId::Fig4 => "Memory footprint (RSS, VSZ) per application",
            ExperimentId::Fig5 => "L1/L2/L3 cache miss rates per application",
            ExperimentId::Fig6 => "Branch mispredict rates per application",
            ExperimentId::Fig7 => "Scatter of principal-component scores",
            ExperimentId::Fig8 => "Factor loadings of the 20 characteristics",
            ExperimentId::Fig9 => "Dendrograms of the rate and speed mini-suites",
            ExperimentId::Fig10 => "Pareto-optimal cluster counts (SSE vs execution time)",
        }
    }
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} — {}", self.slug(), self.description())
    }
}

/// The regenerated artifact of one experiment.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Which experiment produced it.
    pub id: ExperimentId,
    /// Zero or more tables.
    pub tables: Vec<Table>,
    /// Zero or more figures.
    pub figures: Vec<Figure>,
    /// Free-form text blocks (dendrograms, chosen-k notes, …).
    pub texts: Vec<(String, String)>,
}

impl Artifact {
    fn new(id: ExperimentId) -> Self {
        Artifact {
            id,
            tables: Vec::new(),
            figures: Vec::new(),
            texts: Vec::new(),
        }
    }

    /// Renders everything as terminal-ready text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_text(&mut out);
        out
    }

    /// Writes [`Artifact::render`]'s text; tables and figures (at width
    /// 100) render straight into `out` through their `Display`.
    fn write_text(&self, out: &mut String) -> fmt::Result {
        writeln!(out, "==== {} ====", self.id)?;
        for t in &self.tables {
            writeln!(out, "{t}")?;
        }
        for f in &self.figures {
            writeln!(out, "{f}")?;
        }
        for (title, body) in &self.texts {
            writeln!(out, "-- {title} --\n{body}")?;
        }
        Ok(())
    }

    /// Renders the CSV payload (tables then figures).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render_csv());
            out.push('\n');
        }
        for f in &self.figures {
            out.push_str(&f.render_csv());
            out.push('\n');
        }
        out
    }
}

/// Runs one experiment against a dataset.
///
/// # Errors
///
/// Propagates [`crate::error::Error`] from the underlying analyses. (The
/// current experiments degrade to explanatory text on small datasets rather
/// than failing, but the contract allows future experiments to fail.)
pub fn run(id: ExperimentId, data: &Dataset) -> Result<Artifact> {
    Ok(match id {
        ExperimentId::Table1 => table1(data),
        ExperimentId::Table2 => table2(data),
        ExperimentId::Table3 => comparison_table(
            data,
            id,
            "Table III analogue: IPC comparison",
            &[("IPC", &|r: &CharRecord| r.ipc())],
        ),
        ExperimentId::Table4 => comparison_table(
            data,
            id,
            "Table IV analogue: instruction-mix comparison",
            &[
                ("% Loads", &|r: &CharRecord| r.load_pct()),
                ("% Stores", &|r: &CharRecord| r.store_pct()),
                ("% Branches", &|r: &CharRecord| r.branch_pct()),
            ],
        ),
        ExperimentId::Table5 => comparison_table(
            data,
            id,
            "Table V analogue: RSS and VSZ comparison (GiB)",
            &[
                ("RSS (GiB)", &|r: &CharRecord| r.rss_gib),
                ("VSZ (GiB)", &|r: &CharRecord| r.vsz_gib),
            ],
        ),
        ExperimentId::Table6 => comparison_table(
            data,
            id,
            "Table VI analogue: cache miss-rate comparison (%)",
            &[
                ("L1 Miss", &|r: &CharRecord| r.l1_miss_pct()),
                ("L2 Miss", &|r: &CharRecord| r.l2_miss_pct()),
                ("L3 Miss", &|r: &CharRecord| r.l3_miss_pct()),
            ],
        ),
        ExperimentId::Table7 => comparison_table(
            data,
            id,
            "Table VII analogue: branch mispredict comparison (%)",
            &[("Mispredict", &|r: &CharRecord| r.mispredict_pct())],
        ),
        ExperimentId::Table8 => table8(),
        ExperimentId::Table9 => table9(data),
        ExperimentId::Table10 => table10(data),
        ExperimentId::Fig1 => per_app_figure(data, id, "IPC", &|r| r.ipc()),
        ExperimentId::Fig2 => fig2(data),
        ExperimentId::Fig3 => fig3(data),
        ExperimentId::Fig4 => fig4(data),
        ExperimentId::Fig5 => fig5(data),
        ExperimentId::Fig6 => per_app_figure(data, id, "Branch mispredict rate (%)", &|r| {
            r.mispredict_pct()
        }),
        ExperimentId::Fig7 => fig7(data),
        ExperimentId::Fig8 => fig8(data),
        ExperimentId::Fig9 => fig9(data),
        ExperimentId::Fig10 => fig10(data),
    })
}

/// Runs every experiment.
///
/// # Errors
///
/// Propagates the first per-experiment [`crate::error::Error`].
pub fn run_all(data: &Dataset) -> Result<Vec<Artifact>> {
    ExperimentId::ALL.iter().map(|&id| run(id, data)).collect()
}

fn table1(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Table1);
    let c = &data.config.system;
    let mut t = Table::new(
        "Table I analogue: simulated system configuration",
        &["Component", "Configuration"],
    );
    let kib = |b: usize| format!("{} KiB", b / 1024);
    t.row(vec!["Processor model".into(), c.name.clone()])
        .row(vec![
            "Clock".into(),
            format!("{:.1} GHz (Turbo disabled)", Fixed(c.timing.clock_ghz)),
        ])
        .row(vec![
            "L1 I-cache".into(),
            format!("{}-way {} (per core)", c.l1i.ways, kib(c.l1i.size_bytes)),
        ])
        .row(vec![
            "L1 D-cache".into(),
            format!("{}-way {} (per core)", c.l1d.ways, kib(c.l1d.size_bytes)),
        ])
        .row(vec![
            "L2 cache".into(),
            format!("{}-way {} (per core)", c.l2.ways, kib(c.l2.size_bytes)),
        ])
        .row(vec![
            "L3 cache".into(),
            format!("{} MiB shared", c.l3.size_bytes / (1024 * 1024)),
        ])
        .row(vec!["Line size".into(), format!("{} B", c.l1d.line_bytes)])
        .row(vec![
            "Issue width".into(),
            format!("{} micro-ops/cycle", c.timing.issue_width),
        ])
        .row(vec![
            "Mispredict penalty".into(),
            format!("{} cycles", c.timing.mispredict_penalty),
        ])
        .row(vec![
            "Load-to-use latencies".into(),
            format!(
                "L2 {} / L3 {} / DRAM {} cycles",
                c.timing.l2_latency, c.timing.l3_latency, c.timing.memory_latency
            ),
        ])
        .row(vec!["Cores".into(), format!("{}", c.cores)]);
    a.tables.push(t);
    a
}

fn table2(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Table2);
    let mut t = Table::new(
        "Table II analogue: average performance characteristics",
        &[
            "Suite",
            "Input",
            "Pairs",
            "Instr (B, paper scale)",
            "IPC",
            "Exec time (s, projected)",
        ],
    );
    t.numeric();
    for row in table_two_rows(&data.cpu17) {
        t.row(vec![
            row.suite.label().into(),
            row.size.label().into(),
            row.pairs.to_string(),
            num(row.instructions_billions, 3),
            num(row.ipc, 3),
            num(row.execution_seconds, 3),
        ]);
    }
    a.tables.push(t);
    a
}

fn comparison_table(
    data: &Dataset,
    id: ExperimentId,
    title: &str,
    metrics: &[Metric<'_>],
) -> Artifact {
    let mut a = Artifact::new(id);
    let mut headers: Vec<String> = vec!["Suite".into()];
    for (name, _) in metrics {
        headers.push(format!("{name} Avg"));
        headers.push(format!("{name} Std"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(title, &header_refs);
    t.numeric();
    for row in compare_rows(&averages(data, id), metrics) {
        let mut cells = vec![row.label()];
        for cell in &row.cells {
            cells.push(num(cell.mean, 3));
            cells.push(num(cell.std, 3));
        }
        t.row(cells);
    }
    a.tables.push(t);
    a
}

fn table8() -> Artifact {
    let mut a = Artifact::new(ExperimentId::Table8);
    let mut t = Table::new(
        "Table VIII analogue: the 20 PCA characteristics",
        &["#", "Characteristic"],
    );
    for (i, c) in CHARACTERISTICS.iter().enumerate() {
        t.row(vec![(i + 1).to_string(), c.name.into()]);
    }
    a.tables.push(t);
    a
}

fn table9(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Table9);
    let wanted = ["603.bwaves_s-in1", "603.bwaves_s-in2", "607.cactuBSSN_s"];
    let refs = data.cpu17_at(InputSize::Ref);
    let mut t = Table::new(
        "Table IX analogue: validating PC clustering",
        &["Characteristic", wanted[0], wanted[1], wanted[2]],
    );
    t.numeric();
    let find = |id: &str| refs.iter().find(|r| r.id == id).copied();
    let records: Vec<Option<&CharRecord>> = wanted.iter().map(|w| find(w)).collect();
    let mut push_row = |name: &str, f: &dyn Fn(&CharRecord) -> f64, prec: usize| {
        let cells: Vec<String> = records
            .iter()
            .map(|r| r.map(|r| num(f(r), prec)).unwrap_or_else(|| "n/a".into()))
            .collect();
        t.row(vec![
            name.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    };
    push_row("Instruction count (B)", &|r| r.instructions_billions, 3);
    push_row("% Loads", &|r| r.load_pct(), 3);
    push_row("% Stores", &|r| r.store_pct(), 3);
    push_row("% Branches", &|r| r.branch_pct(), 3);
    push_row("RSS (GiB)", &|r| r.rss_gib, 3);
    push_row("VSZ (GiB)", &|r| r.vsz_gib, 3);
    a.tables.push(t);
    a
}

/// One shared fit and the experiments that have read it since it was
/// made (bit `id as u32` of `readers`).
struct Entry<T> {
    fit: Rc<T>,
    readers: u32,
}

/// The fits Tables III–VII and X and Figs. 7–10 share, one set per run on
/// this thread.
///
/// - The key is the CPU2017 ref and CPU2006 records every slot is fitted
///   from, compared with `==`: a changed dataset clears every slot, so no
///   experiment ever reads a fit of other data.
/// - An experiment reads a slot once per run. When the same experiment
///   asks again, a new run has begun: the slot is dropped and refitted.
///   So each slot is fitted once per run and N runs fit N times, exactly
///   what N separate processes pay, and no run inherits another's work.
/// - Slots fill on first read, so an experiment alone pays only for the
///   fits it reads.
#[derive(Default)]
struct FitMemo {
    cpu17_ref: Vec<CharRecord>,
    cpu06: Vec<CharRecord>,
    averages: Option<Entry<SuiteAverages>>,
    redundancy: Option<Entry<Option<RedundancyAnalysis>>>,
    rate: Option<Entry<Option<SubsetAnalysis>>>,
    speed: Option<Entry<Option<SubsetAnalysis>>>,
}

thread_local! {
    static FITS: RefCell<FitMemo> = RefCell::default();
}

/// `slot`'s fit for experiment `id`, running `fit` under a `report/fit`
/// span when the slot is empty or `id` has read it already.
fn read_slot<T>(
    entry: &mut Option<Entry<T>>,
    id: ExperimentId,
    slot: &str,
    fit: impl FnOnce() -> T,
) -> Rc<T> {
    let bit = 1u32 << id as u32;
    if let Some(e) = entry.as_mut().filter(|e| e.readers & bit == 0) {
        e.readers |= bit;
        return Rc::clone(&e.fit);
    }
    let mut span = simtrace::span("report/fit");
    span.arg("slot", slot);
    let fit = Rc::new(fit());
    *entry = Some(Entry {
        fit: Rc::clone(&fit),
        readers: bit,
    });
    fit
}

/// Runs `f` on this thread's memo after checking its key against `data`.
fn with_fits<R>(data: &Dataset, f: impl FnOnce(&mut FitMemo) -> R) -> R {
    FITS.with(|memo| {
        let mut memo = memo.borrow_mut();
        let refs = data.cpu17.iter().filter(|r| r.size == InputSize::Ref);
        if !memo.cpu17_ref.iter().eq(refs.clone()) || memo.cpu06 != data.cpu06 {
            *memo = FitMemo {
                cpu17_ref: refs.cloned().collect(),
                cpu06: data.cpu06.clone(),
                ..FitMemo::default()
            };
        }
        f(&mut memo)
    })
}

/// The per-application averages of Tables III–VII.
fn averages(data: &Dataset, id: ExperimentId) -> Rc<SuiteAverages> {
    with_fits(data, |memo| {
        let FitMemo {
            cpu17_ref,
            cpu06,
            averages,
            ..
        } = memo;
        read_slot(averages, id, "averages", || {
            SuiteAverages::new(cpu06, cpu17_ref)
        })
    })
}

/// The PCA of every CPU2017 ref pair (Figs. 7 and 8); `None` when there
/// are too few records.
fn redundancy(data: &Dataset, id: ExperimentId) -> Rc<Option<RedundancyAnalysis>> {
    with_fits(data, |memo| {
        let FitMemo {
            cpu17_ref,
            redundancy,
            ..
        } = memo;
        read_slot(redundancy, id, "redundancy", || {
            RedundancyAnalysis::fit_paper(cpu17_ref).ok()
        })
    })
}

/// The rate and speed subset analyses (Table X, Figs. 9 and 10), labelled;
/// `None` for a group with too few pairs.
fn subsets(data: &Dataset, id: ExperimentId) -> [(&'static str, Rc<Option<SubsetAnalysis>>); 2] {
    with_fits(data, |memo| {
        [
            (
                "rate",
                read_slot(&mut memo.rate, id, "rate", || subset_for(&data.rate_ref())),
            ),
            (
                "speed",
                read_slot(&mut memo.speed, id, "speed", || {
                    subset_for(&data.speed_ref())
                }),
            ),
        ]
    })
}

fn subset_for(records: &[&CharRecord]) -> Option<SubsetAnalysis> {
    if records.len() < 3 {
        return None;
    }
    let owned: Vec<CharRecord> = records.iter().map(|&r| r.clone()).collect();
    let analysis = RedundancyAnalysis::fit_paper(&owned).ok()?;
    SubsetAnalysis::fit(records, &analysis.score_rows(), Linkage::Average).ok()
}

fn table10(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Table10);
    let mut t = Table::new(
        "Table X analogue: suggested representative subsets",
        &[
            "Group",
            "k",
            "Benchmarks",
            "Subset time (s)",
            "Full time (s)",
            "% Saving",
        ],
    );
    // Alongside our Pareto-knee choice, also report the subset at the
    // paper's own cluster counts (rate 12, speed 10) for direct comparison.
    for ((label, subset), paper_k) in subsets(data, ExperimentId::Table10)
        .into_iter()
        .zip([12, 10])
    {
        match subset.as_ref() {
            Some(s) => {
                t.row(vec![
                    format!("{label} (knee)"),
                    s.chosen_k.to_string(),
                    s.representative_ids().join(", "),
                    num(s.subset_seconds, 3),
                    num(s.full_seconds, 3),
                    num(s.saving_pct(), 3),
                ]);
                if paper_k <= s.ids.len() {
                    if let Some(p) = s.curve.iter().find(|p| p.k == paper_k) {
                        t.row(vec![
                            format!("{label} (paper k)"),
                            paper_k.to_string(),
                            "(same clustering, cut at the paper's k)".into(),
                            num(p.subset_seconds, 3),
                            num(s.full_seconds, 3),
                            num((1.0 - p.subset_seconds / s.full_seconds) * 100.0, 3),
                        ]);
                    }
                }
            }
            None => {
                t.row(vec![
                    label.into(),
                    "-".into(),
                    "(too few pairs)".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    a.tables.push(t);
    a
}

/// Builds the Fig. 1/6-style pair of bar charts (rate, speed) for a metric.
fn per_app_figure(
    data: &Dataset,
    id: ExperimentId,
    metric_name: &str,
    f: &dyn Fn(&CharRecord) -> f64,
) -> Artifact {
    let mut a = Artifact::new(id);
    for (label, suites) in [
        ("rate", [Suite::RateInt, Suite::RateFp]),
        ("speed", [Suite::SpeedInt, Suite::SpeedFp]),
    ] {
        let mut fig = Figure::new(&format!("{metric_name} — {label} mini-suites"), Kind::Bar);
        for suite in suites {
            let records = data.mini_suite_ref(suite);
            if records.is_empty() {
                continue;
            }
            let labels: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
            let values: Vec<f64> = records.iter().map(|r| f(r)).collect();
            fig.push(Series::bars(suite.label(), &labels, &values));
        }
        a.figures.push(fig);
    }
    a
}

fn fig2(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig2);
    for (label, suites) in [
        ("rate", [Suite::RateInt, Suite::RateFp]),
        ("speed", [Suite::SpeedInt, Suite::SpeedFp]),
    ] {
        let mut fig = Figure::new(
            &format!("Memory micro-op breakdown (%) — {label} mini-suites"),
            Kind::Bar,
        );
        let mut labels: Vec<String> = Vec::new();
        let mut loads = Vec::new();
        let mut stores = Vec::new();
        for suite in suites {
            for r in data.mini_suite_ref(suite) {
                labels.push(r.id.clone());
                loads.push(r.load_pct());
                stores.push(r.store_pct());
            }
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        fig.push(Series::bars("% loads", &label_refs, &loads));
        fig.push(Series::bars("% stores", &label_refs, &stores));
        a.figures.push(fig);
    }
    a
}

fn fig3(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig3);
    for (label, suites) in [
        ("rate", [Suite::RateInt, Suite::RateFp]),
        ("speed", [Suite::SpeedInt, Suite::SpeedFp]),
    ] {
        let mut fig = Figure::new(
            &format!("Branch characteristics (%) — {label} mini-suites"),
            Kind::Bar,
        );
        let mut labels: Vec<String> = Vec::new();
        let mut total = Vec::new();
        let mut conditional = Vec::new();
        for suite in suites {
            for r in data.mini_suite_ref(suite) {
                labels.push(r.id.clone());
                total.push(r.branch_pct());
                conditional
                    .push(r.branch_pct() * r.branch_kind_frac(Event::BrInstExecAllConditional));
            }
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        fig.push(Series::bars("% branches", &label_refs, &total));
        fig.push(Series::bars("% conditional", &label_refs, &conditional));
        a.figures.push(fig);
    }
    a
}

fn fig4(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig4);
    for (label, suites) in [
        ("rate", [Suite::RateInt, Suite::RateFp]),
        ("speed", [Suite::SpeedInt, Suite::SpeedFp]),
    ] {
        let mut fig = Figure::new(
            &format!("Memory footprint (GiB) — {label} mini-suites"),
            Kind::Bar,
        );
        let mut labels: Vec<String> = Vec::new();
        let mut rss = Vec::new();
        let mut vsz = Vec::new();
        for suite in suites {
            for r in data.mini_suite_ref(suite) {
                labels.push(r.id.clone());
                rss.push(r.rss_gib);
                vsz.push(r.vsz_gib);
            }
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        fig.push(Series::bars("RSS", &label_refs, &rss));
        fig.push(Series::bars("VSZ", &label_refs, &vsz));
        a.figures.push(fig);
    }
    a
}

fn fig5(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig5);
    for (label, suites) in [
        ("rate", [Suite::RateInt, Suite::RateFp]),
        ("speed", [Suite::SpeedInt, Suite::SpeedFp]),
    ] {
        let mut fig = Figure::new(
            &format!("Cache miss rates (%) — {label} mini-suites"),
            Kind::Bar,
        );
        let mut labels: Vec<String> = Vec::new();
        let (mut m1, mut m2, mut m3) = (Vec::new(), Vec::new(), Vec::new());
        for suite in suites {
            for r in data.mini_suite_ref(suite) {
                labels.push(r.id.clone());
                m1.push(r.l1_miss_pct());
                m2.push(r.l2_miss_pct());
                m3.push(r.l3_miss_pct());
            }
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        fig.push(Series::bars("L1 miss", &label_refs, &m1));
        fig.push(Series::bars("L2 miss", &label_refs, &m2));
        fig.push(Series::bars("L3 miss", &label_refs, &m3));
        a.figures.push(fig);
    }
    a
}

fn fig7(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig7);
    let fit = redundancy(data, ExperimentId::Fig7);
    let Some(analysis) = fit.as_ref() else {
        a.texts
            .push(("note".into(), "too few records for PCA".into()));
        return a;
    };
    let labels: Vec<&str> = analysis.ids.iter().map(String::as_str).collect();
    let mut panels = vec![(0usize, 1usize)];
    if analysis.n_components >= 4 {
        panels.push((2, 3));
    }
    for (cx, cy) in panels {
        let x: Vec<f64> = (0..labels.len())
            .map(|i| analysis.scores[(i, cx)])
            .collect();
        let y: Vec<f64> = (0..labels.len())
            .map(|i| analysis.scores[(i, cy)])
            .collect();
        let mut fig = Figure::new(
            &format!("PC{} vs PC{} scores (ref pairs)", cx + 1, cy + 1),
            Kind::Scatter,
        );
        fig.push(Series::points("pairs", &labels, &x, &y));
        a.figures.push(fig);
    }
    a.texts.push((
        "explained variance".into(),
        format!(
            "{} components retained, {:.3}% of total variance (paper: 4 components, 76.321%)",
            analysis.n_components,
            Fixed(analysis.explained * 100.0)
        ),
    ));
    a
}

fn fig8(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig8);
    let fit = redundancy(data, ExperimentId::Fig8);
    let Some(analysis) = fit.as_ref() else {
        a.texts
            .push(("note".into(), "too few records for PCA".into()));
        return a;
    };
    let labels: Vec<&str> = CHARACTERISTICS.iter().map(|c| c.name).collect();
    let mut fig = Figure::new("Factor loadings per characteristic", Kind::Bar);
    for k in 0..analysis.n_components {
        let values: Vec<f64> = (0..labels.len())
            .map(|v| analysis.loadings[(v, k)])
            .collect();
        fig.push(Series::points(
            &format!("PC{}", k + 1),
            &labels,
            &(0..labels.len()).map(|i| i as f64).collect::<Vec<_>>(),
            &values,
        ));
    }
    // Render as CSV-friendly point series but present dominants as text.
    for k in 0..analysis.n_components {
        let dom = analysis.dominant_characteristics(k, 4);
        let body = dom
            .iter()
            .map(|(name, loading)| format!("{name}: {loading:+.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        a.texts.push((format!("PC{} dominated by", k + 1), body));
    }
    a.figures.push(fig);
    a
}

fn fig9(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig9);
    for (label, subset) in subsets(data, ExperimentId::Fig9) {
        let Some(s) = subset.as_ref() else {
            a.texts.push((label.into(), "(too few pairs)".into()));
            continue;
        };
        let labels: Vec<&str> = s.ids.iter().map(String::as_str).collect();
        match s.dendrogram.render_ascii(&labels, 100) {
            Ok(text) => a.texts.push((format!("{label} dendrogram"), text)),
            Err(e) => a.texts.push((label.into(), format!("render error: {e}"))),
        }
    }
    a
}

fn fig10(data: &Dataset) -> Artifact {
    let mut a = Artifact::new(ExperimentId::Fig10);
    for (label, subset) in subsets(data, ExperimentId::Fig10) {
        let Some(s) = subset.as_ref() else {
            a.texts.push((label.into(), "(too few pairs)".into()));
            continue;
        };
        let ks: Vec<f64> = s.curve.iter().map(|p| p.k as f64).collect();
        let k_labels: Vec<String> = s.curve.iter().map(|p| p.k.to_string()).collect();
        let k_refs: Vec<&str> = k_labels.iter().map(String::as_str).collect();
        // Normalize both objectives to [0,1] so one chart shows the trade-off.
        let max_sse = s
            .curve
            .iter()
            .map(|p| p.sse)
            .fold(f64::MIN_POSITIVE, f64::max);
        let max_t = s
            .curve
            .iter()
            .map(|p| p.subset_seconds)
            .fold(f64::MIN_POSITIVE, f64::max);
        let sse: Vec<f64> = s.curve.iter().map(|p| p.sse / max_sse).collect();
        let time: Vec<f64> = s.curve.iter().map(|p| p.subset_seconds / max_t).collect();
        let mut fig = Figure::new(
            &format!("SSE vs subset time over cluster count — {label}"),
            Kind::Line,
        );
        fig.push(Series::points("normalized SSE", &k_refs, &ks, &sse));
        fig.push(Series::points(
            "normalized subset time",
            &k_refs,
            &ks,
            &time,
        ));
        a.figures.push(fig);
        a.texts.push((
            format!("{label} Pareto-optimal k"),
            format!(
                "k = {} (paper: rate 12, speed 10); saving {:.3}% (paper: rate 57.116%, speed 62.052%)",
                s.chosen_k,
                Fixed(s.saving_pct())
            ),
        ));
    }
    a
}

/// Correlation notes the paper reports inline (Sections IV-C and IV-D):
/// RSS/VSZ and per-level miss rates vs IPC across all applications.
pub fn correlation_notes(data: &Dataset) -> Vec<(String, f64)> {
    let refs = data.cpu17_at(InputSize::Ref);
    let ipc: Vec<f64> = refs.iter().map(|r| r.ipc()).collect();
    let corr = |f: &dyn Fn(&CharRecord) -> f64| -> f64 {
        let xs: Vec<f64> = refs.iter().map(|&r| f(r)).collect();
        summary::pearson(&xs, &ipc).unwrap_or(0.0)
    };
    vec![
        ("RSS vs IPC".into(), corr(&|r| r.rss_gib)),
        ("VSZ vs IPC".into(), corr(&|r| r.vsz_gib)),
        ("L1 miss vs IPC".into(), corr(&|r| r.l1_miss_pct())),
        ("L2 miss vs IPC".into(), corr(&|r| r.l2_miss_pct())),
        ("L3 miss vs IPC".into(), corr(&|r| r.l3_miss_pct())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn demo() -> &'static Dataset {
        static DATA: OnceLock<Dataset> = OnceLock::new();
        DATA.get_or_init(Dataset::demo)
    }

    #[test]
    fn ids_round_trip_slugs() {
        for id in ExperimentId::ALL {
            assert_eq!(ExperimentId::from_slug(id.slug()), Some(id));
        }
        assert_eq!(ExperimentId::from_slug("nope"), None);
    }

    #[test]
    fn twenty_experiments() {
        assert_eq!(ExperimentId::ALL.len(), 20);
    }

    #[test]
    fn every_experiment_produces_output_on_demo_data() {
        let data = demo();
        for id in ExperimentId::ALL {
            let artifact = run(id, data).unwrap();
            let text = artifact.render();
            assert!(
                !artifact.tables.is_empty()
                    || !artifact.figures.is_empty()
                    || !artifact.texts.is_empty(),
                "{id}: empty artifact"
            );
            assert!(text.len() > 20, "{id}: trivial render");
        }
    }

    #[test]
    fn table1_reflects_haswell() {
        let a = run(ExperimentId::Table1, demo()).unwrap();
        let text = a.render();
        assert!(text.contains("Haswell"));
        assert!(text.contains("30 MiB shared"));
    }

    #[test]
    fn table9_has_bwaves_columns() {
        let a = run(ExperimentId::Table9, demo()).unwrap();
        let text = a.render();
        assert!(text.contains("603.bwaves_s-in1"));
        assert!(text.contains("607.cactuBSSN_s"));
    }

    #[test]
    fn table10_reports_savings() {
        let a = run(ExperimentId::Table10, demo()).unwrap();
        let text = a.render();
        assert!(text.contains("rate"));
        assert!(text.contains("speed"));
    }

    #[test]
    fn fig10_reports_chosen_k() {
        let a = run(ExperimentId::Fig10, demo()).unwrap();
        let text = a.render();
        assert!(text.contains("Pareto-optimal k"), "{text}");
    }

    #[test]
    fn csv_rendering_nonempty_for_tables_and_figures() {
        let data = demo();
        for id in [ExperimentId::Table2, ExperimentId::Fig1, ExperimentId::Fig7] {
            let a = run(id, data).unwrap();
            assert!(!a.render_csv().trim().is_empty(), "{id}");
        }
    }

    /// `report/fit` spans recorded while `f` runs on a fresh thread, which
    /// starts with an empty memo.
    fn fits_during(f: impl FnOnce() + Send) -> usize {
        std::thread::scope(|s| {
            s.spawn(|| {
                let root = simtrace::root("run/test");
                f();
                let spans = root.drain();
                spans.iter().filter(|s| s.name == "report/fit").count()
            })
            .join()
            .expect("experiment thread")
        })
    }

    #[test]
    fn each_run_fits_each_shared_slot_once() {
        let data = demo();
        let all = || {
            run_all(data).unwrap();
        };
        assert_eq!(
            fits_during(all),
            4,
            "one averaging, one PCA, one rate and one speed fit"
        );
        assert_eq!(fits_during(|| (all(), all()).1), 8, "a second run refits");
        let fig7 = || {
            run(ExperimentId::Fig7, data).unwrap();
        };
        assert_eq!(fits_during(fig7), 1, "Fig. 7 alone fits only its PCA");
    }

    #[test]
    fn tables_three_to_seven_average_the_suites_once() {
        let comparisons = [
            ExperimentId::Table3,
            ExperimentId::Table4,
            ExperimentId::Table5,
            ExperimentId::Table6,
            ExperimentId::Table7,
        ];
        let tables = || {
            for id in comparisons {
                run(id, demo()).unwrap();
            }
        };
        assert_eq!(fits_during(tables), 1, "one set of per-app averages");
    }

    /// Runs `first` on `before`, then `then` on `after`, on one thread, and
    /// checks `then` reads exactly what a fresh thread computes from
    /// `after`, and that the change shows in it.
    fn assert_no_stale_fit(
        (first, before): (ExperimentId, &Dataset),
        (then, after): (ExperimentId, &Dataset),
    ) {
        let text = |a: Artifact| (a.render(), a.render_csv());
        let on_fresh_thread = |data: &Dataset| {
            std::thread::scope(|s| {
                s.spawn(|| text(run(then, data).unwrap()))
                    .join()
                    .expect("experiment thread")
            })
        };
        let served = std::thread::scope(|s| {
            s.spawn(|| {
                run(first, before).unwrap();
                text(run(then, after).unwrap())
            })
            .join()
            .expect("experiment thread")
        });
        assert_eq!(served, on_fresh_thread(after));
        assert_ne!(
            served,
            on_fresh_thread(before),
            "the change shows in {then}"
        );
    }

    #[test]
    fn changed_records_never_read_a_stale_fit() {
        let mut changed17 = demo().clone();
        let record = changed17
            .cpu17
            .iter_mut()
            .find(|r| r.size == InputSize::Ref)
            .unwrap();
        record.projected_seconds *= 3.0;
        assert_no_stale_fit(
            (ExperimentId::Table10, demo()),
            (ExperimentId::Fig10, &changed17),
        );
        let mut changed06 = demo().clone();
        let session = &mut changed06.cpu06[0].session;
        let stores = session.count(Event::MemUopsRetiredAllStores);
        session.set(Event::MemUopsRetiredAllStores, stores * 3);
        assert_no_stale_fit(
            (ExperimentId::Table3, demo()),
            (ExperimentId::Table4, &changed06),
        );
    }

    #[test]
    fn correlations_are_in_range() {
        for (name, c) in correlation_notes(demo()) {
            assert!((-1.0..=1.0).contains(&c), "{name}: {c}");
        }
    }
}
