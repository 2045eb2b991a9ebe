//! Figures: labelled data series rendered as ASCII charts and CSV.
//!
//! The paper's figures are bar charts over applications (Figs. 1–6, 8),
//! scatter plots of principal-component scores (Fig. 7), and line plots
//! (Fig. 10). [`Figure`] keeps the raw series — the renderings are for the
//! terminal; the CSV is the archival artifact recorded under `results/`.

use std::fmt::{self, Write as _};

use crate::csv::Field;
use crate::fixed::Fixed;

/// The plot style a figure corresponds to in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Grouped bars per labelled item (Figs. 1–6, 8).
    Bar,
    /// X/Y scatter (Fig. 7).
    Scatter,
    /// Connected line over an ordered x-axis (Fig. 10).
    Line,
}

/// One named series of `(label, value)` points (bar) or `(x, y)` points
/// (scatter/line, where the label holds the point name).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// Point labels (application names, cluster counts, …).
    pub labels: Vec<String>,
    /// X coordinates (indices for bar charts).
    pub x: Vec<f64>,
    /// Y values.
    pub y: Vec<f64>,
}

impl Series {
    /// A bar-chart series: labels with values.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn bars(name: &str, labels: &[&str], values: &[f64]) -> Self {
        assert_eq!(labels.len(), values.len(), "labels/values length mismatch");
        Series {
            name: name.to_owned(),
            labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            x: (0..values.len()).map(|i| i as f64).collect(),
            y: values.to_vec(),
        }
    }

    /// An x/y series with per-point labels.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn points(name: &str, labels: &[&str], x: &[f64], y: &[f64]) -> Self {
        assert_eq!(labels.len(), x.len(), "labels/x length mismatch");
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        Series {
            name: name.to_owned(),
            labels: labels.iter().map(|l| (*l).to_owned()).collect(),
            x: x.to_vec(),
            y: y.to_vec(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }
}

/// A figure: a title, a kind, and one or more series.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    title: String,
    kind: Kind,
    series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(title: &str, kind: Kind) -> Self {
        Figure {
            title: title.to_owned(),
            kind,
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn push(&mut self, series: Series) -> &mut Self {
        self.series.push(series);
        self
    }

    /// The figure title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The figure kind.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The series.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the figure as CSV: `series,label,x,y` records.
    pub fn render_csv(&self) -> String {
        let mut out = String::from("series,label,x,y\n");
        for s in &self.series {
            for ((label, x), y) in s.labels.iter().zip(&s.x).zip(&s.y) {
                // Writing into a `String` cannot fail.
                let _ = writeln!(out, "{},{},{x},{y}", Field(&s.name), Field(label));
            }
        }
        out
    }

    /// Renders an ASCII view: horizontal bars for bar charts, a character
    /// grid for scatter/line plots.
    pub fn render_ascii(&self, width: usize) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_ascii(&mut out, width);
        out
    }

    fn write_ascii(&self, out: &mut impl fmt::Write, width: usize) -> fmt::Result {
        match self.kind {
            Kind::Bar => self.render_bars(out, width),
            Kind::Scatter | Kind::Line => self.render_grid(out, width),
        }
    }

    fn render_bars(&self, out: &mut impl fmt::Write, width: usize) -> fmt::Result {
        writeln!(out, "{}", self.title)?;
        let max = self
            .series
            .iter()
            .flat_map(|s| s.y.iter())
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        let label_w = self
            .series
            .iter()
            .flat_map(|s| s.labels.iter())
            .map(|l| l.len())
            .max()
            .unwrap_or(4)
            .max(4);
        let chart_w = width.saturating_sub(label_w + 14).max(10);
        for s in &self.series {
            if self.series.len() > 1 {
                writeln!(out, "-- {} --", s.name)?;
            }
            for (label, &v) in s.labels.iter().zip(&s.y) {
                let bar = (((v / max) * chart_w as f64).round().max(0.0) as usize).min(chart_w);
                write!(out, "{label:label_w$} |")?;
                write_run(out, BAR, bar)?;
                write_run(out, GAP, chart_w - bar)?;
                writeln!(out, "| {:.3}", Fixed(v))?;
            }
        }
        Ok(())
    }

    fn render_grid(&self, out: &mut impl fmt::Write, width: usize) -> fmt::Result {
        writeln!(out, "{}", self.title)?;
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.x.iter().cloned().zip(s.y.iter().cloned()))
            .collect();
        if pts.is_empty() {
            return out.write_str("(no data)\n");
        }
        let (mut x0, mut x1, mut y0, mut y1) = (
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        );
        for &(x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        let w = width.clamp(20, 120);
        let h = 20usize;
        let sx = (x1 - x0).max(1e-12);
        let sy = (y1 - y0).max(1e-12);
        let mut grid = vec![vec![' '; w]; h];
        let marks = ['*', 'o', '+', 'x', '@', '%'];
        for (si, s) in self.series.iter().enumerate() {
            let mark = marks[si % marks.len()];
            for (&x, &y) in s.x.iter().zip(&s.y) {
                let cx = (((x - x0) / sx) * (w - 1) as f64).round() as usize;
                let cy = (((y - y0) / sy) * (h - 1) as f64).round() as usize;
                grid[h - 1 - cy][cx] = mark;
            }
        }
        writeln!(
            out,
            "y: [{:.3}, {:.3}]  x: [{:.3}, {:.3}]",
            Fixed(y0),
            Fixed(y1),
            Fixed(x0),
            Fixed(x1)
        )?;
        for row in grid {
            out.write_char('|')?;
            for c in row {
                out.write_char(c)?;
            }
            out.write_str("|\n")?;
        }
        for (si, s) in self.series.iter().enumerate() {
            writeln!(out, "  {} = {}", marks[si % marks.len()], s.name)?;
        }
        Ok(())
    }
}

/// A bar's `#` cells and the blank cells after it, written as slices of
/// these (in pieces when a chart is wider).
const BAR: &str = "################################################################################################################################";
const GAP: &str = "                                                                                                                                ";

/// Writes `n` characters of the one-character run `run`.
fn write_run(out: &mut impl fmt::Write, run: &str, mut n: usize) -> fmt::Result {
    while n > 0 {
        let piece = n.min(run.len());
        out.write_str(&run[..piece])?;
        n -= piece;
    }
    Ok(())
}

impl fmt::Display for Figure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_ascii(f, 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bar_figure() -> Figure {
        let mut f = Figure::new("IPC", Kind::Bar);
        f.push(Series::bars("rate int", &["mcf", "x264"], &[0.886, 3.024]));
        f
    }

    #[test]
    fn bar_runs_span_any_width() {
        for n in [
            0,
            1,
            BAR.len() - 1,
            BAR.len(),
            BAR.len() + 1,
            3 * BAR.len() + 7,
        ] {
            let mut out = String::new();
            write_run(&mut out, BAR, n).unwrap();
            write_run(&mut out, GAP, n).unwrap();
            assert_eq!(out, format!("{:#<n$}{:n$}", "", ""), "n={n}");
        }
    }

    #[test]
    fn bars_render_with_values() {
        let s = bar_figure().render_ascii(80);
        assert!(s.contains("mcf"));
        assert!(s.contains("3.024"));
        // x264's bar is longer than mcf's.
        let bar_len = |line: &str| line.chars().filter(|&c| c == '#').count();
        let lines: Vec<&str> = s.lines().collect();
        let mcf = lines.iter().find(|l| l.starts_with("mcf")).unwrap();
        let x264 = lines.iter().find(|l| l.starts_with("x264")).unwrap();
        assert!(bar_len(x264) > bar_len(mcf));
    }

    #[test]
    fn csv_lists_every_point() {
        let csv = bar_figure().render_csv();
        assert!(csv.starts_with("series,label,x,y\n"));
        assert!(csv.contains("rate int,mcf,0,0.886\n"));
        assert!(csv.contains("rate int,x264,1,3.024\n"));
        let mut quoted = Figure::new("q", Kind::Scatter);
        quoted.push(Series::points("a,b", &["say \"hi\""], &[0.5], &[-2.0]));
        assert_eq!(
            quoted.render_csv(),
            "series,label,x,y\n\"a,b\",\"say \"\"hi\"\"\",0.5,-2\n"
        );
    }

    #[test]
    fn scatter_grid_renders() {
        let mut f = Figure::new("PC scatter", Kind::Scatter);
        f.push(Series::points(
            "apps",
            &["a", "b", "c"],
            &[0.0, 1.0, 2.0],
            &[0.0, 4.0, 1.0],
        ));
        let s = f.render_ascii(60);
        assert!(s.contains('*'));
        assert!(s.contains("x: [0.000, 2.000]"));
    }

    #[test]
    fn empty_scatter_renders_placeholder() {
        let f = Figure::new("empty", Kind::Scatter);
        assert!(f.render_ascii(40).contains("(no data)"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bars_length_checked() {
        Series::bars("x", &["a"], &[1.0, 2.0]);
    }

    #[test]
    fn series_accessors() {
        let s = Series::bars("n", &["a"], &[2.0]);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        let f = bar_figure();
        assert_eq!(f.kind(), Kind::Bar);
        assert_eq!(f.title(), "IPC");
        assert_eq!(f.series().len(), 1);
    }

    #[test]
    fn multi_series_bar_shows_legend_headers() {
        let mut f = Figure::new("t", Kind::Bar);
        f.push(Series::bars("s1", &["a"], &[1.0]));
        f.push(Series::bars("s2", &["b"], &[2.0]));
        let s = f.render_ascii(60);
        assert!(s.contains("-- s1 --"));
        assert!(s.contains("-- s2 --"));
    }
}
