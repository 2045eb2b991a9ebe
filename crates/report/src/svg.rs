//! Minimal standalone SVG rendering for figures.
//!
//! The ASCII renderings are for the terminal; the SVG output is the
//! publication-style artifact (`results/*.svg` when the reproduce binary is
//! asked for them). No external dependencies — the documents are assembled
//! by hand and kept simple: one plot area, axes with min/max labels, a
//! legend, and per-series colors.

use std::fmt::{self, Write as _};

use crate::figure::{Figure, Kind};
use crate::fixed::Fixed;

/// Escapes text for SVG/XML content.
pub fn escape(s: &str) -> String {
    Escaped(s).to_string()
}

/// Text escaped for SVG/XML content as it is formatted, with no
/// intermediate `String`.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['&', '<', '>', '"', '\'']) {
            f.write_str(&rest[..i])?;
            f.write_str(match rest.as_bytes()[i] {
                b'&' => "&amp;",
                b'<' => "&lt;",
                b'>' => "&gt;",
                b'"' => "&quot;",
                _ => "&#39;",
            })?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

pub(crate) const COLORS: [&str; 6] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
];
const MARGIN: f64 = 46.0;

impl Figure {
    /// Renders the figure as a standalone SVG document.
    ///
    /// Bar figures render grouped vertical bars; scatter figures render
    /// circles; line figures render polylines with point markers.
    pub fn render_svg(&self, width: u32, height: u32) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write_svg(&mut out, width, height);
        out
    }

    fn write_svg(&self, out: &mut String, width: u32, height: u32) -> fmt::Result {
        let w = width.max(160) as f64;
        let h = height.max(120) as f64;
        writeln!(
            out,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
             viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"10\">"
        )?;
        writeln!(
            out,
            "  <text x=\"{}\" y=\"14\" text-anchor=\"middle\" font-size=\"12\">{}</text>",
            w / 2.0,
            Escaped(self.title())
        )?;

        let plot = PlotArea {
            x0: MARGIN,
            y0: 24.0,
            x1: w - 12.0,
            y1: h - MARGIN,
        };
        writeln!(
            out,
            "  <rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"none\" stroke=\"#999\"/>",
            plot.x0,
            plot.y0,
            plot.x1 - plot.x0,
            plot.y1 - plot.y0
        )?;

        match self.kind() {
            Kind::Bar => self.svg_bars(&plot, out)?,
            Kind::Scatter | Kind::Line => self.svg_points(&plot, out)?,
        }

        // Legend under the plot.
        let mut lx = plot.x0;
        let ly = h - 10.0;
        for (si, series) in self.series().iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            writeln!(
                out,
                "  <rect x=\"{lx}\" y=\"{}\" width=\"8\" height=\"8\" fill=\"{color}\"/>",
                ly - 8.0
            )?;
            writeln!(
                out,
                "  <text x=\"{}\" y=\"{ly}\">{}</text>",
                lx + 11.0,
                Escaped(&series.name)
            )?;
            lx += 14.0 + 6.0 * series.name.len() as f64;
        }
        out.write_str("</svg>\n")
    }

    fn svg_bars(&self, plot: &PlotArea, out: &mut String) -> fmt::Result {
        let max = self
            .series()
            .iter()
            .flat_map(|s| s.y.iter())
            .cloned()
            .fold(f64::MIN_POSITIVE, f64::max);
        let n_items = self.series().iter().map(|s| s.len()).max().unwrap_or(0);
        if n_items == 0 {
            return Ok(());
        }
        let n_series = self.series().len();
        let group_w = (plot.x1 - plot.x0) / n_items as f64;
        let bar_w = (group_w * 0.8) / n_series as f64;
        for (si, series) in self.series().iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            for (i, (label, &v)) in series.labels.iter().zip(&series.y).enumerate() {
                let frac = (v / max).clamp(0.0, 1.0);
                let bh = frac * (plot.y1 - plot.y0);
                let x = plot.x0 + i as f64 * group_w + group_w * 0.1 + si as f64 * bar_w;
                let y = plot.y1 - bh;
                writeln!(
                    out,
                    "  <rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" \
                     height=\"{:.1}\" fill=\"{color}\"><title>{}: {v}</title></rect>",
                    Fixed(x),
                    Fixed(y),
                    Fixed(bar_w),
                    Fixed(bh),
                    Escaped(label)
                )?;
            }
        }
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"end\">{:.2}</text>",
            plot.x0 - 4.0,
            plot.y0 + 8.0,
            Fixed(max)
        )?;
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"end\">0</text>",
            plot.x0 - 4.0,
            plot.y1
        )
    }

    fn svg_points(&self, plot: &PlotArea, out: &mut String) -> fmt::Result {
        let pts: Vec<(f64, f64)> = self
            .series()
            .iter()
            .flat_map(|s| s.x.iter().cloned().zip(s.y.iter().cloned()))
            .collect();
        if pts.is_empty() {
            return Ok(());
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
        let sx = (x1 - x0).max(1e-12);
        let sy = (y1 - y0).max(1e-12);
        let px = |x: f64| plot.x0 + (x - x0) / sx * (plot.x1 - plot.x0);
        let py = |y: f64| plot.y1 - (y - y0) / sy * (plot.y1 - plot.y0);

        for (si, series) in self.series().iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            if self.kind() == Kind::Line && series.len() > 1 {
                out.write_str("  <polyline points=\"")?;
                for (i, (&x, &y)) in series.x.iter().zip(&series.y).enumerate() {
                    if i > 0 {
                        out.write_char(' ')?;
                    }
                    write!(out, "{:.1},{:.1}", Fixed(px(x)), Fixed(py(y)))?;
                }
                writeln!(
                    out,
                    "\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\"/>"
                )?;
            }
            for ((label, &x), &y) in series.labels.iter().zip(&series.x).zip(&series.y) {
                writeln!(
                    out,
                    "  <circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"2.5\" fill=\"{color}\">\
                     <title>{}: ({x}, {y})</title></circle>",
                    Fixed(px(x)),
                    Fixed(py(y)),
                    Escaped(label),
                )?;
            }
        }
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"end\">{:.2}</text>",
            plot.x0 - 4.0,
            plot.y0 + 8.0,
            Fixed(y1)
        )?;
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"end\">{:.2}</text>",
            plot.x0 - 4.0,
            plot.y1,
            Fixed(y0)
        )?;
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\">{:.2}</text>",
            plot.x0,
            plot.y1 + 12.0,
            Fixed(x0)
        )?;
        writeln!(
            out,
            "  <text x=\"{}\" y=\"{}\" text-anchor=\"end\">{:.2}</text>",
            plot.x1,
            plot.y1 + 12.0,
            Fixed(x1)
        )
    }
}

struct PlotArea {
    x0: f64,
    y0: f64,
    x1: f64,
    y1: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::Series;

    fn bar_fig() -> Figure {
        let mut f = Figure::new("IPC <test> & more", Kind::Bar);
        f.push(Series::bars("rate", &["mcf", "x264"], &[0.9, 3.0]));
        f
    }

    #[test]
    fn svg_is_well_formed_shell() {
        let svg = bar_fig().render_svg(400, 300);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(
            svg.matches("<rect").count(),
            4,
            "frame + two bars + legend swatch"
        );
    }

    #[test]
    fn titles_are_escaped() {
        let svg = bar_fig().render_svg(400, 300);
        assert!(svg.contains("IPC &lt;test&gt; &amp; more"));
        assert!(!svg.contains("<test>"));
    }

    #[test]
    fn scatter_renders_circles() {
        let mut f = Figure::new("scatter", Kind::Scatter);
        f.push(Series::points(
            "s",
            &["a", "b", "c"],
            &[0.0, 1.0, 2.0],
            &[5.0, 3.0, 9.0],
        ));
        let svg = f.render_svg(400, 300);
        assert_eq!(svg.matches("<circle").count(), 3);
        assert!(!svg.contains("<polyline"));
    }

    #[test]
    fn line_renders_polyline_and_markers() {
        let mut f = Figure::new("line", Kind::Line);
        f.push(Series::points("s", &["a", "b"], &[0.0, 1.0], &[5.0, 3.0]));
        let svg = f.render_svg(400, 300);
        assert_eq!(svg.matches("<polyline").count(), 1);
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn taller_bar_for_larger_value() {
        let svg = bar_fig().render_svg(400, 300);
        // Extract bar heights (skip the frame rect).
        let heights: Vec<f64> = svg
            .lines()
            .filter(|l| l.contains("<rect") && l.contains("<title>"))
            .map(|l| {
                let h = l.split("height=\"").nth(1).unwrap();
                h.split('"').next().unwrap().parse().unwrap()
            })
            .collect();
        assert_eq!(heights.len(), 2);
        assert!(heights[1] > heights[0] * 2.0, "{heights:?}");
    }

    #[test]
    fn empty_series_no_panic() {
        let f = Figure::new("empty", Kind::Scatter);
        let svg = f.render_svg(200, 100);
        assert!(svg.contains("</svg>"));
    }

    #[test]
    fn escape_covers_xml_specials() {
        assert_eq!(
            escape("a&b<c>\"d\"'e'"),
            "a&amp;b&lt;c&gt;&quot;d&quot;&#39;e&#39;"
        );
    }
}
