//! Compact per-run sparkline rendering for counter timelines.
//!
//! A sparkline is a small, axis-free SVG meant to sit next to a pair's name
//! in a report: one polyline per metric series, each normalized to its own
//! min/max so shape (phase changes, warmup transients) is visible even when
//! the series live on wildly different scales (IPC vs MPKI). The `reproduce`
//! binary writes one per characterized pair when interval sampling is on.

use crate::fixed::Fixed;
use crate::svg::{escape, COLORS};

/// Renders named series as a standalone sparkline SVG document.
///
/// Each series is min/max-normalized independently; constant series draw as
/// a midline. Series are drawn in order, colored like figure series, with a
/// compact legend on the right carrying each series' final value.
pub fn sparkline_svg(title: &str, series: &[(&str, Vec<f64>)], width: u32, height: u32) -> String {
    let w = width.max(120) as f64;
    let h = height.max(40) as f64;
    // Legend gutter: widest name plus a value tag.
    let name_w = series.iter().map(|(name, _)| name.len()).max().unwrap_or(0) as f64;
    let gutter = (name_w * 6.0 + 58.0).min(w * 0.45);
    let (x0, x1) = (4.0, w - gutter - 4.0);
    let (y0, y1) = (16.0, h - 6.0);

    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w}\" height=\"{h}\" \
         viewBox=\"0 0 {w} {h}\" font-family=\"sans-serif\" font-size=\"9\">\n"
    ));
    out.push_str(&format!(
        "  <text x=\"{x0}\" y=\"11\" font-size=\"10\">{}</text>\n",
        escape(title)
    ));
    for (si, (name, values)) in series.iter().enumerate() {
        let color = COLORS[si % COLORS.len()];
        let ly = y0 + 10.0 + si as f64 * 11.0;
        let last = values.last().copied().unwrap_or(f64::NAN);
        out.push_str(&format!(
            "  <text x=\"{}\" y=\"{:.1}\" fill=\"{color}\">{} {}</text>\n",
            x1 + 8.0,
            Fixed(ly),
            escape(name),
            format_value(last),
        ));
        if values.is_empty() {
            continue;
        }
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Halved arithmetic keeps the normalization finite even when the
        // series spans more than half the f64 range (`hi - lo` overflows
        // to infinity, which would put NaN in the coordinates).
        let span = hi / 2.0 - lo / 2.0;
        let step = if values.len() > 1 {
            (x1 - x0) / (values.len() - 1) as f64
        } else {
            0.0
        };
        let points: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let frac = if span > 0.0 && v.is_finite() {
                    ((v / 2.0 - lo / 2.0) / span).clamp(0.0, 1.0)
                } else {
                    0.5
                };
                format!(
                    "{:.1},{:.1}",
                    Fixed(x0 + i as f64 * step),
                    Fixed(y1 - frac * (y1 - y0))
                )
            })
            .collect();
        if values.len() == 1 {
            out.push_str(&format!(
                "  <circle cx=\"{}\" cy=\"{}\" r=\"2\" fill=\"{color}\"/>\n",
                points[0].split(',').next().unwrap_or("0"),
                points[0].split(',').nth(1).unwrap_or("0"),
            ));
        } else {
            out.push_str(&format!(
                "  <polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" \
                 stroke-width=\"1.2\"/>\n",
                points.join(" ")
            ));
        }
    }
    out.push_str("</svg>\n");
    out
}

/// Compact value tag for the legend: adaptive precision, `-` for NaN.
fn format_value(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v == 0.0 || v.abs() >= 0.01 {
        format!("{:.2}", Fixed(v))
    } else {
        format!("{v:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_one_polyline_per_series() {
        let svg = sparkline_svg(
            "505.mcf_r",
            &[
                ("ipc", vec![0.5, 0.6, 0.7]),
                ("l1 mpki", vec![90.0, 80.0, 70.0]),
            ],
            360,
            72,
        );
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("505.mcf_r"));
        assert!(svg.contains("ipc 0.70"), "{svg}");
    }

    #[test]
    fn single_point_draws_a_marker() {
        let svg = sparkline_svg("p", &[("ipc", vec![1.25])], 200, 48);
        assert_eq!(svg.matches("<circle").count(), 1);
        assert_eq!(svg.matches("<polyline").count(), 0);
    }

    #[test]
    fn constant_series_is_a_midline_not_a_panic() {
        let svg = sparkline_svg("p", &[("flat", vec![2.0, 2.0, 2.0])], 200, 48);
        assert_eq!(svg.matches("<polyline").count(), 1);
    }

    #[test]
    fn empty_series_and_titles_escape() {
        let svg = sparkline_svg("a<b>&c", &[("s", Vec::new())], 200, 48);
        assert!(svg.contains("a&lt;b&gt;&amp;c"));
        assert!(svg.contains("</svg>"));
    }

    // The same well-formedness bar the flamegraph exporter's tests hold:
    // a parseable document with no non-finite coordinates, whatever the
    // input looks like.
    fn assert_valid_svg(svg: &str) {
        assert!(svg.starts_with("<svg"), "must open with <svg");
        assert!(svg.trim_end().ends_with("</svg>"), "must close the root");
        assert!(!svg.contains("NaN"), "no NaN coordinates: {svg}");
        assert!(!svg.contains("inf"), "no infinite coordinates: {svg}");
    }

    #[test]
    fn no_series_at_all_is_still_valid_svg() {
        let svg = sparkline_svg("empty", &[], 200, 48);
        assert_valid_svg(&svg);
        assert_eq!(svg.matches("<polyline").count(), 0);
    }

    #[test]
    fn extreme_and_nonfinite_values_never_leak_into_coordinates() {
        let svg = sparkline_svg(
            "extremes",
            &[
                ("huge", vec![f64::MAX, f64::MIN_POSITIVE, -f64::MAX]),
                ("holes", vec![f64::NAN, 1.0, f64::INFINITY, 2.0]),
                ("allbad", vec![f64::NAN, f64::NEG_INFINITY]),
            ],
            200,
            48,
        );
        assert_valid_svg(&svg);
        assert_eq!(svg.matches("<polyline").count(), 3);
        // The non-finite legend tag degrades to '-', not to "NaN".
        assert!(svg.contains("allbad -"), "{svg}");
    }

    #[test]
    fn degenerate_dimensions_are_clamped() {
        let svg = sparkline_svg("tiny", &[("s", vec![1.0, 2.0])], 0, 0);
        assert_valid_svg(&svg);
        assert!(svg.contains("width=\"120\""), "width floor applies: {svg}");
        assert!(svg.contains("height=\"40\""), "height floor applies: {svg}");
    }
}
