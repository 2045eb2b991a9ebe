//! The self-contained HTML dashboard renderer.
//!
//! One document per run, no external assets: sparklines come from
//! `simreport::sparkline`, the flamegraph from simprof's SVG renderer,
//! both embedded inline. Every input is located through the run
//! manifest's typed artifact pointers; sections whose layer was not
//! recorded (no trace, no profile, no bench history) degrade to a note
//! rather than failing the render.

use std::io;
use std::path::{Path, PathBuf};

use crate::correlate::{correlate, CorrelatedRun};
use crate::history::read_history;
use crate::manifest::{kind, RunManifest};

/// Knobs for [`render`].
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// Baseline `.prof` to diff frame attribution against (the committed
    /// baseline in CI). Without it the profile section shows the top
    /// self-weight frames of this run only.
    pub baseline_prof: Option<PathBuf>,
}

/// Escapes text for HTML content and attribute values (the XML escape).
pub use simreport::svg::escape as esc;

/// Renders the dashboard for `manifest` into one self-contained HTML
/// document.
pub fn render(
    manifest: &RunManifest,
    results_dir: &Path,
    opts: &ReportOptions,
) -> io::Result<String> {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!(
        "<title>run {} — {}</title>\n",
        esc(&manifest.run_id),
        esc(&manifest.kind)
    ));
    out.push_str(
        "<style>\n\
         body{font-family:sans-serif;margin:1.5em;max-width:1100px}\n\
         table{border-collapse:collapse;margin:0.5em 0}\n\
         th,td{border:1px solid #ccc;padding:2px 8px;font-size:13px;text-align:right}\n\
         th{background:#f0f0f0}\n\
         td.l,th.l{text-align:left}\n\
         .bad{color:#b00;font-weight:bold}\n\
         .muted{color:#777}\n\
         h2{border-bottom:1px solid #ddd;padding-bottom:2px}\n\
         </style>\n</head>\n<body>\n",
    );

    summary_section(&mut out, manifest);
    let correlated = correlate(manifest, results_dir).unwrap_or_default();
    correlation_section(&mut out, &correlated);
    pairs_section(&mut out, manifest, results_dir);
    profile_section(&mut out, manifest, results_dir, opts);
    utilization_section(&mut out, manifest, results_dir);
    bench_section(&mut out, results_dir);

    out.push_str("</body>\n</html>\n");
    Ok(out)
}

fn summary_section(out: &mut String, m: &RunManifest) {
    out.push_str(&format!(
        "<h1>{} run <code>{}</code></h1>\n",
        esc(&m.kind),
        esc(&m.run_id)
    ));
    out.push_str("<h2>Run summary</h2>\n<table>\n");
    let failed = m.failed_count();
    let rows = [
        ("scale", esc(&m.scale)),
        ("config", esc(&m.config)),
        ("git", esc(&m.git)),
        ("start (unix ms)", m.start_unix_ms.to_string()),
        ("end (unix ms)", m.end_unix_ms.to_string()),
        ("wall", format!("{:.1} s", m.wall_ms() as f64 / 1e3)),
        ("pairs ok", m.ok_count().to_string()),
        (
            "pairs failed",
            if failed > 0 {
                format!("<span class=\"bad\">{failed}</span>")
            } else {
                "0".to_string()
            },
        ),
    ];
    for (label, value) in rows {
        out.push_str(&format!(
            "<tr><th class=\"l\">{label}</th><td class=\"l\">{value}</td></tr>\n"
        ));
    }
    out.push_str("</table>\n");
    if failed > 0 {
        out.push_str(
            "<table>\n<tr><th class=\"l\">failed pair</th><th class=\"l\">detail</th></tr>\n",
        );
        for p in m.pairs.iter().filter(|p| p.status != "ok") {
            out.push_str(&format!(
                "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td></tr>\n",
                esc(&p.id),
                esc(p.detail.as_deref().unwrap_or("")),
            ));
        }
        out.push_str("</table>\n");
    }
    out.push_str("<p class=\"muted\">artifacts: ");
    let mut first = true;
    for a in &m.artifacts {
        if !first {
            out.push_str(" · ");
        }
        first = false;
        out.push_str(&format!("{} <code>{}</code>", esc(&a.kind), esc(&a.path)));
    }
    if m.artifacts.is_empty() {
        out.push_str("none");
    }
    out.push_str("</p>\n");
}

fn correlation_section(out: &mut String, c: &CorrelatedRun) {
    out.push_str("<h2>Per-pair latency</h2>\n");
    if c.rows.is_empty() {
        out.push_str(
            "<p class=\"muted\">No simulated pairs to show (the run exported \
             no trace, or every pair was a cache hit).</p>\n",
        );
        return;
    }
    out.push_str(
        "<p>Each pair's <code>stage/simulate</code> span, slowest first, with \
         its engine ops and the pair's hottest profile frame.</p>\n\
         <table>\n<tr><th class=\"l\">pair</th><th>span id</th>\
         <th>wall ms</th><th>ops</th><th>ns/op</th>\
         <th class=\"l\">top frame</th><th>self ops</th></tr>\n",
    );
    let dash = || "—".to_string();
    for r in &c.rows {
        let (frame, weight) = match &r.top_frame {
            Some((frame, weight)) => (esc(frame), weight.to_string()),
            None => (dash(), dash()),
        };
        let ops = r.ops.map_or_else(dash, |ops| ops.to_string());
        let ns_per_op = r.ns_per_op().map_or_else(dash, |ns| format!("{ns:.1}"));
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td><code>{:016x}</code></td>\
             <td>{:.3}</td><td>{ops}</td><td>{ns_per_op}</td>\
             <td class=\"l\">{frame}</td><td>{weight}</td></tr>\n",
            esc(&r.pair),
            r.span_id,
            r.wall_ns as f64 / 1e6,
        ));
    }
    out.push_str("</table>\n");
}

/// A pair id as a file stem: every character outside `[A-Za-z0-9._-]`
/// maps to `_`, so ids like `505.mcf_r/ref` stay filesystem-safe.
pub fn artifact_stem(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The file stem of one pair's timeline files: the pair id and its input
/// size, `<id>-<size>` through [`artifact_stem`] (`505.mcf_r-ref`), so a
/// pair's three sizes write three sets of files.
pub fn timeline_stem(id: &str, size: &str) -> String {
    artifact_stem(&format!("{id}-{size}"))
}

fn pairs_section(out: &mut String, m: &RunManifest, results_dir: &Path) {
    out.push_str("<h2>Per-pair characterization</h2>\n");
    let csvs = m.artifact_paths(kind::RECORDS_CSV, results_dir);
    if csvs.is_empty() {
        out.push_str("<p class=\"muted\">No records CSV registered.</p>\n");
        return;
    }
    let timelines = m.artifact_path(kind::TIMELINES_DIR, results_dir);
    out.push_str(
        "<table>\n<tr><th class=\"l\">pair</th><th class=\"l\">suite</th>\
         <th>sim ops</th><th>IPC</th><th>L1 miss%</th><th>L2 miss%</th>\
         <th>L3 miss%</th><th>misp%</th><th class=\"l\">timeline</th></tr>\n",
    );
    let mut shown = 0usize;
    for csv in &csvs {
        let Ok(text) = std::fs::read_to_string(csv) else {
            continue;
        };
        for line in text.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() < 15 {
                continue;
            }
            let spark = timelines
                .as_ref()
                .map(|dir| dir.join(format!("{}.svg", timeline_stem(cols[0], cols[4]))))
                .filter(|p| p.exists())
                .and_then(|p| std::fs::read_to_string(p).ok())
                .unwrap_or_else(|| "<span class=\"muted\">—</span>".to_string());
            out.push_str(&format!(
                "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td class=\"l\">{spark}</td></tr>\n",
                esc(cols[0]),
                esc(cols[3]),
                esc(cols[5]),
                esc(cols[7]),
                esc(cols[11]),
                esc(cols[12]),
                esc(cols[13]),
                esc(cols[14]),
            ));
            shown += 1;
        }
    }
    out.push_str("</table>\n");
    out.push_str(&format!("<p class=\"muted\">{shown} pairs.</p>\n"));
}

fn profile_section(out: &mut String, m: &RunManifest, results_dir: &Path, opts: &ReportOptions) {
    out.push_str("<h2>Profile</h2>\n");
    let Some(path) = m.artifact_path(kind::PROFILE, results_dir) else {
        out.push_str("<p class=\"muted\">No profile recorded (run without --profile).</p>\n");
        return;
    };
    let Ok(profile) = simprof::load(&path) else {
        out.push_str("<p class=\"bad\">Profile artifact failed to load.</p>\n");
        return;
    };
    match &opts.baseline_prof {
        Some(base) => match simprof::load(base) {
            Ok(baseline) => {
                let report = simprof::analyze::diff(
                    &baseline,
                    &profile,
                    simprof::analyze::DiffOptions::default(),
                );
                out.push_str(&format!(
                    "<h3>Top frame deltas vs baseline <code>{}</code></h3>\n",
                    esc(&base.display().to_string())
                ));
                out.push_str(
                    "<table>\n<tr><th class=\"l\">frame</th><th>baseline self</th>\
                     <th>current self</th><th>Δ</th><th class=\"l\">gate</th></tr>\n",
                );
                for row in report.rows.iter().take(12) {
                    let delta = row.new_self as i128 - row.old_self as i128;
                    let flag = if row.regressed {
                        "<span class=\"bad\">regressed</span>"
                    } else {
                        "ok"
                    };
                    out.push_str(&format!(
                        "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td>\
                         <td>{delta:+}</td><td class=\"l\">{flag}</td></tr>\n",
                        esc(&row.name),
                        row.old_self,
                        row.new_self,
                    ));
                }
                out.push_str("</table>\n");
            }
            Err(_) => {
                out.push_str("<p class=\"bad\">Baseline profile failed to load.</p>\n");
            }
        },
        None => {
            let attr = simprof::analyze::attribute(&profile);
            let mut rows: Vec<_> = attr.iter().collect();
            rows.sort_by(|a, b| b.1.self_weight.cmp(&a.1.self_weight).then(a.0.cmp(b.0)));
            out.push_str(
                "<h3>Top self-weight frames</h3>\n<table>\n\
                 <tr><th class=\"l\">frame</th><th>self ops</th><th>total ops</th></tr>\n",
            );
            for (name, a) in rows.into_iter().take(12) {
                out.push_str(&format!(
                    "<tr><td class=\"l\">{}</td><td>{}</td><td>{}</td></tr>\n",
                    esc(name),
                    a.self_weight,
                    a.total_weight,
                ));
            }
            out.push_str("</table>\n");
        }
    }
    out.push_str(&simprof::flame::flamegraph_svg(
        &format!("run {}", m.run_id),
        &profile,
    ));
}

fn utilization_section(out: &mut String, m: &RunManifest, results_dir: &Path) {
    out.push_str("<h2>Scheduler utilization</h2>\n");
    let spans = match m.artifact_path(kind::TRACE_JSON, results_dir) {
        Some(path) => simtrace::load(&path).unwrap_or_default(),
        None => Vec::new(),
    };
    match simtrace::analyze::utilization(&spans) {
        Some(u) => {
            let busy_pct = if u.batch_wall_ns > 0 {
                100.0 * u.busy_ns as f64 / (u.batch_wall_ns * u.workers.max(1)) as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "<table>\n<tr><th>workers</th><th>jobs</th><th>batch wall ms</th>\
                 <th>busy ms</th><th>queue wait ms</th><th>utilization</th></tr>\n\
                 <tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td>\
                 <td>{:.3}</td><td>{busy_pct:.1}%</td></tr>\n</table>\n",
                u.workers,
                u.jobs,
                u.batch_wall_ns as f64 / 1e6,
                u.busy_ns as f64 / 1e6,
                u.queue_wait_ns as f64 / 1e6,
            ));
        }
        None => {
            out.push_str(
                "<p class=\"muted\">No scheduler batch spans in the trace \
                 (run without --trace).</p>\n",
            );
        }
    }
}

fn bench_section(out: &mut String, results_dir: &Path) {
    out.push_str("<h2>Bench trend</h2>\n");
    let points = read_history(&results_dir.join("bench_history.jsonl"));
    if points.len() < 2 {
        out.push_str(
            "<p class=\"muted\">Fewer than two bench-history points \
             (results/bench_history.jsonl accumulates one per cargo bench run).</p>\n",
        );
        return;
    }
    // One series per benchmark name, in first-seen order, capped so the
    // sparkline legend stays readable.
    let mut names: Vec<String> = Vec::new();
    for p in &points {
        for (name, _) in &p.benchmarks {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
    }
    names.truncate(6);
    let series: Vec<(&str, Vec<f64>)> = names
        .iter()
        .map(|name| {
            let values: Vec<f64> = points
                .iter()
                .filter_map(|p| {
                    p.benchmarks
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| *v as f64)
                })
                .collect();
            (name.as_str(), values)
        })
        .collect();
    out.push_str(&simreport::sparkline::sparkline_svg(
        "bench medians over runs (ns/iter)",
        &series,
        640,
        160,
    ));
    out.push_str(&format!(
        "<p class=\"muted\">{} history points.</p>\n",
        points.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn esc_covers_html_specials() {
        assert_eq!(esc("a<b>&\"c'\u{e9}"), "a&lt;b&gt;&amp;&quot;c&#39;\u{e9}");
    }

    #[test]
    fn stems_are_filesystem_safe() {
        assert_eq!(artifact_stem("505.mcf_r"), "505.mcf_r");
        assert_eq!(artifact_stem("a/b c:d"), "a_b_c_d");
        assert_eq!(timeline_stem("505.mcf_r", "ref"), "505.mcf_r-ref");
    }

    #[test]
    fn render_degrades_gracefully_without_artifacts() {
        let m = RunManifest {
            schema: 1,
            run_id: "f".repeat(32),
            kind: "reproduce".to_string(),
            scale: "quick".to_string(),
            config: "<hostile> & config".to_string(),
            git: "unknown".to_string(),
            start_unix_ms: 5,
            end_unix_ms: 10,
            pairs: vec![],
            artifacts: vec![],
        };
        let html = render(&m, Path::new("/nonexistent"), &ReportOptions::default()).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("&lt;hostile&gt; &amp; config"));
        assert!(!html.contains("<hostile>"));
        assert!(html.trim_end().ends_with("</html>"));
    }
}
