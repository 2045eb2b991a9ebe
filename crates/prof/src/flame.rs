//! Self-contained flamegraph SVG rendering — no external flamegraph.pl.
//!
//! The layout is the classic icicle: the root row spans the full width,
//! each child's width is proportional to its subtree weight, and depth
//! grows downward. Geometry is computed in f64 but every coordinate is
//! guarded against a zero total weight, so empty and single-sample
//! profiles render valid SVG with no NaN anywhere. Colors are a
//! deterministic hash of the frame name, so the same frame keeps its
//! color across runs and across the two sides of a diff.

use crate::Profile;
use simreport::svg::escape;
use std::collections::BTreeMap;

const WIDTH: f64 = 1180.0;
const ROW_H: f64 = 16.0;
const PAD: f64 = 10.0;
const HEADER_H: f64 = 36.0;
/// Frames narrower than this many pixels are not drawn (unreadable).
const MIN_FRAME_PX: f64 = 0.5;

#[derive(Default)]
struct Node {
    weight: u64,
    children: BTreeMap<String, Node>,
}

impl Node {
    fn insert(&mut self, path: &[&str], weight: u64) {
        self.weight += weight;
        if let Some((head, rest)) = path.split_first() {
            self.children
                .entry((*head).to_string())
                .or_default()
                .insert(rest, weight);
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Node::depth).max().unwrap_or(0)
    }
}

/// Deterministic warm color from a frame name (FNV-1a over the bytes).
fn color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let r = 205 + (h % 50) as u32;
    let g = 90 + ((h >> 8) % 120) as u32;
    let b = 30 + ((h >> 16) % 40) as u32;
    format!("rgb({r},{g},{b})")
}

fn render_node(
    out: &mut String,
    name: Option<&str>,
    node: &Node,
    x: f64,
    width: f64,
    depth: usize,
    total: u64,
) {
    let y = HEADER_H + depth as f64 * ROW_H;
    if let Some(name) = name {
        let pct = 100.0 * node.weight as f64 / total.max(1) as f64;
        let title = format!("{name}: {} ops ({pct:.1}%)", node.weight);
        out.push_str(&format!(
            "<g><title>{}</title><rect x=\"{:.2}\" y=\"{y:.2}\" width=\"{:.2}\" \
             height=\"{:.2}\" fill=\"{}\" rx=\"1\"/>",
            escape(&title),
            x,
            width.max(MIN_FRAME_PX),
            ROW_H - 1.0,
            color(name),
        ));
        // Only label frames wide enough for at least a few characters.
        if width > 40.0 {
            let fit = ((width - 6.0) / 6.5) as usize;
            let label: String = if name.len() > fit {
                format!(
                    "{}..",
                    name.chars().take(fit.saturating_sub(2)).collect::<String>()
                )
            } else {
                name.to_string()
            };
            out.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" \
                 font-family=\"monospace\" fill=\"#222\">{}</text>",
                x + 3.0,
                y + ROW_H - 5.0,
                escape(&label),
            ));
        }
        out.push_str("</g>\n");
    }
    let mut child_x = x;
    for (child_name, child) in &node.children {
        let child_w = width * child.weight as f64 / node.weight.max(1) as f64;
        if child_w >= MIN_FRAME_PX {
            render_node(
                out,
                Some(child_name),
                child,
                child_x,
                child_w,
                if name.is_some() { depth + 1 } else { depth },
                total,
            );
        }
        child_x += child_w;
    }
}

/// Renders `profile` as a self-contained flamegraph SVG titled `title`.
/// Always returns valid SVG: an empty profile yields a "no samples"
/// placeholder rather than degenerate geometry.
pub fn flamegraph_svg(title: &str, profile: &Profile) -> String {
    let mut root = Node::default();
    for s in &profile.samples {
        if let Some(names) = profile.stack_names(s) {
            root.insert(&names, s.weight);
        }
    }
    let total = root.weight;
    let depth = root.depth().saturating_sub(1).max(1);
    let height = HEADER_H + depth as f64 * ROW_H + PAD;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {:.0} {height:.0}\">\n",
        WIDTH + 2.0 * PAD,
        WIDTH + 2.0 * PAD,
    );
    out.push_str(&format!(
        "<rect width=\"100%\" height=\"100%\" fill=\"#fdfdf6\"/>\n\
         <text x=\"{PAD}\" y=\"22\" font-size=\"14\" font-family=\"monospace\" \
         fill=\"#333\">{} — {} ops sampled, interval {}</text>\n",
        escape(title),
        total,
        profile.interval,
    ));
    if total == 0 {
        out.push_str(&format!(
            "<text x=\"{PAD}\" y=\"{:.0}\" font-size=\"12\" font-family=\"monospace\" \
             fill=\"#888\">no samples</text>\n",
            HEADER_H + 12.0,
        ));
    } else {
        render_node(&mut out, None, &root, PAD, WIDTH, 0, total);
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Profile, Sample};

    fn profile(stacks: &[(&[&str], u64)]) -> Profile {
        let mut p = Profile {
            interval: 100,
            wall_ns: 0,
            ..Profile::default()
        };
        let mut ids = std::collections::HashMap::new();
        for (i, (names, weight)) in stacks.iter().enumerate() {
            let fids: Vec<u32> = names
                .iter()
                .map(|n| {
                    *ids.entry(n.to_string()).or_insert_with(|| {
                        p.frames.push(n.to_string());
                        (p.frames.len() - 1) as u32
                    })
                })
                .collect();
            p.stacks.push(fids);
            p.samples.push(Sample {
                tid: 0,
                clock: (i as u64 + 1) * 100,
                stack_id: i as u32,
                weight: *weight,
            });
        }
        p
    }

    fn assert_valid_svg(svg: &str) {
        assert!(svg.starts_with("<svg"), "{svg}");
        assert!(svg.trim_end().ends_with("</svg>"), "{svg}");
        assert!(!svg.contains("NaN"), "NaN coordinate in SVG:\n{svg}");
        assert!(!svg.contains("inf"), "infinite coordinate in SVG:\n{svg}");
        // Every <g> opened is closed.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
    }

    #[test]
    fn empty_profile_is_valid_svg() {
        let svg = flamegraph_svg("empty", &Profile::default());
        assert_valid_svg(&svg);
        assert!(svg.contains("no samples"), "{svg}");
    }

    #[test]
    fn single_sample_renders_one_frame_per_level() {
        let p = profile(&[(&["run", "engine", "uop/alu"], 100)]);
        let svg = flamegraph_svg("single", &p);
        assert_valid_svg(&svg);
        assert_eq!(svg.matches("<rect x=").count(), 3, "{svg}");
        assert!(svg.contains("uop/alu: 100 ops (100.0%)"), "{svg}");
    }

    #[test]
    fn extreme_width_ratio_skips_unreadable_frames_without_nan() {
        // One frame takes ~all the width; the other would be far below
        // half a pixel and must be skipped, not drawn with degenerate
        // geometry.
        let p = profile(&[(&["run", "huge"], u64::MAX / 4), (&["run", "dust"], 1)]);
        let svg = flamegraph_svg("extreme", &p);
        assert_valid_svg(&svg);
        assert!(svg.contains("huge"), "{svg}");
        assert!(
            !svg.contains("dust"),
            "sub-pixel frame should be skipped: {svg}"
        );
    }

    #[test]
    fn frame_names_are_xml_escaped() {
        let p = profile(&[(&["sched/job [a<&>\"'b]"], 10)]);
        let svg = flamegraph_svg("escape <'&\"> title", &p);
        assert_valid_svg(&svg);
        assert!(svg.contains("a&lt;&amp;&gt;&quot;&#39;b"), "{svg}");
        assert!(
            svg.contains("escape &lt;&#39;&amp;&quot;&gt; title"),
            "{svg}"
        );
        assert!(!svg.contains("[a<&"), "{svg}");
    }

    #[test]
    fn siblings_partition_the_row_deterministically() {
        let p = profile(&[(&["run", "a"], 300), (&["run", "b"], 100)]);
        let svg1 = flamegraph_svg("part", &p);
        let svg2 = flamegraph_svg("part", &p);
        assert_eq!(svg1, svg2);
        assert_valid_svg(&svg1);
        assert!(svg1.contains("a: 300 ops (75.0%)"), "{svg1}");
        assert!(svg1.contains("b: 100 ops (25.0%)"), "{svg1}");
    }
}
