//! The files a pass produces, named and rendered exactly as `reproduce`
//! writes them, and the digest every pass is checked by.

use std::io::Write;
use std::path::Path;

use simstore::{Key, StableHasher};
use workchar::characterize::records_csv;
use workchar::dataset::Dataset;
use workchar::experiments::Artifact;

/// One output file: its name under the results directory and its bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub name: String,
    pub body: String,
}

impl Output {
    pub fn new(name: impl Into<String>, body: String) -> Output {
        Output {
            name: name.into(),
            body,
        }
    }
}

/// `<slug>.txt`, `<slug>.csv` and the figures' SVGs of one artifact.
pub fn artifact_outputs(artifact: &Artifact) -> Vec<Output> {
    let slug = artifact.id.slug();
    let mut out = vec![
        Output::new(format!("{slug}.txt"), artifact.render()),
        Output::new(format!("{slug}.csv"), artifact.render_csv()),
    ];
    for (i, figure) in artifact.figures.iter().enumerate() {
        let name = if artifact.figures.len() == 1 {
            format!("{slug}.svg")
        } else {
            format!("{slug}_{}.svg", i + 1)
        };
        out.push(Output::new(name, figure.render_svg(900, 420)));
    }
    out
}

/// The per-pair record dumps.
pub fn records_outputs(data: &Dataset) -> Vec<Output> {
    vec![
        Output::new("records_cpu2017.csv", records_csv(&data.cpu17)),
        Output::new("records_cpu2006.csv", records_csv(&data.cpu06)),
    ]
}

/// Writes every output under `dir`.
///
/// # Errors
///
/// The first filesystem error.
pub fn write_all(dir: &Path, outputs: &[Output]) -> std::io::Result<()> {
    for o in outputs {
        std::fs::File::create(dir.join(&o.name))?.write_all(o.body.as_bytes())?;
    }
    Ok(())
}

/// Content digest of a pass's outputs, names and order included.
pub fn digest(outputs: &[Output]) -> Key {
    let mut h = StableHasher::new();
    for o in outputs {
        h.write_str(&o.name);
        h.write_str(&o.body);
    }
    h.finish()
}

pub fn total_bytes(outputs: &[Output]) -> u64 {
    outputs.iter().map(|o| o.body.len() as u64).sum()
}

/// Names of the outputs that differ from the committed files under
/// `results` (a missing file differs).
pub fn diff_committed(results: &Path, outputs: &[Output]) -> Vec<String> {
    outputs
        .iter()
        .filter(|o| std::fs::read(results.join(&o.name)).map_or(true, |b| b != o.body.as_bytes()))
        .map(|o| o.name.clone())
        .collect()
}
