//! Table and figure rendering for the characterization pipeline.
//!
//! Every table and figure of the paper is regenerated as a [`table::Table`]
//! or [`figure::Figure`]; tables render to aligned ASCII for the terminal,
//! to Markdown for documents, and to CSV for downstream plotting; figures
//! additionally render to standalone SVG (see [`svg`]).
//!
//! # Example
//!
//! ```
//! use simreport::table::{Align, Table};
//!
//! let mut t = Table::new("Table II analogue", &["Suite", "IPC"]);
//! t.align(1, Align::Right);
//! t.row(vec!["rate int".into(), "1.724".into()]);
//! let text = t.render_ascii();
//! assert!(text.contains("rate int"));
//! ```

pub mod csv;
pub mod figure;
pub mod fixed;
pub mod sparkline;
pub mod svg;
pub mod table;
