//! Static model-analysis diagnostics for the characterization pipeline.
//!
//! Every layer of the reproduction trusts invariants that used to be
//! enforced by scattered `assert!`s and first-failure validators: behaviour
//! profiles must describe a physically possible workload, cache geometries
//! must be legal, and counter files must obey the partition identities the
//! hierarchy guarantees by construction. This crate centralizes that trust
//! into a *diagnostics engine*:
//!
//! - [`Severity`] — `error` / `warning` / `info` levels with deny-warnings
//!   escalation at the call site.
//! - [`RuleCode`] — stable, documented rule identities (`P004`, `C005`,
//!   `R010`, …) grouped into [`Family`]s: profile well-formedness, config
//!   legality, result/counter auditing, trace
//!   integrity, simpoint artifacts, statistical-profiler artifacts, and
//!   run manifests.
//! - [`Span`] — a field-level location (`"505.mcf_r/ref/in1.load_pct"`)
//!   naming exactly which object and field violated the rule.
//! - [`Report`] — an ordered collection of [`Diagnostic`]s with a
//!   human-readable aligned table ([`Report::to_table`]) and a
//!   machine-readable JSON rendering ([`Report::to_json`]).
//! - [`explain`] — the `--explain CODE` catalog: invariant, rationale, and
//!   the paper figure/table the rule protects.
//!
//! The crate is deliberately dependency-free and domain-agnostic: rule
//! *logic* lives next to the types it checks (`workload-synth` for P-rules,
//! `uarch-sim` for C-rules, `workchar` for R-rules, `simprof` for
//! F-rules);
//! this crate owns the codes, severities, and renderers so every layer
//! reports violations the same way.
//!
//! # Example
//!
//! ```
//! use simcheck::{codes, Diagnostic, Report, Severity, Span};
//!
//! let mut report = Report::new();
//! report.push(Diagnostic::new(
//!     &codes::P004,
//!     Span::field("901.kvstore_x/ref/in1", "load_pct"),
//!     "loads 90% + stores 20% + branches 0% = 110%",
//! ));
//! assert!(report.has_errors());
//! assert!(report.to_table().contains("P004"));
//! assert!(simcheck::explain("P004").is_some());
//! ```

pub mod catalog;
pub mod diag;
pub mod render;

pub use catalog::{codes, explain, find, suggest, Family, RuleCode, CATALOG};
pub use diag::{Diagnostic, Report, Severity, Span};
