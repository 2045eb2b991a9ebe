//! The pipeline-wide error type.
//!
//! Every fallible public entry point in this crate — characterization,
//! dataset collection, experiment regeneration — returns [`Result`], whose
//! error side is the [`Error`] enum below. Each variant wraps (or renders)
//! the typed error of the layer it came from, so binaries can print one
//! human-readable diagnosis and exit nonzero instead of unwinding through a
//! panic.

use std::fmt;
use std::io;

use simstore::JobFailure;
use stat_analysis::StatsError;
use uarch_sim::counters::IdentityError;
use workload_synth::profile::InvalidBehavior;

/// Convenience alias used throughout the pipeline.
pub type Result<T> = std::result::Result<T, Error>;

/// Any failure a characterization campaign can surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A behaviour profile failed validation before trace generation.
    Behavior(InvalidBehavior),
    /// A statistics routine failed (empty input, dimension mismatch,
    /// non-convergence).
    Stats(StatsError),
    /// A pair's simulated counters broke an identity the engine guarantees
    /// ([`uarch_sim::counters::PerfSession::check`]).
    Identity {
        /// The pair's label, `id/size` (`505.mcf_r/ref`).
        pair: String,
        /// The broken identity, with both of its sides.
        error: IdentityError,
    },
    /// Filesystem trouble while reading or writing artifacts.
    Io(io::Error),
    /// One or more per-pair characterizations failed inside the scheduler.
    Characterization {
        /// The failed jobs, in submission order.
        failures: Vec<JobFailure>,
        /// How many pairs the campaign attempted.
        total: usize,
    },
    /// A static lint pass (`--lint` / the `lint` binary) found failing
    /// diagnostics; the report carries every violation with its rule code.
    Lint(simcheck::Report),
    /// A requested artifact or record was not available.
    MissingData(String),
    /// Bad command-line usage (binaries map this to exit code 2).
    Usage(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Behavior(e) => write!(f, "{e}"),
            Error::Stats(e) => write!(f, "{e}"),
            Error::Identity { pair, error } => {
                write!(f, "{pair}: counter identity broken: {error}")
            }
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Characterization { failures, total } => {
                writeln!(
                    f,
                    "characterization failed for {} of {} pair(s):",
                    failures.len(),
                    total
                )?;
                for failure in failures {
                    writeln!(f, "  {failure}")?;
                }
                Ok(())
            }
            Error::Lint(report) => {
                write!(
                    f,
                    "lint failed ({}):\n{}",
                    report.summary(),
                    report.to_table()
                )
            }
            Error::MissingData(what) => write!(f, "missing data: {what}"),
            Error::Usage(what) => write!(f, "usage: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Behavior(e) => Some(e),
            Error::Stats(e) => Some(e),
            Error::Identity { error, .. } => Some(error),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InvalidBehavior> for Error {
    fn from(e: InvalidBehavior) -> Self {
        Error::Behavior(e)
    }
}

impl From<StatsError> for Error {
    fn from(e: StatsError) -> Self {
        Error::Stats(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<simcheck::Report> for Error {
    fn from(report: simcheck::Report) -> Self {
        Error::Lint(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_each_variant() {
        let behavior: Error = InvalidBehavior { what: "bad mix" }.into();
        assert!(behavior.to_string().contains("bad mix"));
        let stats: Error = StatsError::Empty { what: "records" }.into();
        assert!(stats.to_string().contains("records"));
        let identity = Error::Identity {
            pair: "505.mcf_r/ref".to_string(),
            error: IdentityError::NoCycles { instructions: 7 },
        };
        assert_eq!(
            identity.to_string(),
            "505.mcf_r/ref: counter identity broken: retired instructions 7 but cycles 0"
        );
        let io: Error = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(io.to_string().contains("gone"));
        let usage = Error::Usage("unknown flag --frob".to_string());
        assert!(usage.to_string().contains("--frob"));
        let mut report = simcheck::Report::new();
        report.push(simcheck::Diagnostic::new(
            &simcheck::codes::P004,
            simcheck::Span::field("999.fake_r/ref/in1", "load_pct"),
            "mix sums to 120%".to_string(),
        ));
        let lint: Error = report.into();
        let text = lint.to_string();
        assert!(text.contains("P004"), "{text}");
        assert!(text.contains("1 error"), "{text}");
    }

    #[test]
    fn characterization_lists_failures() {
        let e = Error::Characterization {
            failures: vec![JobFailure {
                index: 3,
                label: "505.mcf_r/ref0".to_string(),
                message: "boom".to_string(),
            }],
            total: 47,
        };
        let text = e.to_string();
        assert!(text.contains("1 of 47"));
        assert!(text.contains("505.mcf_r/ref0"));
        assert!(text.contains("boom"));
    }

    #[test]
    fn sources_are_preserved() {
        let e: Error = StatsError::Empty { what: "x" }.into();
        assert!(std::error::Error::source(&e).is_some());
        let u = Error::MissingData("table2".to_string());
        assert!(std::error::Error::source(&u).is_none());
    }
}
