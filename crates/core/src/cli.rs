//! Shared command-line parsing for the workspace binaries.
//!
//! The workspace is dependency-free, so there is no clap. This module
//! holds the two pieces every hand-written flag loop shares:
//!
//! - [`ArgStream`]: a cursor over the argument list with value-taking
//!   helpers that produce consistent [`Error::Usage`] diagnostics
//!   (`--flag needs a …`, `--flag: 'x' is not a number`). `reproduce`,
//!   `extensions` and every `simgate` subcommand parse with it.
//! - [`PipelineFlags`]: the observability/caching flag block the two
//!   campaign binaries share (`--results`, `--cache-dir`, `--no-cache`,
//!   `--lint`, `--deny-warnings`, `--timeline`, `--simpoint`, `--trace`,
//!   `--profile`, `--profile-interval`), parsed by a single `accept` call
//!   so the binaries cannot drift apart flag by flag.

use std::path::PathBuf;
use std::str::FromStr;

use crate::error::{Error, Result};

/// A cursor over command-line arguments with usage-error helpers.
pub struct ArgStream {
    args: std::vec::IntoIter<String>,
}

impl ArgStream {
    /// The process's arguments, program name already skipped.
    pub fn from_env() -> Self {
        ArgStream {
            args: std::env::args().skip(1).collect::<Vec<_>>().into_iter(),
        }
    }

    /// A fixed argument list (tests).
    pub fn from_args<I: IntoIterator<Item = S>, S: Into<String>>(args: I) -> Self {
        ArgStream {
            args: args
                .into_iter()
                .map(Into::into)
                .collect::<Vec<_>>()
                .into_iter(),
        }
    }

    /// The next raw argument, if any.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Takes the value following `flag`, failing with a uniform usage
    /// message naming `what` (e.g. `"a directory"`, `"a file path"`).
    pub fn value(&mut self, flag: &str, what: &str) -> Result<String> {
        self.args
            .next()
            .ok_or_else(|| Error::Usage(format!("{flag} needs {what}")))
    }

    /// [`ArgStream::value`] as a `PathBuf`.
    pub fn path(&mut self, flag: &str, what: &str) -> Result<PathBuf> {
        Ok(PathBuf::from(self.value(flag, what)?))
    }

    /// Takes and parses the numeric value following `flag`.
    pub fn number<T: FromStr>(&mut self, flag: &str, what: &str) -> Result<T> {
        let raw = self.value(flag, what)?;
        raw.parse()
            .map_err(|_| Error::Usage(format!("{flag}: '{raw}' is not a number")))
    }
}

/// The flag block shared by the campaign binaries (`reproduce`,
/// `extensions`): results/cache locations plus the observability toggles.
#[derive(Debug, Clone)]
pub struct PipelineFlags {
    /// Artifact output directory (`--results`, default `results`).
    pub results_dir: PathBuf,
    /// Result-cache directory (`--cache-dir`, default `results/cache`).
    pub cache_dir: PathBuf,
    /// Re-simulate everything; touch no cache (`--no-cache`).
    pub no_cache: bool,
    /// Statically check profiles and config first (`--lint`).
    pub lint: bool,
    /// With `--lint`, refuse to run on warnings too (`--deny-warnings`).
    pub deny_warnings: bool,
    /// Sample per-pair counter timelines (`--timeline`).
    pub timeline: bool,
    /// Run the representative-interval campaign (`--simpoint`).
    pub simpoint: bool,
    /// Export the run's span trace as trace files (`--trace`).
    pub trace: bool,
    /// Record an op-clocked statistical profile of the run (`--profile`).
    pub profile: bool,
    /// Profile sampling interval in engine ops (`--profile-interval N`).
    pub profile_interval: u64,
}

impl Default for PipelineFlags {
    fn default() -> Self {
        PipelineFlags {
            results_dir: PathBuf::from("results"),
            cache_dir: PathBuf::from("results/cache"),
            no_cache: false,
            lint: false,
            deny_warnings: false,
            timeline: false,
            simpoint: false,
            trace: false,
            profile: false,
            profile_interval: simprof::DEFAULT_INTERVAL,
        }
    }
}

impl PipelineFlags {
    /// Defaults: `results` / `results/cache`, everything off.
    pub fn new() -> Self {
        PipelineFlags::default()
    }

    /// Consumes `arg` if it belongs to the shared block, pulling any value
    /// from `args`. Returns `Ok(true)` when consumed, `Ok(false)` when the
    /// caller should handle the argument itself.
    pub fn accept(&mut self, arg: &str, args: &mut ArgStream) -> Result<bool> {
        match arg {
            "--results" => self.results_dir = args.path(arg, "a directory")?,
            "--cache-dir" => self.cache_dir = args.path(arg, "a directory")?,
            "--no-cache" => self.no_cache = true,
            "--lint" => self.lint = true,
            "--deny-warnings" => self.deny_warnings = true,
            "--timeline" => self.timeline = true,
            "--simpoint" => self.simpoint = true,
            "--trace" => self.trace = true,
            "--profile" => self.profile = true,
            "--profile-interval" => {
                self.profile = true;
                self.profile_interval = args.number::<u64>(arg, "an op count")?.max(1);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// A stable human-readable summary of the active shared toggles plus
    /// the caller's `extra` token (e.g. the selected experiments) —
    /// recorded as the run manifest's `config` field.
    pub fn config_summary(&self, extra: &str) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for (on, name) in [
            (self.no_cache, "no-cache"),
            (self.lint, "lint"),
            (self.deny_warnings, "deny-warnings"),
            (self.timeline, "timeline"),
            (self.simpoint, "simpoint"),
            (self.trace, "trace"),
            (self.profile, "profile"),
        ] {
            if on {
                parts.push(name);
            }
        }
        let flags = parts.join(",");
        match (flags.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (false, true) => flags,
            (true, false) => extra.to_string(),
            (false, false) => format!("{flags} {extra}"),
        }
    }

    /// One usage line per shared flag, for the binaries' `--help` output.
    pub fn usage_lines() -> &'static str {
        concat!(
            "  --results DIR    artifact output directory (default results)\n",
            "  --no-cache       re-simulate everything; do not read or write the result cache\n",
            "  --cache-dir DIR  result-cache directory (default results/cache)\n",
            "  --lint           statically check profiles and config before simulating\n",
            "  --deny-warnings  with --lint, refuse to run on warnings too\n",
            "  --timeline       sample a per-pair counter timeline (CSV + SVG under results/timelines)\n",
            "  --simpoint       run the representative-interval campaign (records under results/simpoints)\n",
            "  --trace          export the run's span trace under results/traces/ (Perfetto JSON + binary)\n",
            "  --profile        record an op-clocked statistical profile under results/profiles/\n",
            "                   (.prof artifact + folded stacks + flamegraph SVG; implies --no-cache)\n",
            "  --profile-interval N  ops per profile sample (default 10000; implies --profile)\n",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_helpers_produce_uniform_usage_errors() {
        let mut args = ArgStream::from_args(Vec::<String>::new());
        let err = args.value("--out", "a file path").unwrap_err();
        assert_eq!(err.to_string(), "usage: --out needs a file path");
        let mut args = ArgStream::from_args(["abc"]);
        let err = args
            .number::<f64>("--max-error", "a percentage")
            .unwrap_err();
        assert_eq!(err.to_string(), "usage: --max-error: 'abc' is not a number");
    }

    #[test]
    fn number_parses_value() {
        let mut args = ArgStream::from_args(["3.5"]);
        let v: f64 = args.number("--min-speedup", "a factor").unwrap();
        assert_eq!(v, 3.5);
    }

    #[test]
    fn pipeline_flags_consume_the_shared_block() {
        let mut args = ArgStream::from_args([
            "--results",
            "out",
            "--no-cache",
            "--timeline",
            "--serve-metrics",
            "--quick",
        ]);
        let mut flags = PipelineFlags::new();
        let mut rest = Vec::new();
        while let Some(arg) = args.next() {
            if !flags.accept(&arg, &mut args).unwrap() {
                rest.push(arg);
            }
        }
        assert_eq!(flags.results_dir, PathBuf::from("out"));
        assert_eq!(flags.cache_dir, PathBuf::from("results/cache"));
        assert!(flags.no_cache && flags.timeline);
        assert!(!flags.lint && !flags.trace && !flags.simpoint && !flags.profile);
        assert_eq!(
            rest,
            ["--serve-metrics", "--quick"],
            "unknown args flow back to the caller"
        );
    }

    #[test]
    fn profile_interval_implies_profile() {
        let mut args = ArgStream::from_args(["--profile-interval", "5000"]);
        let mut flags = PipelineFlags::new();
        let arg = args.next().unwrap();
        assert!(flags.accept(&arg, &mut args).unwrap());
        assert!(flags.profile);
        assert_eq!(flags.profile_interval, 5000);
        // Bare --profile keeps the default interval.
        let mut args = ArgStream::from_args(["--profile"]);
        let mut flags = PipelineFlags::new();
        let arg = args.next().unwrap();
        assert!(flags.accept(&arg, &mut args).unwrap());
        assert!(flags.profile);
        assert_eq!(flags.profile_interval, simprof::DEFAULT_INTERVAL);
    }

    #[test]
    fn missing_flag_value_is_a_usage_error() {
        let mut args = ArgStream::from_args(["--cache-dir"]);
        let mut flags = PipelineFlags::new();
        let arg = args.next().unwrap();
        let err = flags.accept(&arg, &mut args).unwrap_err();
        assert!(err.to_string().contains("--cache-dir needs a directory"));
    }
}
