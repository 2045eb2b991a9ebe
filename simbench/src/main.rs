//! `simbench`: the end-to-end benchmark of the characterization pipeline.
//!
//! ```text
//! simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! simbench compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]
//! ```
//!
//! A run sets its workload up several times (the median is `setup_s`), then
//! times passes back to back for `--seconds` (at least [`MIN_PASSES`]) with
//! the host-speed probe timed between them, checks every pass's outputs,
//! and prints its metrics, times scaled to the reference host (see
//! [`probe`]), as one JSON object on the last line of stdout, with a
//! readable table on stderr. `--trace 1` makes a traced run instead and
//! prints the per-layer metrics (see [`trace`]). Run it from the repository
//! root: the scratch directory is created there and removed on exit, and
//! `default-cold` at seed 0 is compared with the committed `results/`.
//! `BENCHMARK.md` describes the workloads, the metrics and the baselines.
//!
//! `compare` applies the A/B rule to two directories of saved results (see
//! [`compare`]). `simbench probe WORKERS` is the host-speed probe's child
//! process, which a run starts itself.

mod check;
mod compare;
mod outputs;
mod probe;
mod roster;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::Check;
use probe::Probe;
use stats::{cpu_seconds, median, peak_rss_mb};
use workload::{Bench, Scratch, Workload};

pub type BoxResult<T> = Result<T, Box<dyn std::error::Error>>;

/// An end-to-end run sets up `SETUP_REPS` times; `setup_s` is the median.
/// A traced run sets up once.
const SETUP_REPS: usize = 3;

/// Passes an end-to-end run makes however long they take.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     simbench compare PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Options {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = Duration::from_secs(10);
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::from_name(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => return compare::main(&args[1..]),
        Some("probe") => return probe_process(&args[1..]),
        _ => {}
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `simbench probe WORKERS`, the child process of [`Probe`].
fn probe_process(args: &[String]) -> ExitCode {
    let Some(workers) = args.first().and_then(|w| w.parse().ok()) else {
        eprintln!("usage: simbench probe WORKERS");
        return ExitCode::from(2);
    };
    match probe::serve(workers, std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> BoxResult<()> {
    // Process state as `reproduce` sets it: metrics on; trace, profiling
    // and race checking off.
    simmetrics::enable();
    workchar::telemetry::register_pipeline_metrics();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = Scratch::create(opts.workload)?;
    let mut setups = Vec::new();
    let mut bench = set_up(opts, &scratch, &mut setups)?;
    while !opts.trace && setups.len() < SETUP_REPS {
        bench = set_up(opts, &scratch, &mut setups)?;
    }
    let mut check = Check::new(&bench);
    let (metrics, passes) = if opts.trace {
        let traced = trace::traced_run(&bench, workers)?;
        check.pass(&traced.pass);
        for problem in traced.problems {
            check.problem(problem);
        }
        (traced.metrics, 1)
    } else {
        measure(&bench, &mut check, opts.seconds, &setups, workers)?
    };
    let digest = check.finish();

    eprintln!(
        "simbench {} seed {} ({} pass(es), {workers} workers, trace {})",
        opts.workload.name(),
        opts.seed,
        passes,
        u8::from(opts.trace)
    );
    if let Some(d) = digest {
        eprintln!("output digest {d}");
    }
    for problem in check.problems() {
        eprintln!("CHECK FAILED: {problem}");
    }
    eprintln!("{:<36} {:>16}  unit", "metric", "value");
    for m in &metrics {
        eprintln!("{:<36} {:>16.4}  {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&check, &metrics));
    Ok(())
}

/// One timed set-up, its time appended to `setups`.
fn set_up(opts: &Options, scratch: &Scratch, setups: &mut Vec<f64>) -> BoxResult<Bench> {
    let start = Instant::now();
    let bench = Bench::setup(opts.workload, opts.seed, scratch.path(), setups.len())?;
    setups.push(start.elapsed().as_secs_f64());
    Ok(bench)
}

/// The end-to-end run: passes back to back until `seconds` have passed,
/// the host-speed probe between them.
fn measure(
    bench: &Bench,
    check: &mut Check,
    seconds: Duration,
    setups: &[f64],
    workers: usize,
) -> BoxResult<(Vec<Metric>, usize)> {
    let mut probe = Probe::start(workers)?;
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut cpu = 0.0;
    while walls.len() < MIN_PASSES || start.elapsed() < seconds {
        let cpu_before = cpu_seconds();
        let begun = Instant::now();
        let pass = bench.pass()?;
        let wall = begun.elapsed().as_secs_f64();
        cpu += cpu_seconds() - cpu_before;
        walls.push(wall);
        rates.push(pass.ops() as f64 / wall / 1e6);
        check.pass(&pass);
        probe.keep_up(start.elapsed().as_secs_f64())?;
    }
    let n = walls.len();
    eprintln!(
        "unscaled: pass_s {:.4} s, setup_s {:.4} s; probe {:.3} ms over {} samples, scale {:.4}",
        median(&walls),
        median(setups),
        probe.mean_s() * 1e3,
        probe.samples(),
        probe.scale()
    );
    let metrics = end_to_end(
        &walls,
        &rates,
        cpu / n as f64,
        setups,
        peak_rss_mb(),
        probe.scale(),
    );
    Ok((metrics, n))
}

/// The end-to-end metrics, in `BENCHMARK.json` order, times multiplied by
/// `scale` to read as on the reference host.
fn end_to_end(
    walls: &[f64],
    rates: &[f64],
    cpu_per_pass: f64,
    setups: &[f64],
    rss: f64,
    scale: f64,
) -> Vec<Metric> {
    vec![
        Metric::new("pass_s", median(walls) * scale, "s"),
        Metric::new("cpu_s", cpu_per_pass * scale, "s"),
        Metric::new("sim_mops_per_s", median(rates) / scale, "Mops/s"),
        Metric::new("setup_s", median(setups) * scale, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ]
}

fn result_json(check: &Check, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                perfmon::json::escape(&m.name),
                perfmon::json::escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed() == 0 && check.attempted > 0,
        check.attempted.max(1),
        check.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use perfmon::json::{self, Value};

    /// `(name, unit)` of every metric of one list of `BENCHMARK.json`.
    pub(crate) fn spec(list: &str) -> Vec<(String, String)> {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("valid spec");
        let field =
            |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
        doc.get(list)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    pub(crate) fn named(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_match_the_spec() {
        let metrics = end_to_end(&[2.0, 1.0], &[5.0], 3.0, &[0.5], 15.0, 2.0);
        assert_eq!(named(&metrics), spec("end_to_end"));
        let values: Vec<f64> = metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [3.0, 6.0, 2.5, 1.0, 15.0]);
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let bench = Bench {
            workload: Workload::QuickCold,
            seed: 0,
            roster: roster::Roster::new(0),
            config: Workload::QuickCold.config(),
            out_dir: std::path::PathBuf::new(),
            store: None,
        };
        let check = Check::new(&bench);
        let line = result_json(
            &check,
            &end_to_end(&[1.0], &[1.0], 1.0, &[f64::NAN], 1.0, 1.0),
        );
        let doc = json::parse(&line).expect("one JSON object");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(0.0));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn arguments_parse_strictly() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args(
            "--workload cache-replay --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.trace),
            (Workload::CacheReplay, 7, true)
        );
        assert_eq!(o.seconds, Duration::from_millis(2500));
        for bad in [
            "",
            "--workload nope",
            "--workload quick-cold --trace 2",
            "--seed",
            "--workload quick-cold --seconds 0",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
