//! The host-speed probe: a fixed kernel, compiled into the benchmark and
//! independent of the repository's crates, timed between passes so that a
//! run's times can be scaled to a reference host speed.
//!
//! On a shared host the same pass runs 10–50% slower for minutes at a time
//! while the process still gets its whole CPU share (CPU time tracks wall
//! time, steal time stays flat): neighbours slow the cores down. Longer runs
//! do not help, the drift is slower than a run. A kernel timed beside the
//! passes slows down with them, so a pass time divided by the probe time
//! keeps the program's speed and drops most of the host's. No change to the
//! program moves the probe: it calls nothing outside this file.
//!
//! The kernel formats and allocates short strings on every worker thread.
//! Of the kernels timed beside the passes of all four workloads (integer
//! arithmetic, L2- and DRAM-sized pointer chases, random table updates, a
//! `BTreeMap`, this kernel on one thread), it had the smallest worst case:
//! it cut the run-to-run spread of the pass time by a quarter to a half on
//! every workload (see `BENCHMARK.md`).
//!
//! The probe runs in a child process, `simbench probe WORKERS`, which times
//! one probe per line it reads and prints the seconds it took. Probe threads
//! inside the measured process took the allocator's per-thread arenas in a
//! racy order and moved the pipeline's peak memory by 5–10 MB from run to
//! run; a process of its own leaves the measured one as it was.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The reference host's probe time: a scaled time reads as seconds on a
/// host where one probe takes this long. A round figure, near the 20–26 ms
/// the probe took on the 2-vCPU VM the baselines in `BENCHMARK.md` were
/// measured on.
pub const REFERENCE_S: f64 = 0.020;

/// Share of a run's measured time spent probing.
const SHARE: f64 = 0.05;

/// Strings each worker formats per probe.
const STRINGS: usize = 160_000;

/// The probe process of one run and the times it reported.
#[derive(Debug)]
pub struct Probe {
    child: Child,
    /// Closed on drop, which ends the child.
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
    samples: Vec<f64>,
}

impl Probe {
    /// Starts the probe process, probing on `workers` threads.
    ///
    /// # Errors
    ///
    /// When the process cannot be started.
    pub fn start(workers: usize) -> io::Result<Probe> {
        let mut child = Command::new(std::env::current_exe()?)
            .args(["probe", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Probe {
            child,
            input,
            output,
            samples: Vec::new(),
        })
    }

    /// Probes until probing has taken [`SHARE`] of `elapsed` seconds, the
    /// probes' own time included, and at least once.
    ///
    /// # Errors
    ///
    /// When the probe process fails or answers other than with a time.
    pub fn keep_up(&mut self, elapsed: f64) -> io::Result<()> {
        while self.samples.is_empty() || self.spent() < SHARE * elapsed {
            self.sample()?;
        }
        Ok(())
    }

    fn sample(&mut self) -> io::Result<()> {
        let input = self.input.as_mut().expect("open until drop");
        input.write_all(b"\n")?;
        input.flush()?;
        let mut line = String::new();
        self.output.read_line(&mut line)?;
        let seconds = line.trim().parse::<f64>().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("the probe process answered '{}'", line.trim()),
            )
        })?;
        self.samples.push(seconds);
        Ok(())
    }

    fn spent(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Mean probe time. A probe lasts milliseconds, and such short work
    /// switches between two speeds on a shared host; the mean weighs them
    /// by time, as a pass lasting seconds does.
    pub fn mean_s(&self) -> f64 {
        self.spent() / self.samples.len() as f64
    }

    /// Factor taking this run's times to the reference host's.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / self.mean_s()
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

impl Drop for Probe {
    /// Closes the probe's input, which ends it, and waits until it has.
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The probe process's loop: for each line of `input`, one probe on
/// `workers` threads, its time in seconds written to `output` as a line.
/// Ends at the end of `input`.
///
/// # Errors
///
/// Read and write errors.
pub fn serve(workers: usize, input: impl BufRead, mut output: impl Write) -> io::Result<()> {
    for line in input.lines() {
        line?;
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..workers.max(1) {
                s.spawn(|| std::hint::black_box(kernel(STRINGS)));
            }
        });
        writeln!(output, "{}", start.elapsed().as_secs_f64())?;
        output.flush()?;
    }
    Ok(())
}

/// Formats `strings` short strings, sixteen to a vector, and returns their
/// total length.
fn kernel(strings: usize) -> usize {
    let mut total = 0;
    for i in 0..strings / 16 {
        let v: Vec<String> = (0..16).map(|j| format!("{i}-{j}")).collect();
        total += v.iter().map(String::len).sum::<usize>();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_process_answers_each_line_with_a_time() {
        let mut out = Vec::new();
        serve(2, io::Cursor::new("\n\n\n"), &mut out).unwrap();
        let times: Vec<f64> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| l.parse().unwrap())
            .collect();
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn the_kernel_does_its_work() {
        // "0-0" .. "0-15": ten strings of 3 bytes and six of 4.
        assert_eq!(kernel(16), 10 * 3 + 6 * 4);
        assert_eq!(kernel(0), 0);
    }
}
