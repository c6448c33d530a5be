//! Host-speed calibration: what makes the timings repeatable on a shared
//! host.
//!
//! The VM this was sized on shares its cores with other guests. For
//! minutes at a time the same binary runs the same frames 1.3 to 1.6
//! times slower — user CPU time per request rises by the same factor, so
//! it is the CPU that is slower, not the daemon that waits — and ten runs
//! in a row spread by 15–38 % on every timing, whatever is done inside a
//! run (longer runs, more repetitions, medians, fastest quartiles were
//! all tried; see the README). What does repeat is the ratio between the
//! daemon's time and the time of a fixed piece of work done on the same
//! CPU at the same moment.
//!
//! So a *calibration child* (this executable's `calibrate` subcommand, on
//! the one CPU daemon and generator run on) times a fixed kernel before
//! and after every measured stretch of the run, and the part of that
//! stretch during which daemon or generator kept the CPU busy is converted
//! to the speed of a reference machine, on which the kernel takes
//! [`REFERENCE_KERNEL_S`], by what the kernel took within a second of the
//! stretch. The rest of the stretch — timers such as the 40 ms delayed
//! ACK, sleeping — is left as measured. The kernel is the benchmark's own
//! code and calls nothing of the repository, so no change to the daemon
//! can move it.

use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::daemon::{this_executable, KillOnDrop};

/// What one kernel run takes on the reference machine: the quiet-host
/// median of the VM this was sized on, so that calibrated and measured
/// values agree there when nothing else runs on the host.
pub const REFERENCE_KERNEL_S: f64 = 0.011;

const ROWS: usize = 4096;
const WORDS: usize = 64;
const ROUNDS: usize = 60_000;

/// The fixed work: word-parallel unions of pseudo-random rows of a 2 MiB
/// bit matrix, every changed word pushed onto a journal — the shape of
/// the daemon's own hot loop (closure rows, undo journal), so that it
/// slows down with the host the way the daemon does. The same rows in
/// the same order every time.
struct Kernel {
    matrix: Vec<u64>,
    journal: Vec<(u32, u32, u64)>,
    /// Words the last run changed.
    changed: u64,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            matrix: vec![0; ROWS * WORDS],
            journal: Vec::with_capacity(1 << 16),
            changed: 0,
        }
    }

    /// Seconds one run of the kernel took.
    fn run(&mut self) -> f64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for word in &mut self.matrix {
            let r = xorshift(&mut x);
            *word = r & r.rotate_left(17) & r.rotate_left(31);
        }
        self.journal.clear();
        self.changed = 0;
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let r = xorshift(&mut x);
            let into = (r >> 8) as usize % ROWS * WORDS;
            let from = (r >> 32) as usize % ROWS * WORDS;
            if into == from {
                continue;
            }
            for word in 0..WORDS {
                let add = self.matrix[from + word];
                let old = self.matrix[into + word];
                if add & !old != 0 {
                    if self.journal.len() == self.journal.capacity() {
                        self.journal.clear();
                    }
                    self.journal.push((into as u32, word as u32, old));
                    self.changed += 1;
                    // Not a plain union: rows must not fill up, or later
                    // rounds would find nothing to change.
                    self.matrix[into + word] = (old | add) ^ (old & add & r);
                }
            }
        }
        let seconds = start.elapsed().as_secs_f64();
        std::hint::black_box((&self.matrix, &self.journal));
        seconds
    }
}

/// `serve-bench calibrate`: one kernel run per line read from stdin, its
/// seconds printed; exits when stdin closes, so it cannot outlive the
/// generator.
pub fn calibrate_main() -> ExitCode {
    let mut kernel = Kernel::new();
    let mut line = String::new();
    let stdin = std::io::stdin();
    loop {
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => return ExitCode::SUCCESS,
            Ok(_) => {}
        }
        let seconds = kernel.run();
        let mut out = std::io::stdout().lock();
        if writeln!(out, "{seconds}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
    }
}

/// How far before and after a stretch kernel runs still speak for it. A
/// single run lasts 11 ms and either meets a busy moment of the host or
/// does not; the stretch between two runs lasts a quarter of a second or
/// more and sees the average, which the runs of a few seconds estimate.
const NEIGHBOURHOOD: Duration = Duration::from_secs(1);

/// The calibration child, killed and reaped on drop, and what its kernel
/// took each time it was asked.
pub struct Calibrator {
    _child: KillOnDrop,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// When each kernel run was asked for, and its seconds.
    samples: Vec<(Instant, f64)>,
}

impl Calibrator {
    pub fn spawn() -> Result<Calibrator, String> {
        let spawned = this_executable()?
            .arg("calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the calibration child: {e}"))?;
        let mut child = KillOnDrop(spawned);
        let stdin = child.0.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.0.stdout.take().expect("stdout was piped"));
        let mut calibrator = Calibrator {
            _child: child,
            stdin,
            stdout,
            samples: Vec::new(),
        };
        calibrator.sample()?; // Pages in the matrix; discarded.
        calibrator.samples.clear();
        Ok(calibrator)
    }

    /// Runs the kernel now: called before and after every measured
    /// stretch, while daemon and generator are idle.
    pub fn sample(&mut self) -> Result<(), String> {
        let died = |what: &str| format!("the calibration child died ({what})");
        let asked = Instant::now();
        self.stdin
            .write_all(b"\n")
            .map_err(|e| died(&e.to_string()))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| died(&e.to_string()))?;
        let seconds: f64 = line
            .trim()
            .parse()
            .ok()
            .filter(|seconds| *seconds > 0.0)
            .ok_or_else(|| died(&format!("it printed {line:?}")))?;
        self.samples.push((asked, seconds));
        Ok(())
    }

    /// What the kernel took around the stretch `from..to`: the mean of the
    /// runs from [`NEIGHBOURHOOD`] before it to [`NEIGHBOURHOOD`] after it,
    /// the two that bracket it among them.
    pub fn around(&self, from: Instant, to: Instant) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(asked, _)| *asked + NEIGHBOURHOOD >= from && *asked <= to + NEIGHBOURHOOD)
            .map(|(_, seconds)| *seconds)
            .collect();
        assert!(!near.is_empty(), "a stretch is bracketed by kernel runs");
        near.iter().sum::<f64>() / near.len() as f64
    }

    /// Every kernel run so far, in seconds.
    pub fn seconds(&self) -> Vec<f64> {
        self.samples.iter().map(|(_, seconds)| *seconds).collect()
    }
}

/// What a time measured in a stretch of the run is multiplied by (a rate
/// divided by) to read as on the reference machine. `busy_share` is the
/// part of the stretch the CPU was busy, `kernel_s` what the kernel took
/// around it: only that part is converted.
pub fn to_reference(busy_share: f64, kernel_s: f64) -> f64 {
    1.0 + busy_share.clamp(0.0, 1.0) * (REFERENCE_KERNEL_S / kernel_s - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_time() {
        let mut kernel = Kernel::new();
        kernel.run();
        let (matrix, journal, changed) = (
            kernel.matrix.clone(),
            kernel.journal.clone(),
            kernel.changed,
        );
        kernel.run();
        assert!(matrix == kernel.matrix && journal == kernel.journal);
        assert_eq!(changed, kernel.changed);
        // It does change words, on most rounds: an all-zero or saturated
        // matrix would time a loop that does nothing.
        assert!(changed > ROUNDS as u64, "{changed}");
    }

    #[test]
    fn only_the_busy_share_is_converted() {
        // A host twice as slow as the reference: busy time halves.
        let slow = 2.0 * REFERENCE_KERNEL_S;
        assert_eq!(to_reference(1.0, slow), 0.5);
        assert_eq!(to_reference(0.5, slow), 0.75);
        // A stretch spent waiting on a timer is left as measured.
        assert_eq!(to_reference(0.0, slow), 1.0);
        // The reference machine itself: nothing changes.
        assert_eq!(to_reference(0.7, REFERENCE_KERNEL_S), 1.0);
        // A share above 1 (tick rounding) counts as 1.
        assert_eq!(to_reference(1.7, slow), 0.5);
    }
}
