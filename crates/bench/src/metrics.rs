//! Wall-clock reporting for sweep executions: throughput metrics and the
//! live progress line.
//!
//! This module is part of the workspace's *metrics layer* — the only code
//! outside `rdt-sim`'s [`Stopwatch`](rdt_sim::Stopwatch) and the lint CLI
//! allowed to read the host clock (`rdt-lint`'s `wall-clock` rule enforces
//! that). Everything here is presentation: no measured duration
//! ever feeds back into simulation results.

use std::io::{IsTerminal, Write as _};
use std::time::{Duration, Instant};

use crate::experiment::Sweep;

/// Wall-clock metrics of one sweep execution.
#[derive(Debug, Clone)]
pub struct SweepMetrics {
    /// Grid points run.
    pub points: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl SweepMetrics {
    /// Throughput in points per second.
    pub fn points_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.points as f64 / secs
        } else {
            0.0
        }
    }

    /// One-line rendering: `80 points in 3.2s (25.0 points/s, 4 threads)`.
    pub fn render(&self) -> String {
        format!(
            "{} points in {:.1}s ({:.1} points/s, {} thread{})",
            self.points,
            self.elapsed.as_secs_f64(),
            self.points_per_sec(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        )
    }
}

/// Whether progress lines should default to on: only when stderr is a
/// terminal (CI logs stay clean).
pub(crate) fn progress_default() -> bool {
    std::io::stderr().is_terminal()
}

pub(crate) struct Progress {
    enabled: bool,
    name: String,
    total: usize,
    done: usize,
    started: Instant,
    last_draw: Option<Instant>,
}

impl Progress {
    pub(crate) fn new(sweep: &Sweep, enabled: bool) -> Self {
        Progress {
            enabled,
            name: sweep.name.clone(),
            total: sweep.len(),
            done: 0,
            started: Instant::now(),
            last_draw: None,
        }
    }

    pub(crate) fn tick(&mut self, done: usize) {
        self.done = done;
        if !self.enabled {
            return;
        }
        let throttled = self
            .last_draw
            .is_some_and(|at| at.elapsed() < Duration::from_millis(100));
        if throttled && self.done < self.total {
            return;
        }
        self.last_draw = Some(Instant::now());
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            self.done as f64 / elapsed
        } else {
            0.0
        };
        eprint!(
            "\r  [{}] {}/{} points, {:.1} points/s, {:.1}s elapsed",
            self.name, self.done, self.total, rate, elapsed
        );
        let _ = std::io::stderr().flush();
    }

    pub(crate) fn finish(&mut self) {
        if self.enabled && self.last_draw.is_some() {
            eprintln!();
        }
    }
}
