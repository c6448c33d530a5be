//! Post-run trace analysis: distributions behind the aggregate counters,
//! the RDT verdict of a replay ([`OnlineRdtReport`]), plus the workspace's
//! one sanctioned wall-clock reader ([`Stopwatch`]).

use std::time::{Duration, Instant};

use rdt_core::CheckpointKind;
use rdt_rgraph::{AppendError, IncrementalAnalysis};

use crate::{SimTime, Trace, TraceEvent};

/// Wall-clock phase timer: the single place simulation and benchmark code
/// is allowed to read the host clock.
///
/// Everything outside the metrics layer must stay a pure function of its
/// inputs (the `rdt-lint` `wall-clock` rule enforces this), so throughput
/// reporting and progress lines obtain elapsed time through a `Stopwatch`
/// instead of calling [`Instant::now`] inline.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed time in (fractional) seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Summary statistics of a sample of `u64` values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SampleStats {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (0 with fewer than two samples).
    pub std_dev: f64,
}

impl SampleStats {
    /// Computes the summary of `values`.
    pub fn of(values: &[u64]) -> SampleStats {
        if values.is_empty() {
            return SampleStats::default();
        }
        let count = values.len() as u64;
        let min = *values.iter().min().expect("non-empty");
        let max = *values.iter().max().expect("non-empty");
        let mean = values.iter().map(|&v| v as f64).sum::<f64>() / count as f64;
        let std_dev = if values.len() < 2 {
            0.0
        } else {
            (values
                .iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / (values.len() - 1) as f64)
                .sqrt()
        };
        SampleStats {
            count,
            min,
            max,
            mean,
            std_dev,
        }
    }
}

/// Distribution-level metrics extracted from one [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMetrics {
    /// Message latency (send to delivery), in ticks, over all delivered
    /// messages.
    pub message_latency: SampleStats,
    /// Checkpoint-interval lengths (ticks between consecutive checkpoints
    /// of one process), pooled over processes.
    pub checkpoint_intervals: SampleStats,
    /// Length of forced-checkpoint bursts: maximal runs of consecutive
    /// checkpoints of one process that are all forced. Long bursts are the
    /// checkpoint cascades dependency-tracking protocols are prone to on
    /// cyclic traffic.
    pub forced_bursts: SampleStats,
    /// Per-process event counts `(sends, deliveries, basic, forced)`.
    pub per_process: Vec<(u64, u64, u64, u64)>,
    /// Injected crashes recorded in the trace.
    pub crashes: u64,
}

impl TraceMetrics {
    /// Computes the metrics of `trace`.
    pub fn of(trace: &Trace) -> TraceMetrics {
        let n = trace.num_processes();
        let mut send_times: Vec<Option<SimTime>> = Vec::new();
        let mut latencies = Vec::new();
        let mut last_checkpoint: Vec<Option<SimTime>> = vec![None; n];
        let mut intervals = Vec::new();
        let mut burst: Vec<u64> = vec![0; n];
        let mut bursts = Vec::new();
        let mut per_process = vec![(0u64, 0u64, 0u64, 0u64); n];
        let mut crashes = 0u64;

        for event in trace.events() {
            match *event {
                TraceEvent::Send {
                    at, from, message, ..
                } => {
                    if send_times.len() <= message.0 {
                        send_times.resize(message.0 + 1, None);
                    }
                    send_times[message.0] = Some(at);
                    per_process[from.index()].0 += 1;
                }
                TraceEvent::Deliver {
                    at, to, message, ..
                } => {
                    if let Some(Some(sent)) = send_times.get(message.0) {
                        latencies.push(at.since(*sent).ticks());
                    }
                    per_process[to.index()].1 += 1;
                }
                TraceEvent::Checkpoint { at, id, kind } => {
                    let i = id.process.index();
                    if let Some(prev) = last_checkpoint[i] {
                        intervals.push(at.since(prev).ticks());
                    }
                    last_checkpoint[i] = Some(at);
                    match kind {
                        CheckpointKind::Forced => {
                            burst[i] += 1;
                            per_process[i].3 += 1;
                        }
                        _ => {
                            if burst[i] > 0 {
                                bursts.push(burst[i]);
                                burst[i] = 0;
                            }
                            if kind == CheckpointKind::Basic {
                                per_process[i].2 += 1;
                            }
                        }
                    }
                }
                TraceEvent::Crash { .. } => crashes += 1,
            }
        }
        bursts.extend(burst.into_iter().filter(|&b| b > 0));

        TraceMetrics {
            message_latency: SampleStats::of(&latencies),
            checkpoint_intervals: SampleStats::of(&intervals),
            forced_bursts: SampleStats::of(&bursts),
            per_process,
            crashes,
        }
    }

    /// Renders a compact human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let line = |s: &SampleStats| {
            format!(
                "n={} min={} max={} mean={:.1} sd={:.1}",
                s.count, s.min, s.max, s.mean, s.std_dev
            )
        };
        let _ = writeln!(
            out,
            "message latency (ticks)   : {}",
            line(&self.message_latency)
        );
        let _ = writeln!(
            out,
            "checkpoint interval (ticks): {}",
            line(&self.checkpoint_intervals)
        );
        let _ = writeln!(
            out,
            "forced-checkpoint bursts  : {}",
            line(&self.forced_bursts)
        );
        if self.crashes > 0 {
            let _ = writeln!(out, "injected crashes          : {}", self.crashes);
        }
        for (i, (s, d, b, f)) in self.per_process.iter().enumerate() {
            let _ = writeln!(
                out,
                "P{i}: {s} sends, {d} deliveries, {b} basic + {f} forced"
            );
        }
        out
    }
}

/// What the R-graph core saw when a trace was replayed into it event by
/// event, with the violation count read back after every append.
///
/// [`OnlineRdtReport::replay`] builds it: the question a monitor asks
/// online ("does RDT still hold *now*?"), answered on a finished run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineRdtReport {
    /// Events appended to the engine (the trace length minus its crash
    /// markers).
    pub events_appended: u64,
    /// Reachable-but-untrackable checkpoint pairs at the end of the trace
    /// (0 means every rollback dependency was trackable at every step).
    pub untrackable_pairs: u64,
    /// 1-based index (among the appended events) of the first event after
    /// which the untrackable count became nonzero; `None` when the run
    /// stayed clean.
    pub first_violation_event: Option<u64>,
    /// Wall time spent inside the engine's `append_*` calls.
    pub append_time: Duration,
    /// Wall time spent reading the violation count back after each append.
    pub query_time: Duration,
}

impl OnlineRdtReport {
    /// Replays `events` (a trace over `n` processes, in trace order) into a
    /// bare [`IncrementalAnalysis`]: every checkpoint, send and delivery is
    /// appended and the running untrackable count read back after each.
    /// Crash markers carry no pattern structure and are skipped.
    ///
    /// # Errors
    ///
    /// The first append the engine refuses: a process out of range, or a
    /// delivery of a message the trace never sent or delivers twice.
    pub fn replay(n: usize, events: &[TraceEvent]) -> Result<OnlineRdtReport, AppendError> {
        let mut engine = IncrementalAnalysis::new(n);
        // The engine names a message by its send-order handle.
        let mut handles: Vec<u32> = Vec::new();
        let mut report = OnlineRdtReport {
            events_appended: 0,
            untrackable_pairs: 0,
            first_violation_event: None,
            append_time: Duration::ZERO,
            query_time: Duration::ZERO,
        };
        for event in events {
            let watch = Stopwatch::start();
            match *event {
                TraceEvent::Checkpoint { id, .. } => {
                    engine.try_append_checkpoint(id.process)?;
                }
                TraceEvent::Send {
                    from, to, message, ..
                } => {
                    if handles.len() <= message.0 {
                        handles.resize(message.0 + 1, u32::MAX);
                    }
                    handles[message.0] = engine.try_append_send(from, to)?;
                }
                TraceEvent::Deliver { message, .. } => {
                    let mid = handles.get(message.0).copied().unwrap_or(u32::MAX);
                    engine.try_append_deliver(mid)?;
                }
                TraceEvent::Crash { .. } => continue,
            }
            report.append_time += watch.elapsed();
            report.events_appended += 1;
            let watch = Stopwatch::start();
            report.untrackable_pairs = engine.untrackable_pairs();
            report.query_time += watch.elapsed();
            if report.untrackable_pairs > 0 && report.first_violation_event.is_none() {
                report.first_violation_event = Some(report.events_appended);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scripted, BasicCheckpointModel, Runner, SimConfig, StopCondition};
    use rdt_core::{Fdas, Uncoordinated};

    #[test]
    fn sample_stats_basics() {
        let s = SampleStats::of(&[2, 4, 6]);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 6);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(SampleStats::of(&[]), SampleStats::default());
        assert_eq!(SampleStats::of(&[7]).std_dev, 0.0);
    }

    #[test]
    fn latency_matches_constant_delay() {
        let config = SimConfig::new(2)
            .with_seed(1)
            .with_basic_checkpoints(BasicCheckpointModel::Disabled)
            .with_delay(crate::DelayModel::Constant { ticks: 25 })
            .with_stop(StopCondition::MessagesSent(10));
        let outcome = Runner::new(&config, Uncoordinated::new)
            .run(&mut scripted((0..10).map(|_| (0, 1)).collect()));
        let metrics = TraceMetrics::of(&outcome.trace);
        assert_eq!(metrics.message_latency.count, 10);
        assert_eq!(metrics.message_latency.min, 25);
        assert_eq!(metrics.message_latency.max, 25);
    }

    #[test]
    fn per_process_counts_match_stats() {
        let config = SimConfig::new(2)
            .with_seed(3)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 20 })
            .with_stop(StopCondition::MessagesSent(20));
        let outcome = Runner::new(&config, Fdas::new).run(&mut scripted(
            (0..20).map(|k| (k % 2, (k + 1) % 2)).collect(),
        ));
        let metrics = TraceMetrics::of(&outcome.trace);
        for (i, stats) in outcome.stats.per_process.iter().enumerate() {
            let (s, d, b, f) = metrics.per_process[i];
            assert_eq!(s, stats.messages_sent);
            assert_eq!(d, stats.messages_delivered);
            assert_eq!(b, stats.basic_checkpoints);
            assert_eq!(f, stats.forced_checkpoints);
        }
    }

    #[test]
    fn render_is_readable() {
        let trace = Trace::new(2);
        let metrics = TraceMetrics::of(&trace);
        let text = metrics.render();
        assert!(text.contains("message latency"));
        assert!(text.contains("P0:"));
    }
}
