//! The untraced run: every end-to-end metric comes from here.
//!
//! Shape, per workload: `setup` (spawn, connect, generate, preload; done
//! `setups` times, median reported) → warm-up of a fixed number of frames
//! → { `sat` phase, `rtt` phase } repeated until `measure` is spent →
//! `cycles` × persistence cycle. A phase ends at the first window (sat) or
//! frame (rtt) boundary after its nominal length — on the workloads that
//! align phases, at the first `compact` or `snapshot` frame after it — and
//! rates use the elapsed time actually spent. Phases are short and many:
//! the host this was sized on slows down by a third for a second at a
//! time, and a median over some dozens of repetitions ignores that where
//! a median over five does not.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rdt_json::Json;

use crate::calibrate::{to_reference, Calibrator, REFERENCE_KERNEL_S};
use crate::daemon::{reaped_cpu_seconds, self_cpu_seconds, snapshot_path, Conn, Daemon, TempDir};
use crate::gen::{Expect, Frame, Script, Workload, SAT_WINDOW};
use crate::stats::{median, percentile, sorted};

/// A `sat` window in which the daemon went silent for longer than this
/// between two replies stalled on something other than a request: the
/// signature of Nagle's algorithm meeting a delayed ACK (≈ 40 ms).
pub const STALL: Duration = Duration::from_millis(10);

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// What the repetitions measure together: they go on until it is spent.
    pub measure: Duration,
    /// Least repetitions, however long each takes.
    pub min_reps: usize,
    /// Nominal length of one phase.
    pub phase: Duration,
    /// Set-ups, and likewise persistence cycles: at least `.0` of them,
    /// then more until `side` is spent or there are `.1`. Where one takes
    /// 60 ms, five are too few for a median that holds.
    pub sides: (usize, usize),
    pub side: Duration,
    /// Depth-1 frames of the warm-up, shared among the connections.
    pub warm_up_frames: usize,
}

impl Plan {
    /// `seconds` is what one run measures: its sat + rtt phase pairs.
    pub fn new(w: &Workload, seconds: f64, quick: bool) -> Plan {
        if quick {
            Plan {
                measure: Duration::from_secs(1),
                min_reps: 2,
                phase: Duration::from_millis(250),
                sides: (1, 1),
                side: Duration::ZERO,
                warm_up_frames: w.trace_frames / 10,
            }
        } else {
            Plan {
                measure: Duration::from_secs_f64(seconds),
                min_reps: 5,
                phase: Duration::from_millis(250),
                sides: (5, 15),
                side: Duration::from_secs(3),
                warm_up_frames: w.trace_frames,
            }
        }
    }

    /// Whether another set-up (or persistence cycle) follows the `done`
    /// made since `start`.
    fn again(&self, done: usize, start: Instant) -> bool {
        done < self.sides.0 || (done < self.sides.1 && start.elapsed() < self.side)
    }
}

/// Every end-to-end metric: name, unit, better. `BENCHMARK.json` lists
/// the same rows with their bounds (a unit test holds the two together).
/// `failed_share` is not among them because the driver contract wants
/// metrics that are never 0: it travels as `attempted` and `failed`.
pub const END_TO_END: [(&str, &str, &str); 7] = [
    ("setup_s", "s", "lower"),
    ("events_per_s", "ops/s", "higher"),
    ("reply_p50_us", "us", "lower"),
    ("reply_p99_us", "us", "lower"),
    ("daemon_cpu_us_per_op", "us", "lower"),
    ("rss_peak_mib", "MiB", "lower"),
    ("snapshot_restore_s", "s", "lower"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A metric declared in `table`; the unit comes from its row, so a name
/// that is not declared cannot be reported.
pub fn metric(
    table: &[(&'static str, &'static str, &'static str)],
    name: &str,
    value: f64,
) -> Metric {
    let &(name, unit, _) = table
        .iter()
        .find(|(declared, ..)| *declared == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
    Metric { name, value, unit }
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result object of the driver contract.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let value = [
                                ("value", Json::F64(m.value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ];
                            (m.name.to_string(), Json::obj(value))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn print(&self) {
        for m in &self.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<34} {share:>16.4} ratio ({} failed of {} attempted)",
            "failed_share", self.failed, self.attempted
        );
    }
}

/// A live daemon with its connections and their scripts.
pub struct Session {
    pub daemon: Daemon,
    pub conns: Vec<Conn>,
    pub scripts: Vec<Script>,
}

impl Session {
    /// Spawn → connect → generate → preload. Returns the preload's
    /// `(attempted, failed)`.
    pub fn setup(
        w: &'static Workload,
        seed: u64,
        dir: &Path,
    ) -> Result<(Session, u64, u64), String> {
        let _ = fs::remove_file(snapshot_path(dir));
        let daemon = Daemon::spawn(w.transport, dir)?;
        let mut session = Session {
            conns: (0..w.conns)
                .map(|_| daemon.connect())
                .collect::<Result<_, _>>()?,
            scripts: (0..w.conns)
                .map(|conn| Script::new(w, seed, conn))
                .collect(),
            daemon,
        };
        let (mut attempted, mut failed) = (0, 0);
        for (conn, script) in session.conns.iter_mut().zip(&mut session.scripts) {
            let frames = script.preload();
            let mut bytes = Vec::new();
            for frame in &frames {
                bytes.extend_from_slice(frame.line.as_bytes());
                bytes.push(b'\n');
            }
            conn.stream_all(&bytes, frames.len(), |i, reply| {
                failed += u64::from(!frames[i].expect.matches(reply));
            })?;
            attempted += frames.len() as u64;
        }
        Ok((session, attempted, failed))
    }

    /// Runs `work` on every connection at once, one thread each.
    pub fn on_all<T: Send>(
        &mut self,
        work: impl Fn(&mut Conn, &mut Script) -> Result<T, String> + Sync,
    ) -> Result<Vec<T>, String> {
        let work = &work;
        std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&mut self.scripts)
                .map(|(conn, script)| scope.spawn(move || work(conn, script)))
                .collect();
            threads
                .into_iter()
                .map(|t| {
                    t.join()
                        .map_err(|_| "a generator thread panicked".to_string())?
                })
                .collect()
        })
    }

    /// `frames` depth-1 round trips, shared evenly among the connections.
    /// Returns `(attempted, failed)`.
    fn warm_up(&mut self, frames: usize) -> Result<(u64, u64), String> {
        let each = frames / self.conns.len();
        let failed = self.on_all(|conn, script| {
            let (mut failed, mut reply) = (0, Vec::new());
            for _ in 0..each {
                let frame = script.next_frame();
                conn.roundtrip(&frame.line, &mut reply)?;
                failed += u64::from(!frame.expect.matches(&reply));
            }
            Ok(failed)
        })?;
        Ok(((each * self.conns.len()) as u64, failed.iter().sum()))
    }

    /// `snapshot` → `shutdown` → respawn on the same snapshot → first
    /// `ping` answered, then the fixed query set must answer as before.
    /// Returns when `snapshot` was sent, the seconds from then to `ping`
    /// answered, the CPU seconds the two daemons and the generator spent
    /// in them, and the `(attempted, failed)` of the cycle.
    pub fn persistence_cycle(
        &mut self,
        w: &Workload,
        dir: &Path,
    ) -> Result<(Instant, f64, f64, u64, u64), String> {
        let queries: Vec<String> = self.scripts.iter().flat_map(Script::query_set).collect();
        let mut reply = Vec::new();
        let mut ask_all = |conn: &mut Conn| -> Result<Vec<Vec<u8>>, String> {
            let mut answers = Vec::with_capacity(queries.len());
            for query in &queries {
                conn.roundtrip(query, &mut reply)?;
                answers.push(reply.clone());
            }
            Ok(answers)
        };
        let before = ask_all(&mut self.conns[0])?;
        let mut failed = before.iter().filter(|a| !Expect::Ok.matches(a)).count() as u64;

        let mut reply = Vec::new();
        let (cpu_before, reaped_before) = (self.daemon.cpu_total(), reaped_cpu_seconds());
        let own_before = self_cpu_seconds();
        let start = Instant::now();
        for op in [r#"{"op":"snapshot"}"#, r#"{"op":"shutdown"}"#] {
            self.conns[0].roundtrip(op, &mut reply)?;
            failed += u64::from(!Expect::Ok.matches(&reply));
        }
        self.conns.clear();
        self.daemon.wait_exit()?;
        // Reaping the old daemon added its whole life, exit included.
        let old_cpu = reaped_cpu_seconds() - reaped_before - cpu_before;
        self.daemon = Daemon::spawn(w.transport, dir)?;
        for _ in 0..w.conns {
            self.conns.push(self.daemon.connect()?);
        }
        self.conns[0].roundtrip(r#"{"op":"ping"}"#, &mut reply)?;
        let seconds = start.elapsed().as_secs_f64();
        let cpu = old_cpu + self.daemon.cpu_total() + self_cpu_seconds() - own_before;
        failed += u64::from(!Expect::Ok.matches(&reply));

        let after = ask_all(&mut self.conns[0])?;
        failed += before.iter().zip(&after).filter(|(b, a)| b != a).count() as u64;
        Ok((start, seconds, cpu, 2 * queries.len() as u64 + 3, failed))
    }
}

/// What one connection did in one phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub ops: u64,
    pub failed: u64,
    pub elapsed: f64,
    /// Depth-1 round trips in µs (`rtt` only).
    pub samples_us: Vec<f64>,
    pub windows: u64,
    pub stalled_windows: u64,
}

#[derive(Default)]
pub struct Scratch {
    out: Vec<u8>,
    reply: Vec<u8>,
}

pub struct Piped {
    pub failed: u64,
    /// Longest wait for a reply: from the write to the first, or from
    /// one reply to the next.
    pub longest_gap: Duration,
}

/// Writes `frames` in one go, then reads and checks one reply each.
pub fn pipeline(conn: &mut Conn, frames: &[Frame], scratch: &mut Scratch) -> Result<Piped, String> {
    scratch.out.clear();
    for frame in frames {
        scratch.out.extend_from_slice(frame.line.as_bytes());
        scratch.out.push(b'\n');
    }
    let mut last = Instant::now();
    conn.send(&scratch.out)?;
    let mut piped = Piped {
        failed: 0,
        longest_gap: Duration::ZERO,
    };
    for frame in frames {
        conn.recv(&mut scratch.reply)?;
        let now = Instant::now();
        piped.longest_gap = piped.longest_gap.max(now - last);
        last = now;
        piped.failed += u64::from(!frame.expect.matches(&scratch.reply));
    }
    Ok(piped)
}

/// Saturation: windows of [`SAT_WINDOW`] frames, write all then read all.
pub fn sat_phase(conn: &mut Conn, script: &mut Script, length: Duration) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut scratch = Scratch::default();
    let mut frames = Vec::with_capacity(SAT_WINDOW);
    let align = script.workload().align_phases;
    let start = Instant::now();
    let mut at_cycle_end = false;
    while start.elapsed() < length || (align && !at_cycle_end) {
        frames.clear();
        frames.extend((0..SAT_WINDOW).map(|_| script.next_frame()));
        let piped = pipeline(conn, &frames, &mut scratch)?;
        phase.ops += SAT_WINDOW as u64;
        phase.failed += piped.failed;
        phase.windows += 1;
        phase.stalled_windows += u64::from(piped.longest_gap > STALL);
        at_cycle_end = frames.iter().any(|f| f.cycle_end);
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    Ok(phase)
}

/// Closed loop at depth 1, the loop `rdt-cli connect` runs.
pub fn rtt_phase(conn: &mut Conn, script: &mut Script, length: Duration) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut reply = Vec::new();
    let align = script.workload().align_phases;
    let start = Instant::now();
    let mut now = start;
    let mut at_cycle_end = false;
    while now.duration_since(start) < length || (align && !at_cycle_end) {
        let frame = script.next_frame();
        at_cycle_end = frame.cycle_end;
        let sent = Instant::now();
        conn.roundtrip(&frame.line, &mut reply)?;
        now = Instant::now();
        phase
            .samples_us
            .push(now.duration_since(sent).as_secs_f64() * 1e6);
        phase.ops += 1;
        phase.failed += u64::from(!frame.expect.matches(&reply));
    }
    phase.elapsed = start.elapsed().as_secs_f64();
    Ok(phase)
}

fn tally(outcome: &mut Outcome, phases: &[Phase]) -> u64 {
    let ops = phases.iter().map(|p| p.ops).sum();
    outcome.count(ops, phases.iter().map(|p| p.failed).sum());
    ops
}

/// A timed stretch of the run, bracketed by two runs of the calibration
/// kernel.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    from: Instant,
    to: Instant,
    /// CPU seconds of the daemon and of the generator inside it.
    cpu: f64,
}

/// The beginning of a stretch: when, and the generator's CPU time so far.
struct Begun {
    at: Instant,
    own_cpu: f64,
}

impl Begun {
    fn now() -> Begun {
        Begun {
            at: Instant::now(),
            own_cpu: self_cpu_seconds(),
        }
    }

    /// Ends the stretch now, the daemon having spent `daemon_cpu` in it,
    /// and samples the host.
    fn end(self, daemon_cpu: f64, calibrator: &mut Calibrator) -> Result<Stretch, String> {
        let to = Instant::now();
        let cpu = daemon_cpu + self_cpu_seconds() - self.own_cpu;
        calibrator.sample()?;
        Ok(Stretch {
            from: self.at,
            to,
            cpu,
        })
    }
}

impl Stretch {
    fn wall(&self) -> f64 {
        (self.to - self.from).as_secs_f64()
    }
}

/// The share of their wall time the CPU was busy with daemon or generator.
fn busy_share(stretches: &[Stretch]) -> f64 {
    stretches.iter().map(|s| s.cpu).sum::<f64>() / stretches.iter().map(Stretch::wall).sum::<f64>()
}

/// Per stretch, what a time measured in it is multiplied by to read as
/// on the reference machine, given what the kernel took around each. The
/// busy share is taken over all the stretches together: `/proc` counts
/// CPU time in 10 ms ticks, too coarse for one phase of a quarter of a
/// second.
fn reference_factors(stretches: &[Stretch], kernel_s: &[f64]) -> Vec<f64> {
    let share = busy_share(stretches);
    kernel_s.iter().map(|k| to_reference(share, *k)).collect()
}

fn scaled(values: &[f64], factors: &[f64]) -> Vec<f64> {
    values.iter().zip(factors).map(|(v, f)| v * f).collect()
}

pub fn run_untraced(w: &'static Workload, seed: u64, plan: Plan) -> Result<Outcome, String> {
    let dir = TempDir::new(w.name)?;
    let mut outcome = Outcome::default();
    let mut calibrator = Calibrator::spawn()?;

    let (mut setup_s, mut setups) = (Vec::new(), Vec::new());
    let mut session = None;
    calibrator.sample()?;
    let setting_up = Instant::now();
    while plan.again(setups.len(), setting_up) {
        drop(session.take()); // Kills the previous daemon before the next binds.
        let begun = Begun::now();
        let (fresh, attempted, failed) = Session::setup(w, seed, &dir.0)?;
        setup_s.push(begun.at.elapsed().as_secs_f64());
        setups.push(begun.end(fresh.daemon.cpu_total(), &mut calibrator)?);
        outcome.count(attempted, failed);
        session = Some(fresh);
    }
    let mut session = session.expect("a plan has at least one setup");

    // The warm-up is a fixed number of frames, not a length of time, so
    // that the peak RSS read after it, and the state the persistence
    // cycles then save and restore, belong to one exact request sequence
    // whatever the speed of the machine.
    let warm = session.warm_up(plan.warm_up_frames)?;
    outcome.count(warm.0, warm.1);
    let rss_peak_mib = session.daemon.rss_peak_mib();

    let (mut cycle_s, mut cycles) = (Vec::new(), Vec::new());
    calibrator.sample()?;
    let cycling = Instant::now();
    while plan.again(cycles.len(), cycling) {
        let (start, seconds, cpu, attempted, failed) = session.persistence_cycle(w, &dir.0)?;
        cycle_s.push(seconds);
        cycles.push(Stretch {
            from: start,
            to: start + Duration::from_secs_f64(seconds),
            cpu,
        });
        calibrator.sample()?;
        outcome.count(attempted, failed);
    }

    // As measured, per repetition; `sats` and `rtts` are the stretches.
    let (mut sat_s_per_op, mut p50, mut p99, mut cpu_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut sats, mut rtts) = (Vec::new(), Vec::new());
    let mut rtt_samples = usize::MAX;
    let measuring = Instant::now();
    while sats.len() < plan.min_reps || measuring.elapsed() < plan.measure {
        let (begun, cpu_before) = (Begun::now(), session.daemon.cpu_total());
        let sat = session.on_all(|c, s| sat_phase(c, s, plan.phase))?;
        let cpu_between = session.daemon.cpu_total();
        sats.push(begun.end(cpu_between - cpu_before, &mut calibrator)?);
        let begun = Begun::now();
        let rtt = session.on_all(|c, s| rtt_phase(c, s, plan.phase))?;
        let cpu_after = session.daemon.cpu_total();
        rtts.push(begun.end(cpu_after - cpu_between, &mut calibrator)?);
        let ops = tally(&mut outcome, &sat) + tally(&mut outcome, &rtt);

        let rate: f64 = sat.iter().map(|p| p.ops as f64 / p.elapsed).sum();
        sat_s_per_op.push(1.0 / rate);
        let samples = sorted(
            rtt.iter()
                .flat_map(|p| p.samples_us.iter().copied())
                .collect(),
        );
        rtt_samples = rtt_samples.min(samples.len());
        p50.push(percentile(&samples, 0.50));
        p99.push(percentile(&samples, 0.99));
        cpu_us.push((cpu_after - cpu_before) * 1e6 / ops as f64);
    }
    let measured_s = measuring.elapsed().as_secs_f64();

    // To reference speed. CPU time is the daemon's through and through.
    let around = |stretches: &[Stretch]| -> Vec<f64> {
        stretches
            .iter()
            .map(|s| calibrator.around(s.from, s.to))
            .collect()
    };
    let factors = |stretches: &[Stretch]| reference_factors(stretches, &around(stretches));
    let rate_of = |s_per_op: &[f64]| s_per_op.iter().map(|s| 1.0 / s).collect::<Vec<_>>();
    let cpu_factors: Vec<f64> = sats
        .iter()
        .zip(&rtts)
        .map(|(sat, rtt)| to_reference(1.0, calibrator.around(sat.from, rtt.to)))
        .collect();
    let measured = [
        ("events_per_s", median(&rate_of(&sat_s_per_op))),
        ("reply_p50_us", median(&p50)),
        ("reply_p99_us", median(&p99)),
        ("daemon_cpu_us_per_op", median(&cpu_us)),
        ("snapshot_restore_s", median(&cycle_s)),
        ("setup_s", median(&setup_s)),
    ];
    let rate = rate_of(&scaled(&sat_s_per_op, &factors(&sats)));
    let p50 = scaled(&p50, &factors(&rtts));
    let p99 = scaled(&p99, &factors(&rtts));
    let cpu_us = scaled(&cpu_us, &cpu_factors);
    let cycle_s = scaled(&cycle_s, &factors(&cycles));
    let setup_s = scaled(&setup_s, &factors(&setups));

    println!("{}: {}", w.name, w.why);
    println!(
        "{}: seed {seed}, {} reps in {:.2} s, each a sat and an rtt phase of nominally {:.2} s, at least {rtt_samples} rtt samples per rep{}",
        w.name,
        rate.len(),
        measured_s,
        plan.phase.as_secs_f64(),
        if rtt_samples < 1_000 { " (too few for a p99)" } else { "" },
    );
    let kernel_ms = sorted(calibrator.seconds().iter().map(|s| s * 1e3).collect());
    println!(
        "  host: the calibration kernel took {:.2} ms (median of {}, fastest {:.2}, slowest {:.2}); the reference machine takes {:.2} ms",
        median(&kernel_ms),
        kernel_ms.len(),
        kernel_ms[0],
        kernel_ms[kernel_ms.len() - 1],
        REFERENCE_KERNEL_S * 1e3,
    );
    println!(
        "  host: daemon and generator kept the CPU busy for {:.2} of the set-ups, {:.2} of the persistence cycles, {:.2} of the sat phases, {:.2} of the rtt phases",
        busy_share(&setups),
        busy_share(&cycles),
        busy_share(&sats),
        busy_share(&rtts),
    );
    for (name, value) in measured {
        println!("  {name} as measured, median: {value:.4}");
    }
    for (name, reps) in [
        ("events_per_s", &rate),
        ("reply_p50_us", &p50),
        ("reply_p99_us", &p99),
        ("daemon_cpu_us_per_op", &cpu_us),
        ("snapshot_restore_s", &cycle_s),
        ("setup_s", &setup_s),
    ] {
        println!("  {name} per repetition: {reps:.4?}");
    }
    outcome.metrics = vec![
        metric(&END_TO_END, "setup_s", median(&setup_s)),
        metric(&END_TO_END, "events_per_s", median(&rate)),
        metric(&END_TO_END, "reply_p50_us", median(&p50)),
        metric(&END_TO_END, "reply_p99_us", median(&p99)),
        metric(&END_TO_END, "daemon_cpu_us_per_op", median(&cpu_us)),
        metric(&END_TO_END, "rss_peak_mib", rss_peak_mib),
        metric(&END_TO_END, "snapshot_restore_s", median(&cycle_s)),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_busy_share_is_taken_over_all_stretches() {
        let from = Instant::now();
        let stretch = |cpu| Stretch {
            from,
            to: from + Duration::from_secs(1),
            cpu,
        };
        // On the CPU for half of the two seconds, however the ticks fell;
        // the first stretch on a host twice as slow as the reference.
        let stretches = [stretch(0.9), stretch(0.1)];
        assert_eq!(busy_share(&stretches), 0.5);
        assert_eq!(
            reference_factors(&stretches, &[2.0 * REFERENCE_KERNEL_S, REFERENCE_KERNEL_S]),
            vec![0.75, 1.0]
        );
        assert_eq!(scaled(&[100.0, 100.0], &[0.75, 1.0]), vec![75.0, 100.0]);
    }

    #[test]
    fn short_setups_are_repeated_until_their_time_is_spent() {
        let w = &crate::gen::WORKLOADS[0];
        let plan = Plan::new(w, 20.0, false);
        let (now, long_ago) = (Instant::now(), Instant::now() - 2 * plan.side);
        assert!(plan.again(0, long_ago) && plan.again(4, long_ago));
        assert!(!plan.again(5, long_ago));
        assert!(plan.again(5, now) && plan.again(14, now));
        assert!(!plan.again(15, now));
        let quick = Plan::new(w, 20.0, true);
        assert!(quick.again(0, now) && !quick.again(1, now));
    }
}
