//! The discrete-event loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Duration;

use rdt_causality::ProcessId;
use rdt_core::{CheckpointRecord, CicProtocol, ProtocolStats};
use rdt_rgraph::{AppendError, IncrementalAnalysis};

use crate::{
    AppContext, Application, SimConfig, SimDuration, SimMessageId, SimRng, SimTime, StopCondition,
    Stopwatch, Trace, TraceEvent, DEFAULT_CRASH_SEED_SALT,
};

/// Aggregate statistics of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Sum over all processes.
    pub total: ProtocolStats,
    /// Per-process breakdown.
    pub per_process: Vec<ProtocolStats>,
    /// Simulated time of the last event.
    pub end_time: SimTime,
}

impl RunStats {
    /// The evaluation's headline metric `R`: forced checkpoints per basic
    /// checkpoint, over the whole run.
    pub fn forced_ratio(&self) -> f64 {
        self.total.forced_ratio()
    }
}

/// Reusable per-run simulator allocations: the trace's event buffer, the
/// per-process checkpoint records, and a sizing hint for the event queue.
///
/// Sweep harnesses run thousands of short simulations back to back; giving
/// each [`Runner`] a scratch to draw from (and reclaiming the buffers with
/// [`SimScratch::reclaim`] afterwards) removes the dominant allocations
/// from that loop. A scratch is plain data owned by one worker — using one
/// never changes simulation results, only where the buffers come from.
#[derive(Debug, Default)]
pub struct SimScratch {
    events: Vec<TraceEvent>,
    records: Vec<Vec<CheckpointRecord>>,
    queue_hint: usize,
}

impl SimScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Takes a run's buffers back so the next [`Runner`] built from this
    /// scratch reuses them.
    pub fn reclaim(&mut self, outcome: RunOutcome) {
        // The queue never holds more entries than events still to come, so
        // the trace length is a workable capacity hint for the next run.
        self.queue_hint = self.queue_hint.max(outcome.trace.events().len() / 2);
        self.events = outcome.trace.into_events();
        self.records = outcome.records;
        self.events.clear();
        for records in &mut self.records {
            records.clear();
        }
    }
}

/// Why a [`Runner::try_run`] stopped instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The crash-recovery shadow engine rejected an append. The runner
    /// generates events in a valid order, so this indicates a scheduling
    /// bug rather than bad input — but it surfaces as a typed error, not
    /// a panic.
    ShadowEngineRejected(AppendError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ShadowEngineRejected(e) => {
                write!(f, "shadow engine rejected a simulator event: {e}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The full event trace (convertible to a
    /// [`Pattern`](rdt_rgraph::Pattern)).
    pub trace: Trace,
    /// Aggregate statistics.
    pub stats: RunStats,
    /// Per-process checkpoint records as reported by the protocol, in
    /// order taken (the implicit initial checkpoints are not included).
    pub records: Vec<Vec<CheckpointRecord>>,
    /// What fault injection did to the run; `None` unless the
    /// configuration enables crashes ([`SimConfig::crashes_enabled`]).
    pub recovery: Option<RecoveryReport>,
}

/// One injected crash and the rollback that recovered from it.
///
/// Everything here is a pure function of the run configuration, so the
/// records of two runs with the same seed compare equal (the only wall
/// clock reading, the line-computation time, lives on the enclosing
/// [`RecoveryReport`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Simulated time the crash fired.
    pub at: SimTime,
    /// The process that crashed.
    pub process: ProcessId,
    /// The recovery line: per process, the checkpoint index execution
    /// rolled back to. A survivor the domino effect did not reach keeps
    /// its volatile frontier; its entry is then the *virtual* index one
    /// past its last durable checkpoint.
    pub line: Vec<u32>,
    /// Per process, durable checkpoints discarded by the rollback (0 for
    /// processes the domino effect did not reach).
    pub rollback_depth: Vec<u32>,
    /// Number of processes that had to roll back (the victim plus every
    /// process the domino effect dragged along).
    pub domino_span: usize,
    /// Processes rolled all the way back to their initial checkpoint
    /// despite having taken later durable checkpoints — the unbounded
    /// domino-effect signature.
    pub rolled_to_initial: usize,
    /// In-flight messages discarded because their send was rolled back.
    /// The sender's re-execution re-emits each one as a fresh send (with
    /// its post-rollback protocol state), so recovery never silences a
    /// workload that was still talking.
    pub orphans_discarded: u64,
    /// Delivered messages whose delivery was undone by the rollback.
    pub deliveries_undone: u64,
    /// Undone deliveries whose send survived the rollback: lost messages,
    /// replayed from the sender-side log as fresh sends.
    pub lost_replayed: u64,
    /// Simulated time between the earliest checkpoint restored by this
    /// rollback and the crash instant — how far back the system jumped.
    pub rollback_span: SimDuration,
}

impl CrashRecord {
    /// Deepest per-process rollback of this crash, in checkpoints.
    pub fn max_depth(&self) -> u32 {
        self.rollback_depth.iter().copied().max().unwrap_or(0)
    }
}

/// Everything fault injection did to one run.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// One record per injected crash, in firing order.
    pub crashes: Vec<CrashRecord>,
    /// Wall time spent computing recovery lines, over all crashes. Kept
    /// out of [`CrashRecord`] so records stay comparable across runs.
    pub line_compute_time: Duration,
    /// State-discarding compactions of the shadow engine: after every
    /// crash it is compacted to the recovery line.
    pub compactions: u64,
    /// Closure rows reclaimed by those compactions.
    pub reclaimed_rows: u64,
    /// Closure nodes resident in the shadow engine after the last
    /// compaction (`None` until one has run).
    pub resident_nodes_after_compaction: Option<usize>,
}

impl RecoveryReport {
    /// Deepest rollback over all crashes, in checkpoints.
    pub fn max_rollback_depth(&self) -> u32 {
        self.crashes
            .iter()
            .map(CrashRecord::max_depth)
            .max()
            .unwrap_or(0)
    }

    /// Widest domino span over all crashes.
    pub fn max_domino_span(&self) -> usize {
        self.crashes
            .iter()
            .map(|c| c.domino_span)
            .max()
            .unwrap_or(0)
    }

    /// Rolls back to the initial checkpoint, summed over crashes.
    pub fn total_rolled_to_initial(&self) -> usize {
        self.crashes.iter().map(|c| c.rolled_to_initial).sum()
    }

    /// Orphaned in-flight messages discarded, summed over crashes.
    pub fn total_orphans_discarded(&self) -> u64 {
        self.crashes.iter().map(|c| c.orphans_discarded).sum()
    }

    /// Deliveries undone, summed over crashes.
    pub fn total_deliveries_undone(&self) -> u64 {
        self.crashes.iter().map(|c| c.deliveries_undone).sum()
    }

    /// Lost messages replayed from the log, summed over crashes.
    pub fn total_lost_replayed(&self) -> u64 {
        self.crashes.iter().map(|c| c.lost_replayed).sum()
    }

    /// Mean rollback span in ticks (0.0 without crashes).
    pub fn mean_rollback_span_ticks(&self) -> f64 {
        if self.crashes.is_empty() {
            return 0.0;
        }
        let total: u64 = self.crashes.iter().map(|c| c.rollback_span.ticks()).sum();
        total as f64 / self.crashes.len() as f64
    }
}

/// Everything fault injection keeps for one run, present iff
/// [`SimConfig::crashes_enabled`].
struct CrashState {
    /// The shadow engine: the R-graph core with every trace event (crash
    /// markers aside) appended the moment it is recorded, so a crash reads
    /// its recovery line and the placement of every message off it. It is
    /// compacted to every recovery line.
    engine: IncrementalAnalysis,
    /// First append the engine rejected, latched. The runner emits events
    /// in a valid order, so this stays `None` unless the scheduler is
    /// broken; it is surfaced as [`SimError::ShadowEngineRejected`] when
    /// the run finishes rather than panicking mid-run.
    engine_error: Option<AppendError>,
    /// Report under construction.
    report: RecoveryReport,
    /// Simulated time each durable checkpoint was taken (`[process][k]`,
    /// entry 0 the initial checkpoint at time zero).
    checkpoint_times: Vec<Vec<SimTime>>,
    /// Application tag of every message sent, indexed by [`SimMessageId`]:
    /// the sender-side log lost messages are replayed from.
    message_tags: Vec<u32>,
    /// Messages already replayed once as lost — a log entry is replayed at
    /// most once, ever, even if later crashes undo its delivery again (the
    /// replay itself got a fresh log entry of its own).
    lost_replayed_flags: Vec<bool>,
    /// Messages discarded as orphans: their arrival left the queue, so the
    /// engine never sees them delivered.
    orphaned: Vec<bool>,
    /// Every message below this handle is an orphan or was delivered in an
    /// interval at or below the engine's compaction watermark. The
    /// watermark is a consistent global checkpoint of taken checkpoints, so
    /// every later recovery line dominates it and no crash can undo those
    /// deliveries: a crash's walk over the deliveries starts here.
    settled: u32,
}

impl CrashState {
    fn new(n: usize) -> Self {
        CrashState {
            engine: IncrementalAnalysis::new(n),
            engine_error: None,
            report: RecoveryReport::default(),
            checkpoint_times: vec![vec![SimTime::ZERO]; n],
            message_tags: Vec::new(),
            lost_replayed_flags: Vec::new(),
            orphaned: Vec::new(),
            settled: 0,
        }
    }

    /// Advances `settled` past the orphans and the deliveries at or below
    /// the compaction watermark; called after each compaction that moved it.
    fn settle(&mut self) {
        let watermark = self.engine.compaction_watermark();
        while (self.settled as usize) < self.engine.num_messages() {
            let route = self.engine.message_route(self.settled);
            let passed = match route.deliver_interval {
                Some(iv) => iv <= watermark[route.to.index()],
                None => self.orphaned.get(self.settled as usize) == Some(&true),
            };
            if !passed {
                break;
            }
            self.settled += 1;
        }
    }

    fn latch<T>(&mut self, result: Result<T, AppendError>) {
        if let Err(e) = result {
            self.engine_error.get_or_insert(e);
        }
    }
}

enum QueuedEvent<PB> {
    Arrival {
        to: ProcessId,
        from: ProcessId,
        message: SimMessageId,
        tag: u32,
        piggyback: PB,
    },
    Activation {
        process: ProcessId,
    },
    BasicCheckpoint {
        process: ProcessId,
    },
    Crash {
        process: ProcessId,
    },
}

struct Entry<PB> {
    at: SimTime,
    seq: u64,
    event: QueuedEvent<PB>,
}

/// Buffered application actions drained from an [`AppContext`].
struct AppActions {
    sends: Vec<(ProcessId, u32)>,
    next_activation: Option<crate::SimDuration>,
    checkpoint: bool,
}

impl AppActions {
    fn take(ctx: &mut AppContext<'_>) -> Self {
        AppActions {
            sends: std::mem::take(&mut ctx.sends),
            next_activation: ctx.next_activation,
            checkpoint: ctx.checkpoint_requested,
        }
    }
}

impl<PB> PartialEq for Entry<PB> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<PB> Eq for Entry<PB> {}
impl<PB> PartialOrd for Entry<PB> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<PB> Ord for Entry<PB> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first; ties
        // broken by insertion sequence for determinism.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Runs one protocol type under one application and configuration.
///
/// The runner owns one protocol state machine per process, an event queue,
/// and the run's RNG; [`Runner::run`] drives everything to completion and
/// returns the [`RunOutcome`].
///
/// # Example
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_core::Fdas;
/// use rdt_sim::{scripted, Runner, SimConfig};
///
/// let config = SimConfig::new(2).with_seed(3);
/// let outcome = Runner::new(&config, Fdas::new).run(&mut scripted(vec![(0, 1)]));
/// assert_eq!(outcome.stats.total.messages_delivered, 1);
/// ```
pub struct Runner<P: CicProtocol> {
    config: SimConfig,
    protocols: Vec<P>,
    trace: Trace,
    records: Vec<Vec<CheckpointRecord>>,
    queue: BinaryHeap<Entry<P::Piggyback>>,
    rng: SimRng,
    next_seq: u64,
    messages_sent: u64,
    now: SimTime,
    /// Arrivals + activations currently queued. When it reaches zero the
    /// workload is quiescent: remaining basic-checkpoint timers are
    /// discarded instead of ticking forever toward an unreachable
    /// message-count stop condition.
    live_events: usize,
    /// For FIFO channels: last scheduled arrival per ordered channel
    /// (`from * n + to`); empty when the config is non-FIFO.
    channel_clock: Vec<SimTime>,
    /// Dedicated RNG stream for the crash schedule, derived from the run
    /// seed and [`DEFAULT_CRASH_SEED_SALT`]; keeping it separate leaves
    /// the main stream — and thus the underlying schedule — untouched.
    crash_rng: SimRng,
    /// Crashes fired so far (bounded by [`SimConfig::max_crashes`]).
    crashes_done: u32,
    /// Fault injection's state, present iff crashes are enabled.
    crash: Option<CrashState>,
    /// Recycled buffer for application send actions: every callback's
    /// [`AppContext`] borrows this one allocation instead of growing a
    /// fresh `Vec`, keeping the per-event hot path allocation-free.
    app_sends: Vec<(ProcessId, u32)>,
}

impl<P: CicProtocol> Runner<P> {
    /// Builds a runner; `factory(n, process)` creates each process's
    /// protocol state.
    pub fn new<F>(config: &SimConfig, factory: F) -> Self
    where
        F: Fn(usize, ProcessId) -> P,
    {
        Self::build(
            config,
            factory,
            Trace::new(config.n),
            vec![Vec::new(); config.n],
            0,
        )
    }

    /// Like [`Runner::new`], but drawing the trace and record buffers from
    /// `scratch` instead of allocating fresh ones. Reclaim them afterwards
    /// with [`SimScratch::reclaim`]. The simulation itself is unaffected.
    pub fn new_with_scratch<F>(config: &SimConfig, factory: F, scratch: &mut SimScratch) -> Self
    where
        F: Fn(usize, ProcessId) -> P,
    {
        let trace = Trace::with_buffer(config.n, std::mem::take(&mut scratch.events));
        let mut records = std::mem::take(&mut scratch.records);
        for line in &mut records {
            line.clear();
        }
        records.resize_with(config.n, Vec::new);
        Self::build(config, factory, trace, records, scratch.queue_hint)
    }

    fn build<F>(
        config: &SimConfig,
        factory: F,
        trace: Trace,
        records: Vec<Vec<CheckpointRecord>>,
        queue_hint: usize,
    ) -> Self
    where
        F: Fn(usize, ProcessId) -> P,
    {
        let n = config.n;
        let protocols = ProcessId::all(n).map(|p| factory(n, p)).collect();
        Runner {
            config: config.clone(),
            protocols,
            trace,
            records,
            queue: BinaryHeap::with_capacity(queue_hint),
            rng: SimRng::seed(config.seed),
            next_seq: 0,
            messages_sent: 0,
            now: SimTime::ZERO,
            live_events: 0,
            channel_clock: if config.fifo {
                vec![SimTime::ZERO; n * n]
            } else {
                Vec::new()
            },
            crash_rng: SimRng::seed(SimRng::derive_seed(config.seed, DEFAULT_CRASH_SEED_SALT)),
            crashes_done: 0,
            crash: config.crashes_enabled().then(|| CrashState::new(n)),
            app_sends: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, event: QueuedEvent<P::Piggyback>) {
        // Timers — basic checkpoints and the crash clock — are not live
        // work: a quiescent workload must not be kept alive by them.
        if !matches!(
            event,
            QueuedEvent::BasicCheckpoint { .. } | QueuedEvent::Crash { .. }
        ) {
            self.live_events += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    fn injection_open(&self) -> bool {
        match self.config.stop {
            StopCondition::Time(limit) => self.now <= limit,
            StopCondition::MessagesSent(limit) => self.messages_sent < limit,
        }
    }

    fn record_checkpoint(&mut self, process: ProcessId, record: CheckpointRecord) {
        self.trace.push(TraceEvent::Checkpoint {
            at: self.now,
            id: record.id,
            kind: record.kind,
        });
        self.records[process.index()].push(record);
        if let Some(crash) = &mut self.crash {
            crash.checkpoint_times[process.index()].push(self.now);
            let appended = crash.engine.try_append_checkpoint(process);
            crash.latch(appended);
        }
    }

    fn do_send(&mut self, from: ProcessId, to: ProcessId, tag: u32) {
        let message = SimMessageId(self.messages_sent as usize);
        self.messages_sent += 1;
        let outcome = self.protocols[from.index()].before_send(to);
        self.trace.push(TraceEvent::Send {
            at: self.now,
            from,
            to,
            message,
        });
        if let Some(crash) = &mut self.crash {
            // Sends are appended in `SimMessageId` order, so the
            // simulator's id *is* the engine's message handle.
            crash.message_tags.push(tag);
            let appended = crash.engine.try_append_send(from, to);
            crash.latch(appended);
        }
        if let Some(record) = outcome.forced_after {
            self.record_checkpoint(from, record);
        }
        let delay = self.config.delay.sample(&mut self.rng);
        let mut arrival = self.now + delay;
        if self.config.fifo {
            let channel = from.index() * self.config.n + to.index();
            let floor = self.channel_clock[channel] + crate::SimDuration::from_ticks(1);
            arrival = arrival.max(floor);
            self.channel_clock[channel] = arrival;
        }
        self.push(
            arrival,
            QueuedEvent::Arrival {
                to,
                from,
                message,
                tag,
                piggyback: outcome.piggyback,
            },
        );
    }

    fn apply_app_actions(&mut self, process: ProcessId, actions: AppActions) {
        // A requested checkpoint precedes the callback's sends: coordinated
        // protocols record state and *then* emit their markers.
        if actions.checkpoint {
            let record = self.protocols[process.index()].take_basic_checkpoint();
            self.record_checkpoint(process, record);
        }
        let mut sends = actions.sends;
        for &(dest, tag) in sends.iter() {
            if !self.injection_open() {
                break;
            }
            self.do_send(process, dest, tag);
        }
        // Flow the buffer back for the next callback's context.
        sends.clear();
        self.app_sends = sends;
        if let Some(delay) = actions.next_activation {
            if self.injection_open() {
                self.push(self.now + delay, QueuedEvent::Activation { process });
            }
        }
    }

    fn schedule_basic_checkpoint(&mut self, process: ProcessId) {
        if let Some(interval) = self.config.basic_checkpoints.sample(&mut self.rng) {
            self.push(
                self.now + interval,
                QueuedEvent::BasicCheckpoint { process },
            );
        }
    }

    /// Schedules the next crash from the dedicated crash stream, if fault
    /// injection is enabled and the crash budget is not exhausted. The
    /// victim is drawn at scheduling time too, so the stream's consumption
    /// never depends on what the simulation does in between.
    fn schedule_next_crash(&mut self) {
        if self.crash.is_none() || self.crashes_done >= self.config.max_crashes {
            return;
        }
        let delay = self
            .crash_rng
            .exponential(self.config.crash_mean_interval());
        let victim = ProcessId::new(self.crash_rng.index(self.config.n));
        self.push(self.now + delay, QueuedEvent::Crash { process: victim });
    }

    /// Crashes `victim` and recovers the system: compute the recovery line
    /// on the shadow engine, roll every affected process back to it,
    /// discard orphaned in-flight messages, replay logged lost messages,
    /// and resume.
    ///
    /// The execution model is crash-with-instant-recovery under
    /// *replay-forward equivalence*: a rolled-back process is assumed to
    /// re-execute deterministically into an equivalent state, so protocol
    /// and application state carry over and the trace keeps the union
    /// history — every event that ever happened stays recorded, crashes
    /// are markers, and [`Trace::to_pattern`] sees the full communication
    /// pattern.
    fn handle_crash(&mut self, victim: ProcessId) {
        let n = self.config.n;
        self.crashes_done += 1;
        self.trace.push(TraceEvent::Crash {
            at: self.now,
            process: victim,
        });
        // Crashes are scheduled only while the crash state exists.
        let Some(crash) = &mut self.crash else {
            return;
        };
        let engine = &crash.engine;

        // The recovery line. Survivors keep their volatile state, so they
        // are capped at their frontier, the virtual checkpoint closing
        // their current interval; the victim lost its open interval and
        // restarts from its last durable checkpoint.
        let watch = Stopwatch::start();
        let real_last: Vec<u32> = (0..n)
            .map(|i| engine.last_checkpoint_index(ProcessId::new(i)))
            .collect();
        let mut caps = vec![u32::MAX; n];
        caps[victim.index()] = real_last[victim.index()];
        let mut line = vec![0u32; n];
        engine.max_consistent_dominated_open_into(&mut caps, &mut line);
        crash.report.line_compute_time += watch.elapsed();

        // Physical effect 1: in-flight messages whose send was rolled back
        // are orphans — drop them from the event queue. The rolled-back
        // sender's re-execution re-emits them, modeled below as fresh
        // sends. The rebuilt heap pops in the same order as the old one
        // would have (the `(at, seq)` key is total), so discarding is
        // deterministic.
        let mut orphans_discarded = 0u64;
        let mut reemits: Vec<(ProcessId, ProcessId, u32)> = Vec::new();
        let entries = std::mem::take(&mut self.queue).into_vec();
        let mut kept = Vec::with_capacity(entries.len());
        crash.orphaned.resize(self.messages_sent as usize, false);
        for entry in entries {
            let orphaned = match &entry.event {
                QueuedEvent::Arrival {
                    from,
                    to,
                    message,
                    tag,
                    ..
                } => {
                    let orphaned =
                        engine.message_route(message.0 as u32).send_interval > line[from.index()];
                    if orphaned {
                        crash.orphaned[message.0] = true;
                        reemits.push((*from, *to, *tag));
                    }
                    orphaned
                }
                _ => false,
            };
            if orphaned {
                orphans_discarded += 1;
                self.live_events -= 1;
            } else {
                kept.push(entry);
            }
        }
        self.queue = BinaryHeap::from(kept);

        // Physical effect 2: deliveries beyond the line are undone. Those
        // whose send survived are lost messages — the sender-side log
        // replays them below as fresh sends. Messages rolled back on both
        // ends need nothing: replay-forward re-creates them internally.
        let mut deliveries_undone = 0u64;
        let mut replays: Vec<(ProcessId, ProcessId, u32)> = Vec::new();
        crash
            .lost_replayed_flags
            .resize(self.messages_sent as usize, false);
        for mid in crash.settled..engine.num_messages() as u32 {
            let route = engine.message_route(mid);
            let Some(deliver_iv) = route.deliver_interval else {
                continue;
            };
            if deliver_iv > line[route.to.index()] {
                deliveries_undone += 1;
                if route.send_interval <= line[route.from.index()]
                    && !crash.lost_replayed_flags[mid as usize]
                {
                    crash.lost_replayed_flags[mid as usize] = true;
                    replays.push((route.from, route.to, crash.message_tags[mid as usize]));
                }
            }
        }

        // Rollback accounting against the durable frontier.
        let mut rollback_depth = vec![0u32; n];
        let mut domino_span = 0usize;
        let mut rolled_to_initial = 0usize;
        let mut earliest_restored = self.now;
        for i in 0..n {
            rollback_depth[i] = real_last[i].saturating_sub(line[i]);
            if line[i] < caps[i] || i == victim.index() {
                domino_span += 1;
                let restored = line[i].min(real_last[i]) as usize;
                earliest_restored = earliest_restored.min(crash.checkpoint_times[i][restored]);
            }
            if line[i] == 0 && real_last[i] > 0 {
                rolled_to_initial += 1;
            }
        }
        crash.report.crashes.push(CrashRecord {
            at: self.now,
            process: victim,
            line: line.clone(),
            rollback_depth,
            domino_span,
            rolled_to_initial,
            orphans_discarded,
            deliveries_undone,
            lost_replayed: replays.len() as u64,
            rollback_span: self.now.since(earliest_restored),
        });

        // Re-emit discarded in-flight orphans (the rolled-back sender's
        // re-execution sends them again), then replay the lost messages
        // from the log. Both are fresh sends: same destination and tag,
        // piggyback drawn from the sender's current protocol state.
        for (from, to, tag) in reemits.into_iter().chain(replays) {
            self.do_send(from, to, tag);
        }

        // Bound the shadow engine: collapse everything the recovery line
        // dominates, so it keeps only what a later failure can still roll
        // back to. Every query recovery relies on stays exact.
        if let Some(crash) = &mut self.crash {
            let stats = crash.engine.compact_to(&line);
            if stats.discarded_state() {
                let report = &mut crash.report;
                report.compactions += 1;
                report.reclaimed_rows += stats.dropped_nodes() as u64;
                report.resident_nodes_after_compaction = Some(stats.resident_nodes);
                crash.settle();
            }
        }
    }

    /// Runs the simulation to completion and returns its outcome.
    ///
    /// # Panics
    ///
    /// Panics if the crash-recovery shadow engine rejects an event (a
    /// scheduling bug, see [`SimError`]); [`try_run`](Runner::try_run)
    /// returns it instead.
    pub fn run(self, app: &mut dyn Application) -> RunOutcome {
        match self.try_run(app) {
            Ok(outcome) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`run`](Runner::run): an internal inconsistency surfaces
    /// as a typed [`SimError`] instead of a panic.
    pub fn try_run(mut self, app: &mut dyn Application) -> Result<RunOutcome, SimError> {
        // Start-up: application hooks and basic checkpoint timers.
        for process in ProcessId::all(self.config.n) {
            let buffer = std::mem::take(&mut self.app_sends);
            let mut ctx =
                AppContext::with_buffer(process, self.config.n, self.now, &mut self.rng, buffer);
            app.on_start(&mut ctx);
            let actions = AppActions::take(&mut ctx);
            self.apply_app_actions(process, actions);
            self.schedule_basic_checkpoint(process);
        }
        self.schedule_next_crash();

        while let Some(entry) = self.queue.pop() {
            if !matches!(
                entry.event,
                QueuedEvent::BasicCheckpoint { .. } | QueuedEvent::Crash { .. }
            ) {
                self.live_events -= 1;
            } else if self.live_events == 0
                && matches!(self.config.stop, StopCondition::MessagesSent(_))
            {
                // Quiescent workload under a message-count stop: nothing
                // can advance the stop condition anymore; drop the
                // remaining checkpoint timers instead of ticking forever.
                continue;
            }
            self.now = entry.at;
            match entry.event {
                QueuedEvent::Arrival {
                    to,
                    from,
                    message,
                    tag,
                    piggyback,
                } => {
                    if app.before_deliver(to, from, tag) {
                        let record = self.protocols[to.index()].take_basic_checkpoint();
                        self.record_checkpoint(to, record);
                    }
                    let outcome = self.protocols[to.index()].on_message_arrival(from, &piggyback);
                    if let Some(record) = outcome.forced {
                        self.record_checkpoint(to, record);
                    }
                    self.trace.push(TraceEvent::Deliver {
                        at: self.now,
                        to,
                        from,
                        message,
                    });
                    if let Some(crash) = &mut self.crash {
                        let appended = crash.engine.try_append_deliver(message.0 as u32);
                        crash.latch(appended);
                    }
                    let buffer = std::mem::take(&mut self.app_sends);
                    let mut ctx =
                        AppContext::with_buffer(to, self.config.n, self.now, &mut self.rng, buffer);
                    app.on_deliver_tagged(&mut ctx, from, tag);
                    let actions = AppActions::take(&mut ctx);
                    self.apply_app_actions(to, actions);
                }
                QueuedEvent::Activation { process } => {
                    if !self.injection_open() {
                        continue;
                    }
                    let buffer = std::mem::take(&mut self.app_sends);
                    let mut ctx = AppContext::with_buffer(
                        process,
                        self.config.n,
                        self.now,
                        &mut self.rng,
                        buffer,
                    );
                    app.on_activate(&mut ctx);
                    let actions = AppActions::take(&mut ctx);
                    self.apply_app_actions(process, actions);
                }
                QueuedEvent::BasicCheckpoint { process } => {
                    if !self.injection_open() {
                        continue;
                    }
                    let record = self.protocols[process.index()].take_basic_checkpoint();
                    self.record_checkpoint(process, record);
                    self.schedule_basic_checkpoint(process);
                }
                QueuedEvent::Crash { process } => {
                    if !self.injection_open() {
                        continue;
                    }
                    self.handle_crash(process);
                    self.schedule_next_crash();
                }
            }
        }

        let per_process: Vec<ProtocolStats> = self.protocols.iter().map(|p| *p.stats()).collect();
        let mut total = ProtocolStats::default();
        for stats in &per_process {
            total.merge(stats);
        }
        if let Some(e) = self.crash.as_ref().and_then(|crash| crash.engine_error) {
            return Err(SimError::ShadowEngineRejected(e));
        }
        Ok(RunOutcome {
            trace: self.trace,
            stats: RunStats {
                total,
                per_process,
                end_time: self.now,
            },
            records: self.records,
            recovery: self.crash.map(|crash| crash.report),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scripted, BasicCheckpointModel, DelayModel};
    use rdt_core::{Bhmr, CheckpointKind, Uncoordinated};

    fn quiet_config(n: usize) -> SimConfig {
        SimConfig::new(n)
            .with_seed(11)
            .with_basic_checkpoints(BasicCheckpointModel::Disabled)
            .with_delay(DelayModel::Constant { ticks: 10 })
    }

    #[test]
    fn scripted_messages_are_delivered() {
        let outcome = Runner::new(&quiet_config(3), Uncoordinated::new).run(&mut scripted(vec![
            (0, 1),
            (1, 2),
            (2, 0),
        ]));
        assert_eq!(outcome.stats.total.messages_sent, 3);
        assert_eq!(outcome.stats.total.messages_delivered, 3);
        assert_eq!(outcome.trace.checkpoint_count(), 0);
    }

    #[test]
    fn basic_checkpoints_fire_until_stop() {
        let config = SimConfig::new(2)
            .with_seed(5)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 10 })
            .with_stop(StopCondition::Time(SimTime::from_ticks(1000)));
        let outcome = Runner::new(&config, Uncoordinated::new).run(&mut scripted(vec![]));
        assert!(
            outcome.stats.total.basic_checkpoints > 50,
            "expected many basic checkpoints"
        );
        assert_eq!(outcome.stats.total.forced_checkpoints, 0);
        // Records agree with stats.
        let recorded: usize = outcome.records.iter().map(Vec::len).sum();
        assert_eq!(recorded as u64, outcome.stats.total.basic_checkpoints);
    }

    #[test]
    fn runs_are_deterministic() {
        let config = SimConfig::new(4)
            .with_seed(77)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 50 })
            .with_stop(StopCondition::Time(SimTime::from_ticks(500)));
        let a = Runner::new(&config, Bhmr::new).run(&mut scripted(vec![(0, 1), (2, 3), (1, 2)]));
        let b = Runner::new(&config, Bhmr::new).run(&mut scripted(vec![(0, 1), (2, 3), (1, 2)]));
        assert_eq!(a.trace.events(), b.trace.events());
        assert_eq!(a.stats.total, b.stats.total);
    }

    #[test]
    fn message_limit_stops_injection() {
        let config = quiet_config(2).with_stop(StopCondition::MessagesSent(5));
        // Script wants 100 messages; only 5 may be sent.
        let script: Vec<(usize, usize)> = (0..100).map(|_| (0, 1)).collect();
        let outcome = Runner::new(&config, Uncoordinated::new).run(&mut scripted(script));
        assert_eq!(outcome.stats.total.messages_sent, 5);
        assert_eq!(outcome.stats.total.messages_delivered, 5);
    }

    #[test]
    fn trace_converts_to_realizable_pattern() {
        let config = SimConfig::new(3)
            .with_seed(9)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 30 })
            .with_stop(StopCondition::Time(SimTime::from_ticks(300)));
        let outcome = Runner::new(&config, Bhmr::new).run(&mut scripted(vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 2),
            (2, 1),
        ]));
        let pattern = outcome.trace.to_pattern();
        assert!(pattern.linearize().is_ok());
        assert_eq!(
            pattern.num_messages() as u64,
            outcome.stats.total.messages_sent
        );
    }

    #[test]
    fn checkpoint_after_send_lands_behind_the_send_in_the_trace() {
        // CAS checkpoints through SendOutcome::forced_after: the trace must
        // show Send then Checkpoint, at the same instant, per message.
        let config = quiet_config(2);
        let outcome =
            Runner::new(&config, rdt_core::Cas::new).run(&mut scripted(vec![(0, 1), (0, 1)]));
        let events = outcome.trace.events();
        let mut pairs = 0;
        for w in events.windows(2) {
            if let (
                crate::TraceEvent::Send { at: s, from, .. },
                crate::TraceEvent::Checkpoint { at: c, id, .. },
            ) = (&w[0], &w[1])
            {
                assert_eq!(s, c, "checkpoint immediately after the send");
                assert_eq!(*from, id.process);
                pairs += 1;
            }
        }
        assert_eq!(pairs, 2);
        assert_eq!(outcome.stats.total.forced_checkpoints, 2);
        // The pattern places each send in the interval its checkpoint
        // closes.
        let pattern = outcome.trace.to_pattern();
        let m0 = rdt_rgraph::PatternMessageId(0);
        assert_eq!(pattern.send_interval(m0).index, 1);
    }

    #[test]
    fn forced_ratio_is_zero_without_basic_checkpoints() {
        // Basic checkpoints disabled: whatever the protocol forces, the
        // ratio must degrade to 0.0 rather than divide by zero.
        let config = quiet_config(2).with_stop(StopCondition::MessagesSent(10));
        let script: Vec<(usize, usize)> = (0..10).map(|k| (k % 2, (k + 1) % 2)).collect();
        let outcome = Runner::new(&config, rdt_core::Fdas::new).run(&mut scripted(script));
        assert_eq!(outcome.stats.total.basic_checkpoints, 0);
        assert!(
            outcome.stats.total.forced_checkpoints > 0,
            "FDAS must force here"
        );
        assert_eq!(outcome.stats.forced_ratio(), 0.0);
        assert_eq!(outcome.stats.total.forced_ratio(), 0.0);
    }

    #[test]
    fn forced_ratio_on_an_empty_run_is_zero() {
        // No messages, no checkpoints: every statistic is zero and the
        // derived metrics are 0.0, not NaN.
        let config = quiet_config(3).with_stop(StopCondition::MessagesSent(0));
        let outcome = Runner::new(&config, Bhmr::new).run(&mut scripted(vec![]));
        assert_eq!(outcome.trace.events().len(), 0);
        assert_eq!(outcome.stats.total, ProtocolStats::default());
        assert_eq!(outcome.stats.forced_ratio(), 0.0);
        assert_eq!(outcome.stats.total.mean_piggyback_bytes(), 0.0);
        assert_eq!(outcome.stats.end_time, SimTime::ZERO);
        for per_process in &outcome.stats.per_process {
            assert_eq!(per_process.forced_ratio(), 0.0);
        }
    }

    #[test]
    fn forced_ratio_counts_forced_per_basic() {
        let stats = ProtocolStats {
            basic_checkpoints: 4,
            forced_checkpoints: 6,
            ..ProtocolStats::default()
        };
        assert!((stats.forced_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let config = SimConfig::new(3)
            .with_seed(41)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 25 })
            .with_stop(StopCondition::MessagesSent(30));
        let script: Vec<(usize, usize)> = (0..40).map(|k| (k % 3, (k + 1) % 3)).collect();
        let fresh = Runner::new(&config, Bhmr::new).run(&mut scripted(script.clone()));

        let mut scratch = SimScratch::new();
        for _ in 0..3 {
            let outcome = Runner::new_with_scratch(&config, Bhmr::new, &mut scratch)
                .run(&mut scripted(script.clone()));
            assert_eq!(outcome.trace.events(), fresh.trace.events());
            assert_eq!(outcome.stats, fresh.stats);
            assert_eq!(outcome.records, fresh.records);
            scratch.reclaim(outcome);
        }
        // After reclaiming, the buffers really are retained.
        assert!(scratch.events.capacity() >= fresh.trace.events().len());
        assert!(scratch.events.is_empty());
        assert!(scratch.records.iter().all(Vec::is_empty));
    }

    #[test]
    fn scratch_adapts_to_changing_process_counts() {
        let mut scratch = SimScratch::new();
        for n in [4usize, 2, 5] {
            let config = SimConfig::new(n)
                .with_seed(7)
                .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 20 })
                .with_stop(StopCondition::MessagesSent(10));
            let script: Vec<(usize, usize)> = (0..12).map(|k| (k % n, (k + 1) % n)).collect();
            let outcome = Runner::new_with_scratch(&config, Bhmr::new, &mut scratch)
                .run(&mut scripted(script.clone()));
            assert_eq!(outcome.records.len(), n);
            assert_eq!(
                outcome.stats,
                Runner::new(&config, Bhmr::new)
                    .run(&mut scripted(script))
                    .stats
            );
            scratch.reclaim(outcome);
        }
    }

    #[test]
    fn fifo_channels_deliver_in_send_order() {
        // Exponential delays reorder messages on a channel unless FIFO is
        // requested; with many back-to-back sends, find a seed where the
        // non-FIFO run reorders and verify the FIFO run never does.
        let script: Vec<(usize, usize)> = (0..40).map(|_| (0, 1)).collect();
        let per_channel_order = |fifo: bool| -> Vec<usize> {
            let config = SimConfig::new(2)
                .with_seed(13)
                .with_basic_checkpoints(BasicCheckpointModel::Disabled)
                .with_delay(DelayModel::Exponential { mean: 50 })
                .with_fifo(fifo)
                .with_stop(StopCondition::MessagesSent(40));
            let outcome =
                Runner::new(&config, Uncoordinated::new).run(&mut scripted(script.clone()));
            outcome
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    crate::TraceEvent::Deliver { message, .. } => Some(message.0),
                    _ => None,
                })
                .collect()
        };
        let fifo_order = per_channel_order(true);
        assert_eq!(
            fifo_order,
            (0..40).collect::<Vec<_>>(),
            "FIFO must preserve send order"
        );
        let free_order = per_channel_order(false);
        assert_ne!(
            free_order, fifo_order,
            "expected reordering without FIFO at this seed"
        );
    }

    fn replay(outcome: &RunOutcome) -> crate::OnlineRdtReport {
        let trace = &outcome.trace;
        crate::OnlineRdtReport::replay(trace.num_processes(), trace.events())
            .expect("a simulated trace replays")
    }

    #[test]
    fn probe_mirrors_the_trace_exactly() {
        // Replaying the trace event by event must land on the event count
        // and violation total of the pattern the trace converts to,
        // replayed in its own linearization.
        let config = SimConfig::new(3)
            .with_seed(6)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 15 })
            .with_stop(StopCondition::MessagesSent(60));
        let script: Vec<(usize, usize)> = (0..70).map(|k| (k % 3, (k + 2) % 3)).collect();
        let outcome = Runner::new(&config, Uncoordinated::new).run(&mut scripted(script));
        let report = replay(&outcome);
        assert_eq!(
            report.events_appended as usize,
            outcome.trace.events().len()
        );
        let pattern = outcome.trace.to_pattern();
        let fresh = rdt_rgraph::IncrementalAnalysis::from_pattern(&pattern).expect("realizable");
        assert_eq!(report.untrackable_pairs, fresh.untrackable_pairs());
        assert!(
            report.untrackable_pairs > 0,
            "the comparison is not vacuous"
        );
    }

    #[test]
    fn probe_flags_untrackable_runs_and_clears_rdt_protocols() {
        // Uncoordinated checkpointing under cyclic traffic produces
        // untrackable rollback dependencies; FDAS (which ensures RDT)
        // stays clean on the same schedule.
        let config = SimConfig::new(3)
            .with_seed(6)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 15 })
            .with_stop(StopCondition::MessagesSent(60));
        let script: Vec<(usize, usize)> = (0..70).map(|k| (k % 3, (k + 2) % 3)).collect();

        let dirty = Runner::new(&config, Uncoordinated::new).run(&mut scripted(script.clone()));
        let report = replay(&dirty);
        assert!(
            report.untrackable_pairs > 0,
            "expected untrackable pairs from uncoordinated checkpoints"
        );
        let first = report.first_violation_event.expect("violation observed");
        assert!(first >= 1 && first <= report.events_appended);

        let clean = Runner::new(&config, rdt_core::Fdas::new).run(&mut scripted(script));
        let report = replay(&clean);
        assert_eq!(report.untrackable_pairs, 0, "FDAS ensures RDT");
        assert_eq!(report.first_violation_event, None);
    }

    /// Two-process ping-pong checkpointing before each reply: the
    /// staggered zigzag of the paper's domino figure. Uncoordinated
    /// checkpointing makes every checkpoint useless — a crash at any point
    /// rolls both processes to their initial state.
    struct DominoApp;
    impl Application for DominoApp {
        fn on_start(&mut self, ctx: &mut AppContext<'_>) {
            if ctx.me().index() == 0 {
                ctx.send(ProcessId::new(1));
            }
        }
        fn on_activate(&mut self, _ctx: &mut AppContext<'_>) {}
        fn on_deliver(&mut self, ctx: &mut AppContext<'_>, from: ProcessId) {
            ctx.request_checkpoint();
            ctx.send(from);
        }
    }

    fn crashy_config(seed: u64) -> SimConfig {
        SimConfig::new(2)
            .with_seed(seed)
            .with_basic_checkpoints(BasicCheckpointModel::Disabled)
            .with_delay(DelayModel::Constant { ticks: 10 })
            .with_stop(StopCondition::MessagesSent(60))
            .with_crash_rate(5.0)
            .with_max_crashes(2)
    }

    #[test]
    fn crash_free_runs_report_no_recovery() {
        let outcome =
            Runner::new(&quiet_config(2), Uncoordinated::new).run(&mut scripted(vec![(0, 1)]));
        assert!(outcome.recovery.is_none());
    }

    #[test]
    fn crash_injection_is_deterministic() {
        let run = || Runner::new(&crashy_config(42), Uncoordinated::new).run(&mut DominoApp);
        let a = run();
        let b = run();
        assert_eq!(a.trace.events(), b.trace.events());
        assert_eq!(a.stats, b.stats);
        let (ra, rb) = (
            a.recovery.expect("crashes on"),
            b.recovery.expect("crashes on"),
        );
        assert_eq!(ra.crashes, rb.crashes);
        assert!(
            !ra.crashes.is_empty(),
            "expected at least one crash to fire"
        );
        // Crash markers in the trace agree with the report.
        let markers = a
            .trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Crash { .. }))
            .count();
        assert_eq!(markers, ra.crashes.len());
    }

    #[test]
    fn uncoordinated_domino_collapses_to_the_initial_state() {
        let outcome = Runner::new(&crashy_config(42), Uncoordinated::new).run(&mut DominoApp);
        let report = outcome.recovery.expect("crashes on");
        let crash = report
            .crashes
            .iter()
            .find(|c| c.rolled_to_initial > 0)
            .expect("a crash after checkpoints exist collapses the domino");
        assert_eq!(crash.line, vec![0, 0], "every checkpoint is useless");
        assert_eq!(crash.rolled_to_initial, 2);
        assert_eq!(crash.domino_span, 2);
        assert!(crash.max_depth() > 0);
        // The same schedule under an RDT-ensuring protocol stays bounded.
        let fdas = Runner::new(&crashy_config(42), rdt_core::Fdas::new).run(&mut DominoApp);
        let fdas_report = fdas.recovery.expect("crashes on");
        assert!(!fdas_report.crashes.is_empty());
        assert!(
            fdas_report.max_rollback_depth() < report.max_rollback_depth(),
            "FDAS ({}) must beat uncoordinated ({}) on the domino workload",
            fdas_report.max_rollback_depth(),
            report.max_rollback_depth()
        );
        assert_eq!(fdas_report.total_rolled_to_initial(), 0);
    }

    #[test]
    fn crashy_traces_still_convert_to_patterns() {
        // Union-history semantics: the trace of a crashy run is a valid
        // communication pattern (crash markers are skipped), and replayed
        // lost messages appear as ordinary sends.
        let outcome = Runner::new(&crashy_config(42), rdt_core::Fdas::new).run(&mut DominoApp);
        let pattern = outcome.trace.to_pattern();
        assert!(pattern.linearize().is_ok());
        assert_eq!(
            pattern.num_messages() as u64,
            outcome.stats.total.messages_sent
        );
    }

    #[test]
    fn probe_report_still_available_alongside_crashes() {
        let outcome = Runner::new(&crashy_config(42), Uncoordinated::new).run(&mut DominoApp);
        assert!(outcome.recovery.is_some());
        let report = replay(&outcome);
        assert_eq!(
            report.events_appended as usize,
            outcome.trace.events().len()
                - outcome
                    .trace
                    .events()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Crash { .. }))
                    .count(),
            "the engine sees every event except the crash markers"
        );
    }

    #[test]
    fn forced_checkpoints_recorded_in_trace() {
        // Two processes ping-pong with a basic checkpoint in between: the
        // BHMR C2 scenario guarantees at least one forced checkpoint when
        // the timing lines up; use FDAS-style certainty instead: P0 sends,
        // then receives a message carrying a new dependency.
        let config = quiet_config(2);
        let mut app = scripted(vec![(0, 1), (1, 0)]);
        let outcome = Runner::new(&config, rdt_core::Fdas::new).run(&mut app);
        // P0 sent m0 at t1; P1 sent m1 at t1; each arrives at t11 bringing
        // a fresh dependency after a send: both processes force.
        assert_eq!(outcome.stats.total.forced_checkpoints, 2);
        assert_eq!(outcome.trace.forced_checkpoint_count(), 2);
        let kinds: Vec<_> = outcome.records[0].iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec![CheckpointKind::Forced]);
    }
}
