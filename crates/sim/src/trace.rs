//! Recorded traces and their conversion to checkpoint & communication
//! patterns.

use std::fmt;

use rdt_causality::{CheckpointId, ProcessId};
use rdt_core::CheckpointKind;
use rdt_json::{Json, ToJson};
use rdt_rgraph::{Pattern, PatternBuilder, PatternError, PatternMessageId};

use crate::SimTime;

/// Why a trace could not be read ([`Trace::from_json`]) or converted into
/// a pattern. Runner-produced traces never hit these; externally ingested
/// traces (files, sockets) can, and must get an error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A delivery event named a message no send event introduced.
    UnsentDelivery {
        /// Index of the offending event in the trace.
        event: usize,
        /// The message the delivery named.
        message: SimMessageId,
    },
    /// A message was delivered twice.
    DoubleDelivery {
        /// Index of the offending event in the trace.
        event: usize,
        /// The message delivered again.
        message: SimMessageId,
    },
    /// A process index is not `< n`.
    ProcessOutOfRange {
        /// Index of the offending event in the trace.
        event: usize,
        /// The offending process index.
        process: usize,
    },
    /// A send named a message id larger than the trace itself — message
    /// ids are dense in send order, so this cannot be a real trace (and
    /// honouring it would allocate unboundedly).
    MessageOutOfRange {
        /// Index of the offending event in the trace.
        event: usize,
        /// The message id the send claimed.
        message: SimMessageId,
    },
    /// A send reused the id of an earlier send.
    DuplicateSend {
        /// Index of the offending event in the trace.
        event: usize,
        /// The message id sent again.
        message: SimMessageId,
    },
    /// A delivery's endpoints differ from those of its send.
    EndpointMismatch {
        /// Index of the offending event in the trace.
        event: usize,
        /// The message the delivery named.
        message: SimMessageId,
    },
    /// A checkpoint index is not its process's next one (checkpoint
    /// indices count up from 1 per process, in trace order).
    CheckpointOutOfOrder {
        /// Index of the offending event in the trace.
        event: usize,
        /// The checkpointing process.
        process: usize,
        /// The index the event claimed.
        index: u64,
        /// The process's next index.
        expected: u32,
    },
    /// The pattern builder rejected the assembled event sequence.
    Build(PatternError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnsentDelivery { event, message } => {
                write!(f, "trace event {event}: delivery of unsent {message}")
            }
            TraceError::DoubleDelivery { event, message } => {
                write!(f, "trace event {event}: {message} delivered twice")
            }
            TraceError::ProcessOutOfRange { event, process } => {
                write!(f, "trace event {event}: process {process} out of range")
            }
            TraceError::MessageOutOfRange { event, message } => {
                write!(f, "trace event {event}: send names non-dense {message}")
            }
            TraceError::DuplicateSend { event, message } => {
                write!(f, "trace event {event}: {message} sent twice")
            }
            TraceError::EndpointMismatch { event, message } => {
                write!(f, "trace event {event}: delivery of {message} does not match its send")
            }
            TraceError::CheckpointOutOfOrder {
                event,
                process,
                index,
                expected,
            } => write!(
                f,
                "trace event {event}: checkpoint {index} of process {process} is not its next ({expected})"
            ),
            TraceError::Build(e) => write!(f, "trace does not build a pattern: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Identifier of a message within one simulation run (dense, send order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimMessageId(pub usize);

impl fmt::Display for SimMessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One event of a recorded trace, with its simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was sent.
    Send {
        /// Time of the send event.
        at: SimTime,
        /// Sending process.
        from: ProcessId,
        /// Destination process.
        to: ProcessId,
        /// Run-wide message id.
        message: SimMessageId,
    },
    /// A message was delivered.
    Deliver {
        /// Time of the delivery event.
        at: SimTime,
        /// Delivering (destination) process.
        to: ProcessId,
        /// The sender.
        from: ProcessId,
        /// Run-wide message id.
        message: SimMessageId,
    },
    /// A local checkpoint was taken.
    Checkpoint {
        /// Time of the checkpoint.
        at: SimTime,
        /// The checkpoint (process + index).
        id: CheckpointId,
        /// Basic or forced (initial checkpoints are implicit and not
        /// recorded).
        kind: CheckpointKind,
    },
    /// A process crashed, lost its volatile state, and was rolled back to
    /// the recovery line (fault injection). The events of the rolled-back
    /// segments stay in the trace — it records the *union history* of the
    /// run; [`Trace::to_pattern`] ignores crash markers.
    Crash {
        /// Time of the crash.
        at: SimTime,
        /// The crashed process.
        process: ProcessId,
    },
}

impl TraceEvent {
    /// The simulated time of the event.
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::Send { at, .. }
            | TraceEvent::Deliver { at, .. }
            | TraceEvent::Checkpoint { at, .. }
            | TraceEvent::Crash { at, .. } => at,
        }
    }

    /// The process on which the event occurred.
    pub fn process(&self) -> ProcessId {
        match *self {
            TraceEvent::Send { from, .. } => from,
            TraceEvent::Deliver { to, .. } => to,
            TraceEvent::Checkpoint { id, .. } => id.process,
            TraceEvent::Crash { process, .. } => process,
        }
    }
}

/// The full record of one simulation run: every send, delivery and
/// checkpoint, in global chronological order.
///
/// The chronological order is by construction a linear extension of the
/// run's causality, so [`Trace::to_pattern`] can rebuild the checkpoint and
/// communication pattern event by event.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    n: usize,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace over `n` processes.
    pub fn new(n: usize) -> Self {
        Trace {
            n,
            events: Vec::new(),
        }
    }

    /// Creates an empty trace over `n` processes reusing `buffer`'s
    /// allocation (the buffer is cleared first).
    pub fn with_buffer(n: usize, mut buffer: Vec<TraceEvent>) -> Self {
        buffer.clear();
        Trace { n, events: buffer }
    }

    /// Consumes the trace, returning the event buffer for reuse.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Appends an event (runner-internal; events must arrive in
    /// chronological order).
    pub(crate) fn push(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.at() <= event.at()),
            "trace events must be chronological"
        );
        self.events.push(event);
    }

    /// All events, chronological.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The state of the run at time `at`: a copy of the trace with every
    /// event after `at` dropped. Messages whose delivery falls beyond the
    /// cut become in-transit.
    ///
    /// This is the *failure-time view* for recovery analysis: truncate at
    /// the crash instant, convert to a pattern, and compute the recovery
    /// line from the checkpoints that existed then.
    pub fn truncate_at(&self, at: SimTime) -> Trace {
        Trace {
            n: self.n,
            events: self
                .events
                .iter()
                .take_while(|event| event.at() <= at)
                .copied()
                .collect(),
        }
    }

    /// Time of the last event (`SimTime::ZERO` for an empty trace).
    pub fn end_time(&self) -> SimTime {
        self.events.last().map_or(SimTime::ZERO, TraceEvent::at)
    }

    /// Number of checkpoints recorded (excluding the implicit initial
    /// ones).
    pub fn checkpoint_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Checkpoint { .. }))
            .count()
    }

    /// Number of forced checkpoints recorded.
    pub fn forced_checkpoint_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Checkpoint {
                        kind: CheckpointKind::Forced,
                        ..
                    }
                )
            })
            .count()
    }

    /// Converts the trace into a checkpoint and communication pattern for
    /// the `rdt-rgraph` theory queries.
    ///
    /// The pattern is *not* closed; call
    /// [`Pattern::to_closed`] (or rely on
    /// [`PatternAnalysis`](rdt_rgraph::PatternAnalysis), which closes
    /// internally) when the analysis requires closed intervals.
    ///
    /// # Panics
    ///
    /// Panics if the trace is internally inconsistent (a delivery without
    /// its send) — cannot happen for runner-produced traces. Externally
    /// ingested traces should use
    /// [`try_to_pattern`](Trace::try_to_pattern) instead.
    pub fn to_pattern(&self) -> Pattern {
        match self.try_to_pattern() {
            Ok(pattern) => pattern,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`to_pattern`](Trace::to_pattern): inconsistent traces
    /// (delivery before its send, double delivery, out-of-range process
    /// indices, a checkpoint index that is not its process's next) are
    /// reported as [`TraceError`]s instead of panicking — the conversion
    /// for traces that did not come from the runner.
    pub fn try_to_pattern(&self) -> Result<Pattern, TraceError> {
        let mut builder = PatternBuilder::new(self.n);
        let mut message_map: Vec<Option<PatternMessageId>> = Vec::new();
        let check = |event: usize, p: ProcessId| {
            if p.index() < self.n {
                Ok(())
            } else {
                Err(TraceError::ProcessOutOfRange {
                    event,
                    process: p.index(),
                })
            }
        };
        for (i, event) in self.events.iter().enumerate() {
            match *event {
                TraceEvent::Send {
                    from, to, message, ..
                } => {
                    check(i, from)?;
                    check(i, to)?;
                    if message.0 >= self.events.len() {
                        return Err(TraceError::MessageOutOfRange { event: i, message });
                    }
                    if message_map.len() <= message.0 {
                        message_map.resize(message.0 + 1, None);
                    }
                    message_map[message.0] = Some(builder.send(from, to));
                }
                TraceEvent::Deliver { message, .. } => {
                    let id = message_map
                        .get(message.0)
                        .copied()
                        .flatten()
                        .ok_or(TraceError::UnsentDelivery { event: i, message })?;
                    builder
                        .deliver(id)
                        .map_err(|_| TraceError::DoubleDelivery { event: i, message })?;
                }
                TraceEvent::Checkpoint { id, .. } => {
                    check(i, id.process)?;
                    let built = builder.checkpoint(id.process);
                    if built != id {
                        return Err(TraceError::CheckpointOutOfOrder {
                            event: i,
                            process: id.process.index(),
                            index: id.index.into(),
                            expected: built.index,
                        });
                    }
                }
                // Crash markers carry no pattern structure: the trace is
                // the union history, and the recovery line computation
                // consumes the pattern as-is.
                TraceEvent::Crash { .. } => {}
            }
        }
        builder.build().map_err(TraceError::Build)
    }

    /// Parses a trace serialized with [`ToJson`] (the `rdt-cli`
    /// `--save-trace` format).
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: invalid
    /// JSON, missing fields, or an unknown event shape.
    pub fn from_json_str(text: &str) -> Result<Trace, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        Trace::from_json(&json)
    }

    /// Rebuilds a trace from its [`ToJson`] value, holding it to what the
    /// runner guarantees: message ids below the event count, each sent
    /// once, every delivery after its send with the send's endpoints, and
    /// each process's checkpoint indices counting up from 1.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem; a broken
    /// guarantee is the [`TraceError`] naming its event.
    pub fn from_json(json: &Json) -> Result<Trace, String> {
        let n = json
            .get("n")
            .and_then(Json::as_u64)
            .ok_or("trace: missing numeric field `n`")? as usize;
        if n == 0 {
            return Err("trace: `n` must be at least 1".to_string());
        }
        let events = json
            .get("events")
            .and_then(Json::as_array)
            .ok_or("trace: missing array field `events`")?;
        let mut trace = Trace::new(n);
        // Per message id, the endpoints of its send; per process, the
        // index of its next checkpoint.
        let mut sends: Vec<Option<(ProcessId, ProcessId)>> = vec![None; events.len()];
        let mut next_checkpoint = vec![1u32; n];
        let proc = |i: usize, v: u64| -> Result<ProcessId, String> {
            if (v as usize) < n {
                Ok(ProcessId::new(v as usize))
            } else {
                Err(format!("trace event {i}: process {v} out of range (n={n})"))
            }
        };
        for (i, event) in events.iter().enumerate() {
            let fields = event
                .as_array()
                .ok_or_else(|| format!("trace event {i}: not an array"))?;
            let bad = || format!("trace event {i}: malformed");
            let tag = fields.first().and_then(Json::as_str).ok_or_else(bad)?;
            let num = |k: usize| fields.get(k).and_then(Json::as_u64).ok_or_else(bad);
            let at = SimTime::from_ticks(num(1)?);
            let parsed = match tag {
                "send" => TraceEvent::Send {
                    at,
                    from: proc(i, num(2)?)?,
                    to: proc(i, num(3)?)?,
                    message: SimMessageId(num(4)? as usize),
                },
                "deliver" => TraceEvent::Deliver {
                    at,
                    to: proc(i, num(2)?)?,
                    from: proc(i, num(3)?)?,
                    message: SimMessageId(num(4)? as usize),
                },
                "ckpt" => {
                    let kind = match fields.get(4).and_then(Json::as_str) {
                        Some("basic") => CheckpointKind::Basic,
                        Some("forced") => CheckpointKind::Forced,
                        Some("initial") => CheckpointKind::Initial,
                        _ => return Err(bad()),
                    };
                    let process = proc(i, num(2)?)?;
                    let (index, expected) = (num(3)?, next_checkpoint[process.index()]);
                    if index != u64::from(expected) {
                        return Err(TraceError::CheckpointOutOfOrder {
                            event: i,
                            process: process.index(),
                            index,
                            expected,
                        }
                        .to_string());
                    }
                    next_checkpoint[process.index()] += 1;
                    TraceEvent::Checkpoint {
                        at,
                        id: CheckpointId::new(process, expected),
                        kind,
                    }
                }
                "crash" => TraceEvent::Crash {
                    at,
                    process: proc(i, num(2)?)?,
                },
                other => return Err(format!("trace event {i}: unknown tag `{other}`")),
            };
            if trace
                .events
                .last()
                .is_some_and(|last| last.at() > parsed.at())
            {
                return Err(format!("trace event {i}: events must be chronological"));
            }
            match parsed {
                TraceEvent::Send {
                    from, to, message, ..
                } => match sends.get_mut(message.0) {
                    None => {
                        return Err(TraceError::MessageOutOfRange { event: i, message }.to_string())
                    }
                    Some(Some(_)) => {
                        return Err(TraceError::DuplicateSend { event: i, message }.to_string())
                    }
                    Some(slot) => *slot = Some((from, to)),
                },
                TraceEvent::Deliver {
                    from, to, message, ..
                } => match sends.get(message.0) {
                    Some(&Some(sent)) if sent == (from, to) => {}
                    Some(&Some(_)) => {
                        return Err(TraceError::EndpointMismatch { event: i, message }.to_string())
                    }
                    _ => return Err(TraceError::UnsentDelivery { event: i, message }.to_string()),
                },
                _ => {}
            }
            trace.events.push(parsed);
        }
        Ok(trace)
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        match *self {
            TraceEvent::Send {
                at,
                from,
                to,
                message,
            } => Json::Arr(vec![
                "send".to_json(),
                Json::U64(at.ticks()),
                Json::U64(from.index() as u64),
                Json::U64(to.index() as u64),
                Json::U64(message.0 as u64),
            ]),
            TraceEvent::Deliver {
                at,
                to,
                from,
                message,
            } => Json::Arr(vec![
                "deliver".to_json(),
                Json::U64(at.ticks()),
                Json::U64(to.index() as u64),
                Json::U64(from.index() as u64),
                Json::U64(message.0 as u64),
            ]),
            TraceEvent::Checkpoint { at, id, kind } => Json::Arr(vec![
                "ckpt".to_json(),
                Json::U64(at.ticks()),
                Json::U64(id.process.index() as u64),
                Json::U64(u64::from(id.index)),
                match kind {
                    CheckpointKind::Basic => "basic",
                    CheckpointKind::Forced => "forced",
                    CheckpointKind::Initial => "initial",
                }
                .to_json(),
            ]),
            TraceEvent::Crash { at, process } => Json::Arr(vec![
                "crash".to_json(),
                Json::U64(at.ticks()),
                Json::U64(process.index() as u64),
            ]),
        }
    }
}

impl ToJson for Trace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::U64(self.n as u64)),
            ("events", self.events.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn to_pattern_roundtrips_structure() {
        let mut trace = Trace::new(2);
        let t = SimTime::from_ticks;
        trace.push(TraceEvent::Send {
            at: t(1),
            from: p(0),
            to: p(1),
            message: SimMessageId(0),
        });
        trace.push(TraceEvent::Checkpoint {
            at: t(2),
            id: CheckpointId::new(p(0), 1),
            kind: CheckpointKind::Basic,
        });
        trace.push(TraceEvent::Deliver {
            at: t(3),
            to: p(1),
            from: p(0),
            message: SimMessageId(0),
        });
        let pattern = trace.to_pattern();
        assert_eq!(pattern.num_processes(), 2);
        assert_eq!(pattern.num_messages(), 1);
        assert_eq!(pattern.checkpoint_count(p(0)), 2);
        assert_eq!(trace.checkpoint_count(), 1);
        assert_eq!(trace.forced_checkpoint_count(), 0);
        assert!(pattern.linearize().is_ok());
    }

    #[test]
    fn truncate_keeps_prefix_and_strands_messages() {
        let mut trace = Trace::new(2);
        let t = SimTime::from_ticks;
        trace.push(TraceEvent::Send {
            at: t(1),
            from: p(0),
            to: p(1),
            message: SimMessageId(0),
        });
        trace.push(TraceEvent::Send {
            at: t(2),
            from: p(0),
            to: p(1),
            message: SimMessageId(1),
        });
        trace.push(TraceEvent::Deliver {
            at: t(5),
            to: p(1),
            from: p(0),
            message: SimMessageId(0),
        });
        trace.push(TraceEvent::Deliver {
            at: t(9),
            to: p(1),
            from: p(0),
            message: SimMessageId(1),
        });
        let cut = trace.truncate_at(t(5));
        assert_eq!(cut.events().len(), 3);
        assert_eq!(cut.end_time(), t(5));
        let pattern = cut.to_pattern();
        assert_eq!(pattern.num_messages(), 2);
        assert_eq!(
            pattern.delivered_messages().count(),
            1,
            "m1 is now in transit"
        );
        // Truncating at the end is the identity.
        assert_eq!(trace.truncate_at(trace.end_time()).events(), trace.events());
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::Send {
            at: SimTime::from_ticks(5),
            from: p(1),
            to: p(0),
            message: SimMessageId(3),
        };
        assert_eq!(e.at().ticks(), 5);
        assert_eq!(e.process(), p(1));
        let c = TraceEvent::Checkpoint {
            at: SimTime::from_ticks(6),
            id: CheckpointId::new(p(0), 2),
            kind: CheckpointKind::Forced,
        };
        assert_eq!(c.process(), p(0));
        let x = TraceEvent::Crash {
            at: SimTime::from_ticks(7),
            process: p(1),
        };
        assert_eq!(x.at().ticks(), 7);
        assert_eq!(x.process(), p(1));
    }

    #[test]
    fn crash_markers_round_trip_json_and_skip_pattern() {
        let mut trace = Trace::new(2);
        let t = SimTime::from_ticks;
        trace.push(TraceEvent::Send {
            at: t(1),
            from: p(0),
            to: p(1),
            message: SimMessageId(0),
        });
        trace.push(TraceEvent::Crash {
            at: t(2),
            process: p(1),
        });
        trace.push(TraceEvent::Deliver {
            at: t(3),
            to: p(1),
            from: p(0),
            message: SimMessageId(0),
        });
        let parsed = Trace::from_json_str(&trace.to_json().to_string()).unwrap();
        assert_eq!(parsed.events(), trace.events());
        // The pattern sees the union history, not the crash marker.
        let pattern = trace.to_pattern();
        assert_eq!(pattern.num_messages(), 1);
        assert_eq!(pattern.delivered_messages().count(), 1);
    }
}
