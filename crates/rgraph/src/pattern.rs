//! Checkpoint and communication patterns (Definition 2.1 of the paper).

use std::fmt;

use rdt_causality::{CheckpointId, IntervalId, ProcessId};

/// Identifier of a message within one [`Pattern`].
///
/// Distinct from any transport-level message id; patterns number their
/// messages densely from zero in send order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PatternMessageId(pub usize);

impl fmt::Display for PatternMessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One event on a process line of a pattern.
///
/// The initial checkpoint `C_{i,0}` is implicit and precedes every event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternEvent {
    /// The process takes a local checkpoint.
    Checkpoint,
    /// The process sends the given message.
    Send(PatternMessageId),
    /// The process delivers the given message.
    Deliver(PatternMessageId),
}

/// Errors detected while building or validating a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// A process id was out of range.
    ProcessOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// Number of processes of the pattern.
        n: usize,
    },
    /// A message was delivered twice.
    DuplicateDelivery(PatternMessageId),
    /// A delivery referenced a message that was never sent.
    UnknownMessage(PatternMessageId),
    /// A message was addressed to one process but delivered at another.
    WrongDestination {
        /// The message in question.
        message: PatternMessageId,
        /// Where the message was addressed.
        expected: ProcessId,
        /// Where the delivery happened.
        actual: ProcessId,
    },
    /// A process sent a message to itself.
    SelfMessage(PatternMessageId),
    /// The pattern does not correspond to any real execution: its local
    /// orders plus send-before-delivery constraints contain a cycle.
    Unrealizable,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::ProcessOutOfRange { process, n } => {
                write!(f, "process {process} out of range for {n} processes")
            }
            PatternError::DuplicateDelivery(m) => write!(f, "message {m} delivered twice"),
            PatternError::UnknownMessage(m) => write!(f, "message {m} was never sent"),
            PatternError::WrongDestination {
                message,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "message {message} addressed to {expected} but delivered at {actual}"
                )
            }
            PatternError::SelfMessage(m) => write!(f, "message {m} sent by a process to itself"),
            PatternError::Unrealizable => {
                write!(
                    f,
                    "pattern is unrealizable: causality constraints contain a cycle"
                )
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// Metadata of one message of a pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageInfo {
    /// Sending process.
    pub from: ProcessId,
    /// Destination process.
    pub to: ProcessId,
    /// Position of the send event in `from`'s event sequence.
    pub send_pos: usize,
    /// Position of the delivery event in `to`'s event sequence, or `None`
    /// if the message is still in transit when the pattern ends.
    pub deliver_pos: Option<usize>,
}

/// A *checkpoint and communication pattern* `(Ĥ, C_Ĥ)`: a finite
/// distributed computation together with the local checkpoints taken on it
/// (Definition 2.1).
///
/// The pattern records, per process, the local sequence of checkpoint,
/// send and delivery events; every process implicitly starts with the
/// initial checkpoint `C_{i,0}`. Build patterns with [`PatternBuilder`]
/// (by hand or from a simulation trace).
///
/// # Intervals
///
/// The checkpoint interval `I_{i,x}` is the sequence of events between
/// `C_{i,x-1}` and `C_{i,x}` (one-based `x`). An event at position `p` of
/// process `i` belongs to interval `1 + (number of checkpoint events before
/// p)`. A message sent in `I_{i,x}` and delivered in `I_{j,y}` contributes
/// the R-graph edge `C_{i,x} → C_{j,y}` — which requires those closing
/// checkpoints to exist; see [`Pattern::is_closed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    n: usize,
    events: Vec<Vec<PatternEvent>>,
    messages: Vec<MessageInfo>,
    /// Per process, positions of checkpoint events (ascending).
    checkpoint_positions: Vec<Vec<usize>>,
}

impl Pattern {
    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// The event sequence of `process` (without the implicit `C_{i,0}`).
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn events(&self, process: ProcessId) -> &[PatternEvent] {
        &self.events[process.index()]
    }

    /// Number of checkpoints of `process`, counting the implicit initial
    /// one; the last checkpoint index is therefore `count - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn checkpoint_count(&self, process: ProcessId) -> u32 {
        self.checkpoint_positions[process.index()].len() as u32 + 1
    }

    /// Index of the last checkpoint of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn last_checkpoint_index(&self, process: ProcessId) -> u32 {
        self.checkpoint_count(process) - 1
    }

    /// Total number of checkpoints across all processes.
    pub fn total_checkpoints(&self) -> usize {
        (0..self.n)
            .map(|i| self.checkpoint_count(ProcessId::new(i)) as usize)
            .sum()
    }

    /// Iterates over every checkpoint of the pattern, process by process.
    pub fn checkpoints(&self) -> impl Iterator<Item = CheckpointId> + '_ {
        (0..self.n).flat_map(move |i| {
            let p = ProcessId::new(i);
            (0..self.checkpoint_count(p)).map(move |x| CheckpointId::new(p, x))
        })
    }

    /// All messages, in send order.
    pub fn messages(&self) -> &[MessageInfo] {
        &self.messages
    }

    /// Metadata of one message.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn message(&self, id: PatternMessageId) -> &MessageInfo {
        &self.messages[id.0]
    }

    /// Number of messages (delivered or in transit).
    pub fn num_messages(&self) -> usize {
        self.messages.len()
    }

    /// Interval of the event at position `pos` of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` or `pos` is out of range.
    pub fn interval_of(&self, process: ProcessId, pos: usize) -> IntervalId {
        assert!(
            pos < self.events[process.index()].len(),
            "event position out of range"
        );
        let positions = &self.checkpoint_positions[process.index()];
        let before = positions.partition_point(|&cp| cp < pos);
        IntervalId::new(process, before as u32 + 1)
    }

    /// The interval in which `message` was sent.
    ///
    /// # Panics
    ///
    /// Panics if `message` is out of range.
    pub fn send_interval(&self, message: PatternMessageId) -> IntervalId {
        let info = self.message(message);
        self.interval_of(info.from, info.send_pos)
    }

    /// The interval in which `message` was delivered, or `None` if it is
    /// still in transit.
    ///
    /// # Panics
    ///
    /// Panics if `message` is out of range.
    pub fn deliver_interval(&self, message: PatternMessageId) -> Option<IntervalId> {
        let info = self.message(message);
        info.deliver_pos.map(|pos| self.interval_of(info.to, pos))
    }

    /// Index of the checkpoint event at position `pos` of `process`
    /// (`C_{i,x}` for the `x`-th explicit checkpoint, `x ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if the event at `pos` is not a checkpoint.
    pub fn checkpoint_index_at(&self, process: ProcessId, pos: usize) -> u32 {
        assert!(
            matches!(self.events[process.index()][pos], PatternEvent::Checkpoint),
            "event at position {pos} is not a checkpoint"
        );
        let positions = &self.checkpoint_positions[process.index()];
        positions.partition_point(|&cp| cp < pos) as u32 + 1
    }

    /// Position of checkpoint `C_{i,x}` in `i`'s event sequence, or `None`
    /// for the implicit initial checkpoint (`x == 0`).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not exist.
    pub fn checkpoint_position(&self, checkpoint: CheckpointId) -> Option<usize> {
        if checkpoint.index == 0 {
            return None;
        }
        Some(self.checkpoint_positions[checkpoint.process.index()][checkpoint.index as usize - 1])
    }

    /// Returns `true` if every event is followed (not necessarily
    /// immediately) by a checkpoint on its process — i.e. no interval is
    /// left open.
    ///
    /// Closed patterns make every send/delivery attributable to an existing
    /// closing checkpoint, which the R-graph and the consistency machinery
    /// require. [`PatternBuilder::close`] closes a pattern under
    /// construction.
    pub fn is_closed(&self) -> bool {
        (0..self.n).all(|i| {
            let events = &self.events[i];
            events.is_empty() || matches!(events.last(), Some(PatternEvent::Checkpoint))
        })
    }

    /// Returns a copy of the pattern with one checkpoint removed — the
    /// *hindsight* experiment: was this (typically forced) checkpoint
    /// necessary, i.e. does the pattern without it still satisfy RDT?
    ///
    /// The two intervals the checkpoint separated merge; later checkpoints
    /// of the process shift down by one index. Removing the implicit
    /// initial checkpoint is not possible.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not exist or `checkpoint.index == 0`.
    pub fn without_checkpoint(&self, checkpoint: CheckpointId) -> Pattern {
        assert!(
            checkpoint.index > 0,
            "the initial checkpoint cannot be removed"
        );
        let target_pos = self
            .checkpoint_position(checkpoint)
            .expect("non-initial checkpoints have positions");
        let order = self.linearize().expect("existing patterns are realizable");
        let mut builder = PatternBuilder::new(self.n);
        let mut tokens: Vec<Option<PatternMessageId>> = vec![None; self.messages.len()];
        for (process, pos) in order {
            match self.events(process)[pos] {
                PatternEvent::Checkpoint => {
                    if process == checkpoint.process && pos == target_pos {
                        continue;
                    }
                    builder.checkpoint(process);
                }
                PatternEvent::Send(m) => {
                    let info = self.message(m);
                    tokens[m.0] = Some(builder.send(info.from, info.to));
                }
                PatternEvent::Deliver(m) => {
                    let token = tokens[m.0].expect("linearize orders sends first");
                    builder.deliver(token).expect("single delivery");
                }
            }
        }
        builder.build().expect("removal preserves well-formedness")
    }

    /// Returns a closed copy of the pattern: a final checkpoint is appended
    /// to every process line that does not already end with one. Returns a
    /// plain clone if the pattern is already closed.
    pub fn to_closed(&self) -> Pattern {
        let mut closed = self.clone();
        for i in 0..closed.n {
            let events = &mut closed.events[i];
            if !events.is_empty() && !matches!(events.last(), Some(PatternEvent::Checkpoint)) {
                closed.checkpoint_positions[i].push(events.len());
                events.push(PatternEvent::Checkpoint);
            }
        }
        closed
    }

    /// Produces one global execution order of all events consistent with
    /// causality: per-process order is respected and every delivery comes
    /// after its send.
    ///
    /// The order is deterministic (lowest-index runnable process first), so
    /// replays over it are reproducible.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the constraints are
    /// cyclic, i.e. the pattern corresponds to no real execution.
    pub fn linearize(&self) -> Result<Vec<(ProcessId, usize)>, PatternError> {
        let total: usize = self.events.iter().map(Vec::len).sum();
        let mut order = Vec::with_capacity(total);
        let mut cursor = vec![0usize; self.n];
        let mut sent = vec![false; self.messages.len()];
        while order.len() < total {
            let mut progressed = false;
            for (i, events) in self.events.iter().enumerate() {
                // Drain every currently-runnable event of P_i before moving
                // on; this keeps the scan linear in practice.
                while cursor[i] < events.len() {
                    let event = events[cursor[i]];
                    let runnable = match event {
                        PatternEvent::Checkpoint | PatternEvent::Send(_) => true,
                        PatternEvent::Deliver(m) => sent[m.0],
                    };
                    if !runnable {
                        break;
                    }
                    if let PatternEvent::Send(m) = event {
                        sent[m.0] = true;
                    }
                    order.push((ProcessId::new(i), cursor[i]));
                    cursor[i] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return Err(PatternError::Unrealizable);
            }
        }
        Ok(order)
    }

    /// Messages delivered in some interval of each process, grouped as
    /// `(message, send_interval, deliver_interval)` triples — the raw
    /// material for R-graph edges.
    pub fn delivered_messages(
        &self,
    ) -> impl Iterator<Item = (PatternMessageId, IntervalId, IntervalId)> + '_ {
        self.messages
            .iter()
            .enumerate()
            .filter_map(move |(idx, info)| {
                let id = PatternMessageId(idx);
                info.deliver_pos?;
                Some((id, self.send_interval(id), self.deliver_interval(id)?))
            })
    }

    /// A stable 64-bit structural digest (FNV-1a over every process line
    /// and message endpoint).
    ///
    /// Two patterns have equal digests exactly when they are structurally
    /// identical for all practical purposes; the sweep engine's tests use
    /// it to assert that sequential and parallel runs produced the *same*
    /// executions without shipping whole patterns between threads.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(self.n as u64);
        for events in &self.events {
            mix(0xE0E0_E0E0);
            for event in events {
                match event {
                    PatternEvent::Checkpoint => mix(1),
                    PatternEvent::Send(m) => {
                        mix(2);
                        mix(m.0 as u64);
                    }
                    PatternEvent::Deliver(m) => {
                        mix(3);
                        mix(m.0 as u64);
                    }
                }
            }
        }
        for info in &self.messages {
            mix(info.from.index() as u64);
            mix(info.to.index() as u64);
        }
        hash
    }
}

/// Builder for [`Pattern`]s.
///
/// Drive the builder in any *linear extension* of the intended causal
/// order — i.e. call [`deliver`](PatternBuilder::deliver) only after the
/// corresponding [`send`](PatternBuilder::send), which the API enforces by
/// construction since a delivery needs the send's token.
///
/// # Example: the pattern of the paper's Figure 2
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_rgraph::PatternBuilder;
///
/// let (pk, pi, pj) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
/// let mut b = PatternBuilder::new(3);
/// let m = b.send(pk, pi);
/// let m_prime = b.send(pi, pj);
/// b.deliver(m)?;         // P_i delivers m after having sent m'
/// b.deliver(m_prime)?;
/// let pattern = b.close().build()?;
/// assert_eq!(pattern.num_messages(), 2);
/// # Ok::<(), rdt_rgraph::PatternError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    n: usize,
    events: Vec<Vec<PatternEvent>>,
    messages: Vec<MessageInfo>,
    errors: Vec<PatternError>,
}

impl PatternBuilder {
    /// Starts a pattern over `n` processes.
    pub fn new(n: usize) -> Self {
        PatternBuilder {
            n,
            events: vec![Vec::new(); n],
            messages: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn check_process(&mut self, process: ProcessId) -> bool {
        if process.index() >= self.n {
            self.errors
                .push(PatternError::ProcessOutOfRange { process, n: self.n });
            false
        } else {
            true
        }
    }

    /// `process` takes a local checkpoint; returns its id.
    pub fn checkpoint(&mut self, process: ProcessId) -> CheckpointId {
        if !self.check_process(process) {
            return CheckpointId::initial(process);
        }
        let index = 1 + self.events[process.index()]
            .iter()
            .filter(|event| matches!(event, PatternEvent::Checkpoint))
            .count() as u32;
        self.events[process.index()].push(PatternEvent::Checkpoint);
        CheckpointId::new(process, index)
    }

    /// `from` sends a message to `to`; returns the message token to pass to
    /// [`deliver`](PatternBuilder::deliver).
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> PatternMessageId {
        let id = PatternMessageId(self.messages.len());
        if !self.check_process(from) || !self.check_process(to) {
            // Record a dummy so later indices stay aligned; build() fails.
            self.messages.push(MessageInfo {
                from,
                to,
                send_pos: 0,
                deliver_pos: None,
            });
            return id;
        }
        if from == to {
            self.errors.push(PatternError::SelfMessage(id));
        }
        let send_pos = self.events[from.index()].len();
        self.events[from.index()].push(PatternEvent::Send(id));
        self.messages.push(MessageInfo {
            from,
            to,
            send_pos,
            deliver_pos: None,
        });
        id
    }

    /// The destination process of `message` delivers it.
    ///
    /// # Errors
    ///
    /// Returns an error if the message is unknown or already delivered.
    pub fn deliver(&mut self, message: PatternMessageId) -> Result<(), PatternError> {
        let info = self
            .messages
            .get_mut(message.0)
            .ok_or(PatternError::UnknownMessage(message))?;
        if info.deliver_pos.is_some() {
            return Err(PatternError::DuplicateDelivery(message));
        }
        let to = info.to;
        let pos = self.events[to.index()].len();
        info.deliver_pos = Some(pos);
        self.events[to.index()].push(PatternEvent::Deliver(message));
        Ok(())
    }

    /// Appends a final checkpoint to every process whose last event is not
    /// already a checkpoint, so that [`Pattern::is_closed`] holds.
    ///
    /// The paper assumes every event is eventually followed by a checkpoint
    /// (§2.2); closing a finite prefix realizes that assumption.
    pub fn close(&mut self) -> &mut Self {
        for i in 0..self.n {
            let process = ProcessId::new(i);
            if !self.events[i].is_empty()
                && !matches!(self.events[i].last(), Some(PatternEvent::Checkpoint))
            {
                self.checkpoint(process);
            }
        }
        self
    }

    /// Finalizes the pattern.
    ///
    /// # Errors
    ///
    /// Returns the first construction error encountered (out-of-range
    /// process, self-message, duplicate delivery).
    pub fn build(&self) -> Result<Pattern, PatternError> {
        if let Some(err) = self.errors.first() {
            return Err(err.clone());
        }
        let checkpoint_positions = self
            .events
            .iter()
            .map(|events| {
                events
                    .iter()
                    .enumerate()
                    .filter(|(_, event)| matches!(event, PatternEvent::Checkpoint))
                    .map(|(pos, _)| pos)
                    .collect()
            })
            .collect();
        Ok(Pattern {
            n: self.n,
            events: self.events.clone(),
            messages: self.messages.clone(),
            checkpoint_positions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_pattern_has_only_initial_checkpoints() {
        let pattern = PatternBuilder::new(3).build().unwrap();
        assert_eq!(pattern.num_processes(), 3);
        assert_eq!(pattern.total_checkpoints(), 3);
        assert!(pattern.is_closed());
        let cps: Vec<_> = pattern.checkpoints().collect();
        assert_eq!(cps.len(), 3);
        assert!(cps.iter().all(|c| c.index == 0));
    }

    #[test]
    fn checkpoint_indices_count_from_one() {
        let mut b = PatternBuilder::new(1);
        let c1 = b.checkpoint(p(0));
        let c2 = b.checkpoint(p(0));
        assert_eq!(c1, CheckpointId::new(p(0), 1));
        assert_eq!(c2, CheckpointId::new(p(0), 2));
        let pattern = b.build().unwrap();
        assert_eq!(pattern.checkpoint_count(p(0)), 3);
        assert_eq!(pattern.last_checkpoint_index(p(0)), 2);
    }

    #[test]
    fn intervals_assigned_correctly() {
        let mut b = PatternBuilder::new(2);
        let m1 = b.send(p(0), p(1)); // in I_{0,1}
        b.checkpoint(p(0)); // C_{0,1}
        let m2 = b.send(p(0), p(1)); // in I_{0,2}
        b.deliver(m1).unwrap(); // in I_{1,1}
        b.checkpoint(p(1)); // C_{1,1}
        b.deliver(m2).unwrap(); // in I_{1,2}
        let pattern = b.close().build().unwrap();
        assert_eq!(pattern.send_interval(m1), IntervalId::new(p(0), 1));
        assert_eq!(pattern.send_interval(m2), IntervalId::new(p(0), 2));
        assert_eq!(pattern.deliver_interval(m1), Some(IntervalId::new(p(1), 1)));
        assert_eq!(pattern.deliver_interval(m2), Some(IntervalId::new(p(1), 2)));
    }

    #[test]
    fn in_transit_message_has_no_deliver_interval() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        let pattern = b.close().build().unwrap();
        assert_eq!(pattern.deliver_interval(m), None);
        assert_eq!(pattern.delivered_messages().count(), 0);
    }

    #[test]
    fn close_appends_checkpoints_only_where_needed() {
        let mut b = PatternBuilder::new(3);
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        b.checkpoint(p(1));
        // P2 has no events; P1 already ends with a checkpoint.
        let pattern = b.close().build().unwrap();
        assert!(pattern.is_closed());
        assert_eq!(pattern.checkpoint_count(p(0)), 2);
        assert_eq!(pattern.checkpoint_count(p(1)), 2);
        assert_eq!(pattern.checkpoint_count(p(2)), 1);
    }

    #[test]
    fn duplicate_delivery_rejected() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        assert_eq!(b.deliver(m), Err(PatternError::DuplicateDelivery(m)));
    }

    #[test]
    fn unknown_message_rejected() {
        let mut b = PatternBuilder::new(2);
        assert_eq!(
            b.deliver(PatternMessageId(7)),
            Err(PatternError::UnknownMessage(PatternMessageId(7)))
        );
    }

    #[test]
    fn self_message_rejected_at_build() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(0));
        assert_eq!(b.build().unwrap_err(), PatternError::SelfMessage(m));
    }

    #[test]
    fn out_of_range_process_rejected_at_build() {
        let mut b = PatternBuilder::new(2);
        b.checkpoint(p(5));
        assert!(matches!(
            b.build(),
            Err(PatternError::ProcessOutOfRange { .. })
        ));
    }

    #[test]
    fn checkpoint_position_lookup() {
        let mut b = PatternBuilder::new(1);
        b.checkpoint(p(0));
        let pattern = b.build().unwrap();
        assert_eq!(
            pattern.checkpoint_position(CheckpointId::new(p(0), 0)),
            None
        );
        assert_eq!(
            pattern.checkpoint_position(CheckpointId::new(p(0), 1)),
            Some(0)
        );
    }

    #[test]
    fn checkpoint_index_at_positions() {
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.checkpoint(p(0));
        b.deliver(m).unwrap();
        b.checkpoint(p(0));
        let pattern = b.build().unwrap();
        assert_eq!(pattern.checkpoint_index_at(p(0), 1), 1);
        assert_eq!(pattern.checkpoint_index_at(p(0), 2), 2);
    }

    #[test]
    fn without_checkpoint_merges_intervals() {
        // P0: send m1, C_{0,1}, send m2, C_{0,2}; removing C_{0,1} puts
        // both sends into one interval closed by the (renumbered) C_{0,1}.
        let mut b = PatternBuilder::new(2);
        let m1 = b.send(p(0), p(1));
        b.checkpoint(p(0));
        let m2 = b.send(p(0), p(1));
        b.checkpoint(p(0));
        b.deliver(m1).unwrap();
        b.deliver(m2).unwrap();
        let pattern = b.close().build().unwrap();
        assert_eq!(pattern.send_interval(m1).index, 1);
        assert_eq!(pattern.send_interval(m2).index, 2);

        let surgered = pattern.without_checkpoint(CheckpointId::new(p(0), 1));
        assert_eq!(
            surgered.checkpoint_count(p(0)),
            pattern.checkpoint_count(p(0)) - 1
        );
        assert_eq!(surgered.send_interval(PatternMessageId(0)).index, 1);
        assert_eq!(surgered.send_interval(PatternMessageId(1)).index, 1);
        assert!(surgered.linearize().is_ok());
    }

    #[test]
    fn without_checkpoint_on_figure_2_restores_the_violation() {
        // figure_2_broken is figure_2_unbroken plus the forced checkpoint;
        // removing it must recreate an RDT-violating pattern.
        let broken_chain_fixed = crate::paper_figures::figure_2_broken();
        assert!(crate::PatternAnalysis::new(&broken_chain_fixed)
            .rdt_report()
            .holds());
        // The forced checkpoint is C_{i,1} of process 1 (P_i).
        let reverted = broken_chain_fixed.without_checkpoint(CheckpointId::new(p(1), 1));
        assert!(!crate::PatternAnalysis::new(&reverted).rdt_report().holds());
    }

    #[test]
    #[should_panic(expected = "initial checkpoint")]
    fn without_initial_checkpoint_panics() {
        let pattern = PatternBuilder::new(1).build().unwrap();
        let _ = pattern.without_checkpoint(CheckpointId::new(p(0), 0));
    }

    #[test]
    fn error_display_messages() {
        let e = PatternError::DuplicateDelivery(PatternMessageId(3));
        assert!(e.to_string().contains("m3"));
        let e = PatternError::SelfMessage(PatternMessageId(0));
        assert!(e.to_string().contains("itself"));
    }
}
