//! Replays online protocols over enumerated schedules.
//!
//! The driver walks a [`Schedule`] event by event, feeding one protocol
//! state machine per process, and records the *resulting* pattern —
//! enumerated basic checkpoints plus whatever checkpoints the protocol
//! forces. Alongside, every arrival is cross-checked against an
//! *independent predicate oracle*: a re-implementation of the protocol's
//! forcing predicate written against the protocol's public accessors
//! only, so a bug in the protocol's internal short-circuiting (or in the
//! oracle) surfaces as a [`PredicateMismatch`].

use rdt_causality::ProcessId;
use rdt_core::{
    spawner, Bcs, Cas, Cbr, CheckpointRecord, CicProtocol, ExecutorCell, ExecutorSpec, Nras,
    PackedPiggyback, ProtocolKind, Uncoordinated,
};
use rdt_rgraph::{Pattern, PatternBuilder, PatternError};

use crate::enumerate::{DriverEvent, Schedule};

/// One disagreement between a protocol's forcing decision and the
/// independent predicate oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateMismatch {
    /// Index of the delivery event in the schedule.
    pub event_index: usize,
    /// The delivering process.
    pub process: usize,
    /// What the oracle says the predicate evaluates to.
    pub oracle_forces: bool,
    /// What the protocol actually did.
    pub protocol_forced: bool,
}

/// Outcome of replaying one protocol over one schedule.
#[derive(Debug)]
pub struct ReplayedRun {
    /// The checkpoint-and-communication pattern the protocol produced
    /// (not yet closed; analyses close it).
    pub pattern: Pattern,
    /// Every checkpoint the protocol reported, in event order.
    pub records: Vec<CheckpointRecord>,
    /// Forcing-predicate disagreements (empty unless a protocol or
    /// oracle is buggy).
    pub predicate_mismatches: Vec<PredicateMismatch>,
}

/// One pattern-building operation of a replayed run, in execution order.
///
/// This is the *op stream* form of a replay outcome: applying the ops in
/// order to a [`PatternBuilder`] — or to an incremental
/// [`rdt_rgraph::IncrementalAnalysis`] — reproduces the replayed pattern.
/// Two runs over schedules sharing an event prefix produce op streams
/// sharing a prefix, which is what makes prefix-sharing replay possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternOp {
    /// A checkpoint on the process (basic or protocol-forced).
    Checkpoint(ProcessId),
    /// A send; sends are implicitly numbered in op order.
    Send {
        /// Sender.
        from: ProcessId,
        /// Receiver.
        to: ProcessId,
    },
    /// Delivery of the numbered send.
    Deliver(u32),
}

/// Outcome of replaying one protocol over one schedule, as an op stream
/// (no pattern materialized). Equality is whole-outcome equality — two
/// equal outcomes yield identical certifier verdicts, which is what the
/// certifier's cross-protocol verdict sharing keys on.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReplayedOps {
    /// The pattern operations, in execution order.
    pub ops: Vec<PatternOp>,
    /// Every checkpoint the protocol reported, in event order.
    pub records: Vec<CheckpointRecord>,
    /// Forcing-predicate disagreements (empty unless a protocol or
    /// oracle is buggy).
    pub predicate_mismatches: Vec<PredicateMismatch>,
}

impl ReplayedOps {
    fn clear(&mut self) {
        self.ops.clear();
        self.records.clear();
        self.predicate_mismatches.clear();
    }
}

/// Replays `schedule` over one protocol instance per process, appending
/// the outcome to `out` (cleared first; callers reuse the buffers).
///
/// `oracle` re-evaluates the forcing predicate from the receiver's public
/// state *before* the arrival mutates it; returning `None` skips the
/// conformance check (protocols whose predicate reads private-only state).
///
/// Schedule message numbers are send-order numbers, so they double as the
/// op stream's implicit send numbering — no translation needed.
pub fn replay_protocol_ops<P: CicProtocol>(
    schedule: &Schedule,
    make: impl Fn(usize, ProcessId) -> P,
    oracle: impl Fn(&P, ProcessId, &P::Piggyback) -> Option<bool>,
    out: &mut ReplayedOps,
) {
    out.clear();
    let n = schedule.n;
    let mut procs: Vec<P> = (0..n).map(|i| make(n, ProcessId::new(i))).collect();
    let mut piggybacks: Vec<P::Piggyback> = Vec::with_capacity(schedule.messages.len());

    for (event_index, event) in schedule.events.iter().enumerate() {
        match *event {
            DriverEvent::Basic { process } => {
                out.records.push(procs[process].take_basic_checkpoint());
                out.ops.push(PatternOp::Checkpoint(ProcessId::new(process)));
            }
            DriverEvent::Send { from, to, .. } => {
                let outcome = procs[from].before_send(ProcessId::new(to));
                piggybacks.push(outcome.piggyback);
                out.ops.push(PatternOp::Send {
                    from: ProcessId::new(from),
                    to: ProcessId::new(to),
                });
                // Checkpoint-after-send protocols checkpoint *after* the
                // send event.
                if let Some(record) = outcome.forced_after {
                    out.records.push(record);
                    out.ops.push(PatternOp::Checkpoint(ProcessId::new(from)));
                }
            }
            DriverEvent::Deliver { to, message } => {
                let (from, _) = schedule.messages[message];
                let sender = ProcessId::new(from);
                let expected = oracle(&procs[to], sender, &piggybacks[message]);
                let outcome = procs[to].on_message_arrival(sender, &piggybacks[message]);
                let forced = outcome.was_forced();
                // A forced checkpoint precedes the delivery event.
                if let Some(record) = outcome.forced {
                    out.records.push(record);
                    out.ops.push(PatternOp::Checkpoint(ProcessId::new(to)));
                }
                out.ops.push(PatternOp::Deliver(message as u32));
                if let Some(oracle_forces) = expected {
                    if oracle_forces != forced {
                        out.predicate_mismatches.push(PredicateMismatch {
                            event_index,
                            process: to,
                            oracle_forces,
                            protocol_forced: forced,
                        });
                    }
                }
            }
        }
    }
}

/// Materializes the pattern of an op stream.
///
/// # Errors
///
/// Returns an error if the ops are not a valid execution order (never for
/// replay-produced streams).
pub fn build_pattern(n: usize, ops: &[PatternOp]) -> Result<Pattern, PatternError> {
    let mut builder = PatternBuilder::new(n);
    let mut mids = Vec::new();
    for op in ops {
        match *op {
            PatternOp::Checkpoint(process) => {
                builder.checkpoint(process);
            }
            PatternOp::Send { from, to } => mids.push(builder.send(from, to)),
            PatternOp::Deliver(message) => {
                builder.deliver(mids[message as usize])?;
            }
        }
    }
    builder.build()
}

/// The legacy scalar predicates, recomputed over the *packed* executor's
/// public accessors. These are the cross-check for the executor's
/// word-parallel kernels: the executor evaluates `C1`/`C2` with masked
/// word operations, the oracle re-derives the same decision entry by
/// entry, and any disagreement on any enumerated structure surfaces as a
/// [`PredicateMismatch`] in the certifier report.
fn exec_bhmr_oracle(p: &ExecutorCell, _s: ProcessId, pb: &PackedPiggyback) -> Option<bool> {
    let me = p.process();
    let procs = || (0..p.num_processes()).map(ProcessId::new);
    let c1 = procs().any(|j| {
        p.sent_to(j) && procs().any(|k| pb.tdv_entry(k) > p.tdv_entry(k) && !pb.causal_entry(k, j))
    });
    let c2 = pb.tdv_entry(me) == p.current_interval() && !pb.simple_entry(me);
    Some(if p.uses_c1() { c1 || c2 } else { c2 })
}

/// Scalar `C1 ∨ C2'` over the packed executor's accessors.
fn exec_no_simple_oracle(p: &ExecutorCell, _s: ProcessId, pb: &PackedPiggyback) -> Option<bool> {
    let me = p.process();
    let procs = || (0..p.num_processes()).map(ProcessId::new);
    let fresh = |k: ProcessId| pb.tdv_entry(k) > p.tdv_entry(k);
    let c1 = procs().any(|j| p.sent_to(j) && procs().any(|k| fresh(k) && !pb.causal_entry(k, j)));
    let c2 = pb.tdv_entry(me) == p.current_interval() && procs().any(fresh);
    Some(c1 || c2)
}

/// Scalar `C1` (false-diagonal variant) over the packed executor's
/// accessors.
fn exec_causal_only_oracle(p: &ExecutorCell, _s: ProcessId, pb: &PackedPiggyback) -> Option<bool> {
    let procs = || (0..p.num_processes()).map(ProcessId::new);
    let c1 = procs().any(|j| {
        p.sent_to(j) && procs().any(|k| pb.tdv_entry(k) > p.tdv_entry(k) && !pb.causal_entry(k, j))
    });
    Some(c1)
}

/// Scalar `C_FDAS` over the packed executor's accessors.
fn exec_fdas_oracle(p: &ExecutorCell, _s: ProcessId, pb: &PackedPiggyback) -> Option<bool> {
    let fresh = (0..p.num_processes())
        .map(ProcessId::new)
        .any(|k| pb.tdv_entry(k) > p.tdv_entry(k));
    Some(p.after_first_send() && fresh)
}

/// Scalar `C_FDI` over the packed executor's accessors.
fn exec_fdi_oracle(p: &ExecutorCell, _s: ProcessId, pb: &PackedPiggyback) -> Option<bool> {
    let fresh = (0..p.num_processes())
        .map(ProcessId::new)
        .any(|k| pb.tdv_entry(k) > p.tdv_entry(k));
    Some(fresh)
}

/// The protocols the certifier knows how to instantiate: every shipped
/// [`ProtocolKind`] plus the deliberately weakened BHMR variant that the
/// regression suite uses to prove the certifier can catch a broken
/// forcing predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertProtocol {
    /// A shipped protocol.
    Kind(ProtocolKind),
    /// BHMR with `C1` disabled: claims RDT, does not ensure it. The
    /// certifier must find counterexamples for this one — that it does is
    /// itself certified (a meta-check on the checker).
    WeakenedBhmrC2Only,
}

impl CertProtocol {
    /// Every shipped protocol plus the weakened control, in report order.
    pub fn default_set() -> Vec<CertProtocol> {
        let mut set: Vec<CertProtocol> = ProtocolKind::all()
            .iter()
            .copied()
            .map(CertProtocol::Kind)
            .collect();
        set.push(CertProtocol::WeakenedBhmrC2Only);
        set
    }

    /// Stable report name.
    pub fn name(&self) -> &'static str {
        match self {
            CertProtocol::Kind(kind) => kind.name(),
            CertProtocol::WeakenedBhmrC2Only => "bhmr-c2only",
        }
    }

    /// Whether the protocol claims to ensure RDT. RDT violations are
    /// counterexamples exactly for claiming protocols. The weakened
    /// variant *claims* (falsely) — that is the point of shipping it.
    pub fn claims_rdt(&self) -> bool {
        match self {
            CertProtocol::Kind(kind) => kind.ensures_rdt(),
            CertProtocol::WeakenedBhmrC2Only => true,
        }
    }

    /// Whether the protocol claims Z-cycle freedom (no useless
    /// checkpoint). RDT implies it; BCS claims it without RDT. Useless
    /// checkpoints are counterexamples exactly for claiming protocols.
    pub fn claims_zcf(&self) -> bool {
        match self {
            CertProtocol::Kind(kind) => kind.ensures_z_cycle_freedom(),
            CertProtocol::WeakenedBhmrC2Only => true,
        }
    }

    /// Whether the certifier expects a clean report: true for every
    /// shipped protocol, false only for the weakened control (whose
    /// counterexamples are expected and demanded).
    pub fn expected_clean(&self) -> bool {
        !matches!(self, CertProtocol::WeakenedBhmrC2Only)
    }

    /// Whether replayed checkpoints must carry
    /// `min_consistent_gc = TDV` equal to the oracle-computed minimum
    /// (Corollary 4.5 — sound only under an honest RDT claim).
    pub fn check_reported_min_gc(&self) -> bool {
        match self {
            CertProtocol::Kind(kind) => kind.ensures_rdt() && kind.tracks_dependencies(),
            CertProtocol::WeakenedBhmrC2Only => false,
        }
    }

    /// Replays this protocol over `schedule` as an op stream, into `out`
    /// (cleared first; callers reuse the buffers across schedules).
    ///
    /// Dependency-tracking protocols replay on the packed round-executor
    /// with the legacy scalar predicates as conformance oracles; the
    /// module's tests hold it to the scalar state machines on every
    /// enumerated structure.
    pub fn replay_ops(&self, schedule: &Schedule, out: &mut ReplayedOps) {
        // A fresh closure per call site: one binding would pin the
        // protocol type at its first use.
        macro_rules! no_oracle {
            () => {
                |_: &_, _: ProcessId, _: &_| None
            };
        }
        match self {
            CertProtocol::Kind(ProtocolKind::Bhmr) => {
                replay_protocol_ops(schedule, spawner(ExecutorSpec::Bhmr), exec_bhmr_oracle, out)
            }
            CertProtocol::WeakenedBhmrC2Only => replay_protocol_ops(
                schedule,
                spawner(ExecutorSpec::BhmrC2Only),
                exec_bhmr_oracle,
                out,
            ),
            CertProtocol::Kind(ProtocolKind::BhmrNoSimple) => replay_protocol_ops(
                schedule,
                spawner(ExecutorSpec::BhmrNoSimple),
                exec_no_simple_oracle,
                out,
            ),
            CertProtocol::Kind(ProtocolKind::BhmrCausalOnly) => replay_protocol_ops(
                schedule,
                spawner(ExecutorSpec::BhmrCausalOnly),
                exec_causal_only_oracle,
                out,
            ),
            CertProtocol::Kind(ProtocolKind::Fdas) => {
                replay_protocol_ops(schedule, spawner(ExecutorSpec::Fdas), exec_fdas_oracle, out)
            }
            CertProtocol::Kind(ProtocolKind::Fdi) => {
                replay_protocol_ops(schedule, spawner(ExecutorSpec::Fdi), exec_fdi_oracle, out)
            }
            CertProtocol::Kind(ProtocolKind::Bcs) => {
                replay_protocol_ops(schedule, Bcs::new, no_oracle!(), out)
            }
            CertProtocol::Kind(ProtocolKind::Cbr) => {
                replay_protocol_ops(schedule, Cbr::new, no_oracle!(), out)
            }
            CertProtocol::Kind(ProtocolKind::Cas) => {
                replay_protocol_ops(schedule, Cas::new, no_oracle!(), out)
            }
            CertProtocol::Kind(ProtocolKind::Nras) => {
                replay_protocol_ops(schedule, Nras::new, no_oracle!(), out)
            }
            CertProtocol::Kind(ProtocolKind::Uncoordinated) => {
                replay_protocol_ops(schedule, Uncoordinated::new, no_oracle!(), out)
            }
        }
    }

    /// Replays this protocol over `schedule` and materializes the
    /// pattern.
    ///
    /// # Errors
    ///
    /// Propagates pattern-construction failures (never for
    /// enumerator-produced schedules).
    pub fn replay(&self, schedule: &Schedule) -> Result<ReplayedRun, PatternError> {
        let mut run = ReplayedOps::default();
        self.replay_ops(schedule, &mut run);
        Ok(ReplayedRun {
            pattern: build_pattern(schedule.n, &run.ops)?,
            records: run.records,
            predicate_mismatches: run.predicate_mismatches,
        })
    }
}

impl std::fmt::Display for CertProtocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_schedules;
    use crate::Scope;
    use rdt_core::{
        Bhmr, BhmrCausalOnly, BhmrNoSimple, BhmrPiggyback, CausalOnlyPiggyback, Fdas, Fdi,
        NoSimplePiggyback, TdvPiggyback,
    };
    use rdt_rgraph::PatternAnalysis;

    /// The forcing predicate of full BHMR, recomputed from public accessors:
    /// `C1 ∨ C2` (§4 of the paper), or `C2` alone for the deliberately
    /// weakened variant ([`Bhmr::weakened_c2_only`]).
    fn bhmr_oracle(p: &Bhmr, _sender: ProcessId, pb: &BhmrPiggyback) -> Option<bool> {
        let me = p.process();
        let procs = || (0..p.num_processes()).map(ProcessId::new);
        let c1 = procs().any(|j| {
            p.sent_to().get(j)
                && procs().any(|k| pb.tdv.get(k) > p.tdv().get(k) && !pb.causal.get(k, j))
        });
        let c2 = pb.tdv.get(me) == p.tdv().current_interval() && !pb.simple.get(me);
        Some(if p.uses_c1() { c1 || c2 } else { c2 })
    }

    /// BHMR-no-simple: `C1 ∨ C2'` with
    /// `C2': m.TDV[i] = TDV[i] ∧ ∃k: m.TDV[k] > TDV[k]`.
    fn no_simple_oracle(p: &BhmrNoSimple, _s: ProcessId, pb: &NoSimplePiggyback) -> Option<bool> {
        let me = p.process();
        let procs = || (0..p.num_processes()).map(ProcessId::new);
        let fresh = |k: ProcessId| pb.tdv.get(k) > p.tdv().get(k);
        let c1 = procs()
            .any(|j| p.sent_to().get(j) && procs().any(|k| fresh(k) && !pb.causal.get(k, j)));
        let c2 = pb.tdv.get(me) == p.tdv().current_interval() && procs().any(fresh);
        Some(c1 || c2)
    }

    /// BHMR-causal-only: `C1` with a `false` diagonal in the causal matrix
    /// (no `C2` at all — its RDT claim rests on the strengthened `C1`).
    fn causal_only_oracle(
        p: &BhmrCausalOnly,
        _s: ProcessId,
        pb: &CausalOnlyPiggyback,
    ) -> Option<bool> {
        let procs = || (0..p.num_processes()).map(ProcessId::new);
        let c1 = procs().any(|j| {
            p.sent_to().get(j)
                && procs().any(|k| pb.tdv.get(k) > p.tdv().get(k) && !pb.causal.get(k, j))
        });
        Some(c1)
    }

    /// FDAS: force iff a send happened since the last checkpoint and the
    /// piggyback carries a new dependency.
    fn fdas_oracle(p: &Fdas, _s: ProcessId, pb: &TdvPiggyback) -> Option<bool> {
        let fresh = (0..p.num_processes())
            .map(ProcessId::new)
            .any(|k| pb.tdv.get(k) > p.tdv().get(k));
        Some(p.after_first_send() && fresh)
    }

    /// FDI: force iff the piggyback carries a new dependency.
    fn fdi_oracle(p: &Fdi, _s: ProcessId, pb: &TdvPiggyback) -> Option<bool> {
        let fresh = (0..p.num_processes())
            .map(ProcessId::new)
            .any(|k| pb.tdv.get(k) > p.tdv().get(k));
        Some(fresh)
    }

    impl CertProtocol {
        /// Replays this protocol over `schedule` on the *legacy* state
        /// machines with their original predicate oracles.
        ///
        /// The differential reference of the executor path: the test below
        /// asserts [`CertProtocol::replay_ops`] produces identical op streams,
        /// checkpoint records and mismatch lists on every enumerated
        /// structure.
        fn replay_ops_legacy(&self, schedule: &Schedule, out: &mut ReplayedOps) {
            match self {
                CertProtocol::Kind(ProtocolKind::Bhmr) => {
                    replay_protocol_ops(schedule, Bhmr::new, bhmr_oracle, out)
                }
                CertProtocol::WeakenedBhmrC2Only => {
                    replay_protocol_ops(schedule, Bhmr::weakened_c2_only, bhmr_oracle, out)
                }
                CertProtocol::Kind(ProtocolKind::BhmrNoSimple) => {
                    replay_protocol_ops(schedule, BhmrNoSimple::new, no_simple_oracle, out)
                }
                CertProtocol::Kind(ProtocolKind::BhmrCausalOnly) => {
                    replay_protocol_ops(schedule, BhmrCausalOnly::new, causal_only_oracle, out)
                }
                CertProtocol::Kind(ProtocolKind::Fdas) => {
                    replay_protocol_ops(schedule, Fdas::new, fdas_oracle, out)
                }
                CertProtocol::Kind(ProtocolKind::Fdi) => {
                    replay_protocol_ops(schedule, Fdi::new, fdi_oracle, out)
                }
                _ => self.replay_ops(schedule, out),
            }
        }
    }

    fn schedules(n: usize, m: usize, b: usize) -> Vec<Schedule> {
        let scope = Scope::with_basics(n, m, b).unwrap();
        let mut out = Vec::new();
        enumerate_schedules(&scope, |s| out.push(s.clone()));
        out
    }

    #[test]
    fn replayed_patterns_are_realizable_and_extend_the_skeleton() {
        for schedule in schedules(3, 2, 1) {
            let run = CertProtocol::Kind(ProtocolKind::Bhmr)
                .replay(&schedule)
                .unwrap();
            let analysis = PatternAnalysis::new(&run.pattern);
            assert!(analysis.try_rdt_report().is_ok(), "{}", schedule.render());
            // The protocol pattern has at least the skeleton's messages.
            assert_eq!(run.pattern.num_messages(), schedule.messages.len());
        }
    }

    #[test]
    fn oracles_agree_with_protocols_across_the_scope() {
        for schedule in schedules(3, 2, 1) {
            for protocol in CertProtocol::default_set() {
                let run = protocol.replay(&schedule).unwrap();
                assert!(
                    run.predicate_mismatches.is_empty(),
                    "{protocol}: {} on {}",
                    run.predicate_mismatches.len(),
                    schedule.render()
                );
            }
        }
    }

    #[test]
    fn checkpoint_after_send_inserts_post_send_checkpoints() {
        let scope = Scope::with_basics(2, 1, 0).unwrap();
        let mut max_checkpoints = 0;
        enumerate_schedules(&scope, |schedule| {
            let run = CertProtocol::Kind(ProtocolKind::Cas)
                .replay(schedule)
                .unwrap();
            max_checkpoints = max_checkpoints.max(run.records.len());
        });
        // The s0>1 schedule must have produced a forced checkpoint after
        // the send.
        assert_eq!(max_checkpoints, 1);
    }

    #[test]
    fn executor_replay_matches_legacy_on_every_enumerated_structure() {
        // The certifier replays through the packed executor; the legacy
        // state machines must produce identical op streams, records and
        // (empty) mismatch lists on every structure in the scope — this
        // is what keeps the certify report byte-identical across engines.
        let mut exec = ReplayedOps::default();
        let mut legacy = ReplayedOps::default();
        for schedule in schedules(3, 2, 1) {
            for protocol in CertProtocol::default_set() {
                protocol.replay_ops(&schedule, &mut exec);
                protocol.replay_ops_legacy(&schedule, &mut legacy);
                assert_eq!(exec.ops, legacy.ops, "{protocol} on {}", schedule.render());
                assert_eq!(
                    exec.records,
                    legacy.records,
                    "{protocol} on {}",
                    schedule.render()
                );
                assert!(exec.predicate_mismatches.is_empty(), "{protocol}");
                assert!(legacy.predicate_mismatches.is_empty(), "{protocol}");
            }
        }
    }

    #[test]
    fn weakened_bhmr_diverges_from_full_bhmr_somewhere() {
        // At n=3, m=2 the hidden-dependency skeleton exists; the weakened
        // variant must force strictly fewer checkpoints than full BHMR on
        // at least one schedule.
        let mut diverged = false;
        for schedule in schedules(3, 2, 0) {
            let full = CertProtocol::Kind(ProtocolKind::Bhmr)
                .replay(&schedule)
                .unwrap();
            let weak = CertProtocol::WeakenedBhmrC2Only.replay(&schedule).unwrap();
            assert!(weak.records.len() <= full.records.len());
            diverged |= weak.records.len() < full.records.len();
        }
        assert!(diverged, "C1 never fired at n=3, m=2 — scope too small?");
    }
}
