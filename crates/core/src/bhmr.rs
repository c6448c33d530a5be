//! The BHMR protocol — Figure 6 of the paper.

use std::cmp::Ordering;

use rdt_causality::{BitMatrix, BitRow, CheckpointId, DependencyVector, ProcessId};

use crate::{
    ArrivalOutcome, CheckpointKind, CheckpointRecord, CicProtocol, PiggybackSize, ProtocolStats,
    SendOutcome,
};

/// Control information the BHMR protocol piggybacks on every application
/// message: the full `(TDV, simple, causal)` triple.
///
/// Fields are public because the piggyback is plain data: tests and offline
/// replayers construct instances directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BhmrPiggyback {
    /// The sender's transitive dependency vector at send time.
    pub tdv: DependencyVector,
    /// The sender's `simple` vector: `simple[k]` iff, to the sender's
    /// knowledge, all causal message chains from `C_{k,TDV[k]}` to the
    /// sender's current state are *simple* (contain no intermediate
    /// checkpoint).
    pub simple: BitRow,
    /// The sender's `causal` matrix: `causal[k][l]` iff, to the sender's
    /// knowledge, there is an on-line trackable R-path from `C_{k,TDV[k]}`
    /// to `C_{l,TDV[l]}`.
    pub causal: BitMatrix,
}

impl PiggybackSize for BhmrPiggyback {
    fn piggyback_bytes(&self) -> usize {
        self.tdv.piggyback_bytes() + self.simple.piggyback_bytes() + self.causal.piggyback_bytes()
    }
}

/// The communication-induced checkpointing protocol of the paper (§4),
/// named **BHMR** after its authors.
///
/// The protocol forces a checkpoint before delivering message `m` iff
///
/// ```text
/// C1: ∃j: sent_to[j] ∧ ∃k: (m.TDV[k] > TDV[k] ∧ ¬m.causal[k][j])
/// C2: m.TDV[i] = TDV[i] ∧ ¬m.simple[i]
/// ```
///
/// `C1` prevents a non-causal message chain — breakable here and, to the
/// receiver's knowledge, without a causal sibling — from forming between two
/// *different* processes; `C2` prevents a non-causal chain from `C_{k,z}`
/// back to `C_{k,z-1}` on the *same* process, which only this process can
/// break (§4.1). Together they guarantee every R-path of the resulting
/// checkpoint and communication pattern is on-line trackable
/// (Theorem 4.4), i.e. the pattern satisfies RDT.
///
/// Additionally, the `TDV` saved with each checkpoint is the minimum
/// consistent global checkpoint containing it (Corollary 4.5); it is
/// reported in [`CheckpointRecord::min_consistent_gc`].
///
/// # Example
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_core::{Bhmr, CicProtocol};
///
/// let mut p = Bhmr::new(3, ProcessId::new(0));
/// let record = p.take_basic_checkpoint();
/// assert_eq!(record.id.index, 1); // C_{0,0} was taken at construction
/// ```
#[derive(Debug, Clone)]
pub struct Bhmr {
    me: ProcessId,
    n: usize,
    tdv: DependencyVector,
    sent_to: BitRow,
    simple: BitRow,
    causal: BitMatrix,
    stats: ProtocolStats,
    /// Whether predicate `C1` participates in the forcing decision. Always
    /// `true` for the real protocol; [`Bhmr::weakened_c2_only`] clears it
    /// to give the certifier a deliberately broken protocol whose
    /// counterexamples it must find.
    use_c1: bool,
}

impl Bhmr {
    /// Creates `P_me`'s protocol state for an `n`-process computation and
    /// takes the initial checkpoint `C_{me,0}` (statement S0 of Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `n` processes.
    pub fn new(n: usize, me: ProcessId) -> Self {
        assert!(
            me.index() < n,
            "process {me} out of range for {n} processes"
        );
        let mut simple = BitRow::new(n);
        simple.set(me); // simple_i[i] is permanently true
        Bhmr {
            me,
            n,
            // `initial` already encodes: all entries 0, then the initial
            // take_checkpoint increments the owner entry to 1.
            tdv: DependencyVector::initial(n, me),
            sent_to: BitRow::new(n),
            simple,
            causal: BitMatrix::identity(n),
            stats: ProtocolStats::default(),
            use_c1: true,
        }
    }

    /// A deliberately *weakened* BHMR that forces on `C2` alone, ignoring
    /// `C1` entirely.
    ///
    /// This drops exactly the guard against breakable non-causal chains
    /// between different processes, so the protocol no longer ensures RDT
    /// (the paper's Figure 2 hidden-dependency scenario slips through).
    /// It exists for negative testing: the exhaustive certifier must
    /// report counterexamples for it at small scope.
    pub fn weakened_c2_only(n: usize, me: ProcessId) -> Self {
        Bhmr {
            use_c1: false,
            ..Bhmr::new(n, me)
        }
    }

    /// Whether this instance runs the full `C1 ∨ C2` predicate (`true`) or
    /// the weakened `C2`-only variant (`false`).
    pub fn uses_c1(&self) -> bool {
        self.use_c1
    }

    /// The current transitive dependency vector `TDV_i`.
    pub fn tdv(&self) -> &DependencyVector {
        &self.tdv
    }

    /// The current `simple_i` vector.
    pub fn simple(&self) -> &BitRow {
        &self.simple
    }

    /// The current `causal_i` matrix.
    pub fn causal(&self) -> &BitMatrix {
        &self.causal
    }

    /// The current `sent_to_i` vector.
    pub fn sent_to(&self) -> &BitRow {
        &self.sent_to
    }

    /// Procedure `take_checkpoint` of Figure 6.
    fn take_checkpoint(&mut self, kind: CheckpointKind) -> CheckpointRecord {
        let index = self.tdv.current_interval();
        let record = CheckpointRecord {
            id: CheckpointId::new(self.me, index),
            kind,
            min_consistent_gc: Some(self.tdv.as_slice().to_vec()),
        };
        self.sent_to.fill(false);
        for j in ProcessId::all(self.n) {
            if j != self.me {
                self.simple.clear(j);
                self.causal.set_to(self.me, j, false);
            }
        }
        self.tdv.increment_owner();
        record
    }

    /// Predicate `C1`: to `P_i`'s knowledge there exists a non-causal
    /// message chain from some `P_k` to some `P_j`, without causal sibling
    /// and breakable by `P_i`.
    fn c1(&self, piggyback: &BhmrPiggyback) -> bool {
        // ∃j: sent_to[j] ∧ ∃k: (m.TDV[k] > TDV[k] ∧ ¬m.causal[k][j])
        let fresh: Vec<ProcessId> = self.tdv.new_dependencies(&piggyback.tdv).collect();
        if fresh.is_empty() {
            return false;
        }
        self.sent_to
            .ones()
            .any(|j| fresh.iter().any(|&k| !piggyback.causal.get(k, j)))
    }

    /// Predicate `C2`: to `P_i`'s knowledge there exists a non-causal
    /// message chain from some `C_{k,z}` to `C_{k,z-1}`, breakable only by
    /// `P_i`.
    fn c2(&self, piggyback: &BhmrPiggyback) -> bool {
        piggyback.tdv.get(self.me) == self.tdv.current_interval() && !piggyback.simple.get(self.me)
    }
}

impl CicProtocol for Bhmr {
    type Piggyback = BhmrPiggyback;

    fn name(&self) -> &'static str {
        if self.use_c1 {
            "bhmr"
        } else {
            "bhmr-c2only"
        }
    }

    fn process(&self) -> ProcessId {
        self.me
    }

    fn num_processes(&self) -> usize {
        self.n
    }

    fn next_checkpoint_index(&self) -> u32 {
        self.tdv.current_interval()
    }

    fn take_basic_checkpoint(&mut self) -> CheckpointRecord {
        self.stats.basic_checkpoints += 1;
        self.take_checkpoint(CheckpointKind::Basic)
    }

    fn before_send(&mut self, dest: ProcessId) -> SendOutcome<BhmrPiggyback> {
        // Statement S1 of Figure 6.
        self.sent_to.set(dest);
        let piggyback = BhmrPiggyback {
            tdv: self.tdv.clone(),
            simple: self.simple.clone(),
            causal: self.causal.clone(),
        };
        self.stats.messages_sent += 1;
        self.stats.piggyback_bytes_sent += piggyback.piggyback_bytes() as u64;
        SendOutcome {
            piggyback,
            forced_after: None,
        }
    }

    fn on_message_arrival(
        &mut self,
        sender: ProcessId,
        piggyback: &BhmrPiggyback,
    ) -> ArrivalOutcome {
        // Statement S2 of Figure 6.
        let forced = if (self.use_c1 && self.c1(piggyback)) || self.c2(piggyback) {
            self.stats.forced_checkpoints += 1;
            Some(self.take_checkpoint(CheckpointKind::Forced))
        } else {
            None
        };

        // Updating of control variables.
        for k in ProcessId::all(self.n) {
            match piggyback.tdv.get(k).cmp(&self.tdv.get(k)) {
                Ordering::Less => {}
                Ordering::Greater => {
                    self.tdv.set(k, piggyback.tdv.get(k));
                    self.simple.set_to(k, piggyback.simple.get(k));
                    self.causal.copy_row_from(k, &piggyback.causal, k);
                }
                Ordering::Equal => {
                    self.simple
                        .set_to(k, self.simple.get(k) && piggyback.simple.get(k));
                    self.causal.or_row_from(k, &piggyback.causal, k);
                }
            }
        }
        // The delivered message itself is an on-line trackable R-path from
        // the sender's current interval, and everything the sender tracked
        // now reaches us too (transitive closure through the sender).
        self.causal.set(sender, self.me);
        self.causal.or_column_into(sender, self.me);

        // The paper requires simple_i[i] to be permanently true; the update
        // rules preserve this automatically (see module tests).
        debug_assert!(self.simple.get(self.me), "simple_i[i] must stay true");

        self.stats.messages_delivered += 1;
        ArrivalOutcome { forced }
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_state_matches_s0() {
        let bhmr = Bhmr::new(3, p(1));
        assert_eq!(bhmr.tdv().as_slice(), &[0, 1, 0]);
        assert_eq!(bhmr.next_checkpoint_index(), 1);
        assert!(bhmr.simple().get(p(1)));
        assert!(!bhmr.simple().get(p(0)));
        assert!(bhmr.causal().get(p(0), p(0)));
        assert!(bhmr.causal().get(p(1), p(1)));
        assert!(!bhmr.causal().get(p(0), p(1)));
        assert!(!bhmr.sent_to().any());
    }

    #[test]
    fn basic_checkpoint_advances_interval_and_resets_knowledge() {
        let mut bhmr = Bhmr::new(2, p(0));
        bhmr.before_send(p(1));
        assert!(bhmr.sent_to().get(p(1)));
        let record = bhmr.take_basic_checkpoint();
        assert_eq!(record.id, CheckpointId::new(p(0), 1));
        assert_eq!(record.kind, CheckpointKind::Basic);
        assert_eq!(record.min_consistent_gc, Some(vec![1, 0]));
        assert_eq!(bhmr.next_checkpoint_index(), 2);
        assert!(!bhmr.sent_to().any());
        assert!(!bhmr.causal().get(p(0), p(1)));
        assert!(bhmr.simple().get(p(0)), "own entry stays true");
    }

    #[test]
    fn first_arrival_never_forces() {
        let mut sender = Bhmr::new(2, p(1));
        let mut receiver = Bhmr::new(2, p(0));
        let send = sender.before_send(p(0));
        let outcome = receiver.on_message_arrival(p(1), &send.piggyback);
        assert!(!outcome.was_forced());
        // Delivery merged the dependency and recorded trackability.
        assert_eq!(receiver.tdv().as_slice(), &[1, 1]);
        assert!(receiver.causal().get(p(1), p(0)));
    }

    #[test]
    fn c1_forces_on_breakable_chain_without_sibling() {
        // Figure 2's situation: P0 sent m' to P1 in its current interval;
        // then m arrives from P2 bringing a new dependency on P2's interval,
        // with no known causal sibling from P2 to P1.
        let mut p0 = Bhmr::new(3, p(0));
        let mut p1 = Bhmr::new(3, p(1));
        let mut p2 = Bhmr::new(3, p(2));

        let to_p1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &to_p1.piggyback);

        p2.take_basic_checkpoint(); // make P2's dependency fresh (interval 2)
        let m = p2.before_send(p(0));
        let outcome = p0.on_message_arrival(p(2), &m.piggyback);
        assert!(outcome.was_forced());
        let record = outcome.forced.unwrap();
        assert_eq!(record.kind, CheckpointKind::Forced);
        assert_eq!(record.id, CheckpointId::new(p(0), 1));
        // The forced checkpoint is taken BEFORE the delivery, so the new
        // dependency belongs to the next interval.
        assert_eq!(p0.tdv().as_slice(), &[2, 0, 2]);
    }

    #[test]
    fn c1_suppressed_by_known_causal_sibling() {
        // Same as above but the piggybacked causal matrix certifies a causal
        // sibling from P2's interval to P1's interval (Figure 3).
        let mut p0 = Bhmr::new(3, p(0));
        p0.before_send(p(1)); // sent_to[1]

        let mut tdv = DependencyVector::initial(3, p(2));
        tdv.increment_owner(); // interval 2: a new dependency for P0
        let mut causal = BitMatrix::identity(3);
        causal.set(p(2), p(1)); // causal sibling exists
        causal.set(p(2), p(0));
        let mut simple = BitRow::new(3);
        simple.set(p(2));
        let m = BhmrPiggyback {
            tdv,
            simple,
            causal,
        };

        let outcome = p0.on_message_arrival(p(2), &m);
        assert!(!outcome.was_forced());
    }

    #[test]
    fn no_send_in_interval_means_no_c1() {
        // Without a prior send there is nothing breakable by P0.
        let mut p0 = Bhmr::new(3, p(0));
        let mut p2 = Bhmr::new(3, p(2));
        p2.take_basic_checkpoint();
        let m = p2.before_send(p(0));
        assert!(!p0.on_message_arrival(p(2), &m.piggyback).was_forced());
    }

    #[test]
    fn c2_forces_on_non_simple_chain_back_to_self() {
        // P0 sends m1 to P1; P1 checkpoints (the chain back to P0 is now
        // non-simple); P1 sends m2 to P0. Delivering m2 in the same interval
        // where m1 was sent would create a non-causal chain from C_{1,?} to
        // the checkpoint preceding it, breakable only by P0 => C2.
        let mut p0 = Bhmr::new(2, p(0));
        let mut p1 = Bhmr::new(2, p(1));

        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        p1.take_basic_checkpoint();
        let m2 = p1.before_send(p(0));

        assert_eq!(m2.piggyback.tdv.get(p(0)), 1);
        assert!(
            !m2.piggyback.simple.get(p(0)),
            "chain includes a checkpoint"
        );

        let outcome = p0.on_message_arrival(p(1), &m2.piggyback);
        assert!(outcome.was_forced());
    }

    #[test]
    fn simple_chain_back_to_self_does_not_force() {
        // Same as above without P1's checkpoint: the chain is causal and
        // simple; no hidden dependency is possible.
        let mut p0 = Bhmr::new(2, p(0));
        let mut p1 = Bhmr::new(2, p(1));

        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        let m2 = p1.before_send(p(0));
        assert!(m2.piggyback.simple.get(p(0)));

        let outcome = p0.on_message_arrival(p(1), &m2.piggyback);
        assert!(!outcome.was_forced());
    }

    #[test]
    fn stats_track_all_events() {
        let mut a = Bhmr::new(2, p(0));
        let mut b = Bhmr::new(2, p(1));
        let m = a.before_send(p(1));
        b.on_message_arrival(p(0), &m.piggyback);
        a.take_basic_checkpoint();
        assert_eq!(a.stats().messages_sent, 1);
        assert_eq!(a.stats().basic_checkpoints, 1);
        assert_eq!(b.stats().messages_delivered, 1);
        assert!(a.stats().piggyback_bytes_sent > 0);
    }

    #[test]
    fn piggyback_size_accounts_all_three_structures() {
        let mut a = Bhmr::new(4, p(0));
        let m = a.before_send(p(1));
        // TDV: 4*4 = 16 bytes; simple: ceil(4/8) = 1; causal: ceil(16/8) = 2.
        assert_eq!(m.piggyback.piggyback_bytes(), 19);
    }

    #[test]
    fn min_gc_is_tdv_snapshot() {
        let mut a = Bhmr::new(3, p(0));
        let mut b = Bhmr::new(3, p(1));
        b.take_basic_checkpoint(); // P1 now in interval 2
        let m = b.before_send(p(0));
        a.on_message_arrival(p(1), &m.piggyback);
        let record = a.take_basic_checkpoint();
        // C_{0,1}'s minimum consistent GC: itself, C_{1,2}, C_{2,0}.
        assert_eq!(record.min_consistent_gc, Some(vec![1, 2, 0]));
    }

    #[test]
    fn forced_checkpoint_counted_once() {
        let mut p0 = Bhmr::new(2, p(0));
        let mut p1 = Bhmr::new(2, p(1));
        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        p1.take_basic_checkpoint();
        let m2 = p1.before_send(p(0));
        let outcome = p0.on_message_arrival(p(1), &m2.piggyback);
        assert!(outcome.was_forced());
        assert_eq!(p0.stats().forced_checkpoints, 1);
        assert_eq!(p0.stats().basic_checkpoints, 0);
    }
}
