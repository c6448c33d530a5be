//! The two weaker variants of the BHMR protocol (§5.1 of the paper).
//!
//! Both drop the `simple` vector from the piggyback; the second also drops
//! predicate `C2` entirely, at the price of keeping the `causal` diagonal
//! permanently `false`. Both still ensure RDT, with less piggybacked
//! information but potentially more forced checkpoints:
//!
//! ```text
//! C1 ∨ C2  ⇒  C1 ∨ C2'  ⇒  C_FDAS          (fewer ⇒ more forced checkpoints)
//! ```

use std::cmp::Ordering;

use rdt_causality::{BitMatrix, BitRow, CheckpointId, DependencyVector, ProcessId};

use crate::{
    ArrivalOutcome, CheckpointKind, CheckpointRecord, CicProtocol, PiggybackSize, ProtocolStats,
    SendOutcome,
};

/// Piggyback of [`BhmrNoSimple`]: `TDV` and the `causal` matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoSimplePiggyback {
    /// The sender's transitive dependency vector at send time.
    pub tdv: DependencyVector,
    /// The sender's `causal` matrix at send time.
    pub causal: BitMatrix,
}

impl PiggybackSize for NoSimplePiggyback {
    fn piggyback_bytes(&self) -> usize {
        self.tdv.piggyback_bytes() + self.causal.piggyback_bytes()
    }
}

/// Piggyback of [`BhmrCausalOnly`]: identical content to
/// [`NoSimplePiggyback`] but with the *false-diagonal* convention on the
/// matrix; a distinct type keeps the two protocols from being mixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalOnlyPiggyback {
    /// The sender's transitive dependency vector at send time.
    pub tdv: DependencyVector,
    /// The sender's `causal` matrix at send time (diagonal permanently
    /// `false`).
    pub causal: BitMatrix,
}

impl PiggybackSize for CausalOnlyPiggyback {
    fn piggyback_bytes(&self) -> usize {
        self.tdv.piggyback_bytes() + self.causal.piggyback_bytes()
    }
}

/// First variant of §5.1 (suggested by Y. M. Wang): the `simple` array is
/// omitted and `C2` is replaced by
///
/// ```text
/// C2': m.TDV[i] = TDV[i] ∧ ∃k: m.TDV[k] > TDV[k]
/// ```
///
/// Since `C2 ⇒ C2'`, the variant still breaks every non-causal chain back
/// to the same process and therefore ensures RDT, with `n` fewer
/// piggybacked bits per message but potentially more forced checkpoints.
#[derive(Debug, Clone)]
pub struct BhmrNoSimple {
    me: ProcessId,
    n: usize,
    tdv: DependencyVector,
    sent_to: BitRow,
    causal: BitMatrix,
    stats: ProtocolStats,
}

impl BhmrNoSimple {
    /// Creates `P_me`'s state for an `n`-process computation and takes the
    /// initial checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `n` processes.
    pub fn new(n: usize, me: ProcessId) -> Self {
        assert!(
            me.index() < n,
            "process {me} out of range for {n} processes"
        );
        BhmrNoSimple {
            me,
            n,
            tdv: DependencyVector::initial(n, me),
            sent_to: BitRow::new(n),
            causal: BitMatrix::identity(n),
            stats: ProtocolStats::default(),
        }
    }

    /// The current transitive dependency vector.
    pub fn tdv(&self) -> &DependencyVector {
        &self.tdv
    }

    /// The current `sent_to` vector (exposed for the certifier's
    /// independent predicate-conformance oracle).
    pub fn sent_to(&self) -> &BitRow {
        &self.sent_to
    }

    /// The current `causal` matrix (exposed for the certifier's
    /// independent predicate-conformance oracle).
    pub fn causal(&self) -> &BitMatrix {
        &self.causal
    }

    fn take_checkpoint(&mut self, kind: CheckpointKind) -> CheckpointRecord {
        let record = CheckpointRecord {
            id: CheckpointId::new(self.me, self.tdv.current_interval()),
            kind,
            min_consistent_gc: Some(self.tdv.as_slice().to_vec()),
        };
        self.sent_to.fill(false);
        for j in ProcessId::all(self.n) {
            if j != self.me {
                self.causal.set_to(self.me, j, false);
            }
        }
        self.tdv.increment_owner();
        record
    }
}

impl CicProtocol for BhmrNoSimple {
    type Piggyback = NoSimplePiggyback;

    fn name(&self) -> &'static str {
        "bhmr-nosimple"
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

    fn before_send(&mut self, dest: ProcessId) -> SendOutcome<NoSimplePiggyback> {
        self.sent_to.set(dest);
        let piggyback = NoSimplePiggyback {
            tdv: self.tdv.clone(),
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
        piggyback: &NoSimplePiggyback,
    ) -> ArrivalOutcome {
        let fresh: Vec<ProcessId> = self.tdv.new_dependencies(&piggyback.tdv).collect();
        let c1 = !fresh.is_empty()
            && self
                .sent_to
                .ones()
                .any(|j| fresh.iter().any(|&k| !piggyback.causal.get(k, j)));
        let c2_prime =
            piggyback.tdv.get(self.me) == self.tdv.current_interval() && !fresh.is_empty();

        let forced = if c1 || c2_prime {
            self.stats.forced_checkpoints += 1;
            Some(self.take_checkpoint(CheckpointKind::Forced))
        } else {
            None
        };

        for k in ProcessId::all(self.n) {
            match piggyback.tdv.get(k).cmp(&self.tdv.get(k)) {
                Ordering::Less => {}
                Ordering::Greater => {
                    self.tdv.set(k, piggyback.tdv.get(k));
                    self.causal.copy_row_from(k, &piggyback.causal, k);
                }
                Ordering::Equal => {
                    self.causal.or_row_from(k, &piggyback.causal, k);
                }
            }
        }
        self.causal.set(sender, self.me);
        self.causal.or_column_into(sender, self.me);

        self.stats.messages_delivered += 1;
        ArrivalOutcome { forced }
    }

    fn stats(&self) -> &ProtocolStats {
        &self.stats
    }
}

/// Second variant of §5.1: predicate `C2` is replaced by the constant
/// `false` and the diagonal entries of the `causal` matrices are maintained
/// permanently `false`.
///
/// With a false diagonal, a message bringing a new dependency on `P_k`
/// while the receiver has sent to `P_k` itself makes `C1` true through the
/// pair `(k, k)` — which is exactly how same-process non-causal chains get
/// broken without `C2` (§5.1 sketches the induction).
#[derive(Debug, Clone)]
pub struct BhmrCausalOnly {
    me: ProcessId,
    n: usize,
    tdv: DependencyVector,
    sent_to: BitRow,
    causal: BitMatrix,
    stats: ProtocolStats,
}

impl BhmrCausalOnly {
    /// Creates `P_me`'s state for an `n`-process computation and takes the
    /// initial checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for `n` processes.
    pub fn new(n: usize, me: ProcessId) -> Self {
        assert!(
            me.index() < n,
            "process {me} out of range for {n} processes"
        );
        BhmrCausalOnly {
            me,
            n,
            tdv: DependencyVector::initial(n, me),
            sent_to: BitRow::new(n),
            causal: BitMatrix::new(n, n), // all false, including the diagonal
            stats: ProtocolStats::default(),
        }
    }

    /// The current transitive dependency vector.
    pub fn tdv(&self) -> &DependencyVector {
        &self.tdv
    }

    /// The current `sent_to` vector (exposed for the certifier's
    /// independent predicate-conformance oracle).
    pub fn sent_to(&self) -> &BitRow {
        &self.sent_to
    }

    /// The current `causal` matrix, diagonal permanently false (exposed
    /// for the certifier's independent predicate-conformance oracle).
    pub fn causal(&self) -> &BitMatrix {
        &self.causal
    }

    fn take_checkpoint(&mut self, kind: CheckpointKind) -> CheckpointRecord {
        let record = CheckpointRecord {
            id: CheckpointId::new(self.me, self.tdv.current_interval()),
            kind,
            min_consistent_gc: Some(self.tdv.as_slice().to_vec()),
        };
        self.sent_to.fill(false);
        self.causal.clear_row(self.me);
        self.tdv.increment_owner();
        record
    }

    fn clear_diagonal(&mut self) {
        for k in ProcessId::all(self.n) {
            self.causal.set_to(k, k, false);
        }
    }
}

impl CicProtocol for BhmrCausalOnly {
    type Piggyback = CausalOnlyPiggyback;

    fn name(&self) -> &'static str {
        "bhmr-causalonly"
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

    fn before_send(&mut self, dest: ProcessId) -> SendOutcome<CausalOnlyPiggyback> {
        self.sent_to.set(dest);
        let piggyback = CausalOnlyPiggyback {
            tdv: self.tdv.clone(),
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
        piggyback: &CausalOnlyPiggyback,
    ) -> ArrivalOutcome {
        let fresh: Vec<ProcessId> = self.tdv.new_dependencies(&piggyback.tdv).collect();
        let c1 = !fresh.is_empty()
            && self
                .sent_to
                .ones()
                .any(|j| fresh.iter().any(|&k| !piggyback.causal.get(k, j)));

        let forced = if c1 {
            self.stats.forced_checkpoints += 1;
            Some(self.take_checkpoint(CheckpointKind::Forced))
        } else {
            None
        };

        for k in ProcessId::all(self.n) {
            match piggyback.tdv.get(k).cmp(&self.tdv.get(k)) {
                Ordering::Less => {}
                Ordering::Greater => {
                    self.tdv.set(k, piggyback.tdv.get(k));
                    self.causal.copy_row_from(k, &piggyback.causal, k);
                }
                Ordering::Equal => {
                    self.causal.or_row_from(k, &piggyback.causal, k);
                }
            }
        }
        self.causal.set(sender, self.me);
        self.causal.or_column_into(sender, self.me);
        // Maintain the variant's invariant: diagonal permanently false.
        self.clear_diagonal();

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
    fn nosimple_initial_state() {
        let v = BhmrNoSimple::new(3, p(0));
        assert_eq!(v.tdv().as_slice(), &[1, 0, 0]);
        assert_eq!(v.next_checkpoint_index(), 1);
    }

    #[test]
    fn nosimple_c2_prime_fires_on_new_dep_returning_chain() {
        // P0 sends m1 to P1; P1 checkpoints; P1 sends m2 back. m2 carries
        // m.TDV[0] == TDV_0[0] (chain back to self) and a new dependency on
        // P1 => C2'.
        let mut p0 = BhmrNoSimple::new(2, p(0));
        let mut p1 = BhmrNoSimple::new(2, p(1));
        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        p1.take_basic_checkpoint();
        let m2 = p1.before_send(p(0));
        assert!(p0.on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn nosimple_is_more_conservative_than_full_bhmr_on_simple_chain() {
        // Without a checkpoint at P1 the chain back to P0 is simple. Full
        // BHMR does not force (its `simple` vector proves innocence); the
        // variant cannot tell and forces anyway via C2'.
        let mut p0 = BhmrNoSimple::new(2, p(0));
        let mut p1 = BhmrNoSimple::new(2, p(1));
        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        let m2 = p1.before_send(p(0));
        // m2.tdv = [1, 1]: new dep on P1 and m.TDV[0] == TDV_0[0] == 1.
        assert!(p0.on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn causalonly_diagonal_stays_false() {
        let mut p0 = BhmrCausalOnly::new(2, p(0));
        let mut p1 = BhmrCausalOnly::new(2, p(1));
        let m1 = p1.before_send(p(0));
        p0.on_message_arrival(p(1), &m1.piggyback);
        for k in 0..2 {
            assert!(!p0.causal.get(p(k), p(k)));
        }
        // Off-diagonal trackability is still recorded.
        assert!(p0.causal.get(p(1), p(0)));
    }

    #[test]
    fn causalonly_breaks_same_process_chain_via_c1() {
        // P0 sends m1 to P1 (sent_to[1] true); P1 checkpoints and sends m2
        // back. m2 brings a new dependency on P1 and m.causal[1][1] is
        // false by construction => C1 fires through the pair (k=1, j=1).
        let mut p0 = BhmrCausalOnly::new(2, p(0));
        let mut p1 = BhmrCausalOnly::new(2, p(1));
        let m1 = p0.before_send(p(1));
        p1.on_message_arrival(p(0), &m1.piggyback);
        p1.take_basic_checkpoint();
        let m2 = p1.before_send(p(0));
        assert!(p0.on_message_arrival(p(1), &m2.piggyback).was_forced());
    }

    #[test]
    fn causalonly_no_send_no_force() {
        let mut p0 = BhmrCausalOnly::new(2, p(0));
        let mut p1 = BhmrCausalOnly::new(2, p(1));
        p1.take_basic_checkpoint();
        let m = p1.before_send(p(0));
        assert!(!p0.on_message_arrival(p(1), &m.piggyback).was_forced());
    }

    #[test]
    fn piggyback_sizes_form_the_documented_lattice() {
        use crate::{Bhmr, Fdas};
        let n = 8;
        let full = Bhmr::new(n, p(0))
            .before_send(p(1))
            .piggyback
            .piggyback_bytes();
        let nosimple = BhmrNoSimple::new(n, p(0))
            .before_send(p(1))
            .piggyback
            .piggyback_bytes();
        let causalonly = BhmrCausalOnly::new(n, p(0))
            .before_send(p(1))
            .piggyback
            .piggyback_bytes();
        let fdas = Fdas::new(n, p(0))
            .before_send(p(1))
            .piggyback
            .piggyback_bytes();
        assert!(full > nosimple);
        assert_eq!(nosimple, causalonly);
        assert!(causalonly > fdas);
    }

    #[test]
    fn min_gc_snapshot_present() {
        let mut v = BhmrNoSimple::new(2, p(0));
        let r = v.take_basic_checkpoint();
        assert_eq!(r.min_consistent_gc, Some(vec![1, 0]));
        let mut w = BhmrCausalOnly::new(2, p(0));
        let r = w.take_basic_checkpoint();
        assert_eq!(r.min_consistent_gc, Some(vec![1, 0]));
    }
}
