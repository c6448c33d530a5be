//! Orphan messages, consistent pairs, and consistent global checkpoints
//! (§2.2).

use std::fmt;

use rdt_causality::{CheckpointId, ProcessId};

use crate::{Pattern, PatternMessageId};

/// A global checkpoint: one local checkpoint index per process.
///
/// Entry `i` is the index `x` of `C_{i,x}`; index 0 names the initial
/// checkpoint.
///
/// # Example
///
/// ```rust
/// use rdt_causality::{CheckpointId, ProcessId};
/// use rdt_rgraph::GlobalCheckpoint;
///
/// let gc = GlobalCheckpoint::new(vec![1, 1, 1]);
/// assert!(gc.contains(CheckpointId::new(ProcessId::new(2), 1)));
/// assert_eq!(gc.get(ProcessId::new(0)), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GlobalCheckpoint(Vec<u32>);

impl GlobalCheckpoint {
    /// Builds a global checkpoint from per-process indices.
    pub fn new(indices: Vec<u32>) -> Self {
        GlobalCheckpoint(indices)
    }

    /// The all-initial global checkpoint `{C_{0,0}, …, C_{n-1,0}}`.
    pub fn initial(n: usize) -> Self {
        GlobalCheckpoint(vec![0; n])
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether it covers zero processes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The checkpoint index of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn get(&self, process: ProcessId) -> u32 {
        self.0[process.index()]
    }

    /// Sets the checkpoint index of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn set(&mut self, process: ProcessId, index: u32) {
        self.0[process.index()] = index;
    }

    /// Whether the global checkpoint contains the given local checkpoint.
    pub fn contains(&self, checkpoint: CheckpointId) -> bool {
        self.0.get(checkpoint.process.index()) == Some(&checkpoint.index)
    }

    /// Iterates over the member checkpoints.
    pub fn members(&self) -> impl Iterator<Item = CheckpointId> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &x)| CheckpointId::new(ProcessId::new(i), x))
    }

    /// The per-process indices as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    /// Component-wise `≤` (the natural "earlier than" order on global
    /// checkpoints).
    pub fn le(&self, other: &GlobalCheckpoint) -> bool {
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Component-wise minimum — the *meet* of the lattice of global
    /// checkpoints. The set of **consistent** global checkpoints is closed
    /// under meet (see [`is_consistent`] and the tests): recovery theory
    /// relies on this to make "the latest consistent line" well-defined.
    ///
    /// # Panics
    ///
    /// Panics if the two global checkpoints have different arities.
    pub fn meet(&self, other: &GlobalCheckpoint) -> GlobalCheckpoint {
        assert_eq!(self.0.len(), other.0.len(), "arity mismatch");
        GlobalCheckpoint(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.min(b))
                .collect(),
        )
    }

    /// Component-wise maximum — the *join* of the lattice. Consistent
    /// global checkpoints are closed under join as well, which is what
    /// makes minimum/maximum consistent global checkpoints containing a
    /// set unique when they exist.
    ///
    /// # Panics
    ///
    /// Panics if the two global checkpoints have different arities.
    pub fn join(&self, other: &GlobalCheckpoint) -> GlobalCheckpoint {
        assert_eq!(self.0.len(), other.0.len(), "arity mismatch");
        GlobalCheckpoint(
            self.0
                .iter()
                .zip(&other.0)
                .map(|(a, b)| *a.max(b))
                .collect(),
        )
    }
}

impl fmt::Display for GlobalCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.members().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// Whether `message` is **orphan** with respect to the ordered pair
/// `(on_sender, on_receiver)` of local checkpoints: its delivery belongs to
/// `on_receiver` while its send does not belong to `on_sender` (§2.2).
///
/// Returns `false` when the message connects other processes than the
/// pair's, or is still in transit.
///
/// # Panics
///
/// Panics if the message id is out of range.
pub fn is_orphan(
    pattern: &Pattern,
    message: PatternMessageId,
    on_sender: CheckpointId,
    on_receiver: CheckpointId,
) -> bool {
    let info = pattern.message(message);
    if info.from != on_sender.process || info.to != on_receiver.process {
        return false;
    }
    let Some(deliver) = pattern.deliver_interval(message) else {
        return false;
    };
    let send = pattern.send_interval(message);
    deliver.index <= on_receiver.index && send.index > on_sender.index
}

/// Whether the ordered pair of local checkpoints is consistent: no message
/// from `a.process` to `b.process` is orphan with respect to `(a, b)`.
pub fn pair_consistent(pattern: &Pattern, a: CheckpointId, b: CheckpointId) -> bool {
    (0..pattern.num_messages()).all(|m| !is_orphan(pattern, PatternMessageId(m), a, b))
}

/// Whether a global checkpoint is consistent (Definition 2.2): all its
/// ordered pairs are consistent, i.e. no message is orphan with respect to
/// any pair of its members.
///
/// # Panics
///
/// Panics if `gc` does not have one entry per process of `pattern`.
pub fn is_consistent(pattern: &Pattern, gc: &GlobalCheckpoint) -> bool {
    assert_eq!(
        gc.len(),
        pattern.num_processes(),
        "global checkpoint has wrong arity"
    );
    pattern.messages().iter().enumerate().all(|(idx, info)| {
        let m = PatternMessageId(idx);
        let Some(deliver) = pattern.deliver_interval(m) else {
            return true; // in-transit messages are never orphan
        };
        let send = pattern.send_interval(m);
        // Orphan iff delivery included but send not included.
        !(deliver.index <= gc.get(info.to) && send.index > gc.get(info.from))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;

    #[test]
    fn figure_1_consistent_pair_facts() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let ck1 = CheckpointId::new(f.pk, 1);
        let cj1 = CheckpointId::new(f.pj, 1);
        let ci2 = CheckpointId::new(f.pi, 2);
        let cj2 = CheckpointId::new(f.pj, 2);
        // "(C_{k,1}, C_{j,1}) is consistent"
        assert!(pair_consistent(&pattern, ck1, cj1));
        assert!(pair_consistent(&pattern, cj1, ck1));
        // "(C_{i,2}, C_{j,2}) is inconsistent (because of orphan m5)"
        assert!(!pair_consistent(&pattern, ci2, cj2));
        assert!(is_orphan(&pattern, f.m5, ci2, cj2));
    }

    #[test]
    fn figure_1_global_checkpoint_facts() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        // {C_{i,1}, C_{j,1}, C_{k,1}} is consistent.
        assert!(is_consistent(
            &pattern,
            &GlobalCheckpoint::new(vec![1, 1, 1])
        ));
        // {C_{i,2}, C_{j,2}, C_{k,1}} is not.
        assert!(!is_consistent(
            &pattern,
            &GlobalCheckpoint::new(vec![2, 2, 1])
        ));
    }

    #[test]
    fn initial_global_checkpoint_is_always_consistent() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        assert!(is_consistent(&pattern, &GlobalCheckpoint::initial(3)));
    }

    #[test]
    fn orphan_requires_matching_processes() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        // m5 goes P_i -> P_j; querying it against a (P_k, P_j) pair is not
        // an orphan regardless of indices.
        let ck0 = CheckpointId::new(f.pk, 0);
        let cj2 = CheckpointId::new(f.pj, 2);
        assert!(!is_orphan(&pattern, f.m5, ck0, cj2));
    }

    #[test]
    fn in_transit_message_never_orphan() {
        use crate::PatternBuilder;
        let p0 = ProcessId::new(0);
        let p1 = ProcessId::new(1);
        let mut b = PatternBuilder::new(2);
        let m = b.send(p0, p1);
        b.checkpoint(p0);
        let pattern = b.build().unwrap();
        assert!(!is_orphan(
            &pattern,
            m,
            CheckpointId::new(p0, 0),
            CheckpointId::new(p1, 0)
        ));
        assert!(is_consistent(&pattern, &GlobalCheckpoint::new(vec![0, 0])));
    }

    #[test]
    fn consistent_global_checkpoints_form_a_lattice() {
        // Classic result: consistency is closed under component-wise min
        // and max. Enumerate all consistent GCs of figure 1 and check
        // closure exhaustively.
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let mut consistent = Vec::new();
        for a in 0..=3u32 {
            for b in 0..=3u32 {
                for c in 0..=3u32 {
                    let gc = GlobalCheckpoint::new(vec![a, b, c]);
                    if is_consistent(&pattern, &gc) {
                        consistent.push(gc);
                    }
                }
            }
        }
        assert!(consistent.len() > 4, "figure 1 has several consistent GCs");
        for x in &consistent {
            for y in &consistent {
                assert!(is_consistent(&pattern, &x.meet(y)), "meet of {x} and {y}");
                assert!(is_consistent(&pattern, &x.join(y)), "join of {x} and {y}");
            }
        }
    }

    #[test]
    fn meet_join_are_pointwise() {
        let a = GlobalCheckpoint::new(vec![1, 4, 2]);
        let b = GlobalCheckpoint::new(vec![3, 0, 2]);
        assert_eq!(a.meet(&b).as_slice(), &[1, 0, 2]);
        assert_eq!(a.join(&b).as_slice(), &[3, 4, 2]);
        assert!(a.meet(&b).le(&a) && a.meet(&b).le(&b));
        assert!(a.le(&a.join(&b)) && b.le(&a.join(&b)));
    }

    #[test]
    fn global_checkpoint_accessors() {
        let mut gc = GlobalCheckpoint::initial(2);
        gc.set(ProcessId::new(1), 3);
        assert_eq!(gc.get(ProcessId::new(1)), 3);
        assert_eq!(gc.as_slice(), &[0, 3]);
        assert!(GlobalCheckpoint::initial(2).le(&gc));
        assert!(!gc.le(&GlobalCheckpoint::initial(2)));
        assert_eq!(gc.to_string(), "{C(0,0), C(1,3)}");
        let members: Vec<_> = gc.members().collect();
        assert_eq!(members.len(), 2);
    }
}
