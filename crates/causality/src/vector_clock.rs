//! Fidge/Mattern vector clocks.

use std::cmp::Ordering;
use std::fmt;

use crate::ProcessId;

/// Result of comparing two vector clocks under the happened-before order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockOrdering {
    /// The two clocks are component-wise equal.
    Equal,
    /// The left clock happened before the right one.
    Before,
    /// The left clock happened after the right one.
    After,
    /// Neither clock happened before the other.
    Concurrent,
}

/// A vector clock timestamping events of an `n`-process computation.
///
/// `VectorClock` decides Lamport's happened-before relation: event `e`
/// happened before event `f` iff `clock(e) < clock(f)` component-wise (with
/// at least one strict inequality).
///
/// # Example
///
/// ```rust
/// use rdt_causality::{ClockOrdering, ProcessId, VectorClock};
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// let mut a = VectorClock::new(2);
/// let mut b = VectorClock::new(2);
/// a.tick(p0); // P0 executes an event
/// b.tick(p1); // P1 executes a concurrent event
/// assert_eq!(a.compare(&b), ClockOrdering::Concurrent);
/// b.merge_max(&a); // P1 receives a message from P0
/// b.tick(p1);
/// assert_eq!(a.compare(&b), ClockOrdering::Before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// Creates the zero clock for an `n`-process system.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Builds a clock from explicit entries.
    pub fn from_entries(entries: Vec<u64>) -> Self {
        VectorClock { entries }
    }

    /// Number of processes this clock covers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the clock covers zero processes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the component of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn get(&self, process: ProcessId) -> u64 {
        self.entries[process.index()]
    }

    /// Sets the component of `process`.
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn set(&mut self, process: ProcessId, value: u64) {
        self.entries[process.index()] = value;
    }

    /// Increments the component of `process` (a local event occurred).
    ///
    /// # Panics
    ///
    /// Panics if `process` is out of range.
    pub fn tick(&mut self, process: ProcessId) {
        self.entries[process.index()] += 1;
    }

    /// Component-wise maximum with `other` (message delivery rule).
    ///
    /// # Panics
    ///
    /// Panics if the two clocks have different lengths.
    pub fn merge_max(&mut self, other: &VectorClock) {
        assert_eq!(
            self.len(),
            other.len(),
            "vector clocks must have the same dimension"
        );
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            *mine = (*mine).max(*theirs);
        }
    }

    /// Compares the two clocks under happened-before.
    ///
    /// # Panics
    ///
    /// Panics if the two clocks have different lengths.
    pub fn compare(&self, other: &VectorClock) -> ClockOrdering {
        assert_eq!(
            self.len(),
            other.len(),
            "vector clocks must have the same dimension"
        );
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.entries.iter().zip(&other.entries) {
            match a.cmp(b) {
                Ordering::Less => less = true,
                Ordering::Greater => greater = true,
                Ordering::Equal => {}
            }
        }
        match (less, greater) {
            (false, false) => ClockOrdering::Equal,
            (true, false) => ClockOrdering::Before,
            (false, true) => ClockOrdering::After,
            (true, true) => ClockOrdering::Concurrent,
        }
    }

    /// Returns `true` if `self` happened before `other` (strictly).
    pub fn happened_before(&self, other: &VectorClock) -> bool {
        self.compare(other) == ClockOrdering::Before
    }

    /// Iterates over `(process, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, &v)| (ProcessId::new(i), v))
    }

    /// Returns the entries as a slice.
    pub fn as_slice(&self) -> &[u64] {
        &self.entries
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn zero_clocks_are_equal() {
        let a = VectorClock::new(3);
        let b = VectorClock::new(3);
        assert_eq!(a.compare(&b), ClockOrdering::Equal);
    }

    #[test]
    fn tick_makes_strictly_after() {
        let a = VectorClock::new(2);
        let mut b = a.clone();
        b.tick(p(0));
        assert_eq!(a.compare(&b), ClockOrdering::Before);
        assert_eq!(b.compare(&a), ClockOrdering::After);
        assert!(a.happened_before(&b));
        assert!(!b.happened_before(&a));
    }

    #[test]
    fn independent_ticks_are_concurrent() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        a.tick(p(0));
        b.tick(p(1));
        assert_eq!(a.compare(&b), ClockOrdering::Concurrent);
        assert_eq!(b.compare(&a), ClockOrdering::Concurrent);
    }

    #[test]
    fn merge_max_takes_componentwise_maximum() {
        let mut a = VectorClock::from_entries(vec![3, 0, 5]);
        let b = VectorClock::from_entries(vec![1, 4, 5]);
        a.merge_max(&b);
        assert_eq!(a.as_slice(), &[3, 4, 5]);
    }

    #[test]
    fn message_transfer_establishes_happened_before() {
        // P0: e1 ; send(m)       P1: deliver(m) ; e2
        let mut sender = VectorClock::new(2);
        sender.tick(p(0)); // e1
        sender.tick(p(0)); // send(m)
        let piggyback = sender.clone();

        let mut receiver = VectorClock::new(2);
        receiver.tick(p(1)); // an earlier local event
        receiver.merge_max(&piggyback);
        receiver.tick(p(1)); // deliver(m)

        assert!(sender.happened_before(&receiver));
    }

    #[test]
    fn display_is_compact() {
        let a = VectorClock::from_entries(vec![1, 2, 3]);
        assert_eq!(a.to_string(), "[1,2,3]");
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn dimension_mismatch_panics() {
        let a = VectorClock::new(2);
        let b = VectorClock::new(3);
        let _ = a.compare(&b);
    }

    #[test]
    fn iter_yields_process_ids() {
        let a = VectorClock::from_entries(vec![7, 9]);
        let collected: Vec<_> = a.iter().collect();
        assert_eq!(collected, vec![(p(0), 7), (p(1), 9)]);
    }
}
