//! Strongly typed identifiers for processes, checkpoints and intervals.

use std::fmt;

/// Identifier of a process `P_i` of the distributed computation.
///
/// Processes are numbered `0..n`. The newtype prevents accidentally mixing a
/// process index with a checkpoint index (both are small integers).
///
/// # Example
///
/// ```rust
/// use rdt_causality::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process identifier from its zero-based index.
    pub fn new(index: usize) -> Self {
        ProcessId(index)
    }

    /// Returns the zero-based index of the process.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterates over all process identifiers of an `n`-process system.
    ///
    /// ```rust
    /// use rdt_causality::ProcessId;
    /// let ids: Vec<_> = ProcessId::all(3).collect();
    /// assert_eq!(ids.len(), 3);
    /// assert_eq!(ids[2], ProcessId::new(2));
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = ProcessId> + Clone {
        (0..n).map(ProcessId)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

/// A process indexes [`BitRow`](crate::BitRow) and [`BitMatrix`](crate::BitMatrix) directly.
impl From<ProcessId> for usize {
    #[inline]
    fn from(process: ProcessId) -> usize {
        process.0
    }
}

/// Identifier of the local checkpoint `C_{i,x}`: the `x`-th checkpoint taken
/// by process `P_i`.
///
/// Index `0` is the initial checkpoint every process takes at its initial
/// state (paper, §2.2).
///
/// # Example
///
/// ```rust
/// use rdt_causality::{CheckpointId, ProcessId};
///
/// let c = CheckpointId::new(ProcessId::new(1), 2);
/// assert_eq!(c.to_string(), "C(1,2)");
/// assert_eq!(c.prev(), Some(CheckpointId::new(ProcessId::new(1), 1)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CheckpointId {
    /// Process the checkpoint belongs to.
    pub process: ProcessId,
    /// Index of the checkpoint on its process (0 = initial checkpoint).
    pub index: u32,
}

impl CheckpointId {
    /// Creates the identifier of checkpoint `C_{process,index}`.
    pub fn new(process: ProcessId, index: u32) -> Self {
        CheckpointId { process, index }
    }

    /// The initial checkpoint `C_{i,0}` of `process`.
    pub fn initial(process: ProcessId) -> Self {
        CheckpointId { process, index: 0 }
    }

    /// The next checkpoint of the same process, `C_{i,x+1}`.
    pub fn next(self) -> Self {
        CheckpointId {
            process: self.process,
            index: self.index + 1,
        }
    }

    /// The previous checkpoint of the same process, or `None` for the
    /// initial checkpoint.
    pub fn prev(self) -> Option<Self> {
        self.index.checked_sub(1).map(|index| CheckpointId {
            process: self.process,
            index,
        })
    }
}

impl fmt::Display for CheckpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C({},{})", self.process.index(), self.index)
    }
}

/// Identifier of the checkpoint interval `I_{i,x}`: the sequence of events
/// occurring at `P_i` between `C_{i,x-1}` and `C_{i,x}` (paper, §3.1).
///
/// Interval indices start at 1: `I_{i,1}` is the interval opened by the
/// initial checkpoint `C_{i,0}`. The index of a process's *current* interval
/// always equals the index of its *next* checkpoint, which is why the paper
/// stores it directly in `TDV_i[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct IntervalId {
    /// Process the interval belongs to.
    pub process: ProcessId,
    /// One-based index of the interval.
    pub index: u32,
}

impl IntervalId {
    /// Creates the identifier of interval `I_{process,index}`.
    ///
    /// # Panics
    ///
    /// Panics if `index == 0`; interval indices are one-based.
    pub fn new(process: ProcessId, index: u32) -> Self {
        assert!(index > 0, "interval indices are one-based");
        IntervalId { process, index }
    }
}

impl fmt::Display for IntervalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "I({},{})", self.process.index(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_roundtrip() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(ProcessId::from(7), p);
        assert_eq!(format!("{p}"), "P7");
    }

    #[test]
    fn process_id_all_enumerates_in_order() {
        let ids: Vec<_> = ProcessId::all(4).collect();
        assert_eq!(
            ids,
            vec![
                ProcessId::new(0),
                ProcessId::new(1),
                ProcessId::new(2),
                ProcessId::new(3)
            ]
        );
    }

    #[test]
    fn checkpoint_navigation() {
        let p = ProcessId::new(2);
        let c0 = CheckpointId::initial(p);
        assert_eq!(c0.index, 0);
        assert_eq!(c0.prev(), None);
        let c1 = c0.next();
        assert_eq!(c1.index, 1);
        assert_eq!(c1.prev(), Some(c0));
    }

    #[test]
    #[should_panic(expected = "one-based")]
    fn interval_index_zero_rejected() {
        let _ = IntervalId::new(ProcessId::new(0), 0);
    }

    #[test]
    fn display_formats() {
        let c = CheckpointId::new(ProcessId::new(1), 3);
        assert_eq!(c.to_string(), "C(1,3)");
        let i = IntervalId::new(ProcessId::new(1), 3);
        assert_eq!(i.to_string(), "I(1,3)");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = CheckpointId::new(ProcessId::new(0), 5);
        let b = CheckpointId::new(ProcessId::new(1), 0);
        assert!(a < b);
        let c = CheckpointId::new(ProcessId::new(0), 6);
        assert!(a < c);
    }
}
