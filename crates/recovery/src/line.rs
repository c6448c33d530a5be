//! Recovery lines and rollback analysis.
//!
//! # Indexing convention (audited against `rgraph::pattern`)
//!
//! Checkpoint indices and interval indices interleave as
//! `C_0 < I_1 < C_1 < I_2 < …`: interval `k` is the open stretch of events
//! *between* checkpoints `k-1` and `k`, so `Pattern::interval_of` is
//! **1-based** — a delivery can never sit in an "interval 0" (there is no
//! execution before the initial checkpoint `C_0`). The orphan-descent step
//! of [`recovery_line_naive`] and of the descent [`try_recovery_line`]
//! hands to `rdt-rgraph` (`line[q] = deliver - 1`) therefore bottoms out at
//! the initial checkpoint `0` and cannot underflow on a valid [`Pattern`].
//! What *could* abort a long sweep is a [`Failure`] naming an out-of-range
//! process; the fallible entry points ([`try_recovery_line`],
//! [`try_lost_messages`], [`try_analyze`]) report that as a
//! [`RecoveryError`] instead of panicking.

use std::fmt;

use rdt_causality::ProcessId;
use rdt_rgraph::{consistency, min_max, GlobalCheckpoint, Pattern, PatternMessageId};

/// A failure: the process loses its volatile state and can resume from any
/// checkpoint with index `≤ resume_cap` (its stable checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failure {
    /// The failed process.
    pub process: ProcessId,
    /// Highest checkpoint index the process can restart from.
    pub resume_cap: u32,
}

impl Failure {
    /// A failure of `process` right after its last recorded checkpoint —
    /// the most favourable case (nothing of its checkpointed history is
    /// lost).
    pub fn at_last_checkpoint(pattern: &Pattern, process: ProcessId) -> Self {
        Failure {
            process,
            resume_cap: pattern.last_checkpoint_index(process),
        }
    }
}

/// A malformed rollback request, reported instead of panicking so one bad
/// failure spec cannot abort a long sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryError {
    /// A [`Failure`] named a process the pattern does not have.
    ProcessOutOfRange {
        /// The offending process index.
        process: usize,
        /// How many processes the pattern has.
        num_processes: usize,
    },
    /// A global checkpoint's width does not match the pattern.
    LineWidthMismatch {
        /// Number of entries in the supplied line.
        line: usize,
        /// How many processes the pattern has.
        num_processes: usize,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RecoveryError::ProcessOutOfRange {
                process,
                num_processes,
            } => write!(
                f,
                "failure names process {process} but the pattern has {num_processes} processes"
            ),
            RecoveryError::LineWidthMismatch {
                line,
                num_processes,
            } => write!(
                f,
                "global checkpoint has {line} entries but the pattern has {num_processes} processes"
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Computes the **recovery line**: the componentwise-latest consistent
/// global checkpoint in which every failed process is at or below its
/// resume cap.
///
/// Greatest fixpoint of the orphan constraints, driven downward: start
/// from the last checkpoints (capped at the failures) and, while some
/// message would be delivered inside the line but sent outside it, move
/// the receiver below the delivery. The all-initial global checkpoint is
/// always consistent, so the line always exists; the *domino effect* is
/// precisely this fixpoint descending far below the failure (possibly all
/// the way to the initial states).
///
/// The failures become caps (the lowest one wins where a process fails
/// twice) for [`min_max::max_consistent_dominated`], the incremental
/// engine's descent run on the pattern's own message table: each send
/// above the line is examined once. [`recovery_line_naive`] keeps the
/// textbook full-rescan fixpoint as a differential oracle.
pub fn try_recovery_line(
    pattern: &Pattern,
    failures: &[Failure],
) -> Result<GlobalCheckpoint, RecoveryError> {
    let n = pattern.num_processes();
    let mut caps = vec![u32::MAX; n];
    for failure in failures {
        let i = failure.process.index();
        if i >= n {
            return Err(RecoveryError::ProcessOutOfRange {
                process: i,
                num_processes: n,
            });
        }
        caps[i] = caps[i].min(failure.resume_cap);
    }
    let line = min_max::max_consistent_dominated(pattern, &caps);
    debug_assert!(consistency::is_consistent(pattern, &line));
    #[cfg(test)]
    assert!(
        consistency::is_consistent(pattern, &line),
        "recovery line must be consistent"
    );
    Ok(line)
}

/// Infallible wrapper around [`try_recovery_line`].
///
/// # Panics
///
/// Panics if a failure names an out-of-range process.
pub fn recovery_line(pattern: &Pattern, failures: &[Failure]) -> GlobalCheckpoint {
    match try_recovery_line(pattern, failures) {
        Ok(line) => line,
        Err(e) => panic!("recovery_line: {e}"),
    }
}

/// The textbook fixpoint: rescan *every* delivered message until a full
/// round changes nothing. O(messages × descent-steps); kept public as the
/// reference implementation [`try_recovery_line`]'s descent is
/// differentially tested against.
pub fn recovery_line_naive(pattern: &Pattern, failures: &[Failure]) -> GlobalCheckpoint {
    let n = pattern.num_processes();
    let mut line = GlobalCheckpoint::new(
        (0..n)
            .map(|i| pattern.last_checkpoint_index(ProcessId::new(i)))
            .collect(),
    );
    for failure in failures {
        assert!(
            failure.process.index() < n,
            "failure names out-of-range process {}",
            failure.process
        );
        let current = line.get(failure.process);
        line.set(failure.process, current.min(failure.resume_cap));
    }

    let delivered: Vec<_> = pattern.delivered_messages().collect();
    loop {
        let mut changed = false;
        for &(_, send, deliver) in &delivered {
            if send.index > line.get(send.process) && deliver.index <= line.get(deliver.process) {
                line.set(deliver.process, deliver.index - 1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    debug_assert!(consistency::is_consistent(pattern, &line));
    line
}

/// Messages **lost** by rolling back to `line`: sent inside the line but
/// delivered outside it (or never delivered). A recovery mechanism must
/// replay them from message logs, or the application must tolerate their
/// loss.
pub fn try_lost_messages(
    pattern: &Pattern,
    line: &GlobalCheckpoint,
) -> Result<Vec<PatternMessageId>, RecoveryError> {
    if line.as_slice().len() != pattern.num_processes() {
        return Err(RecoveryError::LineWidthMismatch {
            line: line.as_slice().len(),
            num_processes: pattern.num_processes(),
        });
    }
    Ok((0..pattern.num_messages())
        .map(PatternMessageId)
        .filter(|&m| {
            let send = pattern.send_interval(m);
            if send.index > line.get(send.process) {
                return false; // send itself is rolled back
            }
            match pattern.deliver_interval(m) {
                None => true, // in transit
                Some(deliver) => deliver.index > line.get(deliver.process),
            }
        })
        .collect())
}

/// Infallible wrapper around [`try_lost_messages`].
///
/// # Panics
///
/// Panics if `line` has the wrong number of entries for `pattern`.
pub fn lost_messages(pattern: &Pattern, line: &GlobalCheckpoint) -> Vec<PatternMessageId> {
    match try_lost_messages(pattern, line) {
        Ok(lost) => lost,
        Err(e) => panic!("lost_messages: {e}"),
    }
}

/// Everything a rollback analysis reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackReport {
    /// The recovery line.
    pub line: GlobalCheckpoint,
    /// Per process, how many checkpoints the rollback discards
    /// (`last index - line index`).
    pub discarded_per_process: Vec<u32>,
    /// Total discarded checkpoints across all processes.
    pub total_discarded: u64,
    /// Number of processes rolled all the way back to their initial state.
    pub rolled_to_initial: usize,
    /// Messages that must be replayed from logs (or tolerated as lost).
    pub lost_messages: usize,
}

impl RollbackReport {
    /// Mean checkpoints discarded per process.
    pub fn mean_discarded(&self) -> f64 {
        if self.discarded_per_process.is_empty() {
            0.0
        } else {
            self.total_discarded as f64 / self.discarded_per_process.len() as f64
        }
    }
}

/// Computes the recovery line for `failures` and summarizes the damage.
pub fn try_analyze(
    pattern: &Pattern,
    failures: &[Failure],
) -> Result<RollbackReport, RecoveryError> {
    let line = try_recovery_line(pattern, failures)?;
    let n = pattern.num_processes();
    let discarded_per_process: Vec<u32> = (0..n)
        .map(|i| {
            let p = ProcessId::new(i);
            pattern.last_checkpoint_index(p) - line.get(p)
        })
        .collect();
    let total_discarded = discarded_per_process.iter().map(|&d| d as u64).sum();
    let rolled_to_initial = (0..n)
        .filter(|&i| {
            let p = ProcessId::new(i);
            line.get(p) == 0 && pattern.last_checkpoint_index(p) > 0
        })
        .count();
    let lost = try_lost_messages(pattern, &line)?.len();
    Ok(RollbackReport {
        line,
        discarded_per_process,
        total_discarded,
        rolled_to_initial,
        lost_messages: lost,
    })
}

/// Infallible wrapper around [`try_analyze`].
///
/// # Panics
///
/// Panics if a failure names an out-of-range process.
///
/// # Example
///
/// ```rust
/// use rdt_causality::ProcessId;
/// use rdt_recovery::{analyze, Failure};
/// use rdt_rgraph::paper_figures;
///
/// let pattern = paper_figures::figure_1();
/// // P_j (process 1) fails and can resume from C_(j,1).
/// let report = analyze(&pattern, &[Failure { process: ProcessId::new(1), resume_cap: 1 }]);
/// assert_eq!(report.line.as_slice(), &[3, 1, 1]);
/// ```
pub fn analyze(pattern: &Pattern, failures: &[Failure]) -> RollbackReport {
    match try_analyze(pattern, failures) {
        Ok(report) => report,
        Err(e) => panic!("analyze: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domino_pattern;
    use rdt_rgraph::{paper_figures, PatternBuilder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn no_failure_line_is_latest_consistent() {
        let pattern = paper_figures::figure_1();
        let line = recovery_line(&pattern, &[]);
        // The final global checkpoint of figure 1 is consistent.
        assert_eq!(line.as_slice(), &[3, 3, 3]);
    }

    #[test]
    fn failure_caps_propagate() {
        let pattern = paper_figures::figure_1();
        // P_j fails back to C_(j,1): m4/m6 deliveries at P_k must go, so
        // P_k falls to C_(k,1); P_i keeps everything.
        let report = analyze(
            &pattern,
            &[Failure {
                process: p(1),
                resume_cap: 1,
            }],
        );
        assert_eq!(report.line.as_slice(), &[3, 1, 1]);
        assert_eq!(report.discarded_per_process, vec![0, 2, 2]);
        assert_eq!(report.total_discarded, 4);
        assert_eq!(report.rolled_to_initial, 0);
    }

    #[test]
    fn lost_messages_are_replay_candidates() {
        let pattern = paper_figures::figure_1();
        let line = recovery_line(
            &pattern,
            &[Failure {
                process: p(1),
                resume_cap: 1,
            }],
        );
        // Line [3,1,1]: m5 (sent I_(i,3), delivered I_(j,2) > 1) is lost;
        // m4/m6 were sent in I_(j,2) — rolled back, not lost; m7 sent
        // I_(k,3) — rolled back; m2 delivered I_(i,2) <= 3 kept.
        let lost = lost_messages(&pattern, &line);
        assert_eq!(lost.len(), 1);
    }

    #[test]
    fn resume_cap_zero_forces_initial_for_that_process() {
        let pattern = paper_figures::figure_1();
        let report = analyze(
            &pattern,
            &[Failure {
                process: p(0),
                resume_cap: 0,
            }],
        );
        assert_eq!(report.line.get(p(0)), 0);
        // Everything delivered from P_i's intervals >= 1 must unwind:
        // m1 (I_(i,1) -> I_(j,1)) forces P_j to 0; m3's delivery (I_(j,1))
        // is then dropped anyway; P_k loses m4/m6 deliveries -> 1, and m2's
        // send... P_k only received from P_j. Check consistency directly.
        assert!(consistency::is_consistent(&pattern, &report.line));
        assert_eq!(report.line.get(p(1)), 0);
    }

    #[test]
    fn orphan_delivery_in_first_interval_descends_to_initial_checkpoint() {
        // Regression for the descent's lower boundary: a delivery in the
        // *first* interval whose send is orphaned must drop the receiver to
        // its initial checkpoint (index 0) — the `deliver - 1` step lands
        // exactly on 0 and must not wrap.
        let mut b = PatternBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        b.checkpoint(p(1));
        let pattern = b.build().unwrap();
        // P0 never checkpoints after the send, so even with no failure the
        // send sits past P0's line entry (0) while the delivery sits inside
        // P1's (interval 1 <= checkpoint 1): orphan, P1 descends to 0.
        let line = recovery_line(&pattern, &[]);
        assert_eq!(line.as_slice(), &[0, 0]);
        assert!(consistency::is_consistent(&pattern, &line));
    }

    #[test]
    fn domino_failure_rolls_both_processes_to_initial() {
        // The staggered ping-pong grazes the interval-1 boundary on every
        // descent step; any failure collapses the line to the initial
        // states.
        let pattern = domino_pattern(5);
        let report = analyze(
            &pattern,
            &[Failure {
                process: p(0),
                resume_cap: 4,
            }],
        );
        assert_eq!(report.line.as_slice(), &[0, 0]);
        assert_eq!(report.rolled_to_initial, 2);
    }

    #[test]
    fn out_of_range_failure_is_reported_not_panicked() {
        let pattern = paper_figures::figure_1();
        let bad = [Failure {
            process: p(7),
            resume_cap: 0,
        }];
        assert_eq!(
            try_recovery_line(&pattern, &bad),
            Err(RecoveryError::ProcessOutOfRange {
                process: 7,
                num_processes: 3
            })
        );
        assert!(try_analyze(&pattern, &bad).is_err());
        let msg = try_recovery_line(&pattern, &bad).unwrap_err().to_string();
        assert!(msg.contains("process 7"), "unhelpful message: {msg}");
    }

    #[test]
    fn mismatched_line_width_is_reported() {
        let pattern = paper_figures::figure_1();
        let narrow = GlobalCheckpoint::new(vec![0, 0]);
        assert_eq!(
            try_lost_messages(&pattern, &narrow),
            Err(RecoveryError::LineWidthMismatch {
                line: 2,
                num_processes: 3
            })
        );
    }

    #[test]
    #[should_panic(expected = "names process 9")]
    fn infallible_wrapper_still_panics() {
        let pattern = paper_figures::figure_1();
        recovery_line(
            &pattern,
            &[Failure {
                process: p(9),
                resume_cap: 0,
            }],
        );
    }

    #[test]
    fn worklist_matches_naive_on_the_figures() {
        for pattern in [
            paper_figures::figure_1(),
            domino_pattern(4),
            domino_pattern(1),
        ] {
            let n = pattern.num_processes();
            assert_eq!(
                recovery_line(&pattern, &[]).as_slice(),
                recovery_line_naive(&pattern, &[]).as_slice()
            );
            for i in 0..n {
                let failures = [Failure {
                    process: p(i),
                    resume_cap: pattern.last_checkpoint_index(p(i)).saturating_sub(1),
                }];
                assert_eq!(
                    recovery_line(&pattern, &failures).as_slice(),
                    recovery_line_naive(&pattern, &failures).as_slice()
                );
            }
        }
    }

    #[test]
    fn at_last_checkpoint_helper() {
        let pattern = paper_figures::figure_1();
        let f = Failure::at_last_checkpoint(&pattern, p(2));
        assert_eq!(f.resume_cap, 3);
    }

    #[test]
    fn report_mean() {
        let report = RollbackReport {
            line: GlobalCheckpoint::new(vec![0, 0]),
            discarded_per_process: vec![2, 4],
            total_discarded: 6,
            rolled_to_initial: 2,
            lost_messages: 0,
        };
        assert!((report.mean_discarded() - 3.0).abs() < 1e-12);
    }
}
