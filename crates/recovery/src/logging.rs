//! Message logging and output commit on top of recovery lines.
//!
//! Rolling back to a consistent line leaves two classes of messages to
//! deal with (§1 of the paper lists output commit among the dependability
//! problems RDT serves):
//!
//! * **lost / in-transit** messages — sent inside the line, not delivered
//!   inside it: they must be *replayed* from sender-side logs (or their
//!   loss tolerated); [`lost_messages`](crate::lost_messages) lists them;
//! * **outputs** — effects released to the outside world cannot be
//!   retracted, so an output may only be *committed* once no future
//!   rollback can undo its causal past. With RDT that test is exactly the
//!   minimum consistent global checkpoint the protocol already computes on
//!   the fly (Corollary 4.5): the output commits when every member of that
//!   global checkpoint is on stable storage.

use rdt_causality::{CheckpointId, ProcessId};
use rdt_rgraph::{min_max, GlobalCheckpoint, Pattern};

/// The commit requirement of an output released while checkpoint
/// `at` was the most recent local checkpoint of its process: the minimum
/// consistent global checkpoint containing `at`.
///
/// Once every member of the returned global checkpoint is on stable
/// storage, no rollback can revisit the output's causal past, and the
/// output may be released. Returns `None` when `at` belongs to no
/// consistent global checkpoint (impossible under an RDT or ZCF protocol).
///
/// Under RDT, this equals the `TDV` the protocol saved with the checkpoint
/// (Corollary 4.5) — i.e. the commit test needs **no extra computation**
/// at runtime; this function is the independent offline witness.
pub fn output_commit_requirement(pattern: &Pattern, at: CheckpointId) -> Option<GlobalCheckpoint> {
    min_max::min_consistent_containing(pattern, &[at])
}

/// Commit latency of an output, measured in checkpoints: how many
/// checkpoints beyond the stable prefix each process must still secure
/// before the output can be released.
///
/// `stable` is the per-process index of the newest checkpoint already on
/// stable storage. Returns `None` if the output can never commit.
pub fn output_commit_lag(
    pattern: &Pattern,
    at: CheckpointId,
    stable: &GlobalCheckpoint,
) -> Option<u32> {
    let requirement = output_commit_requirement(pattern, at)?;
    Some(
        (0..pattern.num_processes())
            .map(|i| {
                let p = ProcessId::new(i);
                requirement.get(p).saturating_sub(stable.get(p))
            })
            .max()
            .unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_rgraph::paper_figures;

    fn c(i: usize, x: u32) -> CheckpointId {
        CheckpointId::new(ProcessId::new(i), x)
    }

    #[test]
    fn output_commit_requirement_matches_min_gc() {
        let pattern = paper_figures::figure_1();
        let req = output_commit_requirement(&pattern, c(0, 2)).unwrap();
        assert_eq!(req.as_slice(), &[2, 1, 1]);
    }

    #[test]
    fn commit_lag_counts_missing_stable_checkpoints() {
        let pattern = paper_figures::figure_1();
        // Nothing stable yet beyond the initial checkpoints.
        let stable = GlobalCheckpoint::initial(3);
        assert_eq!(output_commit_lag(&pattern, c(0, 2), &stable), Some(2));
        // Once [2,1,1] is stable, the lag is zero.
        let stable = GlobalCheckpoint::new(vec![2, 1, 1]);
        assert_eq!(output_commit_lag(&pattern, c(0, 2), &stable), Some(0));
    }

    #[test]
    fn useless_checkpoint_never_commits() {
        let pattern = paper_figures::figure_4_unbroken();
        // C_(k,1) (process 1) is on a Z-cycle.
        assert_eq!(output_commit_requirement(&pattern, c(1, 1)), None);
        assert_eq!(
            output_commit_lag(&pattern, c(1, 1), &GlobalCheckpoint::initial(2)),
            None
        );
    }
}
