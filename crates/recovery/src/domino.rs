//! The classic domino-effect pattern (Randell), as a reusable
//! construction.

use rdt_causality::ProcessId;
use rdt_rgraph::{Pattern, PatternBuilder};

/// Builds the staggered two-process ping-pong whose rollback cascades all
/// the way to the initial states — the **unbounded domino effect** the
/// paper's introduction cites as the reason uncoordinated checkpointing is
/// unusable (§1, reference \[9\]).
///
/// Per round `k` (0-based):
///
/// * `P_0`: `send(u_k)`, `deliver(v_k)`, checkpoint `C_{0,k+1}`;
/// * `P_1`: `deliver(u_k)`, checkpoint `C_{1,k+1}`, `send(v_k)`.
///
/// `P_1` checkpoints *between* its delivery and its send, so `v_k` is
/// sent after `C_{1,k+1}` but delivered before `C_{0,k+1}`: the only
/// consistent global checkpoints of the whole pattern are the initial one
/// and the final one, and **any** rollback below the final line unzips the
/// other process round by round, down to `{C_{0,0}, C_{1,0}}`.
///
/// With `R` rounds, `P_0` ends with checkpoints `0..=R` and `P_1` (whose
/// trailing send gets a closing checkpoint) with `0..=R+1`.
///
/// # Panics
///
/// Panics if `rounds == 0`.
///
/// # Example
///
/// ```rust
/// use rdt_recovery::{domino_pattern, recovery_line, Failure};
/// use rdt_causality::ProcessId;
///
/// let pattern = domino_pattern(8);
/// // P_0's most recent checkpoint is corrupted: resume from index 7.
/// let line = recovery_line(
///     &pattern,
///     &[Failure { process: ProcessId::new(0), resume_cap: 7 }],
/// );
/// assert_eq!(line.as_slice(), &[0, 0]);
/// ```
pub fn domino_pattern(rounds: usize) -> Pattern {
    assert!(rounds > 0, "at least one round");
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    let mut b = PatternBuilder::new(2);
    for _ in 0..rounds {
        let u = b.send(p0, p1);
        b.deliver(u).expect("fresh message");
        b.checkpoint(p1);
        let v = b.send(p1, p0);
        b.deliver(v).expect("fresh message");
        b.checkpoint(p0);
    }
    b.close().build().expect("domino pattern is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, recovery_line, Failure};
    use rdt_rgraph::{consistency, GlobalCheckpoint, PatternAnalysis};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn structure() {
        let pattern = domino_pattern(4);
        assert!(pattern.is_closed());
        assert_eq!(pattern.checkpoint_count(p(0)), 5); // C_{0,0..4}
        assert_eq!(pattern.checkpoint_count(p(1)), 6); // C_{1,0..5} (closing)
        assert_eq!(pattern.num_messages(), 8);
    }

    #[test]
    fn any_failure_collapses_to_initial() {
        let pattern = domino_pattern(6); // P0 last = 6, P1 last = 7
        for process in [p(0), p(1)] {
            for cap in [0u32, 2, 5] {
                let line = recovery_line(
                    &pattern,
                    &[Failure {
                        process,
                        resume_cap: cap,
                    }],
                );
                assert_eq!(line.as_slice(), &[0, 0], "cap {cap} on {process}");
            }
        }
        // Without any failure the final line stands.
        let line = recovery_line(&pattern, &[]);
        assert_eq!(line.as_slice(), &[6, 7]);
        // Losing just P1's closing checkpoint already cascades fully.
        let line = recovery_line(
            &pattern,
            &[Failure {
                process: p(1),
                resume_cap: 6,
            }],
        );
        assert_eq!(line.as_slice(), &[0, 0]);
    }

    #[test]
    fn only_extreme_global_checkpoints_are_consistent() {
        let pattern = domino_pattern(3); // P0: 0..=3, P1: 0..=4
        assert!(consistency::is_consistent(
            &pattern,
            &GlobalCheckpoint::new(vec![0, 0])
        ));
        assert!(consistency::is_consistent(
            &pattern,
            &GlobalCheckpoint::new(vec![3, 4])
        ));
        // Every intermediate line has an orphan.
        for a in 0..=3u32 {
            for b in 0..=4u32 {
                if (a, b) == (0, 0) || (a, b) == (3, 4) {
                    continue;
                }
                assert!(
                    !consistency::is_consistent(&pattern, &GlobalCheckpoint::new(vec![a, b])),
                    "({a},{b}) unexpectedly consistent"
                );
            }
        }
    }

    #[test]
    fn domino_pattern_violates_rdt() {
        assert!(!PatternAnalysis::new(&domino_pattern(3))
            .rdt_report()
            .holds());
    }

    #[test]
    fn report_quantifies_the_cascade() {
        let pattern = domino_pattern(10);
        let report = analyze(
            &pattern,
            &[Failure {
                process: p(1),
                resume_cap: 9,
            }],
        );
        assert_eq!(report.rolled_to_initial, 2);
        // P0 discards 10 checkpoints, P1 discards 11 (it has the closing
        // one).
        assert_eq!(report.total_discarded, 21);
        assert!(report.mean_discarded() > 10.0);
    }
}
