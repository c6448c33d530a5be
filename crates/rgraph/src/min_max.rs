//! Minimum and maximum consistent global checkpoints containing a given
//! set of local checkpoints (Wang's theory; Corollary 4.5 of the paper).

use rdt_causality::{CheckpointId, ProcessId};

use crate::consistency::{is_consistent, GlobalCheckpoint};
use crate::incremental::{descend_to_consistent, MsgRec, NONE_U32};
use crate::Pattern;

/// Computes the **minimum** consistent global checkpoint containing every
/// checkpoint of `members`, or `None` if no consistent global checkpoint
/// contains them all.
///
/// The computation is the least fixpoint of the orphan constraints: start
/// from the members (0 elsewhere) and, whenever a message's delivery is
/// included while its send is not, raise the sender's entry to include the
/// send. The result fails to exist exactly when the propagation would push
/// a member's own entry past its index (a Z-path returns into a member) or
/// demand a checkpoint beyond a process's last one.
///
/// Under RDT, for a single member `C_{i,x}` the result equals the
/// transitive dependency vector `TDV_i^x` saved with the checkpoint —
/// Corollary 4.5; the integration tests cross-validate the two.
///
/// # Panics
///
/// Panics if a member's checkpoint does not exist in the pattern.
///
/// # Example
///
/// ```rust
/// use rdt_causality::{CheckpointId, ProcessId};
/// use rdt_rgraph::{min_max, paper_figures};
///
/// let (pattern, f) = paper_figures::figure_1_with_handles();
/// // The minimum consistent GC containing C_{i,2} must include C_{j,1}
/// // (m2's send), which in turn includes delivery of m3 and so needs
/// // C_{k,1}.
/// let gc = min_max::min_consistent_containing(
///     &pattern,
///     &[CheckpointId::new(f.pi, 2)],
/// ).unwrap();
/// assert_eq!(gc.as_slice(), &[2, 1, 1]);
/// ```
pub fn min_consistent_containing(
    pattern: &Pattern,
    members: &[CheckpointId],
) -> Option<GlobalCheckpoint> {
    let n = pattern.num_processes();
    let mut gc = GlobalCheckpoint::initial(n);
    for &member in members {
        assert!(
            member.index <= pattern.last_checkpoint_index(member.process),
            "member {member} does not exist in the pattern"
        );
        gc.set(member.process, gc.get(member.process).max(member.index));
    }

    // Least fixpoint of: deliver included => send included.
    let delivered: Vec<_> = pattern.delivered_messages().collect();
    loop {
        let mut changed = false;
        for &(_, send, deliver) in &delivered {
            if deliver.index <= gc.get(deliver.process) && send.index > gc.get(send.process) {
                // The closing checkpoint C_{send.process, send.index} must
                // exist for the send to be includable.
                if send.index > pattern.last_checkpoint_index(send.process) {
                    return None;
                }
                gc.set(send.process, send.index);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // The fixpoint contains every member iff none was pushed past itself.
    let contains_all = members.iter().all(|&m| gc.get(m.process) == m.index);
    if !contains_all {
        return None;
    }
    debug_assert!(is_consistent(pattern, &gc));
    Some(gc)
}

/// Computes the **maximum** consistent global checkpoint containing every
/// checkpoint of `members`, or `None` if no consistent global checkpoint
/// contains them all.
///
/// Greatest fixpoint of the dual constraint: start from the members (each
/// process's last checkpoint elsewhere) and, whenever a message's send is
/// excluded while its delivery is included, lower the receiver's entry to
/// exclude the delivery.
///
/// # Panics
///
/// Panics if a member's checkpoint does not exist in the pattern.
pub fn max_consistent_containing(
    pattern: &Pattern,
    members: &[CheckpointId],
) -> Option<GlobalCheckpoint> {
    let n = pattern.num_processes();
    let mut gc = GlobalCheckpoint::new(
        (0..n)
            .map(|i| pattern.last_checkpoint_index(ProcessId::new(i)))
            .collect(),
    );
    for &member in members {
        assert!(
            member.index <= pattern.last_checkpoint_index(member.process),
            "member {member} does not exist in the pattern"
        );
        gc.set(member.process, gc.get(member.process).min(member.index));
    }

    let delivered: Vec<_> = pattern.delivered_messages().collect();
    loop {
        let mut changed = false;
        for &(_, send, deliver) in &delivered {
            if send.index > gc.get(send.process) && deliver.index <= gc.get(deliver.process) {
                // Exclude the delivery: receiver must stop before it.
                gc.set(deliver.process, deliver.index - 1);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let contains_all = members.iter().all(|&m| gc.get(m.process) == m.index);
    if !contains_all {
        return None;
    }
    debug_assert!(is_consistent(pattern, &gc));
    Some(gc)
}

/// Computes the **greatest** consistent global checkpoint dominated by
/// `caps` (each entry clamped to its process's last checkpoint): the
/// recovery line with `caps` as the failures' resume caps. It always exists.
///
/// One pass over `pattern.messages()` lays out the message table the
/// incremental engine keeps, each sender's send chain is threaded in
/// interval order, and the engine's own descent runs on it, so
/// this equals [`crate::IncrementalAnalysis::max_consistent_dominated`]
/// with no replay and no realizability check. [`max_consistent_containing`]
/// is the textbook rescan it is held to.
///
/// # Panics
///
/// Panics if `caps` has a length other than the process count.
pub fn max_consistent_dominated(pattern: &Pattern, caps: &[u32]) -> GlobalCheckpoint {
    let n = pattern.num_processes();
    assert_eq!(caps.len(), n, "caps length");
    let mut msgs: Vec<MsgRec> = (pattern.messages().iter())
        .map(|m| {
            let interval_at = |pos| pattern.interval_of(m.to, pos).index;
            MsgRec {
                from: m.from.index() as u32,
                to: m.to.index() as u32,
                send_iv: pattern.interval_of(m.from, m.send_pos).index,
                deliver_iv: m.deliver_pos.map_or(NONE_U32, interval_at),
                tdv_row: NONE_U32,
                prev_send: NONE_U32,
                prev_delivery: NONE_U32,
            }
        })
        .collect();
    // A parsed pattern may number a sender's messages out of event order:
    // each sender's chain is threaded in interval order.
    let mut order: Vec<u32> = (0..msgs.len() as u32).collect();
    order.sort_unstable_by_key(|&mid| {
        let m = &msgs[mid as usize];
        (m.from, m.send_iv, mid)
    });
    let mut send_heads = vec![NONE_U32; n];
    for mid in order {
        let head = &mut send_heads[msgs[mid as usize].from as usize];
        msgs[mid as usize].prev_send = std::mem::replace(head, mid);
    }
    let mut line: Vec<u32> = (caps.iter().enumerate())
        .map(|(i, &cap)| cap.min(pattern.last_checkpoint_index(ProcessId::new(i))))
        .collect();
    descend_to_consistent(&msgs, &send_heads, &mut line);
    GlobalCheckpoint::new(line)
}

/// Computes the minimum consistent global checkpoint containing `members`
/// through **R-graph reachability** instead of the orphan fixpoint: entry
/// `j` is the largest `z` such that some member is reachable from
/// `C_{j,z}` in the R-graph (or the member's own index on its process).
///
/// The rollback semantics of R-paths make the two formulations coincide —
/// `C_{j,z} → C` means "rolling `P_j` below `C_{j,z}` forces rolling below
/// `C`", i.e. any global checkpoint containing `C` must include `C_{j,z}`.
/// This function exists as an *independent witness* for
/// [`min_consistent_containing`]; the property tests assert they always
/// agree. The pattern, as given, is replayed into the incremental core
/// ([`IncrementalAnalysis::from_pattern`](crate::IncrementalAnalysis::from_pattern)),
/// whose reach vectors are the R-graph's closure.
///
/// # Panics
///
/// Panics if a member's checkpoint does not exist in the pattern, or if
/// the pattern is unrealizable.
pub fn min_consistent_via_rgraph(
    pattern: &Pattern,
    members: &[CheckpointId],
) -> Option<GlobalCheckpoint> {
    crate::IncrementalAnalysis::from_pattern(pattern)
        .expect("pattern must be realizable")
        .min_consistent_via_rgraph(members)
}

/// Whether the set of checkpoints can be extended to a consistent global
/// checkpoint at all.
///
/// For patterns satisfying RDT, any set of pairwise causally-unrelated
/// checkpoints is extendable (property (1) of the paper's introduction);
/// the integration tests verify this on protocol-generated patterns.
pub fn extendable(pattern: &Pattern, members: &[CheckpointId]) -> bool {
    min_consistent_containing(pattern, members).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;

    fn c(i: usize, x: u32) -> CheckpointId {
        CheckpointId::new(ProcessId::new(i), x)
    }

    #[test]
    fn min_of_initial_is_initial() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let gc = min_consistent_containing(&pattern, &[c(0, 0)]).unwrap();
        assert_eq!(gc.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn min_includes_transitive_send_constraints() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        // C_{j,2} includes deliveries of m1 (from I_{i,1}) and m5 (from
        // I_{i,3}): P_i must advance to 3; C_{i,3} includes delivery of m2
        // (send I_{j,1}, already in), nothing more; m3's delivery (I_{j,1})
        // forces P_k to 1.
        let gc = min_consistent_containing(&pattern, &[c(1, 2)]).unwrap();
        assert_eq!(gc.as_slice(), &[3, 2, 1]);
        assert!(is_consistent(&pattern, &gc));
    }

    #[test]
    fn min_fails_for_inconsistent_member_sets() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        // (C_{i,2}, C_{j,2}) is inconsistent (orphan m5): no consistent GC
        // contains both.
        assert_eq!(
            min_consistent_containing(&pattern, &[c(0, 2), c(1, 2)]),
            None
        );
        assert!(!extendable(&pattern, &[c(0, 2), c(1, 2)]));
    }

    #[test]
    fn min_fails_for_useless_checkpoint() {
        // In figure_4_unbroken, C_{k,1} (process 1) is on a Z-cycle.
        let pattern = paper_figures::figure_4_unbroken();
        assert_eq!(min_consistent_containing(&pattern, &[c(1, 1)]), None);
        // While C_{i,1} is fine.
        assert!(min_consistent_containing(&pattern, &[c(0, 1)]).is_some());
    }

    #[test]
    fn max_of_last_is_last() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let last = GlobalCheckpoint::new(vec![3, 3, 3]);
        assert!(is_consistent(&pattern, &last));
        let gc = max_consistent_containing(&pattern, &[c(0, 3)]).unwrap();
        assert_eq!(gc.as_slice(), &[3, 3, 3]);
    }

    #[test]
    fn max_excludes_orphan_deliveries() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        // Fix C_{i,2}: m5 (sent in I_{i,3}) must not be delivered, so P_j
        // stops at 1; then m4/m6 (sent I_{j,2}) must not be delivered at
        // P_k... m4 delivered I_{k,2}: P_k stops at 1; m7 sent I_{k,3} not
        // included, delivered I_{j,3} > 1 fine.
        let gc = max_consistent_containing(&pattern, &[c(0, 2)]).unwrap();
        assert_eq!(gc.as_slice(), &[2, 1, 1]);
        assert!(is_consistent(&pattern, &gc));
    }

    #[test]
    fn min_le_max_when_both_exist() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        for x in 0..=3 {
            let member = [c(0, x)];
            let min = min_consistent_containing(&pattern, &member);
            let max = max_consistent_containing(&pattern, &member);
            match (min, max) {
                (Some(lo), Some(hi)) => assert!(lo.le(&hi), "min {lo} > max {hi}"),
                (None, None) => {}
                (lo, hi) => panic!("min/max existence must agree, got {lo:?} / {hi:?}"),
            }
        }
    }

    #[test]
    fn rgraph_formulation_agrees_with_fixpoint() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        for i in 0..3 {
            for x in 0..=3u32 {
                let member = [c(i, x)];
                assert_eq!(
                    min_consistent_containing(&pattern, &member),
                    min_consistent_via_rgraph(&pattern, &member),
                    "disagreement for {}",
                    member[0]
                );
            }
        }
        // Pairs too, including an inconsistent one.
        assert_eq!(
            min_consistent_via_rgraph(&pattern, &[c(0, 2), c(1, 2)]),
            None,
            "orphan pair must be unextendable in both formulations"
        );
        assert_eq!(
            min_consistent_containing(&pattern, &[c(0, 1), c(2, 1)]),
            min_consistent_via_rgraph(&pattern, &[c(0, 1), c(2, 1)]),
        );
    }

    #[test]
    fn rgraph_formulation_detects_useless_checkpoints() {
        let pattern = paper_figures::figure_4_unbroken();
        assert_eq!(min_consistent_via_rgraph(&pattern, &[c(1, 1)]), None);
    }

    #[test]
    fn shared_analysis_variant_agrees() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let analysis = crate::PatternAnalysis::new(&pattern);
        let core = analysis.core().expect("pattern must be realizable");
        for i in 0..3 {
            for x in 0..=3u32 {
                let member = [c(i, x)];
                assert_eq!(
                    min_consistent_via_rgraph(&pattern, &member),
                    core.min_consistent_via_rgraph(&member),
                    "disagreement for {}",
                    member[0]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn missing_member_panics() {
        let (pattern, _) = paper_figures::figure_1_with_handles();
        let _ = min_consistent_containing(&pattern, &[c(0, 9)]);
    }
}
