//! Property-based tests over randomly generated checkpoint and
//! communication patterns.
//!
//! The generator drives `PatternBuilder` with an arbitrary interleaving of
//! checkpoints, sends and deliveries, so every generated pattern is
//! well-formed and realizable by construction; the properties then relate
//! the independent implementations of the theory to one another.

use proptest::prelude::*;

use rdt::theory::characterization::{all_chains_doubled, all_cm_paths_doubled};
use rdt::theory::{consistency, min_max, IncrementalAnalysis};
use rdt::{
    CheckpointId, Pattern, PatternBuilder, ProcessId, RdtChecker, Replay, ZigzagReachability,
};

/// One abstract step of the generator.
#[derive(Debug, Clone, Copy)]
enum Step {
    Checkpoint(u8),
    Send(u8, u8),
    Deliver(u8),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8).prop_map(Step::Checkpoint),
        (0u8..8, 0u8..8).prop_map(|(a, b)| Step::Send(a, b)),
        (0u8..255).prop_map(Step::Deliver),
    ]
}

fn build_pattern(n: usize, steps: &[Step]) -> Pattern {
    let mut b = PatternBuilder::new(n);
    let mut pending = Vec::new();
    for &step in steps {
        match step {
            Step::Checkpoint(p) => {
                b.checkpoint(ProcessId::new(p as usize % n));
            }
            Step::Send(from, to) => {
                let from = from as usize % n;
                let mut to = to as usize % n;
                if to == from {
                    to = (to + 1) % n;
                }
                if n >= 2 {
                    pending.push(b.send(ProcessId::new(from), ProcessId::new(to)));
                }
            }
            Step::Deliver(pick) => {
                if !pending.is_empty() {
                    let msg = pending.remove(pick as usize % pending.len());
                    b.deliver(msg).expect("pending messages are deliverable");
                }
            }
        }
    }
    b.close()
        .build()
        .expect("generator produces well-formed patterns")
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (2usize..5, proptest::collection::vec(step_strategy(), 5..60))
        .prop_map(|(n, steps)| build_pattern(n, &steps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn characterizations_are_equivalent(pattern in pattern_strategy()) {
        let by_rpaths = RdtChecker::new(&pattern).check().holds();
        let by_chains = all_chains_doubled(&pattern);
        let by_cm = all_cm_paths_doubled(&pattern);
        let by_tdv = IncrementalAnalysis::from_pattern(&pattern).expect("realizable").visible_holds();
        prop_assert_eq!(by_rpaths, by_chains, "R-path vs chain");
        prop_assert_eq!(by_chains, by_cm, "chain vs CM-path");
        prop_assert_eq!(by_cm, by_tdv, "CM-path vs visible TDV test");
    }

    fn min_max_consistency_and_order(pattern in pattern_strategy()) {
        for c in pattern.checkpoints() {
            let min = min_max::min_consistent_containing(&pattern, &[c]);
            let max = min_max::max_consistent_containing(&pattern, &[c]);
            match (min, max) {
                (Some(lo), Some(hi)) => {
                    prop_assert!(consistency::is_consistent(&pattern, &lo));
                    prop_assert!(consistency::is_consistent(&pattern, &hi));
                    prop_assert!(lo.contains(c));
                    prop_assert!(hi.contains(c));
                    prop_assert!(lo.le(&hi));
                }
                (None, None) => {} // useless checkpoint
                (lo, hi) => {
                    prop_assert!(false, "existence disagrees for {}: {:?} vs {:?}", c, lo, hi);
                }
            }
        }
    }

    fn min_gc_formulations_agree(pattern in pattern_strategy()) {
        // Two independent implementations — the orphan fixpoint and the
        // R-graph reverse reachability — must coincide on every checkpoint.
        for c in pattern.checkpoints() {
            let fixpoint = min_max::min_consistent_containing(&pattern, &[c]);
            let rgraph = min_max::min_consistent_via_rgraph(&pattern, &[c]);
            prop_assert_eq!(fixpoint, rgraph, "formulations disagree for {}", c);
        }
    }

    fn useless_iff_no_containing_gc(pattern in pattern_strategy()) {
        let zz = ZigzagReachability::new(&pattern);
        for c in pattern.checkpoints() {
            let useless = zz.on_z_cycle(c);
            let has_gc = min_max::min_consistent_containing(&pattern, &[c]).is_some();
            prop_assert_eq!(
                useless, !has_gc,
                "Netzer-Xu z-cycle test disagrees with the fixpoint for {}", c
            );
        }
    }

    fn netzer_xu_coexistence_theorem(pattern in pattern_strategy()) {
        // "No zigzag path between them (nor through either)" must coincide
        // exactly with "some consistent global checkpoint contains both".
        let zz = ZigzagReachability::new(&pattern);
        let checkpoints: Vec<CheckpointId> = pattern.checkpoints().collect();
        for &a in &checkpoints {
            for &b in &checkpoints {
                let by_zigzag = zz.can_coexist(a, b);
                let by_construction =
                    min_max::min_consistent_containing(&pattern, &[a, b]).is_some();
                prop_assert_eq!(
                    by_zigzag, by_construction,
                    "Netzer-Xu disagrees with the fixpoint for ({}, {})", a, b
                );
            }
        }
    }

    fn tdv_trackability_implies_r_path(pattern in pattern_strategy()) {
        let annotations = Replay::new(&pattern).annotate().expect("realizable");
        let graph = rdt::RGraph::new(&pattern);
        let reach = graph.reachability_naive();
        for to in pattern.checkpoints() {
            let tdv = annotations.tdv(to);
            for (process, entry) in tdv.iter() {
                if process == to.process || entry == 0 {
                    continue;
                }
                // A recorded dependency is a causal chain; causal chains
                // are chains; chains induce R-paths.
                let from = CheckpointId::new(process, entry);
                prop_assert!(
                    reach.reaches(from, to),
                    "TDV of {} records {} but no R-path exists", to, from
                );
            }
        }
    }

    fn r_path_check_matches_the_naive_oracles(pattern in pattern_strategy()) {
        // The checker replays the pattern into the incremental core; its
        // verdict, count and uncapped violations must be the naive
        // closure's pairs that the replayed TDVs do not track.
        let annotations = Replay::new(&pattern).annotate().expect("realizable");
        let reach = rdt::RGraph::new(&pattern).reachability_naive();
        let mut untrackable: Vec<_> = pattern
            .checkpoints()
            .flat_map(|from| reach.reachable_from(from).map(move |to| (from, to)))
            .filter(|&(from, to)| !annotations.trackable(from, to))
            .collect();
        untrackable.sort_by_key(|&(f, t)| (t.process, t.index, f.process, f.index));
        let report = RdtChecker::new(&pattern).max_violations(usize::MAX).check();
        prop_assert_eq!(report.holds(), untrackable.is_empty());
        prop_assert_eq!(report.r_paths_found(), reach.total_reachable_pairs());
        let found: Vec<_> = report.violations().iter().map(|v| (v.from, v.to)).collect();
        prop_assert_eq!(found, untrackable);
        for v in report.violations() {
            prop_assert_eq!(v.r_path.first(), Some(&v.from));
            prop_assert_eq!(v.r_path.last(), Some(&v.to));
        }
    }

    fn rdt_implies_no_useless_checkpoints(pattern in pattern_strategy()) {
        if RdtChecker::new(&pattern).check().holds() {
            let zz = ZigzagReachability::new(&pattern);
            for c in pattern.checkpoints() {
                prop_assert!(!zz.on_z_cycle(c), "{} useless under RDT", c);
            }
        }
    }

    fn replay_is_deterministic(pattern in pattern_strategy()) {
        let a = Replay::new(&pattern).annotate().expect("realizable");
        let b = Replay::new(&pattern).annotate().expect("realizable");
        for c in pattern.checkpoints() {
            prop_assert_eq!(a.vc(c), b.vc(c));
            prop_assert_eq!(a.tdv(c), b.tdv(c));
        }
    }

    fn recovery_line_is_consistent_and_respects_caps(pattern in pattern_strategy()) {
        use rdt::{recovery_line, Failure};
        for i in 0..pattern.num_processes() {
            let process = ProcessId::new(i);
            let last = pattern.last_checkpoint_index(process);
            let cap = last / 2;
            let line = recovery_line(&pattern, &[Failure { process, resume_cap: cap }]);
            prop_assert!(consistency::is_consistent(&pattern, &line));
            prop_assert!(line.get(process) <= cap);
        }
    }
}
