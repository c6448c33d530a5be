//! Differential testing of epoch compaction: a compacting engine and an
//! uncompacted control replay the same event sequence in lockstep, and
//! after every append and every compaction point the compacted engine
//! must answer identically on its documented domain.
//!
//! Three properties anchor compaction's correctness:
//!
//! 1. **Global exactness** — the untrackable-pair counter, the RDT
//!    verdict (open and closed view), and the fixpoint consistency
//!    oracles agree with the control over the *entire* history, dropped
//!    prefix included.
//! 2. **Live-suffix exactness** — `reaches`, the R-graph minimum-GC
//!    oracle, chain/doubling/Z-path queries and the message closures
//!    agree with the control on retained checkpoints and live-headed
//!    chains.
//! 3. **Defined rewind failure** — rewinding to a mark taken before a
//!    state-discarding compaction reports
//!    [`RewindError::CompactionBoundary`] and leaves the engine intact;
//!    marks taken after the compaction keep working.
//! 4. **Layer independence** — the core-only engine the daemon runs and
//!    the full engine answer every core query identically and compact in
//!    lockstep (same epochs, watermarks, retention floors, dropped R-nodes).

use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_rgraph::{ChainLayer, FullAnalysis, IncrementalAnalysis, Journal, RewindError};

/// Deterministic xorshift generator driving the op-sequence builder.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }
}

/// One append, in engine terms. `Del` carries the engine's message
/// handle (send-order number).
#[derive(Debug, Clone, Copy)]
enum Op {
    Cp(usize),
    Send(usize, usize),
    Del(u32),
}

/// Generates a well-formed op sequence continuing from `(next_mid,
/// in_flight)`, mutating both so branches can fork from a shared prefix.
/// Checkpoint-heavier than the plain differential mix so recovery lines
/// advance and compactions actually discard state.
fn random_ops(
    rng: &mut Rng,
    n: usize,
    events: usize,
    next_mid: &mut u32,
    in_flight: &mut Vec<u32>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..events {
        match rng.below(8) {
            0..=2 => ops.push(Op::Cp(rng.below(n))),
            3 | 4 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                in_flight.push(*next_mid);
                *next_mid += 1;
                ops.push(Op::Send(from, to));
            }
            _ => {
                if !in_flight.is_empty() {
                    let i = rng.below(in_flight.len());
                    ops.push(Op::Del(in_flight.swap_remove(i)));
                }
            }
        }
    }
    ops
}

fn apply<C: ChainLayer, J: Journal>(incr: &mut IncrementalAnalysis<C, J>, op: Op) {
    match op {
        Op::Cp(i) => {
            incr.append_checkpoint(ProcessId::new(i));
        }
        Op::Send(from, to) => {
            incr.append_send(ProcessId::new(from), ProcessId::new(to));
        }
        Op::Del(k) => incr.append_deliver(k),
    }
}

fn cp(p: usize, idx: u32) -> CheckpointId {
    CheckpointId::new(ProcessId::new(p), idx)
}

/// Every checkpoint of the full pattern, compacted away or not.
fn all_checkpoints(incr: &FullAnalysis) -> Vec<CheckpointId> {
    (0..incr.num_processes())
        .flat_map(|p| {
            (0..=incr.last_checkpoint_index(ProcessId::new(p))).map(move |idx| cp(p, idx))
        })
        .collect()
}

/// The compacted engine must agree with the uncompacted control —
/// globally for counter- and message-table-based queries, and on the
/// documented live suffix for closure-row-based ones.
fn assert_compacted_equivalent(comp: &mut FullAnalysis, ctrl: &mut FullAnalysis) {
    let n = ctrl.num_processes();
    assert_eq!(comp.num_processes(), n);
    assert_eq!(comp.num_messages(), ctrl.num_messages());

    // Global: running violation counter and verdicts.
    assert_eq!(comp.untrackable_pairs(), ctrl.untrackable_pairs(), "pairs");
    assert_eq!(comp.rdt_holds(), ctrl.rdt_holds(), "verdict");
    assert_eq!(comp.violations_capped(16), ctrl.violations_capped(16));
    assert_eq!(
        comp.with_closed(|v| (v.untrackable_pairs(), v.rdt_holds())),
        ctrl.with_closed(|v| (v.untrackable_pairs(), v.rdt_holds())),
        "closed view"
    );

    // Global: fixpoint consistency oracles stay exact for *any* member,
    // dropped checkpoints included, and for any caps vector.
    let everything = all_checkpoints(ctrl);
    for &c in &everything {
        assert_eq!(
            comp.min_consistent_containing(&[c]),
            ctrl.min_consistent_containing(&[c]),
            "min gc {c}"
        );
        assert_eq!(
            comp.max_consistent_containing(&[c]),
            ctrl.max_consistent_containing(&[c]),
            "max gc {c}"
        );
    }
    let tops: Vec<u32> = (0..n)
        .map(|p| ctrl.last_checkpoint_index(ProcessId::new(p)))
        .collect();
    let halves: Vec<u32> = tops.iter().map(|&t| t / 2).collect();
    for caps in [&tops, &halves] {
        assert_eq!(
            comp.max_consistent_dominated(caps),
            ctrl.max_consistent_dominated(caps),
            "recovery line under {caps:?}"
        );
    }

    // Global: message routes and delivery state.
    for mid in 0..ctrl.num_messages() as u32 {
        assert_eq!(comp.message_delivered(mid), ctrl.message_delivered(mid));
        assert_eq!(comp.message_route(mid), ctrl.message_route(mid));
    }

    // Live suffix: R-graph reachability and the R-graph minimum-GC
    // oracle for retained checkpoints.
    let base = comp.retained_from().to_vec();
    let retained: Vec<CheckpointId> = everything
        .iter()
        .copied()
        .filter(|c| c.index >= base[c.process.index()])
        .collect();
    for &a in &retained {
        assert_eq!(
            comp.min_consistent_via_rgraph(&[a]),
            ctrl.min_consistent_via_rgraph(&[a]),
            "min gc via R-graph {a}"
        );
        for &b in &retained {
            assert_eq!(comp.reaches(a, b), ctrl.reaches(a, b), "reaches {a} {b}");
        }
    }

    // Live suffix: chain-layer queries for heads strictly above the
    // chain floor, against arbitrary (even dropped) targets.
    let floor = comp.chain_floors().to_vec();
    let live_headed: Vec<CheckpointId> = everything
        .iter()
        .copied()
        .filter(|c| c.index > floor[c.process.index()])
        .collect();
    for &a in &live_headed {
        assert_eq!(comp.on_z_cycle(a), ctrl.on_z_cycle(a), "z-cycle {a}");
        for &b in &everything {
            assert_eq!(
                comp.chain_exists(a, b),
                ctrl.chain_exists(a, b),
                "chain {a} {b}"
            );
            assert_eq!(
                comp.causal_chain_exists(a, b),
                ctrl.causal_chain_exists(a, b),
                "causal chain {a} {b}"
            );
            assert_eq!(
                comp.causal_doubling_exists(a, b),
                ctrl.causal_doubling_exists(a, b),
                "doubling {a} {b}"
            );
            assert_eq!(
                comp.z_path_after_to_before(a, b),
                ctrl.z_path_after_to_before(a, b),
                "z-path {a} {b}"
            );
        }
    }

    // Live suffix: message chain closures for live-sent sources.
    let route_of = |mid: u32| ctrl.message_route(mid);
    for a in 0..ctrl.num_messages() as u32 {
        let ra = route_of(a);
        if ra.send_interval <= floor[ra.from.index()] {
            continue;
        }
        for b in 0..ctrl.num_messages() as u32 {
            assert_eq!(
                comp.zigzag_closure(a, b),
                ctrl.zigzag_closure(a, b),
                "zigzag {a} {b}"
            );
            assert_eq!(
                comp.causal_link_closure(a, b),
                ctrl.causal_link_closure(a, b),
                "causal link {a} {b}"
            );
        }
    }

    // Compaction is the memory lever: the compacted engine never holds
    // more closure rows than the control.
    assert!(comp.resident_closure_nodes() <= ctrl.resident_closure_nodes());
}

#[test]
fn fixed_seed_compaction_lockstep() {
    // Deterministic smoke corpus: compact every few events, verify the
    // full contract after every single append.
    for seed in [5u64, 41, 977, 40416] {
        for n in [2usize, 3] {
            let mut rng = Rng(seed | 1);
            let mut next_mid = 0u32;
            let mut in_flight = Vec::new();
            let ops = random_ops(&mut rng, n, 60, &mut next_mid, &mut in_flight);
            let mut comp = FullAnalysis::layered(n);
            let mut ctrl = FullAnalysis::layered(n);
            for (i, &op) in ops.iter().enumerate() {
                apply(&mut comp, op);
                apply(&mut ctrl, op);
                if i % 7 == 6 {
                    comp.compact_to_recovery_line();
                }
                assert_compacted_equivalent(&mut comp, &mut ctrl);
            }
        }
    }
}

#[test]
fn repeated_compaction_reclaims_and_stays_exact() {
    // A long run with frequent compaction: the watermark must advance,
    // rows must actually be reclaimed, and the final state must still
    // match the control.
    let n = 3;
    let mut rng = Rng(0xC0FFEE);
    let mut next_mid = 0u32;
    let mut in_flight = Vec::new();
    let ops = random_ops(&mut rng, n, 400, &mut next_mid, &mut in_flight);
    let mut comp = FullAnalysis::layered(n);
    let mut ctrl = FullAnalysis::layered(n);
    for (i, &op) in ops.iter().enumerate() {
        apply(&mut comp, op);
        apply(&mut ctrl, op);
        if i % 25 == 24 {
            comp.compact_to_recovery_line();
        }
    }
    assert!(comp.compactions() > 0, "long run must discard state");
    assert!(comp.reclaimed_rows() > 0);
    assert!(comp.compaction_watermark().iter().any(|&w| w > 0));
    assert!(comp.resident_closure_nodes() < ctrl.resident_closure_nodes());
    assert_compacted_equivalent(&mut comp, &mut ctrl);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random interleavings with compaction at random points (recovery
    /// line or arbitrary caps) answer identically to the uncompacted
    /// control after every append.
    fn compacted_engine_matches_control(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 20usize..80,
        stride in 5usize..16,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let ops = random_ops(&mut rng, n, events, &mut next_mid, &mut in_flight);
        let mut comp = FullAnalysis::layered(n);
        let mut ctrl = FullAnalysis::layered(n);
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut comp, op);
            apply(&mut ctrl, op);
            if i % stride == stride - 1 {
                if rng.below(2) == 0 {
                    comp.compact_to_recovery_line();
                } else {
                    let caps: Vec<u32> = (0..n)
                        .map(|p| {
                            let top = comp.last_checkpoint_index(ProcessId::new(p));
                            rng.below(top as usize + 1) as u32
                        })
                        .collect();
                    comp.compact_to(&caps);
                }
                assert_compacted_equivalent(&mut comp, &mut ctrl);
            }
        }
        assert_compacted_equivalent(&mut comp, &mut ctrl);
    }

    /// The same stream, compacted at the same random points, through the
    /// core instantiation and the full one: every core answer and every
    /// piece of compaction state agrees after every op.
    fn core_matches_full_after_every_op(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 20usize..120,
    ) {
        let mut rng = Rng(seed | 1);
        let (mut next_mid, mut in_flight) = (0u32, Vec::new());
        let ops = random_ops(&mut rng, n, events, &mut next_mid, &mut in_flight);
        let mut core = IncrementalAnalysis::new(n);
        let mut full = FullAnalysis::layered(n);
        for &op in &ops {
            apply(&mut core, op);
            apply(&mut full, op);
            let tops: Vec<u32> = (0..n)
                .map(|p| core.last_checkpoint_index(ProcessId::new(p)))
                .collect();
            match rng.below(6) {
                0 => {
                    let (c, f) = (core.compact_to_recovery_line(), full.compact_to_recovery_line());
                    prop_assert_eq!(c.dropped_r_nodes, f.dropped_r_nodes);
                    prop_assert_eq!((c.dropped_z_nodes, c.dropped_c_nodes), (0, 0));
                }
                1 => {
                    let caps: Vec<u32> = tops.iter().map(|&t| rng.below(t as usize + 1) as u32).collect();
                    let (c, f) = (core.compact_to(&caps), full.compact_to(&caps));
                    prop_assert_eq!(c.dropped_r_nodes, f.dropped_r_nodes);
                    prop_assert_eq!(c.discarded_state(), f.discarded_state());
                }
                _ => {}
            }
            prop_assert_eq!(core.untrackable_pairs(), full.untrackable_pairs());
            prop_assert_eq!(core.compaction_epoch(), full.compaction_epoch());
            prop_assert_eq!(core.compaction_watermark(), full.compaction_watermark());
            prop_assert_eq!(core.retained_from(), full.retained_from());
            let caps: Vec<u32> = tops.iter().map(|&t| rng.below(t as usize + 1) as u32).collect();
            prop_assert_eq!(core.max_consistent_dominated(&caps), full.max_consistent_dominated(&caps));
            let p = rng.below(n);
            let member = [cp(p, rng.below(tops[p] as usize + 1) as u32)];
            prop_assert_eq!(core.min_consistent_containing(&member), full.min_consistent_containing(&member));
            prop_assert_eq!(core.max_consistent_containing(&member), full.max_consistent_containing(&member));
        }
        // A chain-free engine holds one closure row per retained checkpoint
        // and nothing else.
        let retained = (0..n).map(|p| {
            core.last_checkpoint_index(ProcessId::new(p)) + 1 - core.retained_from()[p]
        });
        prop_assert_eq!(core.resident_closure_nodes(), retained.sum::<u32>() as usize);
    }

    /// Rewinding past a state-discarding compaction is the documented
    /// error and leaves the engine untouched; marks taken after the
    /// compaction rewind normally and branches replay identically.
    fn rewind_across_compaction_is_defined_error(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        pre in 10usize..40,
        branch in 4usize..16,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let prefix = random_ops(&mut rng, n, pre, &mut next_mid, &mut in_flight);
        let ops = random_ops(&mut rng, n, branch, &mut next_mid, &mut in_flight);

        let mut comp = FullAnalysis::layered(n);
        let mut ctrl = FullAnalysis::layered(n);
        for &op in &prefix {
            apply(&mut comp, op);
            apply(&mut ctrl, op);
        }
        let before = comp.mark();
        let stats = comp.compact_to_recovery_line();
        let after = comp.mark();

        if stats.discarded_state() {
            // Pre-compaction marks are dead: defined error, state intact.
            let err = comp.try_rewind(before);
            prop_assert!(
                matches!(err, Err(RewindError::CompactionBoundary { .. })),
                "expected boundary error, got {err:?}"
            );
            prop_assert!(comp.compaction_epoch() > 0);
            prop_assert!(comp.compactions() > 0);
            assert_compacted_equivalent(&mut comp, &mut ctrl);
        } else {
            // No state discarded: the old mark must still work.
            prop_assert!(comp.try_rewind(before).is_ok());
        }

        // Post-compaction marks behave like ordinary marks: branch,
        // rewind, replay — identical counters to the control throughout.
        for &op in &ops {
            apply(&mut comp, op);
        }
        let branched = comp.untrackable_pairs();
        prop_assert!(comp.try_rewind(after).is_ok());
        for &op in &ops {
            apply(&mut comp, op);
            apply(&mut ctrl, op);
        }
        prop_assert_eq!(comp.untrackable_pairs(), branched);
        assert_compacted_equivalent(&mut comp, &mut ctrl);
    }

    /// Crashy usage: processes repeatedly roll back to a recent mark
    /// (the simulator's crash-recovery shape), with compactions
    /// interleaved. Marks that survive an epoch keep working; marks that
    /// don't fail loudly; both engines stay in lockstep.
    fn crashy_rollback_with_compaction_stays_exact(
        seed in 1u64..1_000_000,
        n in 2usize..4,
        rounds in 3usize..8,
        burst in 6usize..20,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let mut comp = FullAnalysis::layered(n);
        let mut ctrl = FullAnalysis::layered(n);

        for _ in 0..rounds {
            // A burst of speculative events, observed then rolled back —
            // rgraph-level crash recovery.
            let snap_comp = comp.mark();
            let snap_ctrl = ctrl.mark();
            let (mut mid2, mut fly2) = (next_mid, in_flight.clone());
            let spec = random_ops(&mut rng, n, burst, &mut mid2, &mut fly2);
            for &op in &spec {
                apply(&mut comp, op);
                apply(&mut ctrl, op);
            }
            assert_compacted_equivalent(&mut comp, &mut ctrl);
            comp.rewind(snap_comp);
            ctrl.rewind(snap_ctrl);

            // The surviving history advances and is compacted.
            let keep = random_ops(&mut rng, n, burst, &mut next_mid, &mut in_flight);
            for &op in &keep {
                apply(&mut comp, op);
                apply(&mut ctrl, op);
            }
            let stats = comp.compact_to_recovery_line();
            if stats.discarded_state() {
                prop_assert!(matches!(
                    comp.try_rewind(snap_comp),
                    Err(RewindError::CompactionBoundary { .. })
                ));
            }
            assert_compacted_equivalent(&mut comp, &mut ctrl);
        }
    }
}
