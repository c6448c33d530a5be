//! Differential testing of epoch compaction: a compacting engine and an
//! uncompacted control replay the same event sequence in lockstep, and
//! after every append and every compaction point the compacted engine
//! must answer identically on its documented domain.
//!
//! Two properties anchor compaction's correctness:
//!
//! 1. **Global exactness** — the untrackable-pair counter, the RDT
//!    verdict (open and closed view), and the fixpoint consistency
//!    oracles agree with the control over the *entire* history, dropped
//!    prefix included.
//! 2. **Live-suffix exactness** — `reaches` and the R-graph minimum-GC
//!    oracle agree with the control on retained checkpoints, and the
//!    visible `TDV` violations on messages whose closing checkpoints are
//!    retained, above the watermark.
//!
//! Only the journal-free core compacts, so the compacted engine is an
//! [`IncrementalAnalysis`]; its closed view is a journal-free copy of it,
//! restored from its snapshot, with a checkpoint appended to every open
//! line. The control carries the undo journal, for `with_closed` and for
//! the rollbacks of the crashy property.

use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::JsonWriter;
use rdt_rgraph::{IncrementalAnalysis, Journal, NoChains, UndoJournal};

/// The uncompacted control.
type Control = IncrementalAnalysis<NoChains, UndoJournal>;

/// The closure nodes the control holds: every checkpoint it was fed, the
/// initial ones included, since it never compacts.
fn control_nodes(ctrl: &Control) -> usize {
    let n = ctrl.num_processes();
    (0..n)
        .map(|p| ctrl.last_checkpoint_index(ProcessId::new(p)) as usize + 1)
        .sum()
}

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

fn apply<J: Journal>(incr: &mut IncrementalAnalysis<NoChains, J>, op: Op) {
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
fn all_checkpoints(incr: &Control) -> Vec<CheckpointId> {
    (0..incr.num_processes())
        .flat_map(|p| {
            (0..=incr.last_checkpoint_index(ProcessId::new(p))).map(move |idx| cp(p, idx))
        })
        .collect()
}

/// The closed view of a journal-free engine: a copy restored from its
/// snapshot, with a checkpoint appended to every line that does not end in
/// one (the lines whose frontier lies past their last checkpoint), as
/// `with_closed` appends them.
fn closed(engine: &IncrementalAnalysis) -> IncrementalAnalysis {
    let mut text = Vec::new();
    engine.write_snapshot(&mut JsonWriter::new(&mut text));
    let mut copy = IncrementalAnalysis::from_snapshot_text(&text).expect("restores");
    let n = engine.num_processes();
    let (mut frontier, mut line) = (vec![u32::MAX; n], vec![0; n]);
    engine.max_consistent_dominated_open_into(&mut frontier, &mut line);
    for (p, &top) in frontier.iter().enumerate() {
        let process = ProcessId::new(p);
        if top > engine.last_checkpoint_index(process) {
            copy.append_checkpoint(process);
        }
    }
    copy
}

/// The compacted engine must agree with the uncompacted control —
/// globally for counter- and message-table-based queries, and on the
/// documented live suffix for closure-row-based ones.
fn assert_compacted_equivalent(comp: &IncrementalAnalysis, ctrl: &mut Control) {
    let n = ctrl.num_processes();
    assert_eq!(comp.num_processes(), n);
    assert_eq!(comp.num_messages(), ctrl.num_messages());

    // Global: running violation counter and verdicts.
    assert_eq!(comp.untrackable_pairs(), ctrl.untrackable_pairs(), "pairs");
    assert_eq!(comp.rdt_holds(), ctrl.rdt_holds(), "verdict");
    assert_eq!(comp.violations_capped(), ctrl.violations_capped());
    let comp_closed = closed(comp);
    assert_eq!(
        (comp_closed.untrackable_pairs(), comp_closed.rdt_holds()),
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

    // Live suffix: characterization 3 on the closed views. The compacted
    // engine lists the control's violations whose closing checkpoints it
    // retains and whose sender `TDV` lane sits above its watermark.
    let floor = comp.compaction_watermark().to_vec();
    let retained = |c: CheckpointId| c.index >= base[c.process.index()];
    let ours: Vec<_> = comp_closed.visible_violations().collect();
    let theirs: Vec<_> = ctrl.with_closed(|v| {
        let kept = |&(mid, i): &(u32, usize)| {
            let r = v.message_route(mid);
            let sent = cp(r.from.index(), r.send_interval);
            let got = cp(r.to.index(), r.deliver_interval.expect("delivered"));
            let above = v.checkpoint_tdv(sent).expect("taken")[i] > floor[i];
            retained(sent) && retained(got) && above
        };
        v.visible_violations().filter(kept).collect()
    });
    assert_eq!(ours, theirs, "visible violations");

    // Compaction is the memory lever: the compacted engine holds one
    // closure row per retained checkpoint, never more than the control.
    let kept = (0..n).map(|p| comp.last_checkpoint_index(ProcessId::new(p)) + 1 - base[p]);
    assert_eq!(comp.resident_closure_nodes(), kept.sum::<u32>() as usize);
    assert!(comp.resident_closure_nodes() <= control_nodes(ctrl));
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
            let mut comp = IncrementalAnalysis::new(n);
            let mut ctrl = Control::layered(n);
            for (i, &op) in ops.iter().enumerate() {
                apply(&mut comp, op);
                apply(&mut ctrl, op);
                if i % 7 == 6 {
                    comp.compact_to_recovery_line();
                }
                assert_compacted_equivalent(&comp, &mut ctrl);
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
    let mut comp = IncrementalAnalysis::new(n);
    let mut ctrl = Control::layered(n);
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
    assert!(comp.resident_closure_nodes() < control_nodes(&ctrl));
    assert_compacted_equivalent(&comp, &mut ctrl);
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
        let mut comp = IncrementalAnalysis::new(n);
        let mut ctrl = Control::layered(n);
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
                assert_compacted_equivalent(&comp, &mut ctrl);
            }
        }
        assert_compacted_equivalent(&comp, &mut ctrl);
    }

    /// Crashy usage: processes repeatedly roll back to a recent mark
    /// (the simulator's crash-recovery shape), with compactions
    /// interleaved. The speculative bursts and their rollbacks run on the
    /// journaled control alone: the compacted engine, which never saw them,
    /// must equal the rewound control.
    fn crashy_rollback_with_compaction_stays_exact(
        seed in 1u64..1_000_000,
        n in 2usize..4,
        rounds in 3usize..8,
        burst in 6usize..20,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let mut comp = IncrementalAnalysis::new(n);
        let mut ctrl = Control::layered(n);

        for _ in 0..rounds {
            // A burst of speculative events, observed then rolled back —
            // rgraph-level crash recovery.
            let snap_ctrl = ctrl.mark();
            let (mut mid2, mut fly2) = (next_mid, in_flight.clone());
            let spec = random_ops(&mut rng, n, burst, &mut mid2, &mut fly2);
            for &op in &spec {
                apply(&mut ctrl, op);
            }
            ctrl.rewind(snap_ctrl);
            assert_compacted_equivalent(&comp, &mut ctrl);

            // The surviving history advances and is compacted.
            let keep = random_ops(&mut rng, n, burst, &mut next_mid, &mut in_flight);
            for &op in &keep {
                apply(&mut comp, op);
                apply(&mut ctrl, op);
            }
            comp.compact_to_recovery_line();
            assert_compacted_equivalent(&comp, &mut ctrl);
        }
    }
}
