//! Differential testing of the incremental analysis engine against the
//! oracles of the event prefix, on randomly generated event sequences:
//! the naive R-closure ([`RGraph::reachability_naive`](rdt_rgraph::RGraph::reachability_naive))
//! and the replayed `TDV`s for the R-path half, the batch chain closures
//! and fixpoints of [`PatternAnalysis`] for the rest.
//!
//! Two properties anchor the engine's correctness:
//!
//! 1. **Prefix equivalence** — after *every* append, the incremental
//!    state answers every public query identically to the oracles of the
//!    event prefix.
//! 2. **Branch isolation** — rewinding a branch of appended events and
//!    re-appending a different branch matches a fresh build of the new
//!    sequence: no state leaks across `mark()`/`rewind()` boundaries.

use proptest::prelude::*;
use rdt_causality::ProcessId;
use rdt_rgraph::characterization::{all_chains_doubled, all_cm_paths_doubled};
use rdt_rgraph::{
    min_max, FullAnalysis, Pattern, PatternAnalysis, PatternBuilder, PatternMessageId,
};

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
fn random_ops(
    rng: &mut Rng,
    n: usize,
    events: usize,
    next_mid: &mut u32,
    in_flight: &mut Vec<u32>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..events {
        match rng.below(4) {
            0 => ops.push(Op::Cp(rng.below(n))),
            1 | 2 => {
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

/// Applies ops in lockstep to the engine and to a [`PatternBuilder`]
/// mirror (so batch analyses of the same prefix can be built on demand).
struct Lockstep {
    incr: FullAnalysis,
    builder: PatternBuilder,
    mids: Vec<PatternMessageId>,
}

impl Lockstep {
    fn new(n: usize) -> Self {
        Lockstep {
            incr: FullAnalysis::layered(n),
            builder: PatternBuilder::new(n),
            mids: Vec::new(),
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Cp(i) => {
                self.incr.append_checkpoint(ProcessId::new(i));
                self.builder.checkpoint(ProcessId::new(i));
            }
            Op::Send(from, to) => {
                let mid = self
                    .incr
                    .append_send(ProcessId::new(from), ProcessId::new(to));
                assert_eq!(mid as usize, self.mids.len(), "send-order handles");
                self.mids
                    .push(self.builder.send(ProcessId::new(from), ProcessId::new(to)));
            }
            Op::Del(k) => {
                self.incr.append_deliver(k);
                self.builder
                    .deliver(self.mids[k as usize])
                    .expect("in-flight message is deliverable");
            }
        }
    }

    fn pattern(&self) -> Pattern {
        self.builder.clone().build().expect("well-formed")
    }
}

/// Every public query of the engine must agree with the oracles of the
/// same pattern.
fn assert_equivalent(incr: &mut FullAnalysis, pattern: &Pattern) {
    let analysis = PatternAnalysis::new(pattern);
    let closed = analysis.pattern();
    let reach = analysis.rgraph().reachability_naive();
    let annotations = analysis.annotations().expect("realizable");
    let zz = analysis.zigzag();

    incr.with_closed(|view| {
        // Every pair the naive closure connects and the replayed TDVs do
        // not track, in the engine's order.
        let mut untrackable: Vec<_> = closed
            .checkpoints()
            .flat_map(|from| reach.reachable_from(from).map(move |to| (from, to)))
            .filter(|&(from, to)| !annotations.trackable(from, to))
            .collect();
        untrackable.sort_by_key(|&(f, t)| (t.process, t.index, f.process, f.index));
        let cells: Vec<_> = view.untrackable_cells().collect();
        assert_eq!(cells, untrackable, "untrackable cells");
        assert_eq!(
            view.untrackable_pairs(),
            untrackable.len() as u64,
            "untrackable"
        );
        assert_eq!(
            view.total_reachable_pairs(),
            reach.total_reachable_pairs(),
            "closure popcount"
        );
        assert_eq!(view.rdt_holds(), untrackable.is_empty(), "verdict");
        assert_eq!(
            view.violations_capped(),
            untrackable.len().min(16),
            "capped violations"
        );
        assert_eq!(
            view.all_chains_doubled(),
            all_chains_doubled(&analysis),
            "chains doubled"
        );
        assert_eq!(
            view.visible_holds(),
            all_cm_paths_doubled(&analysis),
            "cm paths doubled"
        );

        for a in 0..pattern.num_messages() {
            for b in 0..pattern.num_messages() {
                let (ma, mb) = (PatternMessageId(a), PatternMessageId(b));
                assert_eq!(
                    view.zigzag_closure(a as u32, b as u32),
                    zz.zigzag_closure(ma, mb),
                    "zigzag closure ({ma}, {mb})"
                );
                assert_eq!(
                    view.causal_link_closure(a as u32, b as u32),
                    zz.causal_link_closure(ma, mb),
                    "causal closure ({ma}, {mb})"
                );
            }
        }

        for from in closed.checkpoints() {
            assert_eq!(view.on_z_cycle(from), zz.on_z_cycle(from), "{from}");
            for to in closed.checkpoints() {
                assert_eq!(
                    view.reaches(from, to),
                    reach.reaches(from, to),
                    "reaches ({from}, {to})"
                );
                assert_eq!(
                    view.chain_exists(from, to),
                    zz.chain_exists(from, to),
                    "chain ({from}, {to})"
                );
                assert_eq!(
                    view.causal_chain_exists(from, to),
                    zz.causal_chain_exists(from, to),
                    "causal chain ({from}, {to})"
                );
                assert_eq!(
                    view.causal_doubling_exists(from, to),
                    zz.causal_doubling_exists(from, to),
                    "doubling ({from}, {to})"
                );
                assert_eq!(
                    view.z_path_after_to_before(from, to),
                    zz.z_path_after_to_before(from, to),
                    "z-path ({from}, {to})"
                );
            }
            let member = [from];
            assert_eq!(
                view.min_consistent_containing(&member),
                min_max::min_consistent_containing(closed, &member),
                "min gc {from}"
            );
            assert_eq!(
                view.max_consistent_containing(&member),
                min_max::max_consistent_containing(closed, &member),
                "max gc {from}"
            );
            assert_eq!(
                view.min_consistent_via_rgraph(&member),
                min_max::min_consistent_containing(closed, &member),
                "min gc via R-graph {from}"
            );
        }
    });
}

/// Cheap closed-state observation used to compare replayed branches.
fn digest(incr: &mut FullAnalysis) -> (u64, usize, bool, bool, bool) {
    incr.with_closed(|view| {
        (
            view.untrackable_pairs(),
            view.total_reachable_pairs(),
            view.rdt_holds(),
            view.all_chains_doubled(),
            view.visible_holds(),
        )
    })
}

#[test]
fn incremental_matches_batch_on_fixed_seeds() {
    // Deterministic smoke corpus: full equivalence after every append.
    for seed in [3u64, 17, 99, 2024] {
        for n in [2usize, 3] {
            let mut rng = Rng(seed | 1);
            let mut next_mid = 0u32;
            let mut in_flight = Vec::new();
            let ops = random_ops(&mut rng, n, 30, &mut next_mid, &mut in_flight);
            let mut lock = Lockstep::new(n);
            for &op in &ops {
                lock.apply(op);
                let prefix = lock.pattern();
                assert_equivalent(&mut lock.incr, &prefix);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// After every append in a random event sequence, the incremental
    /// state answers identically to a fresh batch analysis of the prefix.
    fn incremental_matches_batch_after_every_append(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        events in 10usize..40,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let ops = random_ops(&mut rng, n, events, &mut next_mid, &mut in_flight);
        let mut lock = Lockstep::new(n);
        for &op in &ops {
            lock.apply(op);
            let prefix = lock.pattern();
            assert_equivalent(&mut lock.incr, &prefix);
        }
    }

    /// Rewinding k events and re-appending a different branch matches a
    /// fresh build of the new sequence, and replaying the first branch
    /// after the detour reproduces its observation exactly.
    fn rewound_branches_do_not_leak(
        seed in 1u64..1_000_000,
        n in 2usize..5,
        pre in 4usize..24,
        a_len in 3usize..16,
        b_len in 3usize..16,
    ) {
        let mut rng = Rng(seed | 1);
        let mut next_mid = 0u32;
        let mut in_flight = Vec::new();
        let prefix = random_ops(&mut rng, n, pre, &mut next_mid, &mut in_flight);
        let (mut mid_a, mut fly_a) = (next_mid, in_flight.clone());
        let ops_a = random_ops(&mut rng, n, a_len, &mut mid_a, &mut fly_a);
        let (mut mid_b, mut fly_b) = (next_mid, in_flight.clone());
        let ops_b = random_ops(&mut rng, n, b_len, &mut mid_b, &mut fly_b);

        let mut lock = Lockstep::new(n);
        for &op in &prefix {
            lock.apply(op);
        }
        let mark = lock.incr.mark();
        let builder_at_mark = lock.builder.clone();

        // Branch A, observed and fully verified against batch.
        for &op in &ops_a {
            lock.apply(op);
        }
        let digest_a = digest(&mut lock.incr);
        let pattern_a = lock.pattern();
        assert_equivalent(&mut lock.incr, &pattern_a);

        // Rewind, then branch B: verdicts must be those of prefix+B.
        lock.incr.rewind(mark);
        lock.builder = builder_at_mark.clone();
        lock.mids.truncate(next_mid as usize);
        for &op in &ops_b {
            lock.apply(op);
        }
        let pattern_b = lock.pattern();
        assert_equivalent(&mut lock.incr, &pattern_b);

        // Rewind again and replay branch A: identical observation, both
        // against the detoured engine and a fresh one.
        lock.incr.rewind(mark);
        lock.builder = builder_at_mark;
        lock.mids.truncate(next_mid as usize);
        for &op in &ops_a {
            lock.apply(op);
        }
        prop_assert_eq!(digest(&mut lock.incr), digest_a);

        let mut fresh = Lockstep::new(n);
        for &op in prefix.iter().chain(&ops_a) {
            fresh.apply(op);
        }
        prop_assert_eq!(digest(&mut fresh.incr), digest_a);
    }
}
