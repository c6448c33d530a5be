//! Differential testing of the optimized closures against the naive
//! per-start DFS references, on randomly generated patterns.
//!
//! The chain kernels ([`rdt_rgraph::closure::transitive_closure`] and the
//! compressed link graphs behind [`ZigzagReachability::new`]) must be
//! observationally identical to the quadratic baselines
//! ([`transitive_closure_reference`](rdt_rgraph::closure::transitive_closure_reference),
//! [`ZigzagReachability::new_naive`]) on every query the crate exposes.
//! The R-path half is a replay into the incremental core: its closure, and
//! the [`RdtChecker`] verdict, count and uncapped violation set read off
//! it, must equal [`RGraph::reachability_naive`] plus the replayed `TDV`s
//! ([`CheckpointAnnotations::trackable`](rdt_rgraph::CheckpointAnnotations::trackable)).

use proptest::prelude::*;
use rdt_causality::ProcessId;
use rdt_rgraph::{
    min_max, Pattern, PatternAnalysis, PatternBuilder, PatternMessageId, RdtChecker,
    ZigzagReachability,
};

/// Deterministic xorshift generator driving the pattern builder.
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

/// Builds a random checkpoint & communication pattern: a mix of local
/// checkpoints, sends, and (possibly out-of-order) deliveries, with some
/// messages left in transit and the pattern only sometimes closed.
fn random_pattern(seed: u64, n: usize, events: usize) -> Pattern {
    let mut rng = Rng(seed | 1);
    let mut b = PatternBuilder::new(n);
    let mut in_flight: Vec<PatternMessageId> = Vec::new();
    for _ in 0..events {
        match rng.below(4) {
            0 => {
                b.checkpoint(ProcessId::new(rng.below(n)));
            }
            1 | 2 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                in_flight.push(b.send(ProcessId::new(from), ProcessId::new(to)));
            }
            _ => {
                if !in_flight.is_empty() {
                    let i = rng.below(in_flight.len());
                    let m = in_flight.swap_remove(i);
                    b.deliver(m).expect("in-flight message is deliverable");
                }
            }
        }
    }
    if rng.below(2) == 0 {
        b.close();
    }
    b.build().expect("random pattern is well-formed")
}

/// Every query of the two `ZigzagReachability` builds must agree.
fn assert_zigzag_equivalent(pattern: &Pattern) {
    let fast = ZigzagReachability::new(pattern);
    let naive = ZigzagReachability::new_naive(pattern);
    assert_eq!(fast.delivered_messages(), naive.delivered_messages());

    for a in 0..pattern.num_messages() {
        for b in 0..pattern.num_messages() {
            let (ma, mb) = (PatternMessageId(a), PatternMessageId(b));
            assert_eq!(
                fast.zigzag_closure(ma, mb),
                naive.zigzag_closure(ma, mb),
                "zigzag closure differs on ({ma}, {mb})"
            );
            assert_eq!(
                fast.causal_link_closure(ma, mb),
                naive.causal_link_closure(ma, mb),
                "causal closure differs on ({ma}, {mb})"
            );
        }
    }

    for from in pattern.checkpoints() {
        assert_eq!(fast.on_z_cycle(from), naive.on_z_cycle(from), "{from}");
        for to in pattern.checkpoints() {
            assert_eq!(
                fast.chain_exists(from, to),
                naive.chain_exists(from, to),
                "chain_exists differs on ({from}, {to})"
            );
            assert_eq!(
                fast.causal_chain_exists(from, to),
                naive.causal_chain_exists(from, to),
                "causal_chain_exists differs on ({from}, {to})"
            );
            assert_eq!(
                fast.causal_doubling_exists(from, to),
                naive.causal_doubling_exists(from, to),
                "causal_doubling_exists differs on ({from}, {to})"
            );
            assert_eq!(
                fast.z_path_after_to_before(from, to),
                naive.z_path_after_to_before(from, to),
                "z_path differs on ({from}, {to})"
            );
        }
    }
}

/// The R-path answers read off the core must be the naive oracles': the
/// closure, the verdict (at every violation limit), the count, and the
/// whole uncapped violation set in destination-then-source order, each
/// violation with an R-path of the graph's own edges from `from` to `to`.
fn assert_r_paths_match_oracles(pattern: &Pattern) {
    let analysis = PatternAnalysis::new(pattern);
    let closed = analysis.pattern();
    let graph = analysis.rgraph();
    let naive = graph.reachability_naive();
    let annotations = analysis.annotations().expect("realizable");
    let mut untrackable: Vec<_> = closed
        .checkpoints()
        .flat_map(|from| naive.reachable_from(from).map(move |to| (from, to)))
        .filter(|&(from, to)| !annotations.trackable(from, to))
        .collect();
    untrackable.sort_by_key(|&(f, t)| (t.process, t.index, f.process, f.index));

    let report = RdtChecker::new(pattern).max_violations(usize::MAX).check();
    assert_eq!(report.holds(), untrackable.is_empty(), "verdict");
    assert_eq!(
        report.r_paths_found(),
        naive.total_reachable_pairs(),
        "R-path count"
    );
    let found: Vec<_> = report.violations().iter().map(|v| (v.from, v.to)).collect();
    assert_eq!(found, untrackable, "uncapped violation set");
    for v in report.violations() {
        assert_eq!(v.r_path.first(), Some(&v.from), "{v}");
        assert_eq!(v.r_path.last(), Some(&v.to), "{v}");
        for hop in v.r_path.windows(2) {
            let (a, b) = (graph.node(hop[0]), graph.node(hop[1]));
            assert!(graph.successors(a).contains(&b), "{v}: no edge {a} -> {b}");
        }
    }
    for limit in [0, 1, 16] {
        let capped = RdtChecker::new(pattern).max_violations(limit).check();
        let kept = untrackable.len().min(limit.max(1));
        assert_eq!(
            capped.violations(),
            &report.violations()[..kept],
            "limit {limit}"
        );
        assert_eq!(capped.holds(), report.holds(), "verdict at limit {limit}");
    }

    let core = analysis.core().expect("realizable");
    for a in closed.checkpoints() {
        for b in closed.checkpoints() {
            assert_eq!(
                core.reaches(a, b),
                naive.reaches(a, b),
                "R-graph reachability differs on ({a}, {b})"
            );
        }
        assert_eq!(
            core.min_consistent_via_rgraph(&[a]),
            min_max::min_consistent_containing(closed, &[a]),
            "min gc via R-graph {a}"
        );
    }
}

#[test]
fn kernels_agree_on_paper_figures() {
    for pattern in [
        rdt_rgraph::paper_figures::figure_1(),
        rdt_rgraph::paper_figures::figure_2_unbroken(),
        rdt_rgraph::paper_figures::figure_2_broken(),
        rdt_rgraph::paper_figures::figure_4_unbroken(),
        rdt_rgraph::paper_figures::figure_4_broken(),
    ] {
        assert_zigzag_equivalent(&pattern);
        assert_r_paths_match_oracles(&pattern);
    }
}

#[test]
fn kernels_agree_on_fixed_seeds() {
    // Deterministic smoke corpus, cheap enough for every CI run.
    for seed in [3u64, 17, 99, 2024] {
        for n in [2usize, 4, 6] {
            let pattern = random_pattern(seed, n, 60);
            assert_zigzag_equivalent(&pattern);
            assert_r_paths_match_oracles(&pattern);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Optimized SCC/word-parallel chain closures ≡ naive per-bit DFS
    /// closures on arbitrary random patterns — every public query compared.
    fn optimized_kernels_match_naive_reference(
        seed in 1u64..1_000_000,
        n in 2usize..7,
        events in 10usize..90,
    ) {
        let pattern = random_pattern(seed, n, events);
        assert_zigzag_equivalent(&pattern);
    }

    /// The batch R-path check, a replay into the incremental core, ≡ the
    /// naive R-closure plus the replayed `TDV`s on arbitrary random
    /// patterns: closure, verdict, count and every violation.
    fn r_path_check_matches_the_naive_oracles(
        seed in 1u64..1_000_000,
        n in 2usize..7,
        events in 10usize..90,
    ) {
        assert_r_paths_match_oracles(&random_pattern(seed, n, events));
    }
}
