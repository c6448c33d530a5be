//! Characterizations of RDT over message chains — the theory the PODC 1999
//! companion paper (*"Rollback-Dependency Trackability: Visible
//! Characterizations"*) develops.
//!
//! Three equivalent views of the same property are implemented:
//!
//! 1. **R-path trackability** (Definition 3.4) —
//!    [`PatternAnalysis::rdt_report`];
//! 2. **all chains doubled** — every message chain (zigzag path) between
//!    two checkpoints is *doubled* by a causal chain carrying at least as
//!    much rollback information ([`all_chains_doubled`]);
//! 3. **all CM-paths doubled** — it suffices to double the *visible*
//!    family of chains of the form `[causal-prefix · m]`: a causal chain
//!    followed by one message ([`all_cm_paths_doubled`]). These are the
//!    chains a process can actually observe forming when `m` arrives,
//!    which is why on-line protocols (predicate `C1`) can prevent exactly
//!    them and still obtain full RDT.
//!
//! The equivalence `(2) ⇔ (3)` is the heart of the "visible
//! characterization": an induction on chain length shows every chain is a
//! concatenation of CM-paths whose doublings compose. The test-suite
//! verifies `(1) ⇔ (2) ⇔ (3)` on the paper's figures and on randomly
//! generated patterns.
//!
//! Each function reads the artifacts of one shared [`PatternAnalysis`], so
//! asking all three of one pattern pays for each closure a single time.

use rdt_causality::CheckpointId;

use crate::chains::ZigzagReachability;
use crate::{Pattern, PatternAnalysis, PatternMessageId};

/// A chain-level RDT counterexample: the endpoints of a message chain with
/// no causal doubling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndoubledChain {
    /// Chain origin (`C_{i,x}` with the first send in `I_{i,x}`).
    pub from: CheckpointId,
    /// Chain destination (`C_{j,y}` with the last delivery in `I_{j,y}`).
    pub to: CheckpointId,
}

/// Returns every endpoint pair `(from, to)` connected by some message
/// chain but by **no** causal doubling (a causal chain from an interval
/// `≥ from` to an interval `≤ to` on the same processes).
///
/// The pattern satisfies RDT iff this list is empty (characterization (2));
/// cross-validated against [`PatternAnalysis::rdt_report`] in the tests.
/// Pays for the chain closures only if no other characterization has
/// already.
pub fn undoubled_chains(analysis: &PatternAnalysis) -> Vec<UndoubledChain> {
    let pattern = analysis.pattern();
    let zz = analysis.zigzag();
    let mut out = Vec::new();
    // BTreeSet, not HashSet: `out` is built in iteration order, and result
    // paths must not depend on hash-order (the `hash-collections` lint
    // rule keeps it that way).
    let mut seen = std::collections::BTreeSet::new();
    for &a in zz.delivered_messages() {
        let from_iv = pattern.send_interval(a);
        let from = CheckpointId::new(from_iv.process, from_iv.index);
        for &b in zz.delivered_messages() {
            if !zz_chain(zz, a, b) {
                continue;
            }
            let to_iv = pattern.deliver_interval(b).expect("delivered");
            let to = CheckpointId::new(to_iv.process, to_iv.index);
            if !seen.insert((from, to)) {
                continue;
            }
            if trivially_trackable(from, to) {
                continue;
            }
            if !zz.causal_doubling_exists(from, to) {
                out.push(UndoubledChain { from, to });
            }
        }
    }
    out
}

/// Characterization (2): every message chain is doubled by a causal chain.
pub fn all_chains_doubled(analysis: &PatternAnalysis) -> bool {
    undoubled_chains(analysis).is_empty()
}

/// Characterization (3): every **CM-path** is doubled.
///
/// A CM-path is a chain `[μ · m]` where `μ` is a causal chain (possibly a
/// single message) and `m` is one more message attached through a zigzag
/// link — the only kind of chain whose formation is *visible* to the
/// process delivering `m`. Checking just this family is enough: doublings
/// compose along the concatenations that build longer chains.
pub fn all_cm_paths_doubled(analysis: &PatternAnalysis) -> bool {
    let pattern = analysis.pattern();
    let zz = analysis.zigzag();
    let delivered = zz.delivered_messages().to_vec();
    for &mid in &delivered {
        // `mid` is the junction message m' ending the causal prefix μ; `b`
        // is the trailing message m.
        for &b in &delivered {
            if mid == b || !zigzag_link(pattern, mid, b) {
                continue;
            }
            let to_iv = pattern.deliver_interval(b).expect("delivered");
            let to = CheckpointId::new(to_iv.process, to_iv.index);
            for &a in &delivered {
                if !zz.causal_link_closure(a, mid) {
                    continue;
                }
                let from_iv = pattern.send_interval(a);
                let from = CheckpointId::new(from_iv.process, from_iv.index);
                if trivially_trackable(from, to) {
                    continue;
                }
                if !zz.causal_doubling_exists(from, to) {
                    return false;
                }
            }
        }
    }
    true
}

/// All checkpoints lying on a Z-cycle — the *useless* checkpoints of
/// Netzer & Xu, which belong to no consistent global checkpoint.
///
/// RDT implies there are none: a Z-cycle would demand a causal chain from
/// a checkpoint back into its own past.
pub fn useless_checkpoints(analysis: &PatternAnalysis) -> Vec<CheckpointId> {
    let zz = analysis.zigzag();
    analysis
        .pattern()
        .checkpoints()
        .filter(|&c| zz.on_z_cycle(c))
        .collect()
}

/// Same-process forward dependencies are trackable by index comparison
/// alone (Definition 3.3's first disjunct) and need no causal doubling.
fn trivially_trackable(from: CheckpointId, to: CheckpointId) -> bool {
    from.process == to.process && from.index <= to.index
}

/// Whether `[a, b]` forms one zigzag link: `deliver(a) ∈ I_{k,s}`,
/// `send(b) ∈ I_{k,t}`, `s ≤ t`.
fn zigzag_link(pattern: &Pattern, a: PatternMessageId, b: PatternMessageId) -> bool {
    match pattern.deliver_interval(a) {
        Some(d) => {
            let s = pattern.send_interval(b);
            d.process == s.process && d.index <= s.index
        }
        None => false,
    }
}

fn zz_chain(zz: &ZigzagReachability, a: PatternMessageId, b: PatternMessageId) -> bool {
    // Chain-reachable through the zigzag closure (reflexively).
    match (zz.dense_index(a), zz.dense_index(b)) {
        (Some(_), Some(_)) => zz.zigzag_closure(a, b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;

    fn rdt_verdicts(pattern: &Pattern) -> (bool, bool, bool, bool) {
        let analysis = PatternAnalysis::new(pattern);
        (
            analysis.rdt_report().holds(),
            all_chains_doubled(&analysis),
            all_cm_paths_doubled(&analysis),
            analysis.core().expect("realizable").visible_holds(),
        )
    }

    fn useless(pattern: &Pattern) -> Vec<CheckpointId> {
        useless_checkpoints(&PatternAnalysis::new(pattern))
    }

    #[test]
    fn characterizations_agree_on_paper_figures() {
        for (name, pattern, expected) in [
            ("figure_1", paper_figures::figure_1(), false),
            (
                "figure_2_unbroken",
                paper_figures::figure_2_unbroken(),
                false,
            ),
            ("figure_2_broken", paper_figures::figure_2_broken(), true),
            (
                "figure_4_unbroken",
                paper_figures::figure_4_unbroken(),
                false,
            ),
            ("figure_4_broken", paper_figures::figure_4_broken(), true),
        ] {
            let (r, chains, cm, visible) = rdt_verdicts(&pattern);
            assert_eq!(r, expected, "{name}: rdt_report");
            assert_eq!(chains, expected, "{name}: all_chains_doubled");
            assert_eq!(cm, expected, "{name}: all_cm_paths_doubled");
            assert_eq!(visible, expected, "{name}: visible_holds");
        }
    }

    #[test]
    fn figure_1_undoubled_chain_is_m3_m2() {
        let (pattern, f) = paper_figures::figure_1_with_handles();
        let undoubled = undoubled_chains(&PatternAnalysis::new(&pattern));
        assert!(undoubled
            .iter()
            .any(|u| u.from == CheckpointId::new(f.pk, 1) && u.to == CheckpointId::new(f.pi, 2)));
        // [m5 m4] is doubled by [m5 m6]: its endpoints must NOT appear.
        assert!(!undoubled
            .iter()
            .any(|u| u.from == CheckpointId::new(f.pi, 3) && u.to == CheckpointId::new(f.pk, 2)));
    }

    #[test]
    fn useless_checkpoints_only_without_rdt() {
        assert!(useless(&paper_figures::figure_2_broken()).is_empty());
        assert!(useless(&paper_figures::figure_4_broken()).is_empty());
        assert_eq!(
            useless(&paper_figures::figure_4_unbroken()),
            vec![CheckpointId::new(rdt_causality::ProcessId::new(1), 1)]
        );
    }

    #[test]
    fn figure_1_has_no_useless_checkpoint_despite_rdt_violation() {
        // RDT violations and Z-cycles are different defects: figure 1
        // breaks trackability but every checkpoint still belongs to some
        // consistent global checkpoint.
        let analysis = PatternAnalysis::new(&paper_figures::figure_1());
        assert!(useless_checkpoints(&analysis).is_empty());
        assert!(!all_chains_doubled(&analysis));
    }
}
