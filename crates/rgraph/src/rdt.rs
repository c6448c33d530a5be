//! Offline verification of the Rollback-Dependency Trackability property
//! (Definition 3.4).

use std::fmt;

use rdt_causality::CheckpointId;

use crate::PatternAnalysis;

/// One R-path that is not on-line trackable: the witness of an RDT
/// violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RdtViolation {
    /// Origin of the untrackable R-path.
    pub from: CheckpointId,
    /// Destination of the untrackable R-path.
    pub to: CheckpointId,
    /// One concrete R-path from `from` to `to` (checkpoint sequence).
    pub r_path: Vec<CheckpointId>,
}

impl fmt::Display for RdtViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "untrackable R-path {} -> {} (", self.from, self.to)?;
        for (i, c) in self.r_path.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// Result of an RDT check.
#[derive(Debug, Clone)]
pub struct RdtReport {
    violations: Vec<RdtViolation>,
    r_paths_found: usize,
}

impl RdtReport {
    /// Whether the pattern satisfies RDT.
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }

    /// The untrackable R-paths found: the first 16, ordered by destination,
    /// then source.
    pub fn violations(&self) -> &[RdtViolation] {
        &self.violations
    }

    /// Number of ordered checkpoint pairs connected by an R-path
    /// (trackable or not, reflexive pairs included). Exact regardless of
    /// the violation limit: it is the popcount of the closure, not how far
    /// the enumeration got.
    pub fn r_paths_found(&self) -> usize {
        self.r_paths_found
    }
}

/// At most this many violations are collected into an [`RdtReport`]: the
/// verdict and the R-path count stay exact beyond it, and every caller reads
/// only the first few witnesses.
pub(crate) const MAX_VIOLATIONS: usize = 16;

/// The R-path check off the analysis's core: the verdict is the core's,
/// the count its closure popcount, and the violations the first
/// [`MAX_VIOLATIONS`] of its untrackable cells, each given an R-path.
///
/// # Panics
///
/// Panics if the pattern is unrealizable.
pub(crate) fn check_with_artifacts(analysis: &PatternAnalysis) -> RdtReport {
    let core = analysis.core().expect("pattern must be realizable");
    let limit = if core.rdt_holds() { 0 } else { MAX_VIOLATIONS };
    let violations = core
        .untrackable_cells()
        .take(limit)
        .map(|(from, to)| {
            // Every untrackable pair is reachable; if the path search ever
            // disagreed with the core, keep the violation (verdict and
            // count stay exact) with an empty witness.
            let r_path = analysis.rgraph().find_path(from, to).unwrap_or_default();
            RdtViolation { from, to, r_path }
        })
        .collect();
    RdtReport {
        violations,
        r_paths_found: core.total_reachable_pairs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;
    use crate::{Pattern, PatternBuilder};
    use rdt_causality::ProcessId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn c(i: usize, x: u32) -> CheckpointId {
        CheckpointId::new(p(i), x)
    }

    fn report(pattern: &Pattern) -> RdtReport {
        PatternAnalysis::new(pattern).rdt_report()
    }

    /// `reps` repetitions of the figure-2 motif (a send racing past a
    /// delivery), each followed by a checkpoint on every process: every
    /// repetition adds hidden dependencies.
    fn racing_sends(reps: usize) -> Pattern {
        let mut b = PatternBuilder::new(3);
        for _ in 0..reps {
            let m_prime = b.send(p(1), p(2));
            let m = b.send(p(0), p(1));
            b.deliver(m).unwrap();
            b.deliver(m_prime).unwrap();
            for i in 0..3 {
                b.checkpoint(p(i));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_pattern_satisfies_rdt() {
        let pattern = PatternBuilder::new(4).build().unwrap();
        assert!(report(&pattern).holds());
    }

    #[test]
    fn purely_causal_pattern_satisfies_rdt() {
        // A relay chain P0 -> P1 -> P2 with deliveries before sends.
        let mut b = PatternBuilder::new(3);
        let m1 = b.send(p(0), p(1));
        b.deliver(m1).unwrap();
        let m2 = b.send(p(1), p(2));
        b.deliver(m2).unwrap();
        let pattern = b.close().build().unwrap();
        let report = report(&pattern);
        assert!(report.holds());
        assert!(report.r_paths_found() > 0);
    }

    #[test]
    fn figure_1_violates_rdt_via_m3_m2() {
        let report = report(&paper_figures::figure_1());
        assert!(!report.holds());
        // The chain [m3 m2] from C_{k,1} to C_{i,2} has no causal sibling.
        assert!(
            report
                .violations()
                .iter()
                .any(|v| v.from == c(2, 1) && v.to == c(0, 2)),
            "expected the C_(k,1) -> C_(i,2) hidden dependency among {:?}",
            report.violations()
        );
    }

    #[test]
    fn figure_2_cases() {
        assert!(!report(&paper_figures::figure_2_unbroken()).holds());
        assert!(report(&paper_figures::figure_2_broken()).holds());
    }

    #[test]
    fn figure_4_cases() {
        let report_unbroken = report(&paper_figures::figure_4_unbroken());
        assert!(!report_unbroken.holds());
        // The violation is the same-process path C_{k,z} -> C_{k,z-1}
        // (processes: i=0, k=1).
        assert!(report_unbroken
            .violations()
            .iter()
            .any(|v| v.from.process == p(1) && v.to.process == p(1) && v.from.index > v.to.index));
        assert!(report(&paper_figures::figure_4_broken()).holds());
    }

    #[test]
    fn unclosed_pattern_is_closed_before_checking() {
        // The hidden dependency only materializes once intervals are
        // closed; the checker must still find it.
        let mut b = PatternBuilder::new(3);
        let m_prime = b.send(p(1), p(2));
        let m = b.send(p(0), p(1));
        b.deliver(m).unwrap();
        b.deliver(m_prime).unwrap();
        let pattern = b.build().unwrap(); // NOT closed
        assert!(!pattern.is_closed());
        assert!(!report(&pattern).holds());
    }

    #[test]
    fn violation_display_is_readable() {
        let report = report(&paper_figures::figure_2_unbroken());
        let text = report.violations()[0].to_string();
        assert!(text.contains("untrackable R-path"));
        assert!(text.contains("->"));
    }

    #[test]
    fn max_violations_limits_collection() {
        let pattern = racing_sends(20);
        let analysis = PatternAnalysis::new(&pattern);
        let untrackable = analysis.core().unwrap().untrackable_cells().count();
        assert!(untrackable > MAX_VIOLATIONS, "{untrackable}");
        assert_eq!(analysis.rdt_report().violations().len(), MAX_VIOLATIONS);
    }

    #[test]
    fn counts_stay_exact_when_collection_stops_early() {
        let pattern = racing_sends(20);
        let analysis = PatternAnalysis::new(&pattern);
        let cells: Vec<_> = analysis.core().unwrap().untrackable_cells().collect();
        assert!(cells.len() > MAX_VIOLATIONS);

        // The enumeration stops at the cap, and what it kept is the head
        // of the core's uncapped set, in its order; r_paths_found must
        // still be the full count (it comes from the closure popcount, not
        // the enumeration).
        let truncated = analysis.rdt_report();
        let kept: Vec<_> = truncated
            .violations()
            .iter()
            .map(|v| (v.from, v.to))
            .collect();
        assert_eq!(kept, cells[..MAX_VIOLATIONS]);
        // And it equals the naive closure's popcount.
        let naive = crate::RGraph::new(&pattern.to_closed()).reachability_naive();
        assert_eq!(truncated.r_paths_found(), naive.total_reachable_pairs());
    }

    #[test]
    fn a_failing_report_always_carries_a_counterexample() {
        for pattern in [
            paper_figures::figure_1(),
            paper_figures::figure_2_unbroken(),
            paper_figures::figure_4_unbroken(),
            racing_sends(20),
        ] {
            let analysis = PatternAnalysis::new(&pattern);
            let report = analysis.rdt_report();
            assert!(!report.holds());
            let untrackable = analysis.core().unwrap().untrackable_cells().count();
            assert!(!report.violations().is_empty());
            assert_eq!(report.violations().len(), untrackable.min(MAX_VIOLATIONS));
        }
        let report = report(&paper_figures::figure_2_broken());
        assert!(report.holds());
        assert!(report.violations().is_empty());
    }

    #[test]
    fn violations_are_ordered_by_destination_then_source() {
        let key = |v: &RdtViolation| (v.to.process, v.to.index, v.from.process, v.from.index);
        for pattern in [paper_figures::figure_1(), racing_sends(20)] {
            let keys: Vec<_> = report(&pattern).violations().iter().map(key).collect();
            assert!(keys.len() > 1);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        }
    }

    #[test]
    fn violations_carry_concrete_paths() {
        let report = report(&paper_figures::figure_1());
        for v in report.violations() {
            assert_eq!(v.r_path.first(), Some(&v.from));
            assert_eq!(v.r_path.last(), Some(&v.to));
            assert!(v.r_path.len() >= 2);
        }
    }
}
