//! Offline verification of the Rollback-Dependency Trackability property
//! (Definition 3.4).

use std::fmt;

use rdt_causality::CheckpointId;

use crate::{Pattern, PatternAnalysis, PatternError};

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

    /// The untrackable R-paths found (up to the checker's limit).
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

/// Checks whether a pattern satisfies **RDT**: every R-path of its R-graph
/// must be *on-line trackable* — detectable by transitive dependency
/// vectors.
///
/// # Method
///
/// 1. Close the pattern (the paper assumes every event is eventually
///    followed by a checkpoint).
/// 2. Replay it into the incremental core
///    ([`IncrementalAnalysis::from_pattern`](crate::IncrementalAnalysis::from_pattern)),
///    which snapshots the transitive dependency vector `TDV_j^y` saved at
///    every checkpoint `C_{j,y}` (the knowledge Wang's mechanism
///    accumulates when the vector rides on *every* message) and keeps the
///    R-graph's closure as one reach vector per checkpoint.
/// 3. RDT holds iff for every R-path `C_{i,x} → C_{j,y}`:
///    `i = j ∧ x ≤ y`, or `TDV_j^y[i] ≥ x`. The core counts the pairs that
///    break it as it goes; the violations reported are the first of them
///    in the order of
///    [`untrackable_cells`](crate::IncrementalAnalysis::untrackable_cells),
///    each with an R-path from [`RGraph::find_path`](crate::RGraph::find_path).
///
/// Step 3 is the operational reading of Definition 3.3: a same-process
/// dependency is always trackable forward, and a cross-process dependency
/// is trackable exactly when some causal message chain carried it (then the
/// replayed `TDV` records an interval index at least as large). The paper
/// notes its definitions are equivalent to Wang's; in particular a
/// dependency witnessed by a causal chain from a *later* interval
/// (`TDV_j^y[i] = z > x`) subsumes the dependency on `C_{i,x}`, because
/// rolling `P_i` back before `C_{i,x}` also rolls it back before `C_{i,z}`.
///
/// # Example
///
/// ```rust
/// use rdt_rgraph::{paper_figures, RdtChecker};
///
/// // Figure 2, non-causal chain left unbroken: RDT is violated.
/// let report = RdtChecker::new(&paper_figures::figure_2_unbroken()).check();
/// assert!(!report.holds());
/// // Same scenario with the forced checkpoint: RDT holds.
/// let report = RdtChecker::new(&paper_figures::figure_2_broken()).check();
/// assert!(report.holds());
/// ```
#[derive(Debug)]
pub struct RdtChecker {
    pattern: Pattern,
    max_violations: usize,
}

impl RdtChecker {
    /// Prepares a checker for `pattern` (a closed copy is taken).
    pub fn new(pattern: &Pattern) -> Self {
        RdtChecker {
            pattern: pattern.to_closed(),
            max_violations: 16,
        }
    }

    /// Limits how many violations [`check`](RdtChecker::check) collects
    /// before stopping early (default 16). At least one violation is
    /// always collected, so a failing report always carries a concrete
    /// counterexample.
    pub fn max_violations(mut self, limit: usize) -> Self {
        self.max_violations = limit;
        self
    }

    /// Runs the check.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is unrealizable (cannot happen for patterns
    /// produced by [`PatternBuilder`](crate::PatternBuilder) or by the
    /// simulator); use [`try_check`](RdtChecker::try_check) to handle that
    /// case explicitly.
    pub fn check(&self) -> RdtReport {
        self.try_check().expect("pattern must be realizable")
    }

    /// Runs the check, reporting unrealizable patterns as an error.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the pattern admits no
    /// execution order.
    pub fn try_check(&self) -> Result<RdtReport, PatternError> {
        let analysis = PatternAnalysis::from_closed(self.pattern.clone());
        check_with_artifacts(&analysis, self.max_violations)
    }
}

/// The R-path check off the analysis's core: the verdict is the core's,
/// the count its closure popcount, and the violations the first
/// `max_violations` (at least one) of its untrackable cells, each given an
/// R-path.
pub(crate) fn check_with_artifacts(
    analysis: &PatternAnalysis,
    max_violations: usize,
) -> Result<RdtReport, PatternError> {
    let core = analysis.core()?;
    let limit = if core.rdt_holds() {
        0
    } else {
        max_violations.max(1)
    };
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
    Ok(RdtReport {
        violations,
        r_paths_found: core.total_reachable_pairs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;
    use crate::PatternBuilder;
    use rdt_causality::ProcessId;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn c(i: usize, x: u32) -> CheckpointId {
        CheckpointId::new(p(i), x)
    }

    #[test]
    fn empty_pattern_satisfies_rdt() {
        let pattern = PatternBuilder::new(4).build().unwrap();
        assert!(RdtChecker::new(&pattern).check().holds());
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
        let report = RdtChecker::new(&pattern).check();
        assert!(report.holds());
        assert!(report.r_paths_found() > 0);
    }

    #[test]
    fn figure_1_violates_rdt_via_m3_m2() {
        let report = RdtChecker::new(&paper_figures::figure_1()).check();
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
        assert!(!RdtChecker::new(&paper_figures::figure_2_unbroken())
            .check()
            .holds());
        assert!(RdtChecker::new(&paper_figures::figure_2_broken())
            .check()
            .holds());
    }

    #[test]
    fn figure_4_cases() {
        let report = RdtChecker::new(&paper_figures::figure_4_unbroken()).check();
        assert!(!report.holds());
        // The violation is the same-process path C_{k,z} -> C_{k,z-1}
        // (processes: i=0, k=1).
        assert!(report
            .violations()
            .iter()
            .any(|v| v.from.process == p(1) && v.to.process == p(1) && v.from.index > v.to.index));
        assert!(RdtChecker::new(&paper_figures::figure_4_broken())
            .check()
            .holds());
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
        assert!(!RdtChecker::new(&pattern).check().holds());
    }

    #[test]
    fn violation_display_is_readable() {
        let report = RdtChecker::new(&paper_figures::figure_2_unbroken()).check();
        let text = report.violations()[0].to_string();
        assert!(text.contains("untrackable R-path"));
        assert!(text.contains("->"));
    }

    #[test]
    fn max_violations_limits_collection() {
        let report = RdtChecker::new(&paper_figures::figure_1())
            .max_violations(1)
            .try_check()
            .unwrap();
        assert_eq!(report.violations().len(), 1);
    }

    #[test]
    fn counts_stay_exact_when_collection_stops_early() {
        // Four repetitions of the figure-2 motif (a send racing past a
        // delivery) produce four independent hidden dependencies.
        let mut b = PatternBuilder::new(3);
        for _ in 0..4 {
            let m_prime = b.send(p(1), p(2));
            let m = b.send(p(0), p(1));
            b.deliver(m).unwrap();
            b.deliver(m_prime).unwrap();
            for i in 0..3 {
                b.checkpoint(p(i));
            }
        }
        let pattern = b.build().unwrap();
        let full = RdtChecker::new(&pattern).check();
        assert!(full.violations().len() >= 4);

        // With the limit at 1 the enumeration stops at the first
        // violation, but r_paths_found must still equal the full count (it
        // comes from the closure popcount, not the enumeration).
        let truncated = RdtChecker::new(&pattern).max_violations(1).check();
        assert_eq!(truncated.violations().len(), 1);
        assert_eq!(truncated.violations()[0], full.violations()[0]);
        assert_eq!(truncated.r_paths_found(), full.r_paths_found());
        // And it equals the naive closure's popcount.
        let naive = crate::RGraph::new(&pattern.to_closed()).reachability_naive();
        assert_eq!(full.r_paths_found(), naive.total_reachable_pairs());
    }

    #[test]
    fn a_zero_limit_still_reports_one_violation() {
        // A failing report always carries a concrete counterexample.
        for pattern in [
            paper_figures::figure_1(),
            paper_figures::figure_2_unbroken(),
            paper_figures::figure_4_unbroken(),
        ] {
            let report = RdtChecker::new(&pattern).max_violations(0).check();
            assert!(!report.holds());
            assert_eq!(report.violations().len(), 1);
        }
        let report = RdtChecker::new(&paper_figures::figure_2_broken())
            .max_violations(0)
            .check();
        assert!(report.holds());
    }

    #[test]
    fn violations_are_ordered_by_destination_then_source() {
        let report = RdtChecker::new(&paper_figures::figure_1())
            .max_violations(usize::MAX)
            .check();
        let key = |v: &RdtViolation| (v.to.process, v.to.index, v.from.process, v.from.index);
        let keys: Vec<_> = report.violations().iter().map(key).collect();
        assert!(keys.len() > 1);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn violations_carry_concrete_paths() {
        let report = RdtChecker::new(&paper_figures::figure_1()).check();
        for v in report.violations() {
            assert_eq!(v.r_path.first(), Some(&v.from));
            assert_eq!(v.r_path.last(), Some(&v.to));
            assert!(v.r_path.len() >= 2);
        }
    }
}
