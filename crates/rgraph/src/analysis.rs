//! Shared, lazily computed analysis artifacts for one pattern.
//!
//! Every offline characterization of RDT needs some subset of the same
//! four artifacts: the replay annotations (vector clocks + transitive
//! dependency vectors), the R-graph, the incremental core the pattern
//! replays into (its R-closure and untrackable count), and the
//! message-chain closures. [`PatternAnalysis`] computes each artifact at
//! most once and hands out borrows.

use std::sync::OnceLock;

use crate::chains::ZigzagReachability;
use crate::rdt::{check_with_artifacts, RdtReport};
use crate::{CheckpointAnnotations, IncrementalAnalysis, Pattern, PatternError, RGraph, Replay};

/// Lazily computed, shareable analysis artifacts of one (closed) pattern.
///
/// Construction is cheap: nothing is computed until first use, and each
/// artifact is computed exactly once (`OnceLock`-backed, so a shared
/// reference can be handed to parallel sweep workers). The R-path
/// questions read the [`core`](PatternAnalysis::core), the chain
/// characterizations read the [`zigzag`](PatternAnalysis::zigzag) closures
/// through their `_with` entry points, so one pattern analyzed by all
/// three RDT characterizations pays for each a single time.
///
/// # Example
///
/// ```rust
/// use rdt_rgraph::characterization::{all_chains_doubled_with, all_cm_paths_doubled_with};
/// use rdt_rgraph::{paper_figures, PatternAnalysis};
///
/// let analysis = PatternAnalysis::new(&paper_figures::figure_1());
/// // All three characterizations agree, off one set of artifacts.
/// assert!(!analysis.rdt_report().holds());
/// assert!(!all_chains_doubled_with(&analysis));
/// assert!(!all_cm_paths_doubled_with(&analysis));
/// ```
#[derive(Debug)]
pub struct PatternAnalysis {
    pattern: Pattern,
    annotations: OnceLock<Result<CheckpointAnnotations, PatternError>>,
    rgraph: OnceLock<RGraph>,
    core: OnceLock<Result<IncrementalAnalysis, PatternError>>,
    zigzag: OnceLock<ZigzagReachability>,
}

impl PatternAnalysis {
    /// Prepares the analysis of `pattern`; a closed copy is taken (the
    /// paper assumes every event is eventually followed by a checkpoint).
    pub fn new(pattern: &Pattern) -> Self {
        Self::from_closed(pattern.to_closed())
    }

    /// Wraps an already-closed pattern without copying it again.
    pub(crate) fn from_closed(pattern: Pattern) -> Self {
        debug_assert!(pattern.is_closed());
        PatternAnalysis {
            pattern,
            annotations: OnceLock::new(),
            rgraph: OnceLock::new(),
            core: OnceLock::new(),
            zigzag: OnceLock::new(),
        }
    }

    /// The closed pattern all artifacts describe.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Replay annotations: the vector clock and transitive dependency
    /// vector of every checkpoint. Computed on first call.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the pattern admits no
    /// execution order (the failure is cached too).
    pub fn annotations(&self) -> Result<&CheckpointAnnotations, PatternError> {
        self.annotations
            .get_or_init(|| Replay::new(&self.pattern).annotate())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The rollback-dependency graph, for the R-paths of reported
    /// violations and for rendering. Computed on first call.
    pub fn rgraph(&self) -> &RGraph {
        self.rgraph.get_or_init(|| RGraph::new(&self.pattern))
    }

    /// The closed pattern replayed into the incremental core
    /// ([`IncrementalAnalysis::from_pattern`]): its `reach` vectors are the
    /// R-graph closure every R-path question reads. Computed on first call.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the pattern admits no
    /// execution order (the failure is cached too).
    pub fn core(&self) -> Result<&IncrementalAnalysis, PatternError> {
        self.core
            .get_or_init(|| IncrementalAnalysis::from_pattern(&self.pattern))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The zigzag/causal message-chain closures with their interval
    /// indexes. Computed on first call.
    pub fn zigzag(&self) -> &ZigzagReachability {
        self.zigzag
            .get_or_init(|| ZigzagReachability::new(&self.pattern))
    }

    /// Whether any artifact has been computed yet — `false` right after
    /// construction. Mainly useful to tests asserting laziness.
    pub fn is_untouched(&self) -> bool {
        self.annotations.get().is_none()
            && self.rgraph.get().is_none()
            && self.core.get().is_none()
            && self.zigzag.get().is_none()
    }

    /// Runs the R-path RDT check (characterization (1)) off the shared
    /// core, with the default violation limit of [`crate::RdtChecker`].
    ///
    /// # Panics
    ///
    /// Panics if the pattern is unrealizable; use
    /// [`PatternAnalysis::try_rdt_report`] to handle that case.
    pub fn rdt_report(&self) -> RdtReport {
        self.try_rdt_report().expect("pattern must be realizable")
    }

    /// Fallible variant of [`PatternAnalysis::rdt_report`].
    ///
    /// # Errors
    ///
    /// Returns [`PatternError::Unrealizable`] if the pattern admits no
    /// execution order.
    pub fn try_rdt_report(&self) -> Result<RdtReport, PatternError> {
        check_with_artifacts(self, 16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{all_chains_doubled_with, all_cm_paths_doubled_with};
    use crate::paper_figures;
    use crate::RdtChecker;

    #[test]
    fn artifacts_are_lazy_and_stable() {
        let analysis = PatternAnalysis::new(&paper_figures::figure_1());
        assert!(analysis.is_untouched());
        let first = analysis.rgraph() as *const RGraph;
        let second = analysis.rgraph() as *const RGraph;
        assert_eq!(first, second, "the same artifact is handed out");
        assert!(!analysis.is_untouched());
    }

    #[test]
    fn shared_verdicts_match_standalone_checkers() {
        for pattern in [
            paper_figures::figure_1(),
            paper_figures::figure_2_unbroken(),
            paper_figures::figure_2_broken(),
            paper_figures::figure_4_unbroken(),
            paper_figures::figure_4_broken(),
        ] {
            let analysis = PatternAnalysis::new(&pattern);
            let standalone = RdtChecker::new(&pattern).check();
            let shared = analysis.rdt_report();
            assert_eq!(standalone.holds(), shared.holds());
            assert_eq!(standalone.violations(), shared.violations());
            assert_eq!(standalone.r_paths_found(), shared.r_paths_found());
            assert_eq!(
                all_chains_doubled_with(&analysis),
                crate::characterization::all_chains_doubled(&pattern)
            );
            assert_eq!(
                all_cm_paths_doubled_with(&analysis),
                crate::characterization::all_cm_paths_doubled(&pattern)
            );
        }
    }

    #[test]
    fn analysis_closes_the_pattern() {
        use rdt_causality::ProcessId;
        let mut b = crate::PatternBuilder::new(2);
        let m = b.send(ProcessId::new(0), ProcessId::new(1));
        b.deliver(m).unwrap();
        let open = b.build().unwrap();
        assert!(!open.is_closed());
        let analysis = PatternAnalysis::new(&open);
        assert!(analysis.pattern().is_closed());
        // The closed pattern's R-graph sees the message edge.
        assert_eq!(analysis.rgraph().num_edges(), 3);
    }
}
