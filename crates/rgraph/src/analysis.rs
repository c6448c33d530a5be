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
/// characterizations ([`characterization`](crate::characterization)) read
/// the [`zigzag`](PatternAnalysis::zigzag) closures, so one pattern
/// analyzed by all three RDT characterizations pays for each a single
/// time. It is the one batch entry point of the offline theory: no
/// function builds these artifacts behind its caller's back.
///
/// # Example
///
/// ```rust
/// use rdt_rgraph::characterization::{all_chains_doubled, all_cm_paths_doubled};
/// use rdt_rgraph::{paper_figures, PatternAnalysis};
///
/// let analysis = PatternAnalysis::new(&paper_figures::figure_1());
/// // All three characterizations agree, off one set of artifacts.
/// assert!(!analysis.rdt_report().holds());
/// assert!(!all_chains_doubled(&analysis));
/// assert!(!all_cm_paths_doubled(&analysis));
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
        PatternAnalysis {
            pattern: pattern.to_closed(),
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

    /// Checks whether the pattern satisfies **RDT** (characterization (1),
    /// Definition 3.4): every R-path of its R-graph must be *on-line
    /// trackable* — detectable by transitive dependency vectors. The
    /// report carries the verdict, the number of R-paths and the first 16
    /// untrackable pairs, each with a counterexample R-path.
    ///
    /// # Method
    ///
    /// 1. The pattern is closed (the paper assumes every event is
    ///    eventually followed by a checkpoint).
    /// 2. It is replayed into the incremental [`core`](PatternAnalysis::core),
    ///    which snapshots the transitive dependency vector `TDV_j^y` saved
    ///    at every checkpoint `C_{j,y}` (the knowledge Wang's mechanism
    ///    accumulates when the vector rides on *every* message) and keeps
    ///    the R-graph's closure as one reach vector per checkpoint.
    /// 3. RDT holds iff for every R-path `C_{i,x} → C_{j,y}`:
    ///    `i = j ∧ x ≤ y`, or `TDV_j^y[i] ≥ x`. The core counts the pairs
    ///    that break it as it goes; the violations reported are the first
    ///    of them in the order of
    ///    [`untrackable_cells`](IncrementalAnalysis::untrackable_cells),
    ///    each with an R-path from [`RGraph::find_path`].
    ///
    /// Step 3 is the operational reading of Definition 3.3: a same-process
    /// dependency is always trackable forward, and a cross-process
    /// dependency is trackable exactly when some causal message chain
    /// carried it (then the replayed `TDV` records an interval index at
    /// least as large). The paper notes its definitions are equivalent to
    /// Wang's; in particular a dependency witnessed by a causal chain from
    /// a *later* interval (`TDV_j^y[i] = z > x`) subsumes the dependency on
    /// `C_{i,x}`, because rolling `P_i` back before `C_{i,x}` also rolls it
    /// back before `C_{i,z}`.
    ///
    /// # Example
    ///
    /// ```rust
    /// use rdt_rgraph::{paper_figures, PatternAnalysis};
    ///
    /// // Figure 2, non-causal chain left unbroken: RDT is violated.
    /// let report = PatternAnalysis::new(&paper_figures::figure_2_unbroken()).rdt_report();
    /// assert!(!report.holds());
    /// // Same scenario with the forced checkpoint: RDT holds.
    /// let report = PatternAnalysis::new(&paper_figures::figure_2_broken()).rdt_report();
    /// assert!(report.holds());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the pattern is unrealizable (cannot happen for patterns
    /// produced by [`PatternBuilder`](crate::PatternBuilder) or by the
    /// simulator); read [`core`](PatternAnalysis::core) first to handle
    /// that case.
    pub fn rdt_report(&self) -> RdtReport {
        check_with_artifacts(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_figures;

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
