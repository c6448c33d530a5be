//! Checkpoint garbage collection.
//!
//! Stable storage is the scarce resource of checkpointing systems: a
//! checkpoint may be discarded as soon as no future recovery can need it.
//! With single-failure recovery to the *latest* consistent line, the rule
//! is simple — everything strictly below the current recovery line is
//! obsolete — and the quality of a protocol shows in how close that line
//! tracks the computation's frontier.

use rdt_causality::ProcessId;
use rdt_rgraph::{GlobalCheckpoint, Pattern};

use crate::recovery_line;

/// The latest consistent global checkpoint of the pattern — the no-failure
/// recovery line. Rollbacks never go below it, so it is the garbage
/// collection frontier.
pub fn collection_frontier(pattern: &Pattern) -> GlobalCheckpoint {
    recovery_line(pattern, &[])
}

/// Storage summary: how much of the checkpoint history must be retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageReport {
    /// The garbage-collection frontier.
    pub frontier: GlobalCheckpoint,
    /// Total checkpoints taken (including the initial ones).
    pub total: usize,
    /// Checkpoints that may be discarded.
    pub obsolete: usize,
    /// Checkpoints that must stay on stable storage.
    pub live: usize,
}

impl StorageReport {
    /// Fraction of the history that can be discarded (`0.0` when nothing
    /// was taken beyond the initial checkpoints).
    pub fn reclaim_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.obsolete as f64 / self.total as f64
        }
    }
}

/// Computes the [`StorageReport`] of a pattern.
///
/// A protocol whose patterns keep the frontier near the end of the
/// computation (every RDT or ZCF protocol) reclaims almost everything; a
/// domino-prone pattern reclaims nothing.
///
/// # Example
///
/// ```rust
/// use rdt_recovery::{domino_pattern, gc};
///
/// // The domino pattern's only mid-run consistent line is the initial
/// // one... but its *final* line is consistent, so the frontier reaches
/// // the end and everything below it is reclaimable.
/// let report = gc::storage_report(&domino_pattern(5));
/// assert_eq!(report.live, 2);
/// ```
pub fn storage_report(pattern: &Pattern) -> StorageReport {
    let frontier = collection_frontier(pattern);
    let total = pattern.total_checkpoints();
    let obsolete: usize = (0..pattern.num_processes())
        .map(|i| frontier.get(ProcessId::new(i)) as usize)
        .sum();
    StorageReport {
        frontier,
        total,
        obsolete,
        live: total - obsolete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domino_pattern;
    use rdt_rgraph::paper_figures;

    #[test]
    fn figure_1_frontier_is_final_line() {
        let pattern = paper_figures::figure_1();
        let report = storage_report(&pattern);
        assert_eq!(report.frontier.as_slice(), &[3, 3, 3]);
        assert_eq!(report.total, 12);
        assert_eq!(report.obsolete, 9);
        assert_eq!(report.live, 3);
        assert!((report.reclaim_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn domino_final_line_is_reachable_but_fragile() {
        // With the run *finished*, the final line is consistent and GC can
        // reclaim the whole staggered history. (The fragility is in
        // recovery, not storage: any failure collapses to the start —
        // which is exactly why the obsolete checkpoints must only be
        // discarded once the frontier members are safely on stable
        // storage.)
        let pattern = domino_pattern(6);
        let report = storage_report(&pattern);
        assert_eq!(report.live, 2);
        assert_eq!(report.frontier.as_slice(), &[6, 7]);
    }

    #[test]
    fn empty_pattern_keeps_initials() {
        let pattern = rdt_rgraph::PatternBuilder::new(3).build().unwrap();
        let report = storage_report(&pattern);
        assert_eq!(report.total, 3);
        assert_eq!(report.obsolete, 0);
        assert_eq!(report.live, 3);
    }
}
