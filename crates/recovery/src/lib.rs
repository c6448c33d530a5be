//! Rollback-recovery on checkpoint and communication patterns.
//!
//! The motivating application of the paper (§1): after a failure, the
//! system must resume from a *consistent* global checkpoint. This crate
//! computes **recovery lines** (the latest consistent global checkpoint
//! respecting the failures' rollback caps), measures the **domino effect**
//! (how far an uncoordinated pattern can cascade), and classifies the
//! messages a recovery must re-handle.
//!
//! # Example
//!
//! ```rust
//! use rdt_causality::ProcessId;
//! use rdt_recovery::{analyze, domino_pattern, Failure};
//!
//! // The classic staggered ping-pong: rollback cascades to the start.
//! let pattern = domino_pattern(5);
//! // P_0 loses its most recent checkpoint and resumes from index 4.
//! let report = analyze(&pattern, &[Failure { process: ProcessId::new(0), resume_cap: 4 }]);
//! assert!(report.line.as_slice().iter().all(|&x| x == 0), "full domino collapse");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domino;
pub mod gc;
mod line;
pub mod logging;

pub use domino::domino_pattern;
pub use line::{
    analyze, lost_messages, recovery_line, recovery_line_naive, try_analyze, try_lost_messages,
    try_recovery_line, Failure, RecoveryError, RollbackReport,
};
pub use logging::output_commit_requirement;
