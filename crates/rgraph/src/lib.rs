//! Checkpoint & communication patterns and the theory of
//! **Rollback-Dependency Trackability** (RDT).
//!
//! This crate is the *offline* half of the reproduction: where `rdt-core`
//! enforces RDT on-line, this crate takes a finished computation — a
//! [`Pattern`] of checkpoints and messages — and answers the questions the
//! paper (and its PODC 1999 companion, *"Rollback-Dependency Trackability:
//! Visible Characterizations"*) asks about it:
//!
//! * What is its rollback-dependency graph ([`RGraph`]) and which
//!   checkpoints depend on which? The pattern is replayed into the
//!   incremental core ([`IncrementalAnalysis`]), whose reach vectors are
//!   the R-graph's closure; [`RGraph::reachability_naive`] recomputes it
//!   as the test oracle.
//! * Which message chains (zigzag paths) exist, which are causal, and which
//!   non-causal chains are doubled by causal ones ([`chains`],
//!   [`characterization`])? These stay batch closures.
//! * Does the pattern satisfy RDT ([`PatternAnalysis::rdt_report`])? The
//!   verdict, the count of R-paths and the untrackable pairs are the
//!   core's, the same the daemon and the certifier read; each reported pair
//!   gets a counterexample R-path that no transitive dependency vector can
//!   track.
//! * Which global checkpoints are consistent, and what are the *minimum*
//!   and *maximum* consistent global checkpoints containing a given set of
//!   local checkpoints ([`min_max`])?
//! * Which checkpoints are *useless* (on a Z-cycle, Netzer & Xu)?
//!
//! Every question that needs a batch artifact (replay annotations,
//! R-graph, incremental core, chain closures) is asked of one
//! [`PatternAnalysis`], which computes each at most once, however many
//! questions read it.
//!
//! # Example
//!
//! ```rust
//! use rdt_rgraph::{PatternAnalysis, PatternBuilder};
//! use rdt_causality::ProcessId;
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! let mut b = PatternBuilder::new(2);
//! let m = b.send(p0, p1);
//! b.deliver(m)?;
//! let pattern = b.close().build()?;
//! assert!(PatternAnalysis::new(&pattern).rdt_report().holds());
//! # Ok::<(), rdt_rgraph::PatternError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;

pub mod chains;
pub mod characterization;
pub mod closure;
pub mod consistency;
pub mod dot;
mod incremental;
pub mod min_max;
pub mod paper_figures;
mod pattern;
mod rdt;
mod replay;
mod rgraph_impl;

pub use analysis::PatternAnalysis;
pub use chains::{MessageChain, ZigzagReachability};
pub use consistency::GlobalCheckpoint;
pub use incremental::{
    AppendError, ChainLayer, Chains, CompactionStats, FullAnalysis, IncrementalAnalysis, Journal,
    Mark, MessageRoute, NoChains, NoJournal, SnapshotError, SnapshotErrorKind, SnapshotMarks,
    SnapshotTables, UndoJournal, SNAPSHOT_FORMAT, SNAPSHOT_VERSION,
};
pub use pattern::{Pattern, PatternBuilder, PatternError, PatternEvent, PatternMessageId};
pub use rdt::{RdtReport, RdtViolation};
pub use replay::{CheckpointAnnotations, Replay};
pub use rgraph_impl::{NodeId, RGraph, Reachability};
