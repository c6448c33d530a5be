//! Causality primitives for rollback-dependency-trackability (RDT)
//! checkpointing.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! the whole workspace:
//!
//! * [`ProcessId`], [`CheckpointId`], [`IntervalId`] — strongly typed
//!   identifiers for the entities of a checkpoint and communication pattern
//!   (Baldoni, Hélary, Mostefaoui, Raynal; Wang).
//! * [`VectorClock`] — classic Fidge/Mattern vector clocks, used to decide
//!   Lamport's happened-before relation between events.
//! * [`DependencyVector`] — Wang's *transitive dependency vector* (`TDV`),
//!   the vector each process piggybacks so that on-line trackable rollback
//!   dependencies can be decided with a single comparison.
//! * [`bits`] — the workspace's one bit-packing module: the word format,
//!   slice kernels over `&[u64]`, and the owned [`BitRow`] / [`BitMatrix`]
//!   behind the protocol's `sent_to`/`simple`/`causal` and the R-graph and
//!   zigzag closures (piggyback accounting in bits, merges word-parallel).
//!
//! # Example
//!
//! ```rust
//! use rdt_causality::{DependencyVector, ProcessId};
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//! let mut tdv0 = DependencyVector::initial(2, p0);
//! let tdv1 = DependencyVector::initial(2, p1);
//! // P1 sends a message carrying its TDV; P0 merges it on delivery.
//! tdv0.merge_max(&tdv1);
//! assert_eq!(tdv0.get(p1), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
mod dependency_vector;
mod ids;
mod vector_clock;

pub use bits::{BitMatrix, BitRow};
pub use dependency_vector::DependencyVector;
pub use ids::{CheckpointId, IntervalId, ProcessId};
pub use vector_clock::{ClockOrdering, VectorClock};
