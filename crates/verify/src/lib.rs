//! Exhaustive small-scope certifier for the CIC protocol suite.
//!
//! The "small-scope hypothesis" workhorse of this workspace: within a
//! bounded [`Scope`] (processes, messages, basic checkpoints), *every*
//! checkpoint-and-communication pattern is enumerated — every send/
//! delivery/in-transit combination, every interleaving, modulo process
//! relabeling — and every online protocol is replayed over every pattern.
//! The replayed outcomes are then checked against the offline theory of
//! `rdt-rgraph`: RDT characterizations, predicate conformance, and the
//! min/max consistent global-checkpoint oracles (Corollary 4.5).
//!
//! A protocol bug that manifests on any pattern within the scope is
//! found; the deliberately weakened [`Bhmr`](rdt_core::Bhmr) control
//! (`C2` without `C1`) proves the finder works. See
//! `docs/VERIFICATION.md` for the method, scope bounds, and count
//! tables.
//!
//! ```rust
//! use rdt_verify::{certify, CertifyOptions, Scope};
//!
//! let report = certify(&Scope::tiny(), &CertifyOptions::default());
//! assert!(report.certified_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod certify;
mod enumerate;
mod orbit;
mod replay;
mod scope;

pub use certify::{
    certify, certify_with_stats, CertifyOptions, CertifyReport, CertifyStats, Counterexample,
    ProtocolReport,
};
pub use enumerate::{
    enumerate_patterns, enumerate_schedules, DriverEvent, EnumerationCounts, Schedule,
};
pub use orbit::{
    enumerate_schedules_orbit, enumerate_schedules_orbit_stats, OrbitStats, ScheduleMeta,
};
pub use replay::{
    build_pattern, replay_protocol_ops, CertProtocol, PatternOp, PredicateMismatch, ReplayedOps,
    ReplayedRun,
};
pub use scope::Scope;
