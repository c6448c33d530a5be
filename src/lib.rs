//! **rdt** — communication-induced checkpointing with
//! Rollback-Dependency Trackability, reproduced from Baldoni, Hélary,
//! Mostefaoui & Raynal (and the PODC 1999 companion *"Rollback-Dependency
//! Trackability: Visible Characterizations"*).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`causality`] | `rdt-causality` | ids, vector clocks, dependency vectors, bit-packed booleans |
//! | [`protocols`] | `rdt-core` | the BHMR protocol, its variants, FDAS/FDI/CBR/CAS/NRAS |
//! | [`theory`] | `rdt-rgraph` | patterns, R-graphs, zigzag paths, RDT checking, min/max consistent global checkpoints |
//! | [`sim`] | `rdt-sim` | deterministic discrete-event simulator |
//! | [`workloads`] | `rdt-workloads` | the evaluation's environments |
//! | [`recovery`] | `rdt-recovery` | recovery lines, domino effect, GC, output commit |
//! | [`verify`] | `rdt-verify` | exhaustive small-scope certification of the protocols |
//!
//! The most common items are re-exported at the root. The `rdt-cli` binary
//! (`cargo run --bin rdt-cli -- list`) exposes runs, comparisons, audits
//! and trace replays on the command line.
//!
//! # Quickstart
//!
//! Run the paper's protocol in a random environment, then *prove* the run
//! satisfies RDT:
//!
//! ```rust
//! use rdt::{
//!     run_protocol_kind, ProtocolKind, RdtChecker, SimConfig, StopCondition,
//! };
//! use rdt::workloads::RandomEnvironment;
//!
//! let config = SimConfig::new(4).with_seed(7).with_stop(StopCondition::MessagesSent(200));
//! let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config, &mut RandomEnvironment::new(20));
//!
//! let pattern = outcome.trace.to_pattern();
//! assert!(RdtChecker::new(&pattern).check().holds());
//! println!(
//!     "forced/basic = {}/{}",
//!     outcome.stats.total.forced_checkpoints,
//!     outcome.stats.total.basic_checkpoints,
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rdt_causality as causality;
pub use rdt_core as protocols;
pub use rdt_json as json;
pub use rdt_lint as lint;
pub use rdt_recovery as recovery;
pub use rdt_rgraph as theory;
pub use rdt_sim as sim;
pub use rdt_verify as verify;
pub use rdt_workloads as workloads;

pub use rdt_causality::{
    BitMatrix, BitRow, CheckpointId, DependencyVector, IntervalId, ProcessId, VectorClock,
};
pub use rdt_core::{
    ArrivalOutcome, Bcs, Bhmr, BhmrCausalOnly, BhmrNoSimple, Cas, Cbr, CheckpointKind,
    CheckpointRecord, CicProtocol, Fdas, Fdi, Nras, PiggybackSize, ProtocolKind, ProtocolStats,
    SendOutcome, Uncoordinated,
};
pub use rdt_recovery::{analyze, domino_pattern, recovery_line, Failure, RollbackReport};
pub use rdt_rgraph::{
    GlobalCheckpoint, Pattern, PatternAnalysis, PatternBuilder, RGraph, RdtChecker, RdtReport,
    Reachability, Replay, ZigzagReachability,
};
pub use rdt_sim::{
    run_protocol_kind, Application, RunOutcome, RunStats, Runner, SimConfig, SimRng, SimTime,
    StopCondition, Stopwatch, Trace, TraceMetrics,
};
pub use rdt_verify::{
    certify, certify_with_stats, CertProtocol, CertifyOptions, CertifyReport, CertifyStats, Scope,
};
pub use rdt_workloads::{
    ChandyLamport, ClientServerEnvironment, EnvironmentKind, GroupEnvironment, GroupLayout,
    KooToueg, PipelineEnvironment, RandomEnvironment, RingEnvironment,
};
