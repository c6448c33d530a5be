//! Deterministic discrete-event simulator for asynchronous message-passing
//! computations with pluggable communication-induced checkpointing.
//!
//! This crate is the *substrate* the paper's evaluation runs on: the model
//! of §2.1 — `n` sequential processes, reliable directed channels with
//! unpredictable but finite delays, no shared memory, no bound on relative
//! speeds — realized as a seeded event-queue simulation.
//!
//! Pieces:
//!
//! * [`SimTime`]/[`SimDuration`] — abstract simulated time.
//! * [`SimRng`] — deterministic per-run randomness (delays, workloads).
//! * [`Application`] — what the processes *do* (the workload); see
//!   `rdt-workloads` for the paper's environments.
//! * [`Runner`] — drives one protocol type (any
//!   [`CicProtocol`](rdt_core::CicProtocol)) under one application over one
//!   configuration and seed, producing a [`Trace`], per-process
//!   checkpoint records and aggregate [`RunStats`].
//! * [`run_protocol_kind`] — dynamic protocol selection by
//!   [`ProtocolKind`](rdt_core::ProtocolKind), monomorphizing internally.
//! * [`Grammar`] — the one command-line grammar the workspace's binaries
//!   read argv through.
//!
//! Every run is a pure function of `(SimConfig, Application, seed)`: the
//! event queue breaks ties by sequence number, and all randomness flows
//! from one seed. The same configuration therefore produces *identical
//! schedules across protocols that do not alter the communication pattern*,
//! and reproducible traces for the test-suite.
//!
//! # Example
//!
//! ```rust
//! use rdt_core::ProtocolKind;
//! use rdt_sim::{run_protocol_kind, scripted, SimConfig};
//!
//! let config = SimConfig::new(3).with_seed(7);
//! // A tiny scripted workload: P0 sends one message to P1.
//! let outcome = run_protocol_kind(
//!     ProtocolKind::Bhmr,
//!     &config,
//!     &mut scripted(vec![(0, 1)]),
//! );
//! assert_eq!(outcome.stats.total.messages_sent, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod args;
mod config;
mod dispatch;
mod metrics;
mod rng;
mod runner;
mod time;
mod trace;
mod workpool;

pub use app::{scripted, AppContext, Application, ScriptedApplication};
pub use args::{print_stdout, synopsis, Args, Arity, Flag, Grammar};
pub use config::{
    BasicCheckpointModel, DelayModel, SimConfig, StopCondition, DEFAULT_CRASH_SEED_SALT,
};
pub use dispatch::{run_protocol_kind, run_protocol_kind_legacy, run_protocol_kind_with_scratch};
pub use metrics::{OnlineRdtReport, SampleStats, Stopwatch, TraceMetrics};
pub use rng::SimRng;
pub use runner::{CrashRecord, RecoveryReport, RunOutcome, RunStats, Runner, SimError, SimScratch};
pub use time::{SimDuration, SimTime};
pub use trace::{SimMessageId, Trace, TraceError, TraceEvent};
pub use workpool::{parallel_map_indexed, parallel_map_indexed_observed};
