//! Workload environments for the RDT checkpointing evaluation.
//!
//! The paper's simulation study (§5.3) compares protocols in three
//! computational environments; this crate implements them — plus two extra
//! realistic applications — as [`Application`] implementations:
//!
//! * [`RandomEnvironment`] — the *general* environment: every process
//!   alternates computation and communication, sending each message to a
//!   uniformly random peer (Figure 7 of the evaluation).
//! * [`GroupEnvironment`] — *overlapping group communication*: processes
//!   belong to (overlapping) groups and multicast within their groups
//!   (Figure 8).
//! * [`ClientServerEnvironment`] — servers `S_1 … S_n`: a client request
//!   enters at `S_1`; each server either replies or forwards to the next
//!   server with probability ½ and waits for the reply (Figure 9). The
//!   causal past of any message contains all the messages of the
//!   computation, which makes this environment the stress case for
//!   dependency tracking.
//! * [`RingEnvironment`] — a token circulating on a unidirectional ring
//!   (regular, deterministic communication).
//! * [`PipelineEnvironment`] — a producer/consumer pipeline with
//!   backpressure-free stage-to-stage streaming.
//!
//! All workloads draw their randomness from the run's seeded
//! [`SimRng`](rdt_sim::SimRng), so every `(workload-config, sim-config)`
//! pair is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocking;
mod client_server;
mod coordinated;
mod domino;
mod groups;
mod pipeline;
mod random_env;
mod ring;

pub use blocking::{KooToueg, KT_ACK, KT_COMMIT, KT_REQUEST};
pub use client_server::ClientServerEnvironment;
pub use coordinated::{ChandyLamport, MARKER_TAG};
pub use domino::DominoEnvironment;
pub use groups::{GroupEnvironment, GroupLayout};
pub use pipeline::PipelineEnvironment;
pub use random_env::RandomEnvironment;
pub use ring::RingEnvironment;

use rdt_sim::Application;

/// The workloads of the paper's evaluation, as data (for harness sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnvironmentKind {
    /// General random environment (Figure 7).
    Random,
    /// Overlapping group communication (Figure 8).
    Groups,
    /// Client/server chain (Figure 9).
    ClientServer,
    /// Token ring (extra).
    Ring,
    /// Producer/consumer pipeline (extra).
    Pipeline,
    /// Pairwise checkpoint-then-reply ping-pong building the classic
    /// domino-effect zigzag (crash-recovery stress workload).
    Domino,
}

impl EnvironmentKind {
    /// All environments, in figure order.
    pub fn all() -> &'static [EnvironmentKind] {
        &[
            EnvironmentKind::Random,
            EnvironmentKind::Groups,
            EnvironmentKind::ClientServer,
            EnvironmentKind::Ring,
            EnvironmentKind::Pipeline,
            EnvironmentKind::Domino,
        ]
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            EnvironmentKind::Random => "random",
            EnvironmentKind::Groups => "groups",
            EnvironmentKind::ClientServer => "client-server",
            EnvironmentKind::Ring => "ring",
            EnvironmentKind::Pipeline => "pipeline",
            EnvironmentKind::Domino => "domino",
        }
    }

    /// Builds the default-parameter application for `n` processes.
    ///
    /// Workload-specific parameters use each environment's `new`
    /// constructor defaults; harnesses needing custom parameters construct
    /// the concrete types directly.
    pub fn build(self, n: usize, mean_send_interval: u64) -> Box<dyn Application> {
        match self {
            EnvironmentKind::Random => Box::new(RandomEnvironment::new(mean_send_interval)),
            EnvironmentKind::Groups => {
                // Clamp the default layout for tiny systems.
                let group_size = 4.min(n.max(1));
                let overlap = if group_size > 1 { 1 } else { 0 };
                Box::new(GroupEnvironment::new(
                    GroupLayout::overlapping(n, group_size, overlap),
                    mean_send_interval,
                ))
            }
            EnvironmentKind::ClientServer => {
                Box::new(ClientServerEnvironment::new(mean_send_interval))
            }
            EnvironmentKind::Ring => Box::new(RingEnvironment::new(mean_send_interval)),
            EnvironmentKind::Pipeline => Box::new(PipelineEnvironment::new(mean_send_interval)),
            EnvironmentKind::Domino => Box::new(DominoEnvironment::new(mean_send_interval)),
        }
    }
}

impl std::fmt::Display for EnvironmentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EnvironmentKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EnvironmentKind::all()
            .iter()
            .copied()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown environment {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdt_core::ProtocolKind;
    use rdt_sim::{run_protocol_kind, SimConfig, StopCondition};

    #[test]
    fn every_environment_generates_traffic() {
        for &env in EnvironmentKind::all() {
            let config = SimConfig::new(6)
                .with_seed(1)
                .with_stop(StopCondition::MessagesSent(200));
            let mut app = env.build(6, 20);
            let outcome = run_protocol_kind(ProtocolKind::Uncoordinated, &config, app.as_mut());
            assert!(
                outcome.stats.total.messages_sent >= 100,
                "{env}: only {} messages",
                outcome.stats.total.messages_sent
            );
            assert!(outcome.stats.total.messages_delivered > 0, "{env}");
        }
    }

    #[test]
    fn environment_kind_roundtrip() {
        for &env in EnvironmentKind::all() {
            assert_eq!(env.name().parse::<EnvironmentKind>().unwrap(), env);
            assert_eq!(env.to_string(), env.name());
        }
        assert!("bogus".parse::<EnvironmentKind>().is_err());
    }
}
