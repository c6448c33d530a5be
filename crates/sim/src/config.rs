//! Simulation configuration.

use crate::{SimDuration, SimRng, SimTime};

/// Channel delay model: transmission delays are unpredictable but finite
/// (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Exponentially distributed delay with the given mean (ticks).
    Exponential {
        /// Mean delay in ticks.
        mean: u64,
    },
    /// Uniformly distributed delay in `[lo, hi]` ticks.
    Uniform {
        /// Minimum delay in ticks.
        lo: u64,
        /// Maximum delay in ticks.
        hi: u64,
    },
    /// Constant delay (useful in tests; makes channels effectively FIFO).
    Constant {
        /// The delay in ticks.
        ticks: u64,
    },
}

impl DelayModel {
    /// Draws one delay.
    pub fn sample(self, rng: &mut SimRng) -> SimDuration {
        match self {
            DelayModel::Exponential { mean } => rng.exponential(mean),
            DelayModel::Uniform { lo, hi } => rng.uniform_duration(lo, hi),
            DelayModel::Constant { ticks } => SimDuration::from_ticks(ticks.max(1)),
        }
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel::Exponential { mean: 50 }
    }
}

/// How processes take their *basic* (application-decided) checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasicCheckpointModel {
    /// No basic checkpoints (the protocol's forced checkpoints, if any,
    /// are still taken).
    Disabled,
    /// Each process draws its next basic checkpoint exponentially with the
    /// given mean interval.
    Exponential {
        /// Mean interval between basic checkpoints, in ticks.
        mean: u64,
    },
    /// Uniform interval in `[lo, hi]` ticks.
    Uniform {
        /// Minimum interval in ticks.
        lo: u64,
        /// Maximum interval in ticks.
        hi: u64,
    },
}

impl BasicCheckpointModel {
    /// Draws the next interval, or `None` when disabled.
    pub fn sample(self, rng: &mut SimRng) -> Option<SimDuration> {
        match self {
            BasicCheckpointModel::Disabled => None,
            BasicCheckpointModel::Exponential { mean } => Some(rng.exponential(mean)),
            BasicCheckpointModel::Uniform { lo, hi } => Some(rng.uniform_duration(lo, hi)),
        }
    }
}

impl Default for BasicCheckpointModel {
    fn default() -> Self {
        BasicCheckpointModel::Exponential { mean: 800 }
    }
}

/// When the run stops injecting new work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop once this much simulated time has passed. Messages already in
    /// flight are still delivered.
    Time(SimTime),
    /// Stop once this many messages have been *sent*. In-flight messages
    /// are still delivered.
    MessagesSent(u64),
}

impl Default for StopCondition {
    fn default() -> Self {
        StopCondition::MessagesSent(1_000)
    }
}

/// Full configuration of one simulation run.
///
/// # Example
///
/// ```rust
/// use rdt_sim::{DelayModel, SimConfig, StopCondition};
///
/// let config = SimConfig::new(8)
///     .with_seed(1234)
///     .with_delay(DelayModel::Uniform { lo: 10, hi: 100 })
///     .with_stop(StopCondition::MessagesSent(5_000));
/// assert_eq!(config.n, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of processes.
    pub n: usize,
    /// Seed for all randomness of the run.
    pub seed: u64,
    /// Channel delay model.
    pub delay: DelayModel,
    /// Basic checkpoint timer model (same for every process).
    pub basic_checkpoints: BasicCheckpointModel,
    /// When to stop injecting work.
    pub stop: StopCondition,
    /// Whether channels are FIFO: deliveries on each ordered channel
    /// follow send order (arrival times are clamped past the channel's
    /// previous arrival). The paper's model only requires reliability, so
    /// the default is non-FIFO.
    pub fifo: bool,
    /// Run the online RDT probe: an [`rdt_rgraph::IncrementalAnalysis`]
    /// engine shadows the run event by event and reports, per step, how
    /// many checkpoint pairs are currently untrackable. Observational
    /// only — it never changes the simulation. Default off.
    pub online_rdt_probe: bool,
    /// Expected number of injected crashes per 1000 simulated ticks.
    /// `0.0` (the default) disables fault injection entirely; any positive
    /// rate schedules crashes as a Poisson process on a dedicated RNG
    /// stream (derived from the run seed and [`DEFAULT_CRASH_SEED_SALT`]),
    /// so a crashy run's message/checkpoint randomness is tick-for-tick
    /// identical to the crash-free run with the same seed.
    pub crash_rate: f64,
    /// Upper bound on injected crashes per run (the Poisson clock stops
    /// after this many have fired). Ignored while `crash_rate == 0.0`.
    pub max_crashes: u32,
    /// Compact the shadow engine to each computed recovery line: after
    /// every crash the recovery-line-dominated prefix is collapsed
    /// (see [`rdt_rgraph::IncrementalAnalysis::compact_to`]), bounding
    /// engine memory in long crashy runs. Observational only — the
    /// schedule, trace and recovery decisions are bit-identical with it
    /// on or off. Requires crash injection; ignored otherwise.
    pub compact_after_recovery: bool,
}

/// Salt folded into the run seed to derive the crash RNG stream
/// ("fallback").
pub const DEFAULT_CRASH_SEED_SALT: u64 = 0xFA11_BACC;

impl SimConfig {
    /// Default configuration for `n` processes.
    pub fn new(n: usize) -> Self {
        SimConfig {
            n,
            seed: 0,
            delay: DelayModel::default(),
            basic_checkpoints: BasicCheckpointModel::default(),
            stop: StopCondition::default(),
            fifo: false,
            online_rdt_probe: false,
            crash_rate: 0.0,
            max_crashes: 4,
            compact_after_recovery: false,
        }
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the channel delay model.
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the basic checkpoint model.
    pub fn with_basic_checkpoints(mut self, model: BasicCheckpointModel) -> Self {
        self.basic_checkpoints = model;
        self
    }

    /// Sets the stop condition.
    pub fn with_stop(mut self, stop: StopCondition) -> Self {
        self.stop = stop;
        self
    }

    /// Makes channels FIFO (per-channel delivery in send order).
    pub fn with_fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }

    /// Enables the online RDT-violation probe (see
    /// [`SimConfig::online_rdt_probe`]).
    pub fn with_online_rdt_probe(mut self, enabled: bool) -> Self {
        self.online_rdt_probe = enabled;
        self
    }

    /// Sets the crash injection rate (expected crashes per 1000 ticks;
    /// `0.0` disables fault injection).
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        assert!(
            rate >= 0.0 && rate.is_finite(),
            "crash rate must be finite and non-negative"
        );
        self.crash_rate = rate;
        self
    }

    /// Caps the number of injected crashes per run.
    pub fn with_max_crashes(mut self, max: u32) -> Self {
        self.max_crashes = max;
        self
    }

    /// Compacts the shadow engine after each computed recovery line (see
    /// [`SimConfig::compact_after_recovery`]).
    pub fn with_compaction(mut self, enabled: bool) -> Self {
        self.compact_after_recovery = enabled;
        self
    }

    /// Whether this configuration injects crashes at all.
    pub fn crashes_enabled(&self) -> bool {
        self.crash_rate > 0.0 && self.max_crashes > 0
    }

    /// Mean tick interval between scheduled crashes at the configured
    /// rate, at least one tick.
    ///
    /// # Panics
    ///
    /// Panics if crash injection is disabled.
    pub fn crash_mean_interval(&self) -> u64 {
        assert!(self.crashes_enabled(), "crash injection is disabled");
        ((1000.0 / self.crash_rate).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let config = SimConfig::new(4)
            .with_seed(9)
            .with_delay(DelayModel::Constant { ticks: 5 })
            .with_basic_checkpoints(BasicCheckpointModel::Disabled)
            .with_stop(StopCondition::Time(SimTime::from_ticks(100)));
        assert_eq!(config.seed, 9);
        assert_eq!(config.delay, DelayModel::Constant { ticks: 5 });
        assert_eq!(config.basic_checkpoints, BasicCheckpointModel::Disabled);
    }

    #[test]
    fn delay_samples_respect_bounds() {
        let mut rng = SimRng::seed(3);
        for _ in 0..200 {
            let d = DelayModel::Uniform { lo: 10, hi: 20 }.sample(&mut rng);
            assert!((10..=20).contains(&d.ticks()));
        }
        assert_eq!(
            DelayModel::Constant { ticks: 7 }.sample(&mut rng).ticks(),
            7
        );
    }

    #[test]
    fn crash_builders_and_helpers() {
        let off = SimConfig::new(3);
        assert!(!off.crashes_enabled());
        let on = SimConfig::new(3).with_crash_rate(2.0).with_max_crashes(5);
        assert!(on.crashes_enabled());
        assert_eq!(on.crash_mean_interval(), 500);
        assert_eq!(
            SimConfig::new(3).with_crash_rate(1e9).crash_mean_interval(),
            1
        );
        assert!(!SimConfig::new(3)
            .with_crash_rate(0.5)
            .with_max_crashes(0)
            .crashes_enabled());
    }

    #[test]
    fn disabled_checkpoints_sample_none() {
        let mut rng = SimRng::seed(3);
        assert_eq!(BasicCheckpointModel::Disabled.sample(&mut rng), None);
        assert!(BasicCheckpointModel::Exponential { mean: 10 }
            .sample(&mut rng)
            .is_some());
    }
}
