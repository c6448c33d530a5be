//! Dynamic protocol selection.

use rdt_core::{
    spawner, Bcs, Bhmr, BhmrCausalOnly, BhmrNoSimple, Cas, Cbr, ExecutorSpec, Fdas, Fdi, Nras,
    ProtocolKind, Uncoordinated,
};

use crate::{Application, RunOutcome, Runner, SimConfig, SimScratch};

/// The one `ProtocolKind → factory` table: binds `$make` to the constructor
/// `$kind` selects and evaluates `$body` with it. `$engine` picks the
/// implementation of the five dependency-tracking protocols: `executor`
/// (the packed round-executor) or `legacy` (the scalar state machines).
/// A macro because every row's factory, and so every [`Runner`], has a
/// different type.
macro_rules! with_factory {
    ($engine:ident, $kind:expr, |$make:ident| $body:expr) => {
        with_factory!(@rows $kind, $make, $body;
            Bhmr => with_factory!(@tracking $engine Bhmr),
            BhmrNoSimple => with_factory!(@tracking $engine BhmrNoSimple),
            BhmrCausalOnly => with_factory!(@tracking $engine BhmrCausalOnly),
            Fdas => with_factory!(@tracking $engine Fdas),
            Fdi => with_factory!(@tracking $engine Fdi),
            Nras => Nras::new,
            Cas => Cas::new,
            Cbr => Cbr::new,
            Bcs => Bcs::new,
            Uncoordinated => Uncoordinated::new,
        )
    };
    (@tracking executor $name:ident) => {
        spawner(ExecutorSpec::$name)
    };
    (@tracking legacy $name:ident) => {
        $name::new
    };
    (@rows $kind:expr, $make:ident, $body:expr; $($variant:ident => $factory:expr,)*) => {
        match $kind {
            $(ProtocolKind::$variant => {
                let $make = $factory;
                $body
            })*
        }
    };
}

/// Runs one simulation with the protocol chosen by `kind`.
///
/// The protocols stay monomorphized — this function only selects which
/// concrete [`Runner`] to instantiate — so harnesses can sweep the whole
/// protocol lattice from configuration data without paying for dynamic
/// dispatch inside the event loop.
///
/// The five dependency-tracking protocols run on the packed
/// round-executor engine (`rdt_core::ExecutorCell`): zero per-message
/// allocation and word-parallel predicate evaluation, behaviourally
/// identical to the legacy implementations (pinned by the differential
/// suite). [`run_protocol_kind_legacy`] keeps the legacy path available
/// as an oracle and for benchmarking.
///
/// # Example
///
/// ```rust
/// use rdt_core::ProtocolKind;
/// use rdt_sim::{run_protocol_kind, scripted, SimConfig};
///
/// let config = SimConfig::new(2).with_seed(1);
/// for kind in ProtocolKind::all() {
///     let outcome = run_protocol_kind(*kind, &config, &mut scripted(vec![(0, 1)]));
///     assert_eq!(outcome.stats.total.messages_sent, 1);
/// }
/// ```
pub fn run_protocol_kind(
    kind: ProtocolKind,
    config: &SimConfig,
    app: &mut dyn Application,
) -> RunOutcome {
    with_factory!(executor, kind, |make| Runner::new(config, make).run(app))
}

/// Like [`run_protocol_kind`], but running the dependency-tracking
/// protocols on their *legacy* (per-message-allocating, scalar)
/// implementations.
///
/// Kept as the differential oracle and as the baseline arm of the
/// `sim-throughput` benchmark; results are identical to
/// [`run_protocol_kind`] on every schedule.
pub fn run_protocol_kind_legacy(
    kind: ProtocolKind,
    config: &SimConfig,
    app: &mut dyn Application,
) -> RunOutcome {
    with_factory!(legacy, kind, |make| Runner::new(config, make).run(app))
}

/// Like [`run_protocol_kind`], but drawing buffers from `scratch` and
/// reclaiming them after `consume` has read the outcome.
///
/// This is the allocation-free inner loop for sweep harnesses: `consume`
/// extracts whatever it needs (statistics, a pattern digest) from the
/// borrowed [`RunOutcome`], then the trace and record buffers flow back
/// into `scratch` for the next run. Results are identical to
/// [`run_protocol_kind`] — the scratch only recycles memory.
pub fn run_protocol_kind_with_scratch<R>(
    kind: ProtocolKind,
    config: &SimConfig,
    app: &mut dyn Application,
    scratch: &mut SimScratch,
    consume: impl FnOnce(&RunOutcome) -> R,
) -> R {
    let outcome = with_factory!(executor, kind, |make| {
        Runner::new_with_scratch(config, make, scratch).run(app)
    });
    let result = consume(&outcome);
    scratch.reclaim(outcome);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scripted, BasicCheckpointModel, DelayModel, StopCondition};

    #[test]
    fn all_kinds_run_and_report_their_name_consistently() {
        let config = SimConfig::new(3)
            .with_seed(21)
            .with_delay(DelayModel::Uniform { lo: 5, hi: 50 })
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 40 })
            .with_stop(StopCondition::MessagesSent(20));
        let script: Vec<(usize, usize)> = (0..30).map(|k| (k % 3, (k + 1) % 3)).collect();
        for &kind in ProtocolKind::all() {
            let outcome = run_protocol_kind(kind, &config, &mut scripted(script.clone()));
            assert_eq!(outcome.stats.total.messages_sent, 20, "{kind}");
            assert_eq!(outcome.stats.total.messages_delivered, 20, "{kind}");
            if kind == ProtocolKind::Uncoordinated {
                assert_eq!(outcome.stats.total.forced_checkpoints, 0);
            }
        }
    }

    #[test]
    fn executor_path_is_bit_identical_to_legacy() {
        // The default dispatch runs the packed executor; the legacy path
        // must produce byte-for-byte the same outcome on every schedule,
        // including one with crash-recovery in play.
        let base = SimConfig::new(4)
            .with_seed(7)
            .with_delay(DelayModel::Uniform { lo: 5, hi: 60 })
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 25 })
            .with_stop(StopCondition::MessagesSent(60));
        let crashy = base.clone().with_crash_rate(2.0).with_max_crashes(2);
        let script: Vec<(usize, usize)> = (0..90).map(|k| (k % 4, (k + 1 + k % 3) % 4)).collect();
        for config in [&base, &crashy] {
            for kind in [
                ProtocolKind::Bhmr,
                ProtocolKind::BhmrNoSimple,
                ProtocolKind::BhmrCausalOnly,
                ProtocolKind::Fdas,
                ProtocolKind::Fdi,
            ] {
                let a = run_protocol_kind(kind, config, &mut scripted(script.clone()));
                let b = run_protocol_kind_legacy(kind, config, &mut scripted(script.clone()));
                assert_eq!(a.trace.events(), b.trace.events(), "{kind}");
                assert_eq!(a.records, b.records, "{kind}");
                assert_eq!(a.stats.total, b.stats.total, "{kind}");
                assert_eq!(a.stats.per_process, b.stats.per_process, "{kind}");
                match (&a.recovery, &b.recovery) {
                    (Some(ra), Some(rb)) => assert_eq!(ra.crashes, rb.crashes, "{kind}"),
                    (None, None) => {}
                    _ => panic!("recovery presence diverged for {kind}"),
                }
            }
        }
    }

    #[test]
    fn identical_schedules_across_dependency_protocols() {
        // Delay draws happen in the same order regardless of protocol, so
        // message schedules coincide; forced-checkpoint counts then order
        // by the protocol lattice.
        let config = SimConfig::new(4)
            .with_seed(99)
            .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 30 })
            .with_stop(StopCondition::MessagesSent(40));
        let script: Vec<(usize, usize)> = (0..60).map(|k| (k % 4, (k + 1 + k % 3) % 4)).collect();

        let sent_times = |kind: ProtocolKind| {
            let outcome = run_protocol_kind(kind, &config, &mut scripted(script.clone()));
            outcome
                .trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    crate::TraceEvent::Send { at, .. } => Some(*at),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            sent_times(ProtocolKind::Bhmr),
            sent_times(ProtocolKind::Fdas)
        );
        assert_eq!(
            sent_times(ProtocolKind::Bhmr),
            sent_times(ProtocolKind::Uncoordinated)
        );
    }
}
