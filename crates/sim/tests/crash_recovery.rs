//! End-to-end crash-injection behavior through the public `rdt-sim` API:
//! lost-message replay, report invariants, and cross-protocol sanity.

use rdt_core::ProtocolKind;
use rdt_sim::{
    run_protocol_kind, scripted, BasicCheckpointModel, DelayModel, SimConfig, StopCondition,
    TraceEvent, TraceMetrics,
};

/// Four processes, mixed destinations, timers on: enough interleaving for
/// every recovery code path (orphans, undone deliveries, lost messages).
fn traffic_config(seed: u64) -> SimConfig {
    SimConfig::new(4)
        .with_seed(seed)
        .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 40 })
        .with_delay(DelayModel::Exponential { mean: 30 })
        .with_stop(StopCondition::MessagesSent(80))
        .with_crash_rate(4.0)
        .with_max_crashes(2)
}

fn traffic_script() -> Vec<(usize, usize)> {
    (0..100)
        .map(|k| (k % 4, (k + 1 + (k / 7) % 3) % 4))
        .collect()
}

#[test]
fn lost_messages_are_replayed_from_the_log() {
    // Pinned seed where the crash undoes deliveries whose sends survive
    // the rollback: those are lost messages, and the sender-side log must
    // replay every one of them as a fresh send.
    let outcome = run_protocol_kind(
        ProtocolKind::Uncoordinated,
        &traffic_config(3),
        &mut scripted(traffic_script()),
    );
    let report = outcome.recovery.expect("crashes enabled");
    assert!(
        report.total_lost_replayed() > 0,
        "seed 3 is pinned to exercise the lost-message path"
    );
    assert!(report.total_orphans_discarded() > 0);
    // Replays are ordinary sends: the union-history trace still converts
    // to a realizable pattern and its message count matches the stats.
    let pattern = outcome.trace.to_pattern();
    assert!(pattern.linearize().is_ok());
    assert_eq!(
        pattern.num_messages() as u64,
        outcome.stats.total.messages_sent
    );
}

#[test]
fn crash_reports_are_internally_consistent() {
    for seed in 0..8u64 {
        for kind in [
            ProtocolKind::Uncoordinated,
            ProtocolKind::Fdas,
            ProtocolKind::Bhmr,
        ] {
            let config = traffic_config(seed);
            let outcome = run_protocol_kind(kind, &config, &mut scripted(traffic_script()));
            let report = outcome.recovery.expect("crashes enabled");
            assert!(report.crashes.len() <= config.max_crashes as usize);
            let markers = outcome
                .trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::Crash { .. }))
                .count();
            assert_eq!(markers, report.crashes.len());
            assert_eq!(TraceMetrics::of(&outcome.trace).crashes as usize, markers);
            for crash in &report.crashes {
                assert_eq!(crash.line.len(), config.n);
                assert_eq!(crash.rollback_depth.len(), config.n);
                assert!(crash.domino_span >= 1, "the victim always rolls back");
                assert!(crash.domino_span <= config.n);
                assert!(crash.rolled_to_initial <= crash.domino_span);
                assert!(crash.lost_replayed <= crash.deliveries_undone);
                assert!(crash.max_depth() <= report.max_rollback_depth());
            }
        }
    }
}

#[test]
fn crash_schedule_is_independent_of_the_protocol() {
    // The crash stream is drawn from a dedicated RNG: as long as the
    // underlying schedule is identical (same workload, same seed), every
    // protocol sees the crash clock start at the same instants.
    let first_crash = |kind: ProtocolKind| {
        run_protocol_kind(kind, &traffic_config(3), &mut scripted(traffic_script()))
            .recovery
            .expect("crashes enabled")
            .crashes
            .first()
            .map(|c| (c.at, c.process))
    };
    let unc = first_crash(ProtocolKind::Uncoordinated);
    assert!(unc.is_some(), "seed 3 fires at least one crash");
    assert_eq!(unc, first_crash(ProtocolKind::Fdas));
    assert_eq!(unc, first_crash(ProtocolKind::Bhmr));
}
