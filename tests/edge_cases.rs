//! Hardening: degenerate and boundary configurations across the stack.

use rdt::theory::{consistency, min_max};
use rdt::workloads::EnvironmentKind;
use rdt::{
    run_protocol_kind, CheckpointId, GlobalCheckpoint, PatternAnalysis, PatternBuilder, ProcessId,
    ProtocolKind, SimConfig, StopCondition,
};

#[test]
fn single_process_systems_are_trivially_rdt() {
    for &protocol in ProtocolKind::all() {
        let config = SimConfig::new(1)
            .with_seed(1)
            .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 10 })
            .with_stop(StopCondition::Time(rdt::SimTime::from_ticks(200)));
        let mut app = EnvironmentKind::Random.build(1, 10);
        let outcome = run_protocol_kind(protocol, &config, app.as_mut());
        assert_eq!(outcome.stats.total.messages_sent, 0, "{protocol}");
        assert_eq!(outcome.stats.total.forced_checkpoints, 0, "{protocol}");
        assert!(PatternAnalysis::new(&outcome.trace.to_pattern())
            .rdt_report()
            .holds());
    }
}

#[test]
fn two_process_minimal_exchange_under_every_protocol() {
    for &protocol in ProtocolKind::all() {
        let config = SimConfig::new(2)
            .with_seed(2)
            .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Disabled)
            .with_stop(StopCondition::MessagesSent(2));
        let mut app = EnvironmentKind::Ring.build(2, 5);
        let outcome = run_protocol_kind(protocol, &config, app.as_mut());
        assert_eq!(outcome.stats.total.messages_sent, 2, "{protocol}");
        let pattern = outcome.trace.to_pattern();
        assert!(pattern.linearize().is_ok(), "{protocol}");
    }
}

#[test]
fn empty_run_produces_empty_but_valid_artifacts() {
    let config = SimConfig::new(3)
        .with_seed(3)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Disabled)
        .with_stop(StopCondition::MessagesSent(0));
    let mut app = EnvironmentKind::Random.build(3, 10);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config, app.as_mut());
    assert_eq!(outcome.trace.events().len(), 0);
    let pattern = outcome.trace.to_pattern();
    assert_eq!(pattern.total_checkpoints(), 3); // the implicit initials
    assert!(PatternAnalysis::new(&pattern).rdt_report().holds());
    assert!(consistency::is_consistent(
        &pattern,
        &GlobalCheckpoint::initial(3)
    ));
}

#[test]
fn pattern_with_only_checkpoints_has_chain_free_theory() {
    let mut b = PatternBuilder::new(2);
    for _ in 0..5 {
        b.checkpoint(ProcessId::new(0));
        b.checkpoint(ProcessId::new(1));
    }
    let pattern = b.build().unwrap();
    assert!(PatternAnalysis::new(&pattern).rdt_report().holds());
    // Every combination is consistent: no messages, no orphans.
    for x in 0..=5u32 {
        for y in 0..=5u32 {
            assert!(consistency::is_consistent(
                &pattern,
                &GlobalCheckpoint::new(vec![x, y])
            ));
        }
    }
    // Min GC containing any checkpoint is itself plus initials.
    let gc =
        min_max::min_consistent_containing(&pattern, &[CheckpointId::new(ProcessId::new(1), 4)])
            .unwrap();
    assert_eq!(gc.as_slice(), &[0, 4]);
}

#[test]
fn zero_tick_delays_keep_event_order_sane() {
    // Constant 1-tick delay with a dense script: many events share
    // timestamps; determinism and pattern validity must survive.
    let config = SimConfig::new(3)
        .with_seed(4)
        .with_delay(rdt::sim::DelayModel::Constant { ticks: 1 })
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 2 })
        .with_stop(StopCondition::MessagesSent(300));
    let mut app1 = EnvironmentKind::Pipeline.build(3, 1);
    let mut app2 = EnvironmentKind::Pipeline.build(3, 1);
    let a = run_protocol_kind(ProtocolKind::Fdas, &config, app1.as_mut());
    let b = run_protocol_kind(ProtocolKind::Fdas, &config, app2.as_mut());
    assert_eq!(a.trace.events(), b.trace.events());
    assert!(a.trace.to_pattern().linearize().is_ok());
}

#[test]
fn huge_checkpoint_rate_floods_are_handled() {
    // Checkpoints far more frequent than messages: R collapses toward 0
    // and the theory still verifies.
    let config = SimConfig::new(4)
        .with_seed(5)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 1 })
        .with_stop(StopCondition::MessagesSent(30));
    let mut app = EnvironmentKind::Random.build(4, 50);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config, app.as_mut());
    assert!(outcome.stats.total.basic_checkpoints > outcome.stats.total.messages_sent);
    assert!(outcome.stats.forced_ratio() < 0.5);
    assert!(PatternAnalysis::new(&outcome.trace.to_pattern())
        .rdt_report()
        .holds());
}

#[test]
fn protocol_names_match_kind_names() {
    use rdt::protocols::CicProtocol;
    let p0 = ProcessId::new(0);
    assert_eq!(rdt::Bhmr::new(2, p0).name(), ProtocolKind::Bhmr.name());
    assert_eq!(
        rdt::BhmrNoSimple::new(2, p0).name(),
        ProtocolKind::BhmrNoSimple.name()
    );
    assert_eq!(
        rdt::BhmrCausalOnly::new(2, p0).name(),
        ProtocolKind::BhmrCausalOnly.name()
    );
    assert_eq!(rdt::Fdas::new(2, p0).name(), ProtocolKind::Fdas.name());
    assert_eq!(rdt::Fdi::new(2, p0).name(), ProtocolKind::Fdi.name());
    assert_eq!(rdt::Nras::new(2, p0).name(), ProtocolKind::Nras.name());
    assert_eq!(rdt::Cas::new(2, p0).name(), ProtocolKind::Cas.name());
    assert_eq!(rdt::Cbr::new(2, p0).name(), ProtocolKind::Cbr.name());
    assert_eq!(rdt::Bcs::new(2, p0).name(), ProtocolKind::Bcs.name());
    assert_eq!(
        rdt::Uncoordinated::new(2, p0).name(),
        ProtocolKind::Uncoordinated.name()
    );
}

#[test]
fn trace_json_roundtrip() {
    use rdt::json::ToJson;
    let config = SimConfig::new(3)
        .with_seed(6)
        .with_stop(StopCondition::MessagesSent(50));
    let mut app = EnvironmentKind::Random.build(3, 10);
    let outcome = run_protocol_kind(ProtocolKind::Fdas, &config, app.as_mut());
    let json = outcome.trace.to_json().to_string();
    let back = rdt::Trace::from_json_str(&json).unwrap();
    assert_eq!(back.events(), outcome.trace.events());
    assert_eq!(back.to_pattern(), outcome.trace.to_pattern());
}
