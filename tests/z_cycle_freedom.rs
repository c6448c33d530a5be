//! Integration: the property lattice below RDT.
//!
//! BCS guarantees Z-cycle freedom (no useless checkpoints) but not RDT;
//! RDT protocols guarantee both; the uncoordinated control guarantees
//! neither. These tests pin the strict inclusions with protocol-generated
//! patterns.

use rdt::theory::characterization::useless_checkpoints;
use rdt::workloads::EnvironmentKind;
use rdt::{run_protocol_kind, PatternAnalysis, ProtocolKind, SimConfig, StopCondition};

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n)
        .with_seed(seed)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 40 })
        .with_stop(StopCondition::MessagesSent(150))
}

#[test]
fn bcs_patterns_are_z_cycle_free_everywhere() {
    for &env in EnvironmentKind::all() {
        for seed in [1u64, 2, 3, 4] {
            let mut app = env.build(5, 15);
            let outcome = run_protocol_kind(ProtocolKind::Bcs, &config(5, seed), app.as_mut());
            let useless = useless_checkpoints(&PatternAnalysis::new(&outcome.trace.to_pattern()));
            assert!(
                useless.is_empty(),
                "BCS produced useless checkpoints {useless:?} in {env} (seed {seed})"
            );
        }
    }
}

#[test]
fn bcs_violates_rdt_somewhere() {
    // ZCF is strictly weaker than RDT: some BCS run must contain an
    // untrackable R-path.
    let mut violations = 0;
    for seed in 1u64..=6 {
        let mut app = EnvironmentKind::Random.build(5, 15);
        let outcome = run_protocol_kind(ProtocolKind::Bcs, &config(5, seed), app.as_mut());
        if !PatternAnalysis::new(&outcome.trace.to_pattern())
            .rdt_report()
            .holds()
        {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "no BCS run violated RDT — the separation is not exhibited"
    );
}

#[test]
fn bcs_forces_fewer_checkpoints_than_rdt_protocols() {
    // The price of RDT over plain usefulness: BCS should sit below the
    // whole RDT family on forced checkpoints (aggregated over seeds).
    let forced = |protocol: ProtocolKind| -> u64 {
        (1u64..=5)
            .map(|seed| {
                let mut app = EnvironmentKind::Random.build(6, 15);
                run_protocol_kind(protocol, &config(6, seed), app.as_mut())
                    .stats
                    .total
                    .forced_checkpoints
            })
            .sum()
    };
    let bcs = forced(ProtocolKind::Bcs);
    let bhmr = forced(ProtocolKind::Bhmr);
    assert!(bcs <= bhmr, "bcs {bcs} > bhmr {bhmr}");
}

#[test]
fn every_zcf_protocol_passes_the_zcf_check() {
    for &protocol in ProtocolKind::all() {
        if !protocol.ensures_z_cycle_freedom() {
            continue;
        }
        let mut app = EnvironmentKind::Groups.build(6, 15);
        let outcome = run_protocol_kind(protocol, &config(6, 9), app.as_mut());
        let analysis = PatternAnalysis::new(&outcome.trace.to_pattern());
        assert!(
            useless_checkpoints(&analysis).is_empty(),
            "{protocol} claims ZCF but produced a useless checkpoint"
        );
    }
}
