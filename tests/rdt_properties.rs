//! Integration: Theorem 4.4 and its consequences on protocol-generated
//! patterns.
//!
//! Every RDT-ensuring protocol, in every environment, must produce
//! checkpoint and communication patterns in which every R-path is on-line
//! trackable; the uncoordinated control must violate that under load; and
//! the two headline consequences of RDT (antichain extendability, no
//! useless checkpoints) must hold on the generated patterns.

use rdt::theory::characterization;
use rdt::theory::min_max;
use rdt::workloads::EnvironmentKind;
use rdt::{
    run_protocol_kind, CheckpointId, PatternAnalysis, ProcessId, ProtocolKind, Replay, SimConfig,
    StopCondition,
};

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig::new(n)
        .with_seed(seed)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 40 })
        .with_stop(StopCondition::MessagesSent(150))
}

#[test]
fn every_rdt_protocol_produces_rdt_patterns_in_every_environment() {
    for &env in EnvironmentKind::all() {
        for &protocol in ProtocolKind::all().iter().filter(|k| k.ensures_rdt()) {
            for seed in [1u64, 2, 3] {
                let mut app = env.build(5, 15);
                let outcome = run_protocol_kind(protocol, &config(5, seed), app.as_mut());
                let report = PatternAnalysis::new(&outcome.trace.to_pattern()).rdt_report();
                assert!(
                    report.holds(),
                    "{protocol} in {env} (seed {seed}) violated RDT: {}",
                    report.violations()[0]
                );
            }
        }
    }
}

#[test]
fn uncoordinated_violates_rdt_under_load() {
    // With basic checkpoints landing between sends and deliveries, hidden
    // dependencies form quickly in the random environment.
    let mut violations = 0;
    for seed in 1u64..=5 {
        let mut app = EnvironmentKind::Random.build(5, 15);
        let outcome =
            run_protocol_kind(ProtocolKind::Uncoordinated, &config(5, seed), app.as_mut());
        if !PatternAnalysis::new(&outcome.trace.to_pattern())
            .rdt_report()
            .holds()
        {
            violations += 1;
        }
    }
    assert!(
        violations >= 4,
        "only {violations}/5 uncoordinated runs violated RDT"
    );
}

#[test]
fn rdt_patterns_have_no_useless_checkpoints() {
    for protocol in [ProtocolKind::Bhmr, ProtocolKind::Fdas] {
        let mut app = EnvironmentKind::Random.build(4, 15);
        let outcome = run_protocol_kind(protocol, &config(4, 11), app.as_mut());
        let analysis = PatternAnalysis::new(&outcome.trace.to_pattern());
        assert!(
            characterization::useless_checkpoints(&analysis).is_empty(),
            "{protocol} produced a useless checkpoint"
        );
    }
}

#[test]
fn antichains_extend_to_consistent_global_checkpoints_under_rdt() {
    // Property (1) of the paper's introduction: under RDT, any set of
    // pairwise causally-unrelated checkpoints extends to a consistent GC.
    let mut app = EnvironmentKind::Random.build(4, 15);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(4, 13), app.as_mut());
    let pattern = outcome.trace.to_pattern().to_closed();
    let annotations = Replay::new(&pattern).annotate().expect("realizable");

    let checkpoints: Vec<CheckpointId> = pattern.checkpoints().collect();
    let mut antichains_tested = 0;
    // Enumerate pairs (and extend greedily to triples) of concurrent
    // checkpoints.
    for (i, &a) in checkpoints.iter().enumerate() {
        for &b in checkpoints.iter().skip(i + 1) {
            if a.process == b.process || !annotations.concurrent(a, b) {
                continue;
            }
            antichains_tested += 1;
            assert!(
                min_max::min_consistent_containing(&pattern, &[a, b]).is_some(),
                "concurrent pair ({a}, {b}) not extendable"
            );
            if antichains_tested > 300 {
                return; // plenty of evidence
            }
        }
    }
    assert!(
        antichains_tested > 10,
        "test pattern too small to be meaningful"
    );
}

#[test]
fn uncoordinated_antichains_can_fail_to_extend() {
    // The converse of the property above: without RDT, some concurrent
    // pairs have hidden dependencies and extend to no consistent GC.
    let mut found_unextendable = false;
    'outer: for seed in 1u64..=8 {
        let mut app = EnvironmentKind::Random.build(5, 15);
        let outcome =
            run_protocol_kind(ProtocolKind::Uncoordinated, &config(5, seed), app.as_mut());
        let pattern = outcome.trace.to_pattern().to_closed();
        let annotations = Replay::new(&pattern).annotate().expect("realizable");
        let checkpoints: Vec<CheckpointId> = pattern.checkpoints().collect();
        for (i, &a) in checkpoints.iter().enumerate() {
            for &b in checkpoints.iter().skip(i + 1) {
                if a.process == b.process || !annotations.concurrent(a, b) {
                    continue;
                }
                if min_max::min_consistent_containing(&pattern, &[a, b]).is_none() {
                    found_unextendable = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(
        found_unextendable,
        "no hidden dependency found in 8 uncoordinated runs"
    );
}

#[test]
fn min_gc_entries_never_exceed_member_requirements() {
    // Structural sanity on the min-GC fixpoint: the minimum containing a
    // checkpoint is componentwise <= the maximum containing it.
    let mut app = EnvironmentKind::ClientServer.build(4, 15);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(4, 17), app.as_mut());
    let pattern = outcome.trace.to_pattern().to_closed();
    for i in 0..4 {
        let p = ProcessId::new(i);
        for x in 0..=pattern.last_checkpoint_index(p) {
            let c = CheckpointId::new(p, x);
            let min = min_max::min_consistent_containing(&pattern, &[c]);
            let max = min_max::max_consistent_containing(&pattern, &[c]);
            match (min, max) {
                (Some(lo), Some(hi)) => assert!(lo.le(&hi), "min > max for {c}"),
                (None, None) => panic!("{c} useless under an RDT protocol"),
                _ => panic!("min/max existence disagree for {c}"),
            }
        }
    }
}
