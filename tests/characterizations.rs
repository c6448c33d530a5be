//! Integration: the three RDT characterizations agree on
//! protocol-generated patterns (the "visible characterization" result —
//! checking the locally-visible CM-path family is as strong as checking
//! every R-path).

use rdt::theory::characterization::{all_chains_doubled, all_cm_paths_doubled};
use rdt::theory::IncrementalAnalysis;
use rdt::workloads::EnvironmentKind;
use rdt::{run_protocol_kind, Pattern, ProtocolKind, RdtChecker, SimConfig, StopCondition};

/// Characterization 3 in its visible form: the closed pattern replayed
/// into the core, every message's two closing `TDV`s compared.
fn visible_holds(pattern: &Pattern) -> bool {
    let closed = pattern.to_closed();
    IncrementalAnalysis::from_pattern(&closed)
        .expect("realizable")
        .visible_holds()
}

fn small_config(seed: u64, messages: u64) -> SimConfig {
    SimConfig::new(4)
        .with_seed(seed)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 35 })
        .with_stop(StopCondition::MessagesSent(messages))
}

#[test]
fn characterizations_agree_on_generated_patterns() {
    // Chain closures are O(M^2): keep runs small but numerous, and include
    // both RDT-holding and RDT-violating producers.
    let protocols = [
        ProtocolKind::Bhmr,
        ProtocolKind::Fdas,
        ProtocolKind::Nras,
        ProtocolKind::Uncoordinated,
    ];
    let mut violating = 0;
    let mut holding = 0;
    for &env in &[
        EnvironmentKind::Random,
        EnvironmentKind::ClientServer,
        EnvironmentKind::Ring,
    ] {
        for &protocol in &protocols {
            for seed in [1u64, 2, 3, 4] {
                let mut app = env.build(4, 12);
                let outcome = run_protocol_kind(protocol, &small_config(seed, 60), app.as_mut());
                let pattern = outcome.trace.to_pattern();
                let by_rpaths = RdtChecker::new(&pattern).check().holds();
                let by_chains = all_chains_doubled(&pattern);
                let by_cm = all_cm_paths_doubled(&pattern);
                assert_eq!(
                    by_cm,
                    visible_holds(&pattern),
                    "{protocol} in {env} (seed {seed}): CM-path check vs the visible TDV test"
                );
                assert_eq!(
                    by_rpaths, by_chains,
                    "{protocol} in {env} (seed {seed}): R-path vs chain characterizations differ"
                );
                assert_eq!(
                    by_chains, by_cm,
                    "{protocol} in {env} (seed {seed}): chain vs CM-path characterizations differ"
                );
                if by_rpaths {
                    holding += 1;
                } else {
                    violating += 1;
                }
            }
        }
    }
    assert!(holding > 0, "no RDT-holding run exercised");
    assert!(
        violating > 0,
        "no RDT-violating run exercised — the equivalence test is vacuous"
    );
}

#[test]
fn cm_check_is_not_weaker_on_paper_counterexamples() {
    use rdt::theory::paper_figures;
    // Belt and braces: the known counterexamples must fail all three ways.
    for pattern in [
        paper_figures::figure_1(),
        paper_figures::figure_2_unbroken(),
        paper_figures::figure_4_unbroken(),
    ] {
        assert!(!RdtChecker::new(&pattern).check().holds());
        assert!(!all_chains_doubled(&pattern));
        assert!(!all_cm_paths_doubled(&pattern));
        assert!(!visible_holds(&pattern));
    }
}
