//! Differential testing of the on-line protocols against the offline
//! theory.
//!
//! Every RDT-ensuring on-line protocol — the BHMR protocol and both its
//! variants, the FDAS family (FDAS, FDI), and the simple protocols (NRAS,
//! CAS, CBR) — claims that every pattern it produces satisfies RDT. The
//! paper gives three *equivalent* offline views of that property:
//!
//! 1. the R-path check ([`rdt::PatternAnalysis::rdt_report`]),
//! 2. every message chain causally doubled
//!    ([`rdt::theory::characterization::all_chains_doubled`]),
//! 3. every visible CM-path causally doubled
//!    ([`rdt::theory::characterization::all_cm_paths_doubled`]), which on
//!    a closed pattern is each message's sender `TDV` bounded by its
//!    receiver's ([`rdt::theory::IncrementalAnalysis::visible_holds`]).
//!
//! These tests run random workloads through the simulator and check (a)
//! the protocols' claim under all three characterizations, and (b) that
//! the three characterizations agree with each other even on patterns
//! from the non-RDT controls (BCS, uncoordinated), where the outcome is
//! seed-dependent.

use proptest::prelude::*;
use rdt::theory::characterization::{all_chains_doubled, all_cm_paths_doubled};
use rdt::workloads::EnvironmentKind;
use rdt::{
    run_protocol_kind, Pattern, PatternAnalysis, ProtocolKind, SimConfig, SimTime, StopCondition,
};

fn run_pattern(
    protocol: ProtocolKind,
    env: EnvironmentKind,
    n: usize,
    seed: u64,
    ckpt_mean: u64,
    messages: u64,
) -> Pattern {
    let config = SimConfig::new(n)
        .with_seed(seed)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: ckpt_mean })
        .with_stop(StopCondition::MessagesSent(messages));
    let mut app = env.build(n, 10);
    run_protocol_kind(protocol, &config, app.as_mut())
        .trace
        .to_pattern()
}

/// The visible `TDV` test on the analysis's core (its closed pattern).
fn visible_holds(analysis: &PatternAnalysis) -> bool {
    analysis.core().expect("realizable").visible_holds()
}

/// The fixed seed corpus: small but diverse — every environment, several
/// seeds, two system sizes. Deliberately deterministic so a regression
/// here is immediately reproducible.
fn corpus() -> impl Iterator<Item = (EnvironmentKind, usize, u64)> {
    EnvironmentKind::all()
        .iter()
        .flat_map(|&env| [(env, 3, 11u64), (env, 4, 23), (env, 4, 47), (env, 5, 91)])
}

#[test]
fn online_protocols_satisfy_all_three_characterizations_on_corpus() {
    for &protocol in ProtocolKind::all().iter().filter(|k| k.ensures_rdt()) {
        for (env, n, seed) in corpus() {
            let pattern = run_pattern(protocol, env, n, seed, 25, 60);
            let analysis = PatternAnalysis::new(&pattern);
            let label = format!("{protocol} in {env} (n={n}, seed={seed})");
            assert!(analysis.rdt_report().holds(), "{label}: R-path checker");
            assert!(
                all_chains_doubled(&analysis),
                "{label}: some chain is undoubled"
            );
            assert!(
                all_cm_paths_doubled(&analysis),
                "{label}: some CM-path is undoubled"
            );
            assert!(visible_holds(&analysis), "{label}: visible TDV test");
        }
    }
}

#[test]
fn characterizations_agree_even_on_non_rdt_controls() {
    // BCS and the uncoordinated control make no RDT promise; whether a
    // given run satisfies RDT is up to the seed. The three offline views
    // must still return the *same verdict* on every pattern.
    let mut holds = 0;
    let mut violations = 0;
    for protocol in [ProtocolKind::Bcs, ProtocolKind::Uncoordinated] {
        for (env, n, seed) in corpus() {
            let pattern = run_pattern(protocol, env, n, seed, 25, 60);
            let analysis = PatternAnalysis::new(&pattern);
            let r = analysis.rdt_report().holds();
            let chains = all_chains_doubled(&analysis);
            let cm = all_cm_paths_doubled(&analysis);
            let label = format!("{protocol} in {env} (n={n}, seed={seed})");
            assert_eq!(r, chains, "{label}: checker vs chains");
            assert_eq!(chains, cm, "{label}: chains vs CM-paths");
            assert_eq!(
                cm,
                visible_holds(&analysis),
                "{label}: CM-paths vs TDV test"
            );
            if r {
                holds += 1;
            } else {
                violations += 1;
            }
        }
    }
    // The corpus must exercise both verdicts, or the agreement check
    // proves nothing.
    assert!(holds > 0, "corpus produced no RDT-satisfying control runs");
    assert!(
        violations > 0,
        "corpus produced no RDT-violating control runs"
    );
}

#[test]
fn time_stopped_runs_agree_too() {
    // A different stop condition exercises quiescence handling: the
    // runner discards pending checkpoint timers differently, so cover it.
    for &protocol in ProtocolKind::all().iter().filter(|k| k.ensures_rdt()) {
        let config = SimConfig::new(3)
            .with_seed(5)
            .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 15 })
            .with_stop(StopCondition::Time(SimTime::from_ticks(600)));
        let mut app = EnvironmentKind::Random.build(3, 10);
        let pattern = run_protocol_kind(protocol, &config, app.as_mut())
            .trace
            .to_pattern();
        let analysis = PatternAnalysis::new(&pattern);
        assert!(all_cm_paths_doubled(&analysis), "{protocol}");
        assert!(analysis.rdt_report().holds(), "{protocol}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized extension of the corpus: workload geometry, checkpoint
    /// rate and message budget all vary; every on-line protocol must stay
    /// consistent with every offline characterization.
    fn online_protocols_agree_with_offline_checkers(
        seed in 1u64..100_000,
        env_index in 0usize..5,
        n in 2usize..5,
        ckpt_mean in 4u64..50,
        messages in 20u64..70,
    ) {
        let env = EnvironmentKind::all()[env_index];
        for &protocol in ProtocolKind::all().iter().filter(|k| k.ensures_rdt()) {
            let pattern = run_pattern(protocol, env, n, seed, ckpt_mean, messages);
            let analysis = PatternAnalysis::new(&pattern);
            let r = analysis.rdt_report().holds();
            let chains = all_chains_doubled(&analysis);
            let cm = all_cm_paths_doubled(&analysis);
            prop_assert!(r, "{} {} seed={}: R-path checker", protocol, env, seed);
            prop_assert!(chains, "{} {} seed={}: undoubled chain", protocol, env, seed);
            prop_assert!(cm, "{} {} seed={}: undoubled CM-path", protocol, env, seed);
        }
    }

    /// The equivalence (1) ⇔ (2) ⇔ (3) on arbitrary control patterns.
    fn characterization_equivalence_on_random_controls(
        seed in 1u64..100_000,
        env_index in 0usize..5,
        n in 2usize..5,
        ckpt_mean in 4u64..50,
        messages in 20u64..70,
    ) {
        let env = EnvironmentKind::all()[env_index];
        for protocol in [ProtocolKind::Bcs, ProtocolKind::Uncoordinated] {
            let pattern = run_pattern(protocol, env, n, seed, ckpt_mean, messages);
            let analysis = PatternAnalysis::new(&pattern);
            let r = analysis.rdt_report().holds();
            let chains = all_chains_doubled(&analysis);
            let cm = all_cm_paths_doubled(&analysis);
            prop_assert_eq!(r, chains, "{} {} seed={}", protocol, env, seed);
            prop_assert_eq!(chains, cm, "{} {} seed={}", protocol, env, seed);
            prop_assert_eq!(cm, visible_holds(&analysis), "{} {} seed={}", protocol, env, seed);
        }
    }
}
