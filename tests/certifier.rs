//! Integration tests for the exhaustive small-scope certifier
//! (`rdt-verify`): enumeration invariants across the crate boundary, the
//! weakened-predicate regression the certifier must catch, the RDT
//! claims at two and three processes, BCS's Z-cycle freedom without RDT,
//! the forcing lattice over the certifier's universe, and the pattern
//! JSON round-trip over every enumerated pattern.

use proptest::prelude::*;

use rdt::json::{Json, ToJson};
use rdt::theory::PatternAnalysis;
use rdt::verify::{
    enumerate_patterns, enumerate_schedules, enumerate_schedules_orbit,
    enumerate_schedules_orbit_stats, ReplayedOps,
};
use rdt::{certify, CertProtocol, CertifyOptions, CheckpointKind, Pattern, ProtocolKind, Scope};

/// The CI smoke scope certifies cleanly through the public facade.
#[test]
fn tiny_scope_certifies_through_the_facade() {
    let report = certify(&Scope::tiny(), &CertifyOptions::default());
    assert!(report.certified_ok(), "{}", report.render());
    assert_eq!(report.counts.replayable, 68);
    for protocol in &report.protocols {
        assert_eq!(protocol.patterns, 68, "{}", protocol.name);
    }
}

/// Regression: the paper's Figure 2 hidden dependency. With `C1`
/// disabled (`C2` alone), BHMR lets a non-causal Z-path through at
/// n = 3, m = 2 — the certifier must report it as a counterexample,
/// while full BHMR certifies with zero counterexamples on the identical
/// scope.
#[test]
fn weakened_predicate_regression() {
    let scope = Scope::with_basics(3, 2, 0).expect("valid scope");
    let options = CertifyOptions {
        threads: 1,
        protocols: vec![
            CertProtocol::Kind(ProtocolKind::Bhmr),
            CertProtocol::WeakenedBhmrC2Only,
        ],
        max_counterexamples: 32,
        ..CertifyOptions::default()
    };
    let report = certify(&scope, &options);

    let full = report.protocol("bhmr").expect("bhmr certified");
    assert_eq!(full.counterexample_total, 0, "{:?}", full.counterexamples);
    assert_eq!(full.rdt_violations, 0);

    let weak = report.protocol("bhmr-c2only").expect("control certified");
    assert!(weak.rdt_violations > 0, "{}", report.render());
    let seeded: Vec<_> = weak
        .counterexamples
        .iter()
        .filter(|cex| cex.kind == "rdt-violation")
        .collect();
    assert!(!seeded.is_empty(), "{}", report.render());
    // The minimal witness is the two-message relay chain with a late
    // first delivery — present among the kept counterexamples.
    assert!(
        seeded
            .iter()
            .any(|cex| cex.schedule == "s0>1#0 d1#0 s2>0#1 d0#1"),
        "minimal hidden-dependency witness missing: {seeded:?}"
    );
    // The meta-check: a certifier that cannot catch a broken predicate
    // must not report success.
    assert!(report.certified_ok(), "{}", report.render());
}

/// Every protocol that claims RDT keeps the claim, and with it Z-cycle
/// freedom, on every pattern of two and three processes: a certified
/// report has no counterexample of any kind for a shipped protocol.
#[test]
fn rdt_claims_certify_at_two_and_three_processes() {
    for label in ["2,3,2", "2,4,1", "3,3"] {
        let scope: Scope = label.parse().expect("scope in range");
        let report = certify(&scope, &CertifyOptions::default());
        assert!(report.certified_ok(), "{}", report.render());
    }
}

/// The paper places RDT strictly inside Z-cycle freedom, and BCS is the
/// protocol between them: it never produces a useless checkpoint (which
/// the certifier notes for every ZCF claim), preserves RDT with two
/// processes — a same-process chain always crosses an epoch bump and is
/// broken — and loses it at three, where the hidden dependency needs a
/// third process. `uncoordinated` claims neither and violates RDT at
/// every scope.
#[test]
fn bcs_is_zcf_but_not_rdt_over_the_certifiers_universe() {
    let options = CertifyOptions {
        protocols: vec![
            CertProtocol::Kind(ProtocolKind::Bcs),
            CertProtocol::Kind(ProtocolKind::Uncoordinated),
        ],
        ..CertifyOptions::default()
    };
    for (label, bcs_keeps_rdt) in [("2,4,2", true), ("2,5,1", true), ("3,4", false)] {
        let scope: Scope = label.parse().expect("scope in range");
        let report = certify(&scope, &options);
        assert!(report.certified_ok(), "{}", report.render());
        let bcs = report.protocol("bcs").expect("bcs certified");
        assert_eq!(bcs.rdt_violations == 0, bcs_keeps_rdt, "{label}");
        let unco = report
            .protocol("uncoordinated")
            .expect("in the protocol list");
        assert!(unco.rdt_violations > 0, "{label}");
    }
}

/// Forced checkpoints of each protocol over every schedule of `scope`,
/// each canonical schedule weighted by its orbit: totals over the full
/// space of structures, in `kinds` order.
fn orbit_weighted_forced<const K: usize>(scope: &Scope, kinds: [ProtocolKind; K]) -> [u64; K] {
    let mut run = ReplayedOps::default();
    let mut totals = [0; K];
    enumerate_schedules_orbit_stats(scope, |schedule, meta| {
        for (kind, total) in kinds.iter().zip(&mut totals) {
            CertProtocol::Kind(*kind).replay_ops(schedule, &mut run);
            let forced = run
                .records
                .iter()
                .filter(|record| record.kind == CheckpointKind::Forced)
                .count() as u64;
            *total += forced * meta.orbit;
        }
    });
    totals
}

/// Over the identical exhaustive universe, forced-checkpoint totals order
/// along the predicate lattice: bhmr ≤ bhmr-nosimple ≤ fdas ≤ fdi and
/// fdas ≤ nras, the comparison Garcia, Vieira & Buzato draw between CIC
/// protocols. `uncoordinated` forces nothing.
#[test]
fn forcing_lattice_holds_on_orbit_weighted_totals() {
    use ProtocolKind::{Bhmr, BhmrNoSimple, Fdas, Fdi, Nras, Uncoordinated};
    for label in ["2,3,2", "2,4,1", "3,3", "3,4"] {
        let scope: Scope = label.parse().expect("scope in range");
        let [bhmr, nosimple, fdas, fdi, nras, unco] =
            orbit_weighted_forced(&scope, [Bhmr, BhmrNoSimple, Fdas, Fdi, Nras, Uncoordinated]);
        assert!(bhmr > 0, "{label}: bhmr forces nothing");
        assert!(
            bhmr <= nosimple,
            "{label}: bhmr {bhmr} > nosimple {nosimple}"
        );
        assert!(
            nosimple <= fdas,
            "{label}: nosimple {nosimple} > fdas {fdas}"
        );
        assert!(fdas <= fdi, "{label}: fdas {fdas} > fdi {fdi}");
        assert!(fdas <= nras, "{label}: fdas {fdas} > nras {nras}");
        assert_eq!(unco, 0, "{label}");
    }
}

/// The enumerator's counts are visible and exact through the facade
/// (hand-computed table in docs/VERIFICATION.md).
#[test]
fn enumeration_counts_match_hand_computation() {
    let scope = Scope::with_basics(2, 2, 0).expect("valid scope");
    let (patterns, counts) = enumerate_patterns(&scope);
    assert_eq!(counts.structures, 24);
    assert_eq!(counts.canonical, 14);
    assert_eq!(counts.pruned_symmetry, 10);
    assert_eq!(counts.unrealizable, 1);
    assert_eq!(counts.replayable, 13);
    assert_eq!(patterns.len(), 13);
}

/// ROADMAP item 3 coverage pin: `certify --scope 3,4` covers exactly
/// 260506 structures and replays exactly 36526 canonical patterns. Any
/// pruning change that alters coverage — a canonicalization bug, a
/// miscounted orbit, a lost work unit — fails here loudly.
#[test]
fn scope_3_4_coverage_is_pinned() {
    let scope: Scope = "3,4".parse().expect("scope in range");
    let counts = enumerate_schedules_orbit(&scope, |_| {});
    assert_eq!(counts.structures, 260506);
    assert_eq!(counts.replayable, 36526);
    assert_eq!(counts.structures - counts.canonical, counts.pruned_symmetry);
}

/// Builds the `seed`-th process relabeling of `0..n` (a deterministic
/// Fisher–Yates walk — every permutation is reachable).
fn perm_from_seed(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        perm.swap(i, j);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Orbit-pruning soundness, half one: the orbit-pruned enumerator
    /// retains exactly the baseline's canonical representatives (same
    /// stream, same order) and its orbit–stabilizer counts cover the
    /// full space exactly — so every pruned structure is accounted to
    /// precisely one retained representative.
    #[test]
    fn orbit_pruning_matches_the_baseline(scope in scope_strategy()) {
        let mut baseline = Vec::new();
        let base_counts = enumerate_schedules(&scope, |s| baseline.push(s.render()));
        let mut retained = Vec::new();
        let mut orbits = Vec::new();
        let factorial: u64 = (1..=scope.processes as u64).product();
        let (orbit_counts, _) = enumerate_schedules_orbit_stats(&scope, |s, meta| {
            retained.push(s.render());
            orbits.push(meta.orbit);
        });
        prop_assert_eq!(base_counts, orbit_counts);
        prop_assert_eq!(baseline, retained);
        let orbit_sum: u64 = orbits.iter().sum();
        prop_assert!(orbits.iter().all(|&o| o >= 1 && factorial.is_multiple_of(o)));
        prop_assert!(orbit_sum <= orbit_counts.structures);
    }

    /// Orbit-pruning soundness, half two: replaying a random orbit
    /// member (a relabeled schedule) yields the same theory verdict as
    /// its canonical representative — the verdict the certifier reports
    /// for the whole orbit.
    #[test]
    fn orbit_members_share_their_representatives_verdict(
        scope in scope_strategy(),
        seed in 0u64..1_000,
    ) {
        let mut failures = Vec::new();
        enumerate_schedules_orbit(&scope, |schedule| {
            let perm = perm_from_seed(scope.processes, seed ^ schedule.events.len() as u64);
            let member = schedule.relabeled(&perm);
            let rep = PatternAnalysis::new(&schedule.to_pattern().expect("realizable"));
            let other = PatternAnalysis::new(&member.to_pattern().expect("orbit member realizable"));
            let rep_verdict = rep.rdt_report().holds();
            let member_verdict = other.rdt_report().holds();
            if rep_verdict != member_verdict {
                failures.push(format!(
                    "{}: representative rdt={rep_verdict}, member rdt={member_verdict}",
                    schedule.render()
                ));
            }
        });
        prop_assert!(failures.is_empty(), "{failures:?}");
    }
}

fn scope_strategy() -> impl Strategy<Value = Scope> {
    (1usize..=3, 0usize..=2, 0usize..=2)
        .prop_map(|(n, m, b)| Scope::with_basics(n, m, b).expect("bounds in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every enumerated pattern survives the JSON codec byte-for-byte
    /// (digest and structural equality) and replays cleanly through
    /// `PatternAnalysis`.
    #[test]
    fn enumerated_patterns_round_trip_and_replay(scope in scope_strategy()) {
        let (patterns, counts) = enumerate_patterns(&scope);
        prop_assert_eq!(patterns.len() as u64, counts.replayable);
        for pattern in &patterns {
            let encoded = pattern.to_json().pretty();
            let decoded = Json::parse(&encoded).expect("codec emits valid JSON");
            let back = Pattern::from_json(&decoded).expect("codec round-trips");
            prop_assert_eq!(&back, pattern);
            prop_assert_eq!(back.digest(), pattern.digest());

            let analysis = PatternAnalysis::new(pattern);
            prop_assert!(
                analysis.try_rdt_report().is_ok(),
                "enumerated pattern must be realizable"
            );
        }
    }
}
