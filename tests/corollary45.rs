//! Integration: Corollary 4.5 — the `TDV` saved with each checkpoint *is*
//! the minimum consistent global checkpoint containing it, for every
//! dependency-tracking RDT protocol, cross-validated against the offline
//! R-graph fixpoint.

use rdt::sim::TraceEvent;
use rdt::theory::{min_max, RewindableAnalysis};
use rdt::workloads::EnvironmentKind;
use rdt::{run_protocol_kind, CheckpointId, ProcessId, ProtocolKind, SimConfig, StopCondition};

fn config(seed: u64) -> SimConfig {
    SimConfig::new(4)
        .with_seed(seed)
        .with_basic_checkpoints(rdt::sim::BasicCheckpointModel::Exponential { mean: 50 })
        .with_stop(StopCondition::MessagesSent(120))
}

#[test]
fn on_the_fly_min_gc_matches_offline_fixpoint_for_all_tdv_protocols() {
    let mut total_checked = 0;
    for &env in &[
        EnvironmentKind::Random,
        EnvironmentKind::Groups,
        EnvironmentKind::ClientServer,
    ] {
        for protocol in ProtocolKind::all()
            .iter()
            .copied()
            .filter(|k| k.tracks_dependencies())
        {
            for seed in [3u64, 4] {
                let mut app = env.build(4, 15);
                let outcome = run_protocol_kind(protocol, &config(seed), app.as_mut());
                let pattern = outcome.trace.to_pattern().to_closed();
                for records in &outcome.records {
                    for record in records {
                        let reported = record
                            .min_consistent_gc
                            .as_ref()
                            .expect("TDV protocols report");
                        let offline = min_max::min_consistent_containing(&pattern, &[record.id])
                            .unwrap_or_else(|| {
                                panic!("{}: {} belongs to no consistent GC", protocol, record.id)
                            });
                        assert_eq!(
                            offline.as_slice(),
                            reported.as_slice(),
                            "{protocol} in {env} (seed {seed}): checkpoint {} reported {:?}, offline {:?}",
                            record.id,
                            reported,
                            offline.as_slice()
                        );
                        total_checked += 1;
                    }
                }
            }
        }
    }
    assert!(
        total_checked > 500,
        "only {total_checked} checkpoints exercised"
    );
}

#[test]
fn min_gc_contains_the_checkpoint_itself() {
    let mut app = EnvironmentKind::Random.build(4, 15);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(9), app.as_mut());
    for (i, records) in outcome.records.iter().enumerate() {
        for record in records {
            let gc = record.min_consistent_gc.as_ref().unwrap();
            assert_eq!(gc[i], record.id.index, "own entry must name the checkpoint");
        }
    }
}

#[test]
fn uncoordinated_runs_would_fail_the_corollary() {
    // The corollary leans on RDT: an uncoordinated run's offline minima
    // can exceed what any TDV could have reported, or not exist at all.
    // We verify the premise indirectly: at least one checkpoint of some
    // uncoordinated run has a minimum GC strictly above its (hypothetical)
    // causal knowledge — i.e. the R-graph forces an entry the replayed TDV
    // does not know.
    use rdt::Replay;
    let mut found = false;
    'outer: for seed in 1u64..=8 {
        let mut app = EnvironmentKind::Random.build(4, 15);
        let outcome = run_protocol_kind(ProtocolKind::Uncoordinated, &config(seed), app.as_mut());
        let pattern = outcome.trace.to_pattern().to_closed();
        let annotations = Replay::new(&pattern).annotate().unwrap();
        for c in pattern.checkpoints() {
            let Some(min) = min_max::min_consistent_containing(&pattern, &[c]) else {
                found = true; // useless checkpoint: corollary inapplicable
                break 'outer;
            };
            let tdv = annotations.tdv(c);
            if min
                .members()
                .any(|m| m.index > tdv.get(m.process) && m.process != c.process)
            {
                found = true;
                break 'outer;
            }
        }
    }
    assert!(
        found,
        "expected some uncoordinated checkpoint to expose a hidden dependency"
    );
}

/// The corollary as an identity inside the incremental engine. The engine
/// keeps, per checkpoint, the greatest checkpoint of every process with an
/// R-path to it (its reach vector) beside the `TDV` saved with it, and
/// counts the pairs the second does not cover: on a run whose forced
/// checkpoints `Bhmr` places the count is 0 after every event, and the
/// R-graph minimum — a lookup in the reach vectors — is the fixpoint
/// minimum for every checkpoint the engine still holds, with compactions to
/// the recovery line and to trailing caps interleaved.
#[test]
fn reach_vectors_are_the_min_gc_on_bhmr_streams_with_compaction() {
    let n = 4;
    let mut checked = 0;
    for &env in &[EnvironmentKind::Random, EnvironmentKind::ClientServer] {
        for seed in [5u64, 6] {
            let mut app = env.build(n, 15);
            let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(seed), app.as_mut());
            assert!(outcome.trace.forced_checkpoint_count() > 0);
            let mut engine = RewindableAnalysis::layered(n);
            for (step, event) in outcome.trace.events().iter().enumerate() {
                match *event {
                    TraceEvent::Send { from, to, .. } => {
                        engine.append_send(from, to);
                    }
                    TraceEvent::Deliver { message, .. } => engine.append_deliver(message.0 as u32),
                    TraceEvent::Checkpoint { id, .. } => {
                        assert_eq!(engine.append_checkpoint(id.process), id);
                    }
                    TraceEvent::Crash { .. } => unreachable!("no crash is configured"),
                }
                match step % 60 {
                    19 => {
                        engine.compact_to_recovery_line();
                    }
                    49 => {
                        let last = |p| engine.last_checkpoint_index(ProcessId::new(p));
                        let caps: Vec<u32> = (0..n).map(|p| last(p).saturating_sub(1)).collect();
                        engine.compact_to(&caps);
                    }
                    _ => {}
                }
                let what = format!("{env} (seed {seed}), event {step}");
                assert_eq!(engine.untrackable_pairs(), 0, "{what}");
                // The corollary speaks of closed patterns: a checkpoint that
                // depends on an interval still open has no minimum yet.
                engine.with_closed(|view| {
                    assert_eq!(view.untrackable_pairs(), 0, "{what}, closed");
                    for p in 0..n {
                        let process = ProcessId::new(p);
                        let retained = view.retained_from()[p];
                        for index in retained..=view.last_checkpoint_index(process) {
                            let member = [CheckpointId::new(process, index)];
                            let via_reach = view.min_consistent_via_rgraph(&member);
                            assert!(via_reach.is_some(), "{what}: {} is useless", member[0]);
                            assert_eq!(
                                via_reach,
                                view.min_consistent_containing(&member),
                                "{what}: minimum containing {}",
                                member[0]
                            );
                            checked += 1;
                        }
                    }
                });
            }
            assert!(engine.compactions() >= 3, "{env} (seed {seed}): epochs");
        }
    }
    assert!(checked > 5_000, "only {checked} minima compared");
}
