//! Integration: run reproducibility, rollback damage bounds, and the
//! simulator's crash lines against the closed view.

use rdt::sim::{BasicCheckpointModel, TraceEvent};
use rdt::theory::{ChainLayer, IncrementalAnalysis, Journal, NoChains, UndoJournal};
use rdt::workloads::EnvironmentKind;
use rdt::{analyze, run_protocol_kind, Failure, ProcessId, ProtocolKind, SimConfig, StopCondition};

fn config(seed: u64) -> SimConfig {
    SimConfig::new(5)
        .with_seed(seed)
        .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 45 })
        .with_stop(StopCondition::MessagesSent(250))
}

#[test]
fn identical_configs_reproduce_identical_runs() {
    for &env in EnvironmentKind::all() {
        let run = |()| {
            let mut app = env.build(5, 15);
            run_protocol_kind(ProtocolKind::Bhmr, &config(41), app.as_mut())
        };
        let a = run(());
        let b = run(());
        assert_eq!(a.trace.events(), b.trace.events(), "{env} not reproducible");
        assert_eq!(a.stats.total, b.stats.total);
        assert_eq!(a.records, b.records);
    }
}

#[test]
fn crash_replay_is_bit_identical_for_any_thread_count() {
    // The full crash pipeline — Poisson injection, recovery-line descent,
    // orphan discard and re-emission, lost-message replay — fanned over a
    // worker pool must reproduce exactly, whatever the thread count.
    let grid: Vec<(ProtocolKind, u64)> = [ProtocolKind::Bhmr, ProtocolKind::Uncoordinated]
        .into_iter()
        .flat_map(|p| (1u64..=4).map(move |seed| (p, seed)))
        .collect();
    let run_grid = |threads: usize| {
        rdt::sim::parallel_map_indexed(
            &grid,
            threads,
            || (),
            |(), _, &(protocol, seed)| {
                let mut app = EnvironmentKind::Domino.build(5, 15);
                let config = config(seed).with_crash_rate(5.0).with_max_crashes(2);
                let outcome = run_protocol_kind(protocol, &config, app.as_mut());
                let recovery = outcome.recovery.expect("crashes enabled");
                (
                    outcome.trace.events().to_vec(),
                    outcome.stats.total,
                    recovery.crashes,
                )
            },
            |_| {},
        )
    };
    let sequential = run_grid(1);
    assert!(
        sequential.iter().any(|(_, _, crashes)| !crashes.is_empty()),
        "the pinned grid must actually crash somewhere"
    );
    assert_eq!(sequential, run_grid(4), "threads changed the results");
}

#[test]
fn executor_sweep_is_bit_identical_for_any_thread_count() {
    // The packed round-executor keeps all protocol state in one shared
    // arena per run; fanning a sweep over a worker pool must still be a
    // pure map — every (protocol, seed) cell gets its own arena, so 1
    // thread and 8 threads produce byte-identical traces, records and
    // stats for every dependency-tracking protocol. Each cell also
    // replays the schedule on the legacy engine as a built-in oracle.
    let grid: Vec<(ProtocolKind, u64)> = [
        ProtocolKind::Bhmr,
        ProtocolKind::BhmrNoSimple,
        ProtocolKind::BhmrCausalOnly,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
    ]
    .into_iter()
    .flat_map(|p| (1u64..=3).map(move |seed| (p, seed)))
    .collect();
    let run_grid = |threads: usize| {
        rdt::sim::parallel_map_indexed(
            &grid,
            threads,
            || (),
            |(), _, &(protocol, seed)| {
                let mut app = EnvironmentKind::Random.build(5, 15);
                let outcome = run_protocol_kind(protocol, &config(seed), app.as_mut());
                let mut legacy_app = EnvironmentKind::Random.build(5, 15);
                let legacy = rdt::sim::run_protocol_kind_legacy(
                    protocol,
                    &config(seed),
                    legacy_app.as_mut(),
                );
                assert_eq!(
                    outcome.trace.events(),
                    legacy.trace.events(),
                    "{protocol} diverged from the legacy engine"
                );
                assert_eq!(outcome.records, legacy.records, "{protocol}");
                (
                    outcome.trace.events().to_vec(),
                    outcome.records,
                    outcome.stats.total,
                )
            },
            |_| {},
        )
    };
    let sequential = run_grid(1);
    assert_eq!(sequential, run_grid(8), "threads changed the results");
}

#[test]
fn different_seeds_produce_different_runs() {
    let mut app1 = EnvironmentKind::Random.build(5, 15);
    let mut app2 = EnvironmentKind::Random.build(5, 15);
    let a = run_protocol_kind(ProtocolKind::Bhmr, &config(1), app1.as_mut());
    let b = run_protocol_kind(ProtocolKind::Bhmr, &config(2), app2.as_mut());
    assert_ne!(a.trace.events(), b.trace.events());
}

#[test]
fn rdt_protocols_bound_rollback_better_than_uncoordinated() {
    // Every process in turn loses its newest checkpoint; total discarded
    // checkpoints, aggregated over seeds, must be no worse under BHMR than
    // under no coordination. (RDT guarantees each checkpoint sits in a
    // consistent GC, so rollback never cascades past the dependencies the
    // TDV names; uncoordinated patterns have no such bound.)
    let damage = |protocol: ProtocolKind| -> u64 {
        let mut total = 0;
        for seed in 1u64..=5 {
            let mut app = EnvironmentKind::Random.build(5, 15);
            let outcome = run_protocol_kind(protocol, &config(seed), app.as_mut());
            let pattern = outcome.trace.to_pattern().to_closed();
            for i in 0..5 {
                let process = ProcessId::new(i);
                let cap = pattern.last_checkpoint_index(process).saturating_sub(1);
                let report = analyze(
                    &pattern,
                    &[Failure {
                        process,
                        resume_cap: cap,
                    }],
                );
                total += report.total_discarded;
            }
        }
        total
    };
    let bhmr = damage(ProtocolKind::Bhmr);
    let uncoordinated = damage(ProtocolKind::Uncoordinated);
    assert!(
        bhmr <= uncoordinated,
        "bhmr rollback damage {bhmr} exceeds uncoordinated {uncoordinated}"
    );
}

#[test]
fn mid_run_failure_analysis_through_truncation() {
    // Crash the system at several instants of one run: the failure-time
    // view must always yield a consistent recovery line at or below the
    // crash, and later crashes never have earlier lines.
    use rdt::theory::consistency;
    let mut app = EnvironmentKind::Random.build(4, 15);
    let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(7), app.as_mut());
    let end = outcome.trace.end_time().ticks();
    let mut previous_line_total = 0u64;
    for fraction in [4u64, 2, 1] {
        let cut = outcome
            .trace
            .truncate_at(rdt::SimTime::from_ticks(end / fraction));
        let pattern = cut.to_pattern().to_closed();
        let line = rdt::recovery_line(&pattern, &[]);
        assert!(consistency::is_consistent(&pattern, &line));
        let total: u64 = line.as_slice().iter().map(|&x| x as u64).sum();
        assert!(
            total >= previous_line_total,
            "recovery line regressed as the run progressed"
        );
        previous_line_total = total;
    }
}

#[test]
fn rdt_recovery_lines_stay_close_to_the_failure() {
    // Under RDT, rolling one process back one checkpoint should cost every
    // other process at most a bounded rollback — in particular nobody
    // should return to the initial state in a long run.
    for seed in 1u64..=3 {
        let mut app = EnvironmentKind::Random.build(5, 15);
        let outcome = run_protocol_kind(ProtocolKind::Bhmr, &config(seed), app.as_mut());
        let pattern = outcome.trace.to_pattern().to_closed();
        for i in 0..5 {
            let process = ProcessId::new(i);
            let last = pattern.last_checkpoint_index(process);
            if last < 2 {
                continue;
            }
            let report = analyze(
                &pattern,
                &[Failure {
                    process,
                    resume_cap: last - 1,
                }],
            );
            assert_eq!(
                report.rolled_to_initial, 0,
                "seed {seed}: failing {process} cascaded someone to the initial state"
            );
        }
    }
}

/// Processes of the crash-line differential's runs.
const N: usize = 4;

fn crash_config(env: EnvironmentKind, seed: u64) -> SimConfig {
    let config = SimConfig::new(N)
        .with_seed(seed)
        .with_stop(StopCondition::MessagesSent(300))
        .with_crash_rate(5.0)
        .with_max_crashes(8);
    if env == EnvironmentKind::Domino {
        // The domino workload checkpoints itself before every reply.
        config.with_basic_checkpoints(BasicCheckpointModel::Disabled)
    } else {
        config.with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: 40 })
    }
}

/// Appends one trace event; `handles` maps simulator message ids to the
/// engine's send-order handles.
fn append<C, J>(engine: &mut IncrementalAnalysis<C, J>, handles: &mut Vec<u32>, event: &TraceEvent)
where
    C: ChainLayer,
    J: Journal,
{
    match *event {
        TraceEvent::Checkpoint { id, .. } => {
            engine.append_checkpoint(id.process);
        }
        TraceEvent::Send {
            from, to, message, ..
        } => {
            assert_eq!(message.0, handles.len(), "sends are numbered in order");
            handles.push(engine.append_send(from, to));
        }
        TraceEvent::Deliver { message, .. } => engine.append_deliver(handles[message.0]),
        TraceEvent::Crash { .. } => {}
    }
}

/// The recovery line of a crash of `victim` after `prefix`, computed on the
/// closed pattern of a never-compacted engine: a checkpoint appended to
/// every open line (then rewound), the greatest consistent global
/// checkpoint below the closed last checkpoints, the victim capped at its
/// last durable one.
fn closed_view_line(prefix: &[TraceEvent], victim: ProcessId) -> Vec<u32> {
    let mut engine = IncrementalAnalysis::<NoChains, UndoJournal>::layered(N);
    let mut handles = Vec::new();
    for event in prefix {
        append(&mut engine, &mut handles, event);
    }
    let durable = engine.last_checkpoint_index(victim);
    let mut line = vec![0; N];
    engine.with_closed(|closed| {
        let mut caps: Vec<u32> = ProcessId::all(N)
            .map(|p| closed.last_checkpoint_index(p))
            .collect();
        caps[victim.index()] = durable;
        closed.max_consistent_dominated_into(&caps, &mut line);
    });
    line
}

/// At a crash the runner reads the recovery line off its shadow engine, a
/// journal-free core compacted to every earlier line, with each survivor's
/// open interval standing as a virtual checkpoint. Every crash marker's
/// trace prefix, replayed into a fresh never-compacted engine, must give
/// the `CrashRecord`'s line the closed way; a journal-free twin compacted
/// to each line where the runner compacts must end with the report's
/// compaction figures.
#[test]
fn crash_lines_equal_the_closed_view_lines() {
    let (mut crashes, mut virtual_entries, mut dragged, mut compactions) = (0, 0, 0, 0);
    for &env in &[EnvironmentKind::Domino, EnvironmentKind::Random] {
        for protocol in [
            ProtocolKind::Uncoordinated,
            ProtocolKind::Fdas,
            ProtocolKind::Bhmr,
        ] {
            for seed in 1..=8u64 {
                let mut app = env.build(N, 20);
                let outcome = run_protocol_kind(protocol, &crash_config(env, seed), app.as_mut());
                let report = outcome.recovery.expect("crashes enabled");
                let events = outcome.trace.events();
                let mut twin = IncrementalAnalysis::new(N);
                let mut handles = Vec::new();
                let mut records = report.crashes.iter();
                let mut resident = None;
                let mut k = 0;
                while k < events.len() {
                    let TraceEvent::Crash { process, .. } = events[k] else {
                        append(&mut twin, &mut handles, &events[k]);
                        k += 1;
                        continue;
                    };
                    let record = records.next().expect("one record per crash marker");
                    let at = format!(
                        "{env}/{} seed {seed}, crash at {}",
                        protocol.name(),
                        record.at
                    );
                    assert_eq!(record.process, process, "{at}");
                    assert_eq!(
                        record.line,
                        closed_view_line(&events[..k], process),
                        "{at}: line"
                    );
                    crashes += 1;
                    for p in ProcessId::all(N) {
                        let (entry, last) = (record.line[p.index()], twin.last_checkpoint_index(p));
                        virtual_entries += usize::from(entry > last);
                        dragged += usize::from(p != process && entry < last);
                    }
                    // The runner re-sends every orphan and lost message
                    // right after the marker, then compacts to the line.
                    let resends = record.orphans_discarded + record.lost_replayed;
                    for event in &events[k + 1..][..resends as usize] {
                        assert!(matches!(event, TraceEvent::Send { .. }), "{at}: re-send");
                        append(&mut twin, &mut handles, event);
                    }
                    k += 1 + resends as usize;
                    let stats = twin.compact_to(&record.line);
                    if stats.discarded_state() {
                        resident = Some(stats.resident_nodes);
                    }
                }
                assert!(records.next().is_none(), "one crash marker per record");
                assert_eq!(report.compactions, twin.compactions(), "{env} seed {seed}");
                assert_eq!(report.reclaimed_rows, twin.reclaimed_rows());
                assert_eq!(report.resident_nodes_after_compaction, resident);
                compactions += report.compactions;
            }
        }
    }
    // Not vacuous: crashes fired, survivors kept their open intervals,
    // the domino effect dragged some along, and the engine was compacted.
    assert!(crashes >= 48, "{crashes} crashes");
    assert!(virtual_entries > 0 && dragged > 0 && compactions > 0);
}
