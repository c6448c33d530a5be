//! Differential testing of engine snapshot/restore: an engine replayed
//! through `write_snapshot` → `from_snapshot_json` must be observationally
//! identical to the uninterrupted original — same query answers, same
//! answers after appending an identical suffix, and a byte-identical
//! re-snapshot — including when the snapshot is taken *after* an epoch
//! compaction. Corrupted snapshot documents must be rejected with a
//! `SnapshotError`, never a panic.

use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::{Json, JsonWriter};
use rdt_rgraph::IncrementalAnalysis;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Cp(usize),
    Send(usize, usize),
    Del(u32),
}

fn random_ops(
    rng: &mut Rng,
    n: usize,
    events: usize,
    next_mid: &mut u32,
    in_flight: &mut Vec<u32>,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..events {
        match rng.below(8) {
            0..=2 => ops.push(Op::Cp(rng.below(n))),
            3 | 4 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                in_flight.push(*next_mid);
                *next_mid += 1;
                ops.push(Op::Send(from, to));
            }
            _ => {
                if !in_flight.is_empty() {
                    let i = rng.below(in_flight.len());
                    ops.push(Op::Del(in_flight.swap_remove(i)));
                }
            }
        }
    }
    ops
}

fn apply(incr: &mut IncrementalAnalysis, op: Op) {
    match op {
        Op::Cp(i) => {
            incr.append_checkpoint(ProcessId::new(i));
        }
        Op::Send(from, to) => {
            incr.append_send(ProcessId::new(from), ProcessId::new(to));
        }
        Op::Del(k) => incr.append_deliver(k),
    }
}

fn cp(p: usize, idx: u32) -> CheckpointId {
    CheckpointId::new(ProcessId::new(p), idx)
}

/// Compares every query kind the daemon serves on both engines.
fn assert_same_answers(a: &mut IncrementalAnalysis, b: &mut IncrementalAnalysis, what: &str) {
    let n = a.num_processes();
    assert_eq!(
        a.untrackable_pairs(),
        b.untrackable_pairs(),
        "{what}: pairs"
    );
    assert_eq!(a.rdt_holds(), b.rdt_holds(), "{what}: verdict");
    let caps: Vec<u32> = (0..n)
        .map(|p| a.last_checkpoint_index(ProcessId::new(p)))
        .collect();
    assert_eq!(
        a.max_consistent_dominated(&caps),
        b.max_consistent_dominated(&caps),
        "{what}: recovery line"
    );
    for (p, &cap) in caps.iter().enumerate() {
        let last = cp(p, cap);
        if a.checkpoint_exists(last) {
            assert_eq!(
                a.min_consistent_containing(&[last]),
                b.min_consistent_containing(&[last]),
                "{what}: min consistent containing {last:?}"
            );
            assert_eq!(
                a.max_consistent_containing(&[last]),
                b.max_consistent_containing(&[last]),
                "{what}: max consistent containing {last:?}"
            );
        }
    }
}

/// The engine's snapshot text, as the daemon persists it.
fn snapshot_text(engine: &IncrementalAnalysis) -> String {
    let mut out = Vec::new();
    engine.write_snapshot(&mut JsonWriter::new(&mut out));
    String::from_utf8(out).expect("snapshot text is UTF-8")
}

fn roundtrip(engine: &IncrementalAnalysis) -> IncrementalAnalysis {
    // Through actual bytes, exactly like the daemon's persistence path.
    let text = snapshot_text(engine);
    let parsed = Json::parse_bytes(text.as_bytes()).expect("snapshot text parses");
    assert_eq!(
        parsed,
        engine.snapshot_json(),
        "the tree is the parsed text"
    );
    IncrementalAnalysis::from_snapshot_json(&parsed).expect("snapshot restores")
}

fn check_seed(seed: u64, compact_midway: bool) {
    let n = 2 + (seed as usize) % 3;
    let mut rng = Rng(seed | 1);
    let mut next_mid = 0u32;
    let mut in_flight = Vec::new();
    let prefix = random_ops(&mut rng, n, 60, &mut next_mid, &mut in_flight);
    let suffix = random_ops(&mut rng, n, 40, &mut next_mid, &mut in_flight);

    let mut original = IncrementalAnalysis::new(n);
    for &op in &prefix {
        apply(&mut original, op);
    }
    if compact_midway {
        original.compact_to_recovery_line();
    }

    let mut restored = roundtrip(&original);
    assert_same_answers(&mut original, &mut restored, "after restore");
    assert_eq!(
        snapshot_text(&original),
        snapshot_text(&restored),
        "re-snapshot is byte-identical"
    );

    // The restored engine must accept the same suffix and keep agreeing.
    for &op in &suffix {
        apply(&mut original, op);
        apply(&mut restored, op);
    }
    assert_same_answers(&mut original, &mut restored, "after suffix");
    assert_eq!(
        snapshot_text(&original),
        snapshot_text(&restored),
        "post-suffix snapshots are byte-identical"
    );
}

#[test]
fn snapshot_roundtrip_plain() {
    for seed in [3, 17, 2026] {
        check_seed(seed, false);
    }
}

#[test]
fn snapshot_roundtrip_after_compaction() {
    for seed in [5, 23, 404] {
        check_seed(seed, true);
    }
}

#[test]
fn empty_engine_roundtrips() {
    let engine = IncrementalAnalysis::new(4);
    let restored = roundtrip(&engine);
    assert_eq!(snapshot_text(&engine), snapshot_text(&restored));
}

/// Corruptions that would let an append or query index out of bounds must
/// be rejected at restore time.
#[test]
fn corrupted_snapshots_error() {
    let mut engine = IncrementalAnalysis::new(3);
    let p0 = ProcessId::new(0);
    let p1 = ProcessId::new(1);
    engine.append_checkpoint(p0);
    let m = engine.append_send(p0, p1);
    engine.append_deliver(m);
    engine.append_checkpoint(p1);
    let doc = engine.snapshot_json();

    assert!(IncrementalAnalysis::from_snapshot_json(&Json::Null).is_err());
    assert!(IncrementalAnalysis::from_snapshot_json(&Json::obj([(
        "format",
        Json::Str("something-else".into())
    )]))
    .is_err());

    // Drop each top-level field in turn: all must error, none may panic.
    if let Json::Obj(pairs) = &doc {
        for i in 0..pairs.len() {
            let mut broken = pairs.clone();
            broken.remove(i);
            assert!(
                IncrementalAnalysis::from_snapshot_json(&Json::Obj(broken)).is_err(),
                "dropping field {} must fail restore",
                pairs[i].0
            );
        }
    } else {
        panic!("snapshot is an object");
    }

    // Out-of-range node index in a per-process table.
    let mut poisoned = doc.clone();
    if let Json::Obj(pairs) = &mut poisoned {
        for (key, value) in pairs.iter_mut() {
            if key == "cp_nodes" {
                *value = Json::Arr(vec![
                    Json::Arr(vec![Json::U64(9999)]),
                    Json::Arr(vec![Json::U64(1)]),
                    Json::Arr(vec![Json::U64(2)]),
                ]);
            }
        }
    }
    assert!(IncrementalAnalysis::from_snapshot_json(&poisoned).is_err());
}

/// `doc[key][at[0]][at[1]]…` replaced by `value`.
fn with_entry(doc: &Json, key: &str, at: &[usize], value: u64) -> Json {
    let mut doc = doc.clone();
    let Json::Obj(fields) = &mut doc else {
        panic!("snapshot is an object");
    };
    let table = &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1;
    let entry = at.iter().fold(table, |entry, &i| match entry {
        Json::Arr(items) => &mut items[i],
        _ => panic!("`{key}` is not nested that deep"),
    });
    assert!(matches!(entry, Json::U64(_)), "`{key}` entry is a number");
    *entry = Json::U64(value);
    doc
}

/// A counter at the top of its range restored fine and overflowed on the
/// next append that incremented it (a `cur_tdv` own entry of 4294967295:
/// `attempt to add with overflow` on the process's next checkpoint in a
/// debug build, an interval counter wrapped to 0 in a release build), and
/// the reach fold offsets `cp_tdv` and `drop_reach` entries by one. Restore
/// bounds every such value by what the pattern can hold.
#[test]
fn counters_an_append_would_overflow_are_rejected() {
    const TOP: u64 = u32::MAX as u64;
    let (n, mut rng) = (3, Rng(0x5eed_0020));
    let (mut next_mid, mut in_flight) = (0u32, Vec::new());
    let mut engine = IncrementalAnalysis::new(n);
    for op in random_ops(&mut rng, n, 80, &mut next_mid, &mut in_flight) {
        apply(&mut engine, op);
    }
    let caps: Vec<u32> = (0..n)
        .map(|p| engine.last_checkpoint_index(ProcessId::new(p)) - 1)
        .collect();
    assert!(engine.compact_to(&caps).dropped_r_nodes > 0);
    for op in random_ops(&mut rng, n, 20, &mut next_mid, &mut in_flight) {
        apply(&mut engine, op);
    }
    // In transit at the snapshot, so a piggyback row is resident.
    engine.append_send(ProcessId::new(0), ProcessId::new(1));
    let doc = engine.snapshot_json();
    assert!(IncrementalAnalysis::from_snapshot_json(&doc).is_ok());

    // Process 1's own entry of its running TDV; the first entry elsewhere.
    let own = n + 1;
    let poisoned = [
        ("cp_count", vec![1], TOP),
        ("cp_count", vec![1], TOP - 1),
        ("cur_tdv", vec![own], TOP),
        ("msg_tdv", vec![0], TOP),
        ("cp_tdv", vec![0], TOP),
        ("r_meta", vec![0, 1], TOP),
        // A retained checkpoint is no dropped one, whatever reaches it; a
        // dropped-reach entry stops below `cp_base`.
        ("drop_reach", vec![0], u64::from(engine.retained_from()[0])),
        ("drop_reach", vec![0], TOP - 1),
    ];
    for (key, at, value) in poisoned {
        let err = IncrementalAnalysis::from_snapshot_json(&with_entry(&doc, key, &at, value))
            .expect_err(key);
        assert!(err.message.contains(key), "{key} := {value}: {err}");
    }
    // What the bounds admit: `NONE` in `drop_reach`, the open interval in a
    // TDV, the last dropped checkpoint.
    let last = u64::from(engine.last_checkpoint_index(ProcessId::new(0)));
    let below_base = u64::from(engine.retained_from()[0]) - 1;
    for (key, at, value) in [
        ("drop_reach", vec![0], TOP),
        ("drop_reach", vec![0], below_base),
        ("cp_tdv", vec![0], last + 1),
    ] {
        let restored = IncrementalAnalysis::from_snapshot_json(&with_entry(&doc, key, &at, value));
        let mut restored = restored.unwrap_or_else(|e| panic!("{key} := {value}: {e}"));
        for p in 0..n {
            restored.append_checkpoint(ProcessId::new(p));
        }
    }

    // The pinned documents of every format version are within the bounds.
    for golden in [
        include_str!("golden/snapshot_v1.json"),
        include_str!("golden/snapshot_v2.json"),
    ] {
        let doc = Json::parse_bytes(golden.as_bytes()).expect("golden parses");
        IncrementalAnalysis::from_snapshot_json(&doc).expect("golden restores");
    }
    let chains = include_str!("golden/snapshot_v2_chains.json");
    let doc = Json::parse_bytes(chains.as_bytes()).expect("golden parses");
    rdt_rgraph::FullAnalysis::layered_from_snapshot(&doc).expect("golden restores");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot/restore equivalence over random streams and compaction
    /// choices.
    #[test]
    fn snapshot_restore_differential(seed in any::<u64>(), compact in any::<bool>()) {
        check_seed(seed, compact);
    }
}
