//! Differential testing of engine snapshot/restore: an engine replayed
//! through `write_snapshot` → `from_snapshot_text` must be observationally
//! identical to the uninterrupted original — same query answers, same
//! answers after appending an identical suffix, and a byte-identical
//! re-snapshot — including when the snapshot is taken *after* an epoch
//! compaction, and **whichever version the document is**: the uninterrupted
//! twin, the engine restored from its version 2 document (rebuilt by
//! `common::v2_text`), the one restored from its version 3 document and the
//! one restored from *that* one's document must be indistinguishable, on the
//! core engine and on [`FullAnalysis`]. Corrupted snapshot documents must be
//! rejected with a `SnapshotError`, never a panic.

mod common;

use common::{text as snapshot_text, v2_text, Arrivals};
use proptest::prelude::*;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::Json;
use rdt_rgraph::{
    ChainLayer, Chains, FullAnalysis, IncrementalAnalysis, Journal, NoChains, NoJournal,
    SnapshotError, UndoJournal,
};

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

fn apply<C: ChainLayer, J: Journal>(incr: &mut IncrementalAnalysis<C, J>, op: Op) {
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
fn assert_same_answers<C: ChainLayer, J: Journal>(
    a: &IncrementalAnalysis<C, J>,
    b: &IncrementalAnalysis<C, J>,
    what: &str,
) {
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

/// Restores the document a test has edited as a tree.
fn restore(doc: &Json) -> Result<IncrementalAnalysis, SnapshotError> {
    IncrementalAnalysis::from_snapshot_text(doc.to_string().as_bytes())
}

fn from_text<C: ChainLayer, J: Journal>(text: &str) -> IncrementalAnalysis<C, J> {
    IncrementalAnalysis::from_snapshot_text(text.as_bytes()).expect("snapshot restores")
}

/// The chain layer's verdicts, where there is one.
trait ChainVerdicts {
    fn chain_verdicts(&mut self) -> String;
}

impl ChainVerdicts for IncrementalAnalysis {
    fn chain_verdicts(&mut self) -> String {
        String::new()
    }
}

impl ChainVerdicts for FullAnalysis {
    fn chain_verdicts(&mut self) -> String {
        self.with_closed(|view| {
            format!(
                "{} {} {}",
                view.rdt_holds(),
                view.all_chains_doubled(),
                view.all_cm_paths_doubled()
            )
        })
    }
}

/// One seed on one instantiation: a prefix (compacted or not), then the
/// four engines side by side through every query, `10·n` further events
/// with the queries after each, and the bytes at both ends.
fn check_seed<C: ChainLayer, J: Journal>(seed: u64, compact_midway: bool)
where
    IncrementalAnalysis<C, J>: ChainVerdicts,
{
    let n = 2 + (seed as usize) % 3;
    let mut rng = Rng(seed | 1);
    let mut next_mid = 0u32;
    let mut in_flight = Vec::new();
    let prefix = random_ops(&mut rng, n, 60, &mut next_mid, &mut in_flight);
    let suffix = random_ops(&mut rng, n, 10 * n, &mut next_mid, &mut in_flight);

    let mut original = IncrementalAnalysis::<C, J>::layered(n);
    let mut arrivals = Arrivals::new(n);
    for &op in &prefix {
        apply(&mut original, op);
        if let Op::Del(mid) = op {
            arrivals.record(&original, mid);
        }
    }
    if compact_midway {
        original.compact_to_recovery_line();
    }

    // Through actual bytes, exactly like the daemon's persistence path.
    let v3 = snapshot_text(&original);
    let v2 = v2_text(&v3, &arrivals);
    assert!(v2.len() > v3.len() && v2.contains(r#""version":2"#));
    let parsed = Json::parse_bytes(v3.as_bytes()).expect("snapshot text parses");
    assert_eq!(
        parsed,
        original.snapshot_json(),
        "the tree is the parsed text"
    );
    let from_v3 = from_text::<C, J>(&v3);
    let again = from_text::<C, J>(&snapshot_text(&from_v3));
    let mut engines = [
        (original, "uninterrupted"),
        (from_text(&v2), "from version 2"),
        (from_v3, "from version 3"),
        (again, "from version 3, twice"),
    ];
    let check = |engines: &mut [(IncrementalAnalysis<C, J>, &str); 4], when: &str| {
        let (reference, others) = engines.split_first_mut().expect("four engines");
        let verdicts = reference.0.chain_verdicts();
        for (other, which) in others {
            let what = format!("{which}, {when}");
            assert_same_answers(&reference.0, other, &what);
            assert_eq!(other.chain_verdicts(), verdicts, "{what}: chain verdicts");
        }
    };
    let same_bytes = |engines: &[(IncrementalAnalysis<C, J>, &str); 4], when: &str| {
        for (other, which) in &engines[1..] {
            let (ours, theirs) = (snapshot_text(&engines[0].0), snapshot_text(other));
            assert_eq!(ours, theirs, "{which}, {when}: snapshot bytes");
        }
    };
    check(&mut engines, "after restore");
    same_bytes(&engines, "after restore");

    // The restored engines must accept the same suffix — with a compaction
    // of their own halfway, where the prefix had one — and keep agreeing.
    for (i, &op) in suffix.iter().enumerate() {
        for (engine, _) in &mut engines {
            apply(engine, op);
        }
        if compact_midway && i == suffix.len() / 2 {
            let mut stats = engines
                .iter_mut()
                .map(|(e, _)| e.compact_to_recovery_line());
            let reference = stats.next().expect("four engines");
            assert!(stats.all(|s| s == reference), "compaction stats");
        }
        check(&mut engines, "in the suffix");
    }
    same_bytes(&engines, "after the suffix");
}

fn check_both(seed: u64, compact_midway: bool) {
    check_seed::<NoChains, NoJournal>(seed, compact_midway);
    check_seed::<Chains, UndoJournal>(seed, compact_midway);
}

fn roundtrip(engine: &IncrementalAnalysis) -> IncrementalAnalysis {
    from_text(&snapshot_text(engine))
}

#[test]
fn snapshot_roundtrip_plain() {
    for seed in [3, 17, 2026] {
        check_both(seed, false);
    }
}

#[test]
fn snapshot_roundtrip_after_compaction() {
    for seed in [5, 23, 404] {
        check_both(seed, true);
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

    assert!(restore(&Json::Null).is_err());
    assert!(restore(&Json::obj([("format", Json::Str("something-else".into()))])).is_err());

    // Drop each top-level field in turn: all must error, none may panic.
    if let Json::Obj(pairs) = &doc {
        for i in 0..pairs.len() {
            let mut broken = pairs.clone();
            broken.remove(i);
            assert!(
                restore(&Json::Obj(broken)).is_err(),
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
    assert!(restore(&poisoned).is_err());
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
    assert!(restore(&doc).is_ok());

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
        let err = restore(&with_entry(&doc, key, &at, value)).expect_err(key);
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
        let restored = restore(&with_entry(&doc, key, &at, value));
        let mut restored = restored.unwrap_or_else(|e| panic!("{key} := {value}: {e}"));
        for p in 0..n {
            restored.append_checkpoint(ProcessId::new(p));
        }
    }

    // The pinned documents of every format version are within the bounds.
    for golden in [
        include_str!("golden/snapshot_v1.json"),
        include_str!("golden/snapshot_v2.json"),
        include_str!("golden/snapshot_v3.json"),
    ] {
        <IncrementalAnalysis>::from_snapshot_text(golden.as_bytes()).expect("golden restores");
    }
    for chains in [
        include_str!("golden/snapshot_v2_chains.json"),
        include_str!("golden/snapshot_v3_chains.json"),
    ] {
        FullAnalysis::from_snapshot_text(chains.as_bytes()).expect("golden restores");
    }
}

/// What version 3 changed about what a document can get wrong: the tables
/// it derives are not read from any version, a key the engine reads may not
/// come twice, and `msgs` alone now says where every message sits.
#[test]
fn derived_tables_are_not_trusted_and_known_keys_come_once() {
    let (n, mut rng) = (3, Rng(0x5eed_0021));
    let (mut next_mid, mut in_flight) = (0u32, Vec::new());
    let mut engine = IncrementalAnalysis::new(n);
    for op in random_ops(&mut rng, n, 80, &mut next_mid, &mut in_flight) {
        apply(&mut engine, op);
    }
    let doc = engine.snapshot_json();
    let text = snapshot_text(&engine);
    let Json::Obj(fields) = &doc else {
        panic!("snapshot is an object");
    };
    let with_extra = |key: &str, value: Json| {
        let mut fields = fields.clone();
        fields.push((key.to_string(), value));
        Json::Obj(fields)
    };

    // Version 2's derived tables in a version 3 document (or a version 2
    // one: the label decides nothing about them), holding anything at all.
    let junk = Json::Arr(vec![
        Json::Arr(vec![Json::Arr(vec![
            Json::U64(1),
            Json::U64(9999)
        ])]);
        n
    ]);
    for version in [2, 3] {
        let mut labelled = with_entry(&doc, "version", &[], version);
        for key in ["send_events", "deliver_events"] {
            let Json::Obj(fields) = &mut labelled else {
                unreachable!()
            };
            fields.push((key.to_string(), junk.clone()));
        }
        let restored = restore(&labelled).expect("derived tables are skipped");
        assert_eq!(snapshot_text(&restored), text);
    }

    // A key the engine reads, twice: refused whichever copy is the good
    // one. A key it does not read may repeat.
    for (key, value) in fields {
        let err = restore(&with_extra(key, value.clone())).expect_err(key);
        assert!(err.message.contains("appears twice"), "{key}: {err}");
    }
    let twice = with_extra("later", Json::Null);
    let Json::Obj(mut twice) = twice else {
        unreachable!()
    };
    twice.push(("later".into(), Json::U64(1)));
    assert!(restore(&Json::Obj(twice)).is_ok());

    // `deliver_events` is rebuilt from `msgs`, so a delivery interval the
    // receiver does not have is caught there.
    let delivered = (0..engine.num_messages())
        .find(|&mid| engine.message_delivered(mid as u32))
        .expect("a delivered message");
    let to = engine.message_route(delivered as u32).to;
    let beyond = u64::from(engine.last_checkpoint_index(to)) + 2;
    let err = restore(&with_entry(&doc, "msgs", &[delivered, 3], beyond)).expect_err("deliver_iv");
    assert!(
        err.message.contains("interval its process does not have"),
        "{err}"
    );
    let err = restore(&with_entry(&doc, "msgs", &[delivered, 3], 0)).expect_err("deliver_iv");
    assert!(
        err.message.contains("interval its process does not have"),
        "{err}"
    );
    // `send_events` likewise: along the handles a process's send intervals
    // only grow, which the searches by interval rely on.
    let from = engine.message_route(0).from;
    let later = (1..engine.num_messages())
        .rev()
        .find(|&mid| engine.message_route(mid as u32).from == from)
        .expect("a second send of that process");
    let last = u64::from(engine.last_checkpoint_index(from)) + 1;
    assert!(u64::from(engine.message_route(later as u32).send_interval) < last);
    let err = restore(&with_entry(&doc, "msgs", &[0, 2], last)).expect_err("send_iv");
    assert!(err.message.contains("sent before its predecessor"), "{err}");
    // Rows of one table are of one length, and of the version's.
    let mut ragged = doc.clone();
    if let Some(Json::Arr(rows)) = ragged_table(&mut ragged, "msgs") {
        rows[1] = Json::Arr(vec![Json::U64(0); 4]);
    }
    let err = restore(&ragged).expect_err("ragged msgs");
    assert!(err.message.contains("differ in length"), "{err}");
    let err = restore(&with_entry(&doc, "version", &[], 1)).expect_err("v1 width");
    assert!(err.message.contains("8 columns"), "{err}");
}

fn ragged_table<'a>(doc: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match doc {
        Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot/restore equivalence over random streams and compaction
    /// choices.
    #[test]
    fn snapshot_restore_differential(seed in any::<u64>(), compact in any::<bool>()) {
        check_both(seed, compact);
    }
}
