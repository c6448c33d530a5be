//! The version 1 snapshot format stays readable.
//!
//! `golden/snapshot_v1.json` was written **at the parent of the commit that
//! introduced format version 2** (`6c3ddea`, the last engine that always
//! carried the chain layer) by that engine's own `snapshot_json()`, on the
//! op script [`script`] below: xorshift seed 5, 72 draws over 3 processes,
//! one `compact_to_recovery_line` after draw 44 (it dropped 18 R-, 24
//! zigzag- and 8 causal-closure nodes and freed 5 piggyback rows), leaving
//! 14 messages of which 4 are in flight and 6 untrackable pairs. It is
//! never regenerated: the code that wrote it no longer exists.
//!
//! `golden/restore_transcript_v1.txt` is what the engine restored from it
//! answered — at once, and after each op of 100 further draws with one more
//! compaction among them — **when restore walked a `Json` tree**
//! (`b617060`, `from_snapshot_json`). Restore reads the text in place now;
//! the transcript is never regenerated either.

mod common;

use common::text;
use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::Json;
use rdt_rgraph::{IncrementalAnalysis, SnapshotError, SnapshotErrorKind, SNAPSHOT_VERSION};

const GOLDEN: &str = include_str!("golden/snapshot_v1.json");
const TRANSCRIPT: &str = include_str!("golden/restore_transcript_v1.txt");
const N: usize = 3;

/// The chain-layer keys a version 1 document carries at its top level.
const CHAIN_KEYS: [&str; 8] = [
    "zmat",
    "cmat",
    "z_slots",
    "c_spine",
    "c_delivs",
    "c_linked",
    "slot_base",
    "chain_floor",
];

#[derive(Clone, Copy, Debug)]
enum Op {
    Cp(usize),
    Send(usize, usize),
    Del(u32),
    Compact,
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as usize) % n
    }
}

/// One well-formed draw, continuing from `(next_mid, in_flight)`.
fn draw(rng: &mut Rng, next_mid: &mut u32, in_flight: &mut Vec<u32>) -> Option<Op> {
    match rng.below(8) {
        0..=2 => Some(Op::Cp(rng.below(N))),
        3 | 4 => {
            let from = rng.below(N);
            in_flight.push(*next_mid);
            *next_mid += 1;
            Some(Op::Send(from, (from + 1 + rng.below(N - 1)) % N))
        }
        _ if in_flight.len() > 1 => {
            let k = rng.below(in_flight.len());
            Some(Op::Del(in_flight.swap_remove(k)))
        }
        _ => None,
    }
}

/// The golden's op script, then `extra` further draws of the same mix.
fn script(extra: usize) -> Vec<Op> {
    let mut rng = Rng(5);
    let (mut next_mid, mut in_flight) = (0u32, Vec::new());
    let mut ops = Vec::new();
    for i in 0..72 + extra {
        ops.extend(draw(&mut rng, &mut next_mid, &mut in_flight));
        if i == 44 || i == 150 {
            ops.push(Op::Compact);
        }
    }
    ops
}

fn apply(engine: &mut IncrementalAnalysis, op: Op) {
    match op {
        Op::Cp(p) => {
            engine.append_checkpoint(ProcessId::new(p));
        }
        Op::Send(from, to) => {
            engine.append_send(ProcessId::new(from), ProcessId::new(to));
        }
        Op::Del(mid) => engine.append_deliver(mid),
        Op::Compact => {
            engine.compact_to_recovery_line();
        }
    }
}

fn golden() -> Json {
    Json::parse_bytes(GOLDEN.as_bytes()).expect("golden parses")
}

/// Restores the document a test has edited as a tree.
fn restore(doc: &Json) -> Result<IncrementalAnalysis, SnapshotError> {
    IncrementalAnalysis::from_snapshot_text(doc.to_string().as_bytes())
}

/// Everything the daemon can be asked about a stream.
fn answers(engine: &IncrementalAnalysis) -> String {
    let tops: Vec<u32> = (0..N)
        .map(|p| engine.last_checkpoint_index(ProcessId::new(p)))
        .collect();
    let mut out = format!(
        "{} {:?}",
        engine.untrackable_pairs(),
        engine.max_consistent_dominated(&tops)
    );
    for (p, &top) in tops.iter().enumerate() {
        for index in [0, top / 2, top] {
            let member = [CheckpointId::new(ProcessId::new(p), index)];
            out += &format!(
                " {:?} {:?}",
                engine.min_consistent_containing(&member),
                engine.max_consistent_containing(&member)
            );
        }
    }
    out
}

fn with_field(doc: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(mut fields) = doc.clone() else {
        panic!("snapshot is an object");
    };
    fields.iter_mut().find(|(k, _)| k == key).expect(key).1 = value;
    Json::Obj(fields)
}

#[test]
fn v1_golden_restores_and_answers_like_a_fresh_replay() {
    let doc = golden();
    assert_eq!(doc.get("version"), Some(&Json::U64(1)));
    assert!(CHAIN_KEYS.iter().all(|key| doc.get(key).is_some()));
    let mut restored = restore(&doc).expect("v1 restores");

    let ops = script(200);
    let golden_len = script(0).len();
    let mut fresh = IncrementalAnalysis::new(N);
    for &op in &ops[..golden_len] {
        apply(&mut fresh, op);
    }
    assert_eq!(answers(&restored), answers(&fresh));
    assert_eq!(restored.num_messages(), 14);
    for &op in &ops[golden_len..] {
        apply(&mut restored, op);
        apply(&mut fresh, op);
        assert_eq!(answers(&restored), answers(&fresh));
    }
}

/// The engine the reader restores from the version 1 text is the engine
/// the tree restore built: same answers at once and after every op of the
/// next stride.
#[test]
fn v1_golden_restores_to_the_answers_the_tree_restore_gave() {
    let mut restored = IncrementalAnalysis::from_snapshot_text(GOLDEN.as_bytes()).expect("v1");
    let ops = script(100);
    let mut said = format!("restored: {}\n", answers(&restored));
    for &op in &ops[script(0).len()..] {
        apply(&mut restored, op);
        said += &format!("{op:?}: {}\n", answers(&restored));
    }
    assert_eq!(restored.compactions(), 2);
    assert_eq!(said, TRANSCRIPT);
}

#[test]
fn v1_golden_resnapshots_as_v4_without_chain_tables() {
    let restored = restore(&golden()).expect("v1 restores");
    let doc = Json::parse_bytes(text(&restored).as_bytes()).expect("snapshot text parses");
    assert_eq!(doc.get("version"), Some(&Json::U64(SNAPSHOT_VERSION)));
    assert_eq!(SNAPSHOT_VERSION, 4);
    let derived = [
        "send_events",
        "deliver_events",
        "rmat",
        "cp_nodes",
        "drop_reach",
    ];
    for key in CHAIN_KEYS.iter().chain(&["chains"]).chain(&derived) {
        assert!(golden().get(key).is_some() || *key == "chains");
        assert!(doc.get(key).is_none(), "v4 core snapshot carries `{key}`");
    }
    assert!(doc.get("reach").is_some());
    let Some(Json::Arr(msgs)) = doc.get("msgs") else {
        panic!("msgs is an array");
    };
    assert!(msgs
        .iter()
        .all(|row| row.as_array().is_some_and(|r| r.len() == 5)));
    // `reclaimed_rows` is carried as stored: in a v1 document it also
    // counted the 24 + 8 chain rows of the script's one compaction. But for
    // it, the text is that of an engine fed the script live.
    assert_eq!(restored.reclaimed_rows(), 18 + 24 + 8);
    let mut fresh = IncrementalAnalysis::new(N);
    for op in script(0) {
        apply(&mut fresh, op);
    }
    let carried = r#""reclaimed_rows":50"#;
    assert!(text(&restored).contains(carried));
    assert_eq!(
        text(&restored).replace(carried, r#""reclaimed_rows":18"#),
        text(&fresh)
    );
    let again = restore(&doc).expect("v4 restores");
    assert_eq!(text(&again), doc.to_string());
}

#[test]
fn other_versions_are_unsupported() {
    for found in [0u64, 5, u64::MAX] {
        let doc = with_field(&golden(), "version", Json::U64(found));
        let err = restore(&doc).unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::UnsupportedVersion { found });
    }
    let not_ours = with_field(&golden(), "format", Json::Str("something-else".into()));
    let err = restore(&not_ours).unwrap_err();
    assert_eq!(err.kind, SnapshotErrorKind::Format);
    for not_a_snapshot in [
        "null",
        "[]",
        "7",
        "{}",
        r#"{"format":3}"#,
        r#"{"version":2}"#,
    ] {
        let err = <IncrementalAnalysis>::from_snapshot_text(not_a_snapshot.as_bytes()).unwrap_err();
        assert_eq!(err.kind, SnapshotErrorKind::Format, "{not_a_snapshot}");
    }
    // Text that is not JSON is invalid, not "another format".
    let err = <IncrementalAnalysis>::from_snapshot_text(&GOLDEN.as_bytes()[..900]).unwrap_err();
    assert_eq!(err.kind, SnapshotErrorKind::Invalid);
    assert!(err.message.contains("JSON error at byte 900"), "{err}");
}

#[test]
fn corrupted_core_tables_of_a_v1_document_are_invalid() {
    let doc = golden();
    let corruptions = [
        (
            "cp_nodes",
            Json::Arr(vec![Json::Arr(vec![Json::U64(9999)]); N]),
        ),
        ("cur_tdv", Json::Arr(vec![Json::U64(1); N])),
        ("msgs", Json::Arr(vec![Json::Arr(vec![Json::U64(0); 5])])),
        ("drop_reach", Json::Arr(vec![Json::U64(0)])),
        ("r_meta", Json::Arr(Vec::new())),
    ];
    for (key, value) in corruptions {
        let err = restore(&with_field(&doc, key, value)).expect_err(key);
        assert_eq!(err.kind, SnapshotErrorKind::Invalid, "{key}: {err}");
    }
    // The chain tables, by contrast, are not read: garbage there is
    // ignored, like any key the core does not know.
    let junk = with_field(&doc, "zmat", Json::Str("not a matrix".into()));
    assert!(restore(&junk).is_ok());
}
