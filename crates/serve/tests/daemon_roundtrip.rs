//! Daemon-level invariants, driven in-process against the engine pool:
//!
//! * **Determinism** — the same session transcript yields byte-identical
//!   replies for any worker count.
//! * **Persistence** — snapshot → restore is byte-identical: the restored
//!   pool answers every query the same, and re-snapshotting reproduces
//!   the document byte for byte, even after appending a common suffix to
//!   both sides.
//! * **Isolation** — malformed frames and rejected events on one stream
//!   never disturb another stream's answers.
//! * **Core only** — `compact` reports the R-graph rows the daemon held
//!   (it holds no others), and a pool document written by the daemon that
//!   still carried the chain layer (engine snapshot version 1) restarts
//!   into the same answers.
//! * **Upgrade** — a file a version 2 daemon persisted restarts into the
//!   answers that daemon gave and is rewritten as version 3.
//! * **All or nothing** — a document restores whole or not at all, and only
//!   into streams `open` could have made; a counter at the top of its range
//!   refuses the one append that would wrap it, in-band.

use proptest::prelude::*;
use rdt_json::Json;
use rdt_serve::{
    parse_request, DaemonOp, EnginePool, ErrorKind, PoolHandle, Request, MAX_NAME_BYTES,
    MAX_PROCESSES, MAX_STREAMS,
};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() as usize) % n.max(1)
    }
}

/// One random multi-tenant session: opens a few streams, then interleaves
/// valid events, invalid events, queries, compactions, and the odd close.
/// Tracks per-stream in-flight messages so most deliveries are valid.
fn random_session(rng: &mut Rng, requests: usize) -> Vec<String> {
    let names = ["alpha", "beta", "gamma"];
    let n = 3usize;
    let mut lines = Vec::new();
    let mut sent = vec![0u32; names.len()];
    let mut in_flight: Vec<Vec<u32>> = vec![Vec::new(); names.len()];
    for (i, name) in names.iter().enumerate() {
        lines.push(format!(
            r#"{{"op":"open","stream":"{name}","processes":{n}}}"#
        ));
        let _ = i;
    }
    for _ in 0..requests {
        let s = rng.below(names.len());
        let name = names[s];
        match rng.below(12) {
            0 | 1 => lines.push(format!(
                r#"{{"op":"event","stream":"{name}","type":"checkpoint","process":{}}}"#,
                rng.below(n)
            )),
            2..=4 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                lines.push(format!(
                    r#"{{"op":"event","stream":"{name}","type":"send","from":{from},"to":{to}}}"#
                ));
                in_flight[s].push(sent[s]);
                sent[s] += 1;
            }
            5 | 6 => {
                if !in_flight[s].is_empty() {
                    let k = rng.below(in_flight[s].len());
                    let mid = in_flight[s].swap_remove(k);
                    lines.push(format!(
                        r#"{{"op":"event","stream":"{name}","type":"deliver","message":{mid}}}"#
                    ));
                }
            }
            7 => lines.push(format!(
                r#"{{"op":"event","stream":"{name}","type":"deliver","message":{}}}"#,
                sent[s] + 50 // never sent: must be a structured event error
            )),
            8 => lines.push(format!(
                r#"{{"op":"event","stream":"{name}","type":"crash","process":{}}}"#,
                rng.below(n)
            )),
            9 => lines.push(format!(
                r#"{{"op":"query","stream":"{name}","what":"untrackable"}}"#
            )),
            10 => lines.push(format!(
                r#"{{"op":"query","stream":"{name}","what":"recovery-line"}}"#
            )),
            _ => lines.push(format!(r#"{{"op":"compact","stream":"{name}"}}"#)),
        }
    }
    for name in names {
        lines.push(format!(
            r#"{{"op":"query","stream":"{name}","what":"untrackable"}}"#
        ));
        lines.push(format!(
            r#"{{"op":"query","stream":"{name}","what":"recovery-line"}}"#
        ));
    }
    lines
}

fn parse_line(line: &str) -> Request {
    parse_request(line.as_bytes()).expect("generated sessions are parseable")
}

/// The daemon snapshot document's text, as `persist_snapshot` writes it
/// (less the trailing newline).
fn snapshot_text(pool: &EnginePool) -> String {
    let mut out = Vec::new();
    pool.handle()
        .write_snapshot_document(&mut out)
        .expect("snapshot");
    String::from_utf8(out).expect("snapshot text is UTF-8")
}

fn replay(pool: &EnginePool, lines: &[String]) -> Vec<String> {
    let handle = pool.handle();
    lines
        .iter()
        .map(|line| handle.request(parse_line(line)).to_string())
        .collect()
}

/// The reply lines the daemon sends for `frames`, through the door it uses
/// (a `ping`, which the server answers itself, gets none).
fn answer_frames<'a>(handle: &PoolHandle, frames: impl Iterator<Item = &'a str>) -> String {
    let mut out = Vec::new();
    for frame in frames {
        let handed_back = handle.answer_frame(frame.as_bytes(), &mut out);
        assert!(
            matches!(handed_back, None | Some(DaemonOp::Ping)),
            "{frame}"
        );
    }
    String::from_utf8(out).expect("replies are UTF-8")
}

/// `dropped` is the number of closure rows the daemon held and let go:
/// R-graph nodes. Here the recovery line is the frontier `[2, 1]` and no
/// delivery is pending, so exactly `C_{0,0}`, `C_{0,1}` and `C_{1,0}` go.
/// (The engine that also kept chain closures counted their rows too.)
#[test]
fn compact_reports_the_r_graph_rows_it_dropped() {
    let lines: Vec<String> = [
        r#"{"op":"open","stream":"s","processes":2}"#,
        r#"{"op":"event","stream":"s","type":"checkpoint","process":0}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"deliver","message":0}"#,
        r#"{"op":"event","stream":"s","type":"checkpoint","process":1}"#,
        r#"{"op":"event","stream":"s","type":"checkpoint","process":0}"#,
        r#"{"op":"compact","stream":"s"}"#,
        r#"{"op":"compact","stream":"s"}"#,
    ]
    .map(String::from)
    .to_vec();
    let pool = EnginePool::new(1);
    let replies = replay(&pool, &lines);
    assert_eq!(replies[6], r#"{"ok":true,"dropped":3,"epoch":1}"#);
    assert_eq!(replies[7], r#"{"ok":true,"dropped":0,"epoch":1}"#);
    pool.join();
}

/// The frames of the op script behind `snapshot_v1.json` (see the
/// provenance header of `crates/rgraph/tests/snapshot_v1.rs`, whose
/// `script` this mirrors draw for draw).
fn v1_golden_session(name: &str) -> Vec<String> {
    let n = 3;
    let mut rng = Rng(5);
    let (mut next_mid, mut in_flight) = (0u32, Vec::new());
    let mut lines = vec![format!(
        r#"{{"op":"open","stream":"{name}","processes":{n}}}"#
    )];
    for i in 0..72 {
        match rng.below(8) {
            0..=2 => lines.push(format!(
                r#"{{"op":"event","stream":"{name}","type":"checkpoint","process":{}}}"#,
                rng.below(n)
            )),
            3 | 4 => {
                let from = rng.below(n);
                let to = (from + 1 + rng.below(n - 1)) % n;
                lines.push(format!(
                    r#"{{"op":"event","stream":"{name}","type":"send","from":{from},"to":{to}}}"#
                ));
                in_flight.push(next_mid);
                next_mid += 1;
            }
            _ if in_flight.len() > 1 => {
                let mid = in_flight.swap_remove(rng.below(in_flight.len()));
                lines.push(format!(
                    r#"{{"op":"event","stream":"{name}","type":"deliver","message":{mid}}}"#
                ));
            }
            _ => {}
        }
        if i == 44 {
            lines.push(format!(r#"{{"op":"compact","stream":"{name}"}}"#));
        }
    }
    lines
}

/// A daemon restarted from a pool document whose stream carries a
/// version 1 engine snapshot (chain tables and all) answers byte for byte
/// like a daemon that ingested the same stream live, and persists it as
/// version 3 from then on.
#[test]
fn restart_from_a_v1_engine_snapshot_answers_identically() {
    let golden = include_str!("../../rgraph/tests/golden/snapshot_v1.json");
    let engine = Json::parse_bytes(golden.as_bytes()).expect("golden parses");
    assert_eq!(engine.get("version"), Some(&Json::U64(1)));
    let doc = Json::obj([
        ("format", Json::Str(rdt_serve::POOL_SNAPSHOT_FORMAT.into())),
        ("version", Json::U64(rdt_serve::POOL_SNAPSHOT_VERSION)),
        (
            "streams",
            Json::Arr(vec![Json::obj([
                (
                    "format",
                    Json::Str(rdt_serve::STREAM_SNAPSHOT_FORMAT.into()),
                ),
                ("name", Json::Str("legacy".into())),
                ("crashes", Json::U64(0)),
                ("engine", engine),
            ])]),
        ),
    ]);
    let restarted = EnginePool::new(2);
    assert_eq!(
        restarted
            .handle()
            .restore_document(&doc, 2)
            .expect("restore"),
        1
    );
    let live = EnginePool::new(2);
    replay(&live, &v1_golden_session("legacy"));

    let mut queries: Vec<String> = ["untrackable", "recovery-line"]
        .iter()
        .map(|what| format!(r#"{{"op":"query","stream":"legacy","what":"{what}"}}"#))
        .collect();
    for what in ["min-consistent", "max-consistent"] {
        for member in ["[0,7]", "[1,5]", "[2,6]", "[0,9]", "[1,1]", "[2,3]"] {
            queries.push(format!(
                r#"{{"op":"query","stream":"legacy","what":"{what}","members":[{member}]}}"#
            ));
        }
    }
    queries.push(r#"{"op":"event","stream":"legacy","type":"crash","process":1}"#.into());
    queries.push(r#"{"op":"compact","stream":"legacy"}"#.into());
    queries.push(r#"{"op":"query","stream":"legacy","what":"untrackable"}"#.into());
    let (a, b) = (replay(&restarted, &queries), replay(&live, &queries));
    assert_eq!(a, b);
    assert_eq!(a[0], r#"{"ok":true,"untrackable":6}"#);
    assert!(
        a.iter().all(|reply| reply.starts_with(r#"{"ok":true"#)),
        "{a:?}"
    );

    // Persisted again, the stream is a version 4 document equal to the
    // live daemon's, except for `reclaimed_rows`: a monotone counter carried
    // as stored, which in the v1 document also counted the 24 + 8 chain
    // rows its one compaction dropped (18 R rows then, 3 more above).
    let persisted = snapshot_text(&restarted);
    assert!(persisted.contains(r#""version":4"#) && !persisted.contains("zmat"));
    assert!(snapshot_text(&live).contains(r#""reclaimed_rows":21"#));
    assert_eq!(
        persisted.replace(r#""reclaimed_rows":53"#, r#""reclaimed_rows":21"#),
        snapshot_text(&live)
    );
    restarted.join();
    live.join();
}

/// `golden/daemon_v2.snapshot.json` is the file a daemon built at `b617060`
/// (engine snapshot version 2) persisted on `shutdown` after the session in
/// `daemon_v2.session.ndjson` — two streams of 3 and 5 processes, six
/// compactions, crashes, every error kind, a third stream opened and closed
/// — and `daemon_v2.answers.txt` what that daemon answered to
/// `daemon_v2.queries.ndjson` just before. None of the three is ever
/// regenerated: no build writes version 2 any more. A daemon of this build
/// restarts from the file into those answers, persists engine version 4
/// from then on — the bytes of a daemon that ingested the session itself —
/// and restarts from *that* into the same answers again, for any worker
/// count.
#[test]
fn a_version_2_daemon_file_restarts_into_its_answers_and_is_rewritten_as_version_4() {
    let file = include_str!("golden/daemon_v2.snapshot.json");
    let session = include_str!("golden/daemon_v2.session.ndjson");
    let queries = include_str!("golden/daemon_v2.queries.ndjson");
    let answers = include_str!("golden/daemon_v2.answers.txt");
    assert!(file.contains(r#""version":2"#) && file.contains(r#""bwd":["#));

    let upgraded = EnginePool::new(2);
    assert_eq!(upgraded.handle().restore_text(file.as_bytes(), 2), Ok(2));
    assert_eq!(answer_frames(&upgraded.handle(), queries.lines()), answers);
    let rewritten = snapshot_text(&upgraded);
    let engine =
        |version: u64| format!(r#""engine":{{"format":"rdt-rgraph-snapshot","version":{version}"#);
    assert!(rewritten.contains(&engine(4)) && !rewritten.contains(&engine(2)));
    assert!(rewritten.starts_with(r#"{"format":"rdt-serve-snapshot","version":2,"#));
    for derived in [
        "bwd",
        "send_events",
        "deliver_events",
        "rmat",
        "cp_nodes",
        "drop_reach",
    ] {
        assert!(
            !rewritten.contains(&format!("\"{derived}\"")),
            "version 4 carries `{derived}`"
        );
    }

    let live = EnginePool::new(3);
    answer_frames(&live.handle(), session.lines());
    assert_eq!(answer_frames(&live.handle(), queries.lines()), answers);
    assert_eq!(snapshot_text(&live), rewritten);

    for workers in [1, 5] {
        let again = EnginePool::new(workers);
        let restored = again.handle().restore_text(rewritten.as_bytes(), workers);
        assert_eq!(restored, Ok(2));
        assert_eq!(answer_frames(&again.handle(), queries.lines()), answers);
        assert_eq!(snapshot_text(&again), rewritten);
        again.join();
    }
    upgraded.join();
    live.join();
}

/// A pool document of one stream entry per `(name, engine)`.
fn pool_document(entries: &[(&str, Json)]) -> Json {
    let entry = |(name, engine): &(&str, Json)| {
        Json::obj([
            (
                "format",
                Json::Str(rdt_serve::STREAM_SNAPSHOT_FORMAT.into()),
            ),
            ("name", Json::Str(name.to_string())),
            ("crashes", Json::U64(0)),
            ("engine", engine.clone()),
        ])
    };
    Json::obj([
        ("format", Json::Str(rdt_serve::POOL_SNAPSHOT_FORMAT.into())),
        ("version", Json::U64(rdt_serve::POOL_SNAPSHOT_VERSION)),
        ("streams", Json::Arr(entries.iter().map(entry).collect())),
    ])
}

fn engine_document(processes: usize) -> Json {
    let mut text = Vec::new();
    let engine = rdt_rgraph::IncrementalAnalysis::new(processes);
    engine.write_snapshot(&mut rdt_json::JsonWriter::new(&mut text));
    Json::parse_bytes(&text).expect("snapshot text parses")
}

fn stream_names(handle: &PoolHandle) -> String {
    handle.request(Request::Streams).to_string()
}

/// A stream named `""`, named with more than `MAX_NAME_BYTES` bytes or of
/// more than `MAX_PROCESSES` processes is one no frame can address — every
/// request naming it is refused before it reaches the pool — so once
/// installed it could never be queried or closed, held one of the
/// `MAX_STREAMS` slots for good and was written into every later snapshot.
/// Restore holds an entry to `open`'s limits.
#[test]
fn restore_refuses_streams_that_open_would_have_refused() {
    let long = "x".repeat(MAX_NAME_BYTES + 1);
    let limit = "y".repeat(MAX_NAME_BYTES);
    let refused = [
        ("", engine_document(2), "stream name of 0 bytes"),
        (&long[..], engine_document(2), "stream name of 201 bytes"),
        ("wide", engine_document(MAX_PROCESSES + 1), "513 processes"),
    ];
    for (name, engine, why) in refused {
        let pool = EnginePool::new(2);
        let doc = pool_document(&[("fine", engine_document(2)), (name, engine)]);
        let err = pool.handle().restore_document(&doc, 2).expect_err(why);
        assert_eq!(err.kind, ErrorKind::Admin, "{err}");
        assert!(err.message.contains(why), "{err}");
        assert_eq!(stream_names(&pool.handle()), r#"{"ok":true,"streams":[]}"#);
        pool.join();
    }
    // At the limits, both restore and can be addressed afterwards.
    let pool = EnginePool::new(2);
    let doc = pool_document(&[
        (&limit[..], engine_document(2)),
        ("wide", engine_document(MAX_PROCESSES)),
    ]);
    assert_eq!(pool.handle().restore_document(&doc, 2), Ok(2));
    for name in [&limit[..], "wide"] {
        let close = format!(r#"{{"op":"close","stream":"{name}"}}"#);
        let reply = pool.handle().request(parse_line(&close));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply}");
    }
    pool.join();
}

/// Streams used to be installed one by one, so a name that came twice or
/// an entry that did not validate left every stream before it installed
/// and counted. A document restores whole or not at all.
#[test]
fn a_document_that_does_not_restore_leaves_the_pool_as_it_was() {
    let names: Vec<String> = (0..40).map(|i| format!("s{i:02}")).collect();
    let mut entries: Vec<(&str, Json)> = names
        .iter()
        .map(|name| (&name[..], engine_document(1)))
        .collect();
    let good = pool_document(&entries);

    // A 40th entry that does not validate (`cp_count` of the wrong length).
    let Json::Obj(mut fields) = engine_document(1) else {
        panic!("engine snapshot is an object");
    };
    fields
        .iter_mut()
        .find(|(k, _)| k == "cp_count")
        .expect("table")
        .1 = Json::Arr(Vec::new());
    entries[39].1 = Json::Obj(fields);
    let bad_entry = pool_document(&entries);
    // A name that comes twice.
    entries[39] = ("s07", engine_document(1));
    let duplicate = pool_document(&entries);

    let pool = EnginePool::new(3);
    let handle = pool.handle();
    for (doc, why) in [(&bad_entry, "cp_count"), (&duplicate, "`s07` twice")] {
        let err = handle.restore_document(doc, 2).expect_err(why);
        assert_eq!(err.kind, ErrorKind::Admin, "{err}");
        assert!(err.message.contains(why), "{err}");
        assert_eq!(stream_names(&handle), r#"{"ok":true,"streams":[]}"#);
    }
    // Nor does it restore over a stream that is already open.
    assert_eq!(
        handle
            .request(parse_line(r#"{"op":"open","stream":"s11","processes":2}"#))
            .get("ok"),
        Some(&Json::Bool(true))
    );
    let err = handle.restore_document(&good, 2).expect_err("occupied");
    assert!(
        err.message.contains("`s11`, which is already open"),
        "{err}"
    );
    assert_eq!(stream_names(&handle), r#"{"ok":true,"streams":["s11"]}"#);

    // No slot stayed reserved: the other `MAX_STREAMS - 1` can all be
    // opened, and the next one is refused by the limit.
    for i in 1..MAX_STREAMS {
        let open = Request::Open {
            stream: format!("t{i}"),
            processes: 1,
        };
        assert_eq!(
            handle.request(open).get("ok"),
            Some(&Json::Bool(true)),
            "{i}"
        );
    }
    let open = parse_line(r#"{"op":"open","stream":"one-too-many","processes":1}"#);
    assert!(handle
        .request(open)
        .to_string()
        .contains(r#""kind":"limit""#));
    // And a document that would exceed the limit is refused whole too.
    let err = handle.restore_document(&pool_document(&[("late", engine_document(1))]), 1);
    assert!(err.expect_err("full").message.contains("stream limit"));
    pool.join();

    let pool = EnginePool::new(3);
    assert_eq!(pool.handle().restore_document(&good, 2), Ok(40));
    pool.join();
}

/// `doc[key][at[0]][at[1]]…` of an engine document replaced by `value`.
fn set(doc: &mut Json, key: &str, at: &[usize], value: u64) {
    let Json::Obj(fields) = doc else {
        panic!("engine snapshot is an object");
    };
    let table = &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1;
    let entry = at.iter().fold(table, |entry, &i| match entry {
        Json::Arr(items) => &mut items[i],
        _ => panic!("`{key}` is not nested that deep"),
    });
    assert!(matches!(entry, Json::U64(_)), "`{key}` entry is a number");
    *entry = Json::U64(value);
}

/// The engine's interval counters are `u32`. Restore refused a document
/// within an append of overflow (a checkpoint leaves its index plus one in
/// `reach` and `TDV`, which the fold offsets by one more); the append path
/// had no check at all, so the checkpoint after the last that fits panicked
/// a debug build
/// (`attempt to add with overflow`, under the stripe's lock: the stripe
/// poisoned, every tenant on it out of service) and wrapped an interval
/// counter to 0 in a release build. It is an `event` error now, before any
/// state changes, confined to the one stream.
#[test]
fn a_checkpoint_counter_at_the_top_of_its_range_refuses_in_band() {
    const NEAR: u64 = u32::MAX as u64 - 3;
    // Process 0 of `old` has retained only its checkpoint `NEAR`, as after
    // a compaction there.
    let mut old = engine_document(2);
    set(&mut old, "cp_count", &[0], NEAR);
    set(&mut old, "cp_base", &[0], NEAR);
    set(&mut old, "watermark", &[0], NEAR);
    set(&mut old, "r_meta", &[0, 1], NEAR);
    set(&mut old, "reach", &[0], NEAR + 1);
    set(&mut old, "cur_tdv", &[0], NEAR + 1);
    set(&mut old, "epoch", &[], 1);
    let pool = EnginePool::new(1);
    let handle = pool.handle();
    let doc = pool_document(&[("old", old), ("young", engine_document(2))]);
    assert_eq!(handle.restore_document(&doc, 1), Ok(2));

    let checkpoint = |stream: &str, process: usize| {
        let frame = format!(
            r#"{{"op":"event","stream":"{stream}","type":"checkpoint","process":{process}}}"#
        );
        answer_frames(&handle, [&frame[..]].into_iter())
    };
    let last = u32::MAX - 2;
    assert_eq!(
        checkpoint("old", 0),
        format!("{{\"ok\":true,\"checkpoint\":{last}}}\n")
    );
    let before = snapshot_text(&pool);
    for _ in 0..3 {
        let refused = checkpoint("old", 0);
        assert!(refused.contains(r#""kind":"event""#), "{refused}");
        assert!(refused.contains("no checkpoint index left"), "{refused}");
    }
    assert_eq!(
        snapshot_text(&pool),
        before,
        "a refused append changes nothing"
    );

    // The stream still serves its other process and its queries; the
    // stream beside it, on the same stripe, never noticed.
    assert_eq!(checkpoint("old", 1), "{\"ok\":true,\"checkpoint\":1}\n");
    let line = r#"{"op":"query","stream":"old","what":"recovery-line"}"#;
    assert_eq!(
        answer_frames(&handle, [line].into_iter()),
        format!("{{\"ok\":true,\"line\":[{last},1]}}\n")
    );
    assert_eq!(checkpoint("young", 0), "{\"ok\":true,\"checkpoint\":1}\n");
    // What was persisted restores: the bound restore enforces is the one
    // the append path now keeps to.
    let again = EnginePool::new(2);
    let persisted = snapshot_text(&pool);
    assert_eq!(again.handle().restore_text(persisted.as_bytes(), 1), Ok(2));
    assert_eq!(snapshot_text(&again), persisted);
    again.join();
    pool.join();
}

/// Stream names are the one string in the document that comes from
/// outside: with a quote, a backslash, control characters and non-ASCII in
/// them the text is still the canonical compact form, entries still come in
/// name order, and the document restores to the same text.
#[test]
fn hostile_stream_names_are_written_canonically() {
    let names = [
        "quo\"te",
        "back\\slash",
        "ctl\u{1}\n\t\u{1f}",
        "ünï€ode \u{1D11E}",
        "plain",
    ];
    let pool = EnginePool::new(3);
    let handle = pool.handle();
    for (i, name) in names.iter().enumerate() {
        let open = Request::Open {
            stream: name.to_string(),
            processes: 2 + i % 2,
        };
        assert_eq!(handle.request(open).get("ok"), Some(&Json::Bool(true)));
        let event = Json::obj([
            ("op", Json::Str("event".into())),
            ("stream", Json::Str(name.to_string())),
            ("type", Json::Str("checkpoint".into())),
            ("process", Json::U64(1)),
        ]);
        let reply = handle.request(parse_line(&event.to_string()));
        assert_eq!(reply.get("checkpoint"), Some(&Json::U64(1)), "{name:?}");
    }
    let text = snapshot_text(&pool);
    let doc = Json::parse_bytes(text.as_bytes()).expect("snapshot text parses");
    assert_eq!(doc.to_string(), text);
    assert_eq!(doc, handle.snapshot_document().expect("snapshot"));
    let written: Vec<&str> = doc
        .get("streams")
        .and_then(Json::as_array)
        .expect("streams")
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let mut sorted = names.to_vec();
    sorted.sort_unstable();
    assert_eq!(written, sorted);

    let restored = EnginePool::new(1);
    assert_eq!(restored.handle().restore_document(&doc, 2), Ok(names.len()));
    assert_eq!(snapshot_text(&restored), text);
    restored.join();
    pool.join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same session, worker counts 1 / 2 / 5: byte-identical replies.
    #[test]
    fn replies_are_deterministic_across_worker_counts(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let lines = random_session(&mut rng, 120);
        let mut transcripts = Vec::new();
        for workers in [1usize, 2, 5] {
            let pool = EnginePool::new(workers);
            transcripts.push(replay(&pool, &lines));
            pool.join();
        }
        prop_assert_eq!(&transcripts[0], &transcripts[1]);
        prop_assert_eq!(&transcripts[0], &transcripts[2]);
    }

    /// Snapshot/restore byte-identity, including after a common suffix.
    #[test]
    fn snapshot_restore_is_byte_identical(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let prefix = random_session(&mut rng, 80);
        // The suffix reuses only always-valid ops so it applies cleanly
        // to both the original and the restored pool.
        let suffix: Vec<String> = (0..30)
            .map(|k| match k % 3 {
                0 => format!(
                    r#"{{"op":"event","stream":"alpha","type":"checkpoint","process":{}}}"#,
                    k % 3
                ),
                1 => r#"{"op":"query","stream":"beta","what":"recovery-line"}"#.to_string(),
                _ => r#"{"op":"query","stream":"gamma","what":"untrackable"}"#.to_string(),
            })
            .collect();

        let original = EnginePool::new(2);
        replay(&original, &prefix);
        let text = snapshot_text(&original);
        // The text is the canonical compact form, so the tree the wrapper
        // returns is exactly its parsed form.
        let doc = Json::parse_bytes(text.as_bytes()).expect("snapshot text parses");
        prop_assert_eq!(&doc.to_string(), &text);
        prop_assert_eq!(&doc, &original.handle().snapshot_document().expect("snapshot"));

        let restored = EnginePool::new(3);
        restored
            .handle()
            .restore_document(&doc, 4)
            .expect("restore");

        // Restored pool re-snapshots byte-identically...
        prop_assert_eq!(text, snapshot_text(&restored));
        // ...answers the suffix byte-identically...
        let a = replay(&original, &suffix);
        let b = replay(&restored, &suffix);
        prop_assert_eq!(a, b);
        // ...and both sides re-snapshot to the same bytes afterwards.
        prop_assert_eq!(snapshot_text(&original), snapshot_text(&restored));
        original.join();
        restored.join();
    }

    /// A corrupted snapshot is rejected as a structured error, and the
    /// pool it was aimed at keeps serving.
    #[test]
    fn corrupted_snapshots_are_rejected(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let lines = random_session(&mut rng, 40);
        let pool = EnginePool::new(2);
        replay(&pool, &lines);
        let text = snapshot_text(&pool);

        // Bit-flip corruption somewhere in the document. Some flips keep
        // it parseable-and-valid; any flip that breaks parsing or
        // validation must surface as Err, never a panic.
        let mut bytes = text.clone().into_bytes();
        let i = rng.below(bytes.len());
        bytes[i] ^= 1 << rng.below(8);
        let fresh = EnginePool::new(2);
        let restored = fresh.handle().restore_text(&bytes, 2);
        if let Ok(count) = restored {
            // Installed whole (a flip inside a stream's name can merge two
            // entries into a refusal, never into fewer streams).
            let names = fresh.handle().request(Request::Streams);
            let names = names.get("streams").and_then(Json::as_array).map(<[Json]>::len);
            prop_assert_eq!(names, Some(count));
        }
        prop_assert!(Json::parse_bytes(&bytes).is_ok() || restored.is_err());
        // Whatever happened, the target pool still works.
        let reply = fresh.handle().request(parse_line(
            r#"{"op":"open","stream":"fresh","processes":2}"#
        ));
        // `fresh` may collide with a restored stream name only if restore
        // succeeded; either way the reply is structured.
        prop_assert!(reply.get("ok").is_some());
        fresh.join();
        pool.join();
    }
}
