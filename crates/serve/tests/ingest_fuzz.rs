//! Fuzzing the daemon's ingest path: arbitrary bytes and mutated valid
//! frames must never panic anywhere between the socket and the engines —
//! they come back as structured error replies, and the streams that were
//! already open keep answering correctly afterwards. The same holds for
//! the other door into an engine, the snapshot document: a mutated stream
//! snapshot restores to the same answers or is refused, nothing else.
//!
//! The `scanner_*` tests hold the frame scanner to the tree parser:
//! whatever `scan_request` accepts, `parse_request` reads as the same
//! request, and whatever the daemon's per-frame entry answers — on either
//! path — is the text of the tree path's reply. CI runs them by that name.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdt_json::{Json, JsonReader};
use rdt_serve::{
    handle_request, parse_request, scan_request, EnginePool, ErrorKind, PoolHandle, Reply, Request,
    StreamEngine, MAX_NAME_BYTES,
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

/// A pool of syntactically valid frames to mutate.
fn valid_frames() -> Vec<String> {
    vec![
        r#"{"op":"open","stream":"s","processes":3}"#.to_string(),
        r#"{"op":"event","stream":"s","type":"checkpoint","process":0}"#.to_string(),
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#.to_string(),
        r#"{"op":"event","stream":"s","type":"deliver","message":0}"#.to_string(),
        r#"{"op":"event","stream":"s","type":"crash","process":2}"#.to_string(),
        r#"{"op":"query","stream":"s","what":"untrackable"}"#.to_string(),
        r#"{"op":"query","stream":"s","what":"recovery-line"}"#.to_string(),
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1],[1,0]]}"#
            .to_string(),
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[2,0]]}"#.to_string(),
        r#"{"op":"compact","stream":"s"}"#.to_string(),
        r#"{"op":"close","stream":"s"}"#.to_string(),
        r#"{"op":"streams"}"#.to_string(),
        r#"{"op":"ping"}"#.to_string(),
        "\"\\ud83d\\ude00 high/low surrogates\"".to_string(),
    ]
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next() & 0xff) as u8).collect()
}

/// Mutates a valid frame: flip a byte, truncate, duplicate a span, or
/// splice two frames together.
fn mutate(rng: &mut Rng, frames: &[String]) -> Vec<u8> {
    let mut bytes = frames[rng.below(frames.len())].clone().into_bytes();
    match rng.below(4) {
        0 => {
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] = (rng.next() & 0xff) as u8;
            }
        }
        1 => bytes.truncate(rng.below(bytes.len() + 1)),
        2 => {
            let other = frames[rng.below(frames.len())].as_bytes();
            let cut = rng.below(bytes.len() + 1);
            let splice = rng.below(other.len() + 1);
            bytes.truncate(cut);
            bytes.extend_from_slice(&other[splice..]);
        }
        _ => {
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                let j = i + rng.below(bytes.len() - i);
                let span = bytes[i..j].to_vec();
                bytes.extend_from_slice(&span);
            }
        }
    }
    bytes
}

/// Replaces the first `from` in `frame`, if there is one, by `to`.
fn splice(frame: &str, from: &str, to: &[u8]) -> Vec<u8> {
    let Some(at) = frame.find(from) else {
        return frame.as_bytes().to_vec();
    };
    let mut bytes = frame.as_bytes()[..at].to_vec();
    bytes.extend_from_slice(to);
    bytes.extend_from_slice(&frame.as_bytes()[at + from.len()..]);
    bytes
}

/// The frame with its object's members reordered or one of them doubled.
fn reshuffle(rng: &mut Rng, frame: &str, duplicate: bool) -> Vec<u8> {
    let Ok(Json::Obj(mut pairs)) = Json::parse(frame) else {
        return frame.as_bytes().to_vec();
    };
    if duplicate {
        let (key, _) = pairs[rng.below(pairs.len())].clone();
        let values = [Json::U64(1), Json::Str("s".into()), Json::Null];
        let twin = (key, values[rng.below(values.len())].clone());
        let at = rng.below(pairs.len() + 1);
        pairs.insert(at, twin);
    } else {
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i + 1));
        }
    }
    Json::Obj(pairs).to_string().into_bytes()
}

/// A corpus frame respelled the ways a client might spell it — and the
/// ways an attacker might almost spell it: still close enough to the
/// canonical form that a careless scanner would take it.
fn respell(rng: &mut Rng, frames: &[String]) -> Vec<u8> {
    let frame = &frames[rng.below(frames.len())];
    let pick = |rng: &mut Rng, of: &[&str]| of[rng.below(of.len())].to_string();
    match rng.below(9) {
        0 => {
            // Whitespace beside a structural byte (the corpus has none of
            // these bytes inside a string).
            let spots: Vec<usize> = (0..frame.len())
                .filter(|&i| b"{}[],:".contains(&frame.as_bytes()[i]))
                .collect();
            if spots.is_empty() {
                return frame.as_bytes().to_vec();
            }
            let at = spots[rng.below(spots.len())] + rng.below(2);
            let mut bytes = frame.as_bytes().to_vec();
            bytes.insert(at, b" \t\r\n"[rng.below(4)]);
            bytes
        }
        1 => reshuffle(rng, frame, false),
        2 => reshuffle(rng, frame, true),
        3 => {
            let name = pick(
                rng,
                &[
                    r#""\u0073""#,
                    r#""s\/""#,
                    r#""\"""#,
                    r#""s\\""#,
                    r#""\ud83d""#,
                ],
            );
            splice(frame, r#""s""#, name.as_bytes())
        }
        4 => {
            // A number respelled: the digit runs of the corpus are values.
            let bytes = frame.as_bytes();
            let starts: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit() && !bytes[i - 1].is_ascii_digit())
                .collect();
            if starts.is_empty() {
                return bytes.to_vec();
            }
            let start = starts[rng.below(starts.len())];
            let len = bytes[start..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .count();
            let number = pick(
                rng,
                &[
                    "1e3",
                    "1.0",
                    "1.",
                    "007",
                    "00",
                    "01",
                    "-0",
                    "-1",
                    "+1",
                    "0x1",
                    "4294967295",
                    "4294967296",
                    "9999999999999999999",
                    "10000000000000000000",
                    "18446744073709551615",
                    "18446744073709551616",
                    "99999999999999999999",
                    "000000000000000000001",
                ],
            );
            let mut out = bytes[..start].to_vec();
            out.extend_from_slice(number.as_bytes());
            out.extend_from_slice(&bytes[start + len..]);
            out
        }
        5 => {
            let tail = pick(rng, &["}", " ", "x", "\n", ",", "\0", "{}", "\"", "]"]);
            [frame.as_bytes(), tail.as_bytes()].concat()
        }
        6 => {
            let len = [
                0,
                1,
                2,
                MAX_NAME_BYTES - 1,
                MAX_NAME_BYTES,
                MAX_NAME_BYTES + 1,
                300,
            ];
            let unit = pick(rng, &["s", "é", "東", "\u{1F600}", "\u{7f}"]);
            let mut name = unit.repeat(len[rng.below(len.len())] / unit.len());
            if rng.below(2) == 0 {
                name = name.replacen(&unit, "s", 1);
            }
            splice(frame, r#""s""#, format!("\"{name}\"").as_bytes())
        }
        7 => {
            // Not UTF-8: truncated, overlong, a surrogate, a bare
            // continuation byte, a byte no encoding starts with.
            let names: [&[u8]; 7] = [
                b"\"\xE2\x82\"",
                b"\"s\xC0\xAF\"",
                b"\"\xED\xA0\x80\"",
                b"\"s\x80\"",
                b"\"\xFF\"",
                b"\"\xF4\x90\x80\x80\"",
                b"\"s\xE6\x9D\"",
            ];
            splice(frame, r#""s""#, names[rng.below(names.len())])
        }
        _ => mutate(rng, frames),
    }
}

/// The daemon's per-frame entry beside the tree path: a one-stripe pool
/// answering bytes, and a map of twin engines answering what
/// `parse_request` makes of the same bytes.
struct Differential {
    pool: PoolHandle,
    twins: BTreeMap<String, StreamEngine>,
    out: Vec<u8>,
}

impl Differential {
    fn new() -> Differential {
        Differential {
            pool: EnginePool::new(1).handle(),
            twins: BTreeMap::new(),
            out: Vec::new(),
        }
    }

    /// Feeds `frame` to both sides. Panics unless (1) whatever the scanner
    /// accepts is what the tree parser reads and (2) the line the daemon's
    /// entry appends is the text of the tree path's reply: `handle_request`
    /// on the parsed request, or the refusal of what did not parse.
    /// Returns whether the scanner took the frame.
    fn step(&mut self, frame: &[u8]) -> bool {
        let shown = String::from_utf8_lossy(frame).into_owned();
        let parsed = parse_request(frame);
        let scanned = scan_request(frame);
        if let Some(hot) = &scanned {
            assert_eq!(&Ok(hot.to_request()), &parsed, "{shown}");
        }
        self.out.clear();
        let handed_back = self.pool.answer_frame(frame, &mut self.out);
        let expected = match &parsed {
            Err(e) => {
                let mut line = Vec::new();
                Reply::Refused(None, e.clone()).write(&mut line);
                String::from_utf8(line).expect("UTF-8")
            }
            Ok(req) if req.stream().is_some() => {
                format!("{}\n", handle_request(&mut self.twins, req))
            }
            // `streams` is the pool's to answer, the rest the server's.
            Ok(req) => {
                assert_eq!(handed_back.is_none(), *req == Request::Streams);
                return false;
            }
        };
        assert!(handed_back.is_none(), "{shown}");
        let got = String::from_utf8_lossy(&self.out);
        assert_eq!(got, expected, "{shown}");
        scanned.is_some()
    }
}

/// Stream names at the edges of what the scanner borrows as it stands.
fn canonical_names() -> [String; 5] {
    let at_limit = "n".repeat(MAX_NAME_BYTES);
    [
        "s",
        "tenant-βγ/東京",
        "\u{7f} {}[]:,'",
        "\u{1F600}",
        &at_limit,
    ]
    .map(str::to_string)
}

/// Every canonical shape of the two hot ops, over those names and over
/// numbers at the edges of what the scanner reads.
fn canonical_frames() -> Vec<String> {
    let mut frames = Vec::new();
    for name in canonical_names() {
        let event = |body: &str| format!(r#"{{"op":"event","stream":"{name}","type":{body}}}"#);
        let query = |body: &str| format!(r#"{{"op":"query","stream":"{name}","what":{body}}}"#);
        frames.extend([
            event(r#""send","from":0,"to":1"#),
            event(r#""send","from":2,"to":0"#),
            event(r#""send","from":9999999999999999999,"to":1000000000000000000"#),
            event(r#""deliver","message":0"#),
            event(r#""deliver","message":1"#),
            event(r#""deliver","message":4294967295"#),
            event(r#""checkpoint","process":0"#),
            event(r#""checkpoint","process":2"#),
            event(r#""checkpoint","process":512"#),
            event(r#""crash","process":1"#),
            event(r#""crash","process":10"#),
            query(r#""untrackable""#),
            query(r#""recovery-line""#),
            query(r#""min-consistent","members":[[0,1]]"#),
            query(r#""min-consistent","members":[[0,0],[1,0],[2,1]]"#),
            query(r#""max-consistent","members":[[2,1]]"#),
            query(r#""max-consistent","members":[[0,1],[2,4294967295]]"#),
            query(r#""max-consistent","members":[[9999999999999999999,0]]"#),
        ]);
    }
    frames
}

/// Near-misses: each is one step from a canonical frame, none is one.
fn near_misses() -> Vec<Vec<u8>> {
    let over_limit = "n".repeat(MAX_NAME_BYTES + 1);
    let mut frames: Vec<Vec<u8>> = [
        // Valid requests in another spelling.
        r#" {"op":"event","stream":"s","type":"send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1} "#,
        r#"{ "op":"event","stream":"s","type":"send","from":0,"to":1}"#,
        r#"{"op": "event","stream":"s","type":"send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1 }"#,
        r#"{"op":"event","stream":"s","type":"send","from":0, "to":1}"#,
        r#"{"stream":"s","op":"event","type":"send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","to":1,"from":0}"#,
        r#"{"op":"event","type":"send","stream":"s","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1,"to":2}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1,"x":null}"#,
        r#"{"op":"event","stream":"s","stream":"t","type":"send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"checkpoint","process":1.0}"#,
        r#"{"op":"event","stream":"\u0073","type":"checkpoint","process":1}"#,
        r#"{"op":"event","stream":"s","type":"deliver","message":0,"message":9}"#,
        r#"{"op":"event","stream":"s","type":"crash","process":0,"from":1}"#,
        r#"{"op":"query","stream":"s","what":"untrackable","members":[[0,1]]}"#,
        r#"{"op":"query","stream":"s","what":"recovery-line","members":[]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1] ]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0, 1]]}"#,
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[1.0,1e0]]}"#,
        r#"{"op":"query","stream":"s","members":[[0,1]],"what":"max-consistent"}"#,
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[0,1]],"members":[]}"#,
        // Another op altogether.
        r#"{"op":"compact","stream":"s"}"#,
        r#"{"op":"open","stream":"t","processes":2}"#,
        r#"{"op":"close","stream":"t"}"#,
        // Frames that deserve an error, each worded by the tree path.
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}x"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0,"to":1,}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0}"#,
        r#"{"op":"event","stream":"s","type":"send","from":007,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":00,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":+0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":-0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":0.0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":1e3,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":"0","to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":10000000000000000000,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":99999999999999999999,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"send","from":000000000000000000001,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"deliver","message":4294967296}"#,
        r#"{"op":"event","stream":"s","type":"deliver","message":18446744073709551616}"#,
        r#"{"op":"event","stream":"s","type":"deliver","message":-1}"#,
        r#"{"op":"event","stream":"s","type":"teleport","process":0}"#,
        r#"{"op":"event","stream":"s","type":"Send","from":0,"to":1}"#,
        r#"{"op":"event","stream":"s","type":"checkpoint","from":0}"#,
        r#"{"op":"event","stream":"","type":"checkpoint","process":0}"#,
        r#"{"op":"event","stream":"s\","type":"checkpoint","process":0}"#,
        r#"{"op":"event","stream":"s\q","type":"checkpoint","process":0}"#,
        r#"{"op":"event","stream":s,"type":"checkpoint","process":0}"#,
        r#"{"op":"event","stream":7,"type":"checkpoint","process":0}"#,
        r#"{"op":"Event","stream":"s","type":"checkpoint","process":0}"#,
        r#"{"op":"query","stream":"s","what":"everything"}"#,
        r#"{"op":"query","stream":"s","what":"untrackable""#,
        r#"{"op":"query","stream":"s","what":"min-consistent"}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[]]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0]]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1,2]]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1],]}"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1]"#,
        r#"{"op":"query","stream":"s","what":"min-consistent","members":[0,1]}"#,
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[0,4294967296]]}"#,
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[01,0]]}"#,
        r#"{"op":"query","stream":"s","what":"max-consistent","members":[[0,-1]]}"#,
    ]
    .iter()
    .map(|frame| frame.as_bytes().to_vec())
    .collect();
    let send = r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#;
    frames.push(splice(
        send,
        r#""s""#,
        format!("\"{over_limit}\"").as_bytes(),
    ));
    frames.push(splice(send, r#""s""#, b"\"a\x01b\""));
    frames.push(splice(send, r#""s""#, b"\"a\nb\""));
    for name in [
        &b"\"\xE2\x82\""[..],
        b"\"s\xC0\xAF\"",
        b"\"\xED\xA0\x80\"",
        b"\"s\x80\"",
        b"\"\xFF\"",
    ] {
        frames.push(splice(send, r#""s""#, name));
        let untrackable = r#"{"op":"query","stream":"s","what":"untrackable"}"#;
        frames.push(splice(untrackable, r#""s""#, name));
    }
    frames
}

/// Every canonical shape is taken by the scanner (if it took none, every
/// other test here would still pass), and answers what the tree path
/// answers — on streams that exist, so the engine runs, and on one that
/// does not.
#[test]
fn scanner_takes_every_canonical_shape() {
    let mut differential = Differential::new();
    // All but one of the names: the last stays unknown.
    for name in &canonical_names()[..4] {
        let open = format!(r#"{{"op":"open","stream":"{name}","processes":3}}"#);
        differential.step(open.as_bytes());
    }
    let frames = canonical_frames();
    assert_eq!(frames.len(), 5 * 18);
    for frame in &frames {
        assert!(differential.step(frame.as_bytes()), "not scanned: {frame}");
    }
    // The engines really ran: each open stream took three sends, two of
    // them delivered, two checkpoints and a crash.
    differential.step(br#"{"op":"query","stream":"s","what":"recovery-line"}"#);
    assert_eq!(differential.out, b"{\"ok\":true,\"line\":[1,0,1]}\n");
}

/// No near-miss is taken, and each is answered as the tree path answers it.
#[test]
fn scanner_leaves_near_misses_to_the_tree_parser() {
    let mut differential = Differential::new();
    differential.step(br#"{"op":"open","stream":"s","processes":3}"#);
    let (mut accepted, mut refused) = (0, 0);
    for frame in near_misses() {
        let shown = String::from_utf8_lossy(&frame).into_owned();
        assert_eq!(scan_request(&frame), None, "scanned: {shown}");
        assert!(!differential.step(&frame), "scanned: {shown}");
        if differential.out.starts_with(br#"{"ok":true"#) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    // Both kinds are in the list: other spellings of valid requests, and
    // requests that are refused.
    assert!(accepted >= 20 && refused >= 40, "{accepted} / {refused}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Raw byte soup: `Json::parse_bytes` and `parse_request` are total.
    #[test]
    fn byte_soup_never_panics(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        for _ in 0..200 {
            let len = rng.below(64);
            let bytes = random_bytes(&mut rng, len);
            let _ = Json::parse_bytes(&bytes);
            let _ = parse_request(&bytes);
        }
    }

    /// Scanner ⊆ tree, and one wire: over byte soup, the corpus as it
    /// stands, its respellings and its mutations, `scan_request` is `None`
    /// or what `parse_request` reads, and the daemon's per-frame entry
    /// answers every frame with the tree path's text — while the streams
    /// those frames open, feed, compact and close stay in step on both
    /// sides.
    #[test]
    fn scanner_is_a_subset_of_the_tree_parser(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let frames = valid_frames();
        let mut differential = Differential::new();
        let mut scanned = 0;
        for round in 0..600 {
            let bytes = match round % 6 {
                0 => {
                    let len = rng.below(64);
                    random_bytes(&mut rng, len)
                }
                1 | 2 => frames[rng.below(frames.len())].clone().into_bytes(),
                _ => respell(&mut rng, &frames),
            };
            scanned += usize::from(differential.step(&bytes));
        }
        // A third of the rounds are corpus frames, most of them hot ops.
        prop_assert!(scanned >= 100, "{} frames scanned", scanned);
    }

    /// Mutated valid frames: parsing stays total, and feeding every
    /// parse that *succeeds* into a live shard never panics and never
    /// corrupts a healthy co-tenant stream.
    #[test]
    fn mutated_streams_never_panic_or_corrupt(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let frames = valid_frames();

        let mut streams: BTreeMap<String, StreamEngine> = BTreeMap::new();
        // A healthy co-tenant whose state must survive the storm.
        let healthy = parse_request(
            br#"{"op":"open","stream":"healthy","processes":2}"#
        ).expect("valid open");
        handle_request(&mut streams, &healthy);
        let cp = parse_request(
            br#"{"op":"event","stream":"healthy","type":"checkpoint","process":0}"#
        ).expect("valid event");
        handle_request(&mut streams, &cp);

        for _ in 0..300 {
            let bytes = mutate(&mut rng, &frames);
            if let Ok(req) = parse_request(&bytes) {
                // Daemon-scoped requests are server-side; shard-side
                // requests all route through handle_request.
                let reply = handle_request(&mut streams, &req);
                prop_assert!(reply.get("ok").is_some());
            }
        }

        // The co-tenant still answers as if nothing happened.
        let q = parse_request(
            br#"{"op":"query","stream":"healthy","what":"recovery-line"}"#
        ).expect("valid query");
        let reply = handle_request(&mut streams, &q);
        prop_assert_eq!(reply.to_string(), r#"{"ok":true,"line":[1,0]}"#);
    }

    /// Mutated stream snapshots. The `version` of the engine document is
    /// flipped: 3 and 2 restore (a version 2 document is a version 3 one
    /// with derived tables that are skipped), 1 is refused here (a version 3
    /// body does not have version 1's `msgs` width), anything else is an
    /// unsupported version — all `admin` errors. Stray chain-layer keys
    /// injected into the document (the top-level tables of version 1, or a
    /// `chains` object) and the tables version 3 derives (`send_events`,
    /// `deliver_events`, a matrix's `bwd`) are **ignored**, like any key the
    /// core does not know, whatever they hold; a key the core does know is
    /// refused when it comes twice. Bit flips in the text restore or are
    /// refused, never panic — through the tree wrapper and straight from
    /// the bytes alike.
    #[test]
    fn mutated_snapshots_restore_identically_or_are_refused(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let mut streams: BTreeMap<String, StreamEngine> = BTreeMap::new();
        for frame in &valid_frames()[..10] {
            handle_request(&mut streams, &parse_request(frame.as_bytes()).expect("valid"));
        }
        let doc = streams["s"].stream_snapshot("s");
        // The replies to the four query frames, then the re-snapshot.
        let answers = |engine: StreamEngine| {
            let mut one = BTreeMap::from([("s".to_string(), engine)]);
            let mut out: Vec<String> = valid_frames()[5..9]
                .iter()
                .map(|q| {
                    let query = parse_request(q.as_bytes()).expect("valid");
                    handle_request(&mut one, &query).to_string()
                })
                .collect();
            out.push(one["s"].stream_snapshot("s").to_string());
            out
        };
        let expected = answers(StreamEngine::from_stream_snapshot(&doc).expect("restores").1);
        prop_assert_eq!(&expected[4], &doc.to_string());

        // `doc["engine"]` with `key` set to (or given) `value`.
        let with_engine_key = |key: &str, value: Json| {
            let Json::Obj(mut outer) = doc.clone() else { panic!("stream snapshot is an object") };
            let engine = &mut outer.iter_mut().find(|(k, _)| k == "engine").expect("engine").1;
            let Json::Obj(fields) = engine else { panic!("engine snapshot is an object") };
            match fields.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => fields.push((key.to_string(), value)),
            }
            Json::Obj(outer)
        };

        for version in [0u64, 1, 2, 3, 4, rng.next()] {
            let restored = StreamEngine::from_stream_snapshot(&with_engine_key("version", Json::U64(version)));
            match restored {
                Ok((_, engine)) => {
                    prop_assert!(version == 2 || version == 3);
                    prop_assert_eq!(answers(engine), expected.clone());
                }
                Err(err) => {
                    prop_assert!(version != 2 && version != 3);
                    prop_assert_eq!(err.kind, ErrorKind::Admin);
                    prop_assert_eq!(err.message.contains("unsupported snapshot version"), version != 1);
                }
            }
        }
        let junk = [Json::Null, Json::U64(rng.next()), Json::Arr(vec![Json::U64(9999); 3]), Json::obj([("recs", Json::Null)])];
        for key in [
            "zmat", "cmat", "z_slots", "c_spine", "c_delivs", "c_linked", "slot_base", "chain_floor", "chains",
            "send_events", "deliver_events", "bwd",
        ] {
            let stray = with_engine_key(key, junk[rng.below(junk.len())].clone());
            let (_, engine) = StreamEngine::from_stream_snapshot(&stray).expect("stray keys are ignored");
            prop_assert_eq!(answers(engine), expected.clone());
        }
        // A second copy of a table the core reads, appended after the first.
        let Some(Json::Obj(engine_fields)) = doc.get("engine") else { panic!("engine snapshot is an object") };
        let (key, value) = &engine_fields[rng.below(engine_fields.len())];
        let Json::Obj(mut outer) = doc.clone() else { panic!("stream snapshot is an object") };
        if let Some((_, Json::Obj(fields))) = outer.iter_mut().find(|(k, _)| k == "engine") {
            fields.push((key.clone(), value.clone()));
        }
        let err = StreamEngine::from_stream_snapshot(&Json::Obj(outer)).expect_err("a known key twice");
        prop_assert_eq!(err.kind, ErrorKind::Admin);
        prop_assert!(err.message.contains("appears twice"), "{}", err);

        for _ in 0..50 {
            let mut bytes = doc.to_string().into_bytes();
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
            let tables = StreamEngine::read_stream_snapshot(&mut JsonReader::new(&bytes));
            let direct = tables.and_then(StreamEngine::from_stream_tables);
            let parsed = Json::parse_bytes(&bytes);
            // Text the parser refuses, the reader refuses; text it takes
            // restores the same way through the wrapper.
            prop_assert!(parsed.is_ok() || direct.is_err());
            if let Ok(parsed) = parsed {
                let wrapped = StreamEngine::from_stream_snapshot(&parsed);
                prop_assert_eq!(wrapped.is_ok(), direct.is_ok());
                if let (Ok((_, a)), Ok((_, b))) = (wrapped, direct) {
                    prop_assert_eq!(answers(a), answers(b));
                }
            }
        }
    }

    /// Structurally valid JSON with adversarial *values* (huge numbers,
    /// wrong types, deep nesting) never panics the parser or the shard.
    #[test]
    fn adversarial_values_never_panic(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let scalars = [
            "0", "-1", "18446744073709551615", "99999999999999999999",
            "1e308", "null", "true", "\"x\"", "[]", "{}", "[[0,1]]",
        ];
        let keys = [
            "op", "stream", "processes", "type", "process", "from", "to",
            "message", "what", "members",
        ];
        let ops = [
            "open", "event", "query", "compact", "close", "streams",
            "snapshot", "ping",
        ];
        let mut streams: BTreeMap<String, StreamEngine> = BTreeMap::new();
        for _ in 0..200 {
            let mut frame = String::from("{");
            frame.push_str(&format!(r#""op":"{}""#, ops[rng.below(ops.len())]));
            for _ in 0..rng.below(6) {
                let key = keys[rng.below(keys.len())];
                let value = scalars[rng.below(scalars.len())];
                frame.push_str(&format!(r#","{key}":{value}"#));
            }
            frame.push('}');
            if let Ok(req) = parse_request(frame.as_bytes()) {
                handle_request(&mut streams, &req);
            }
        }
        // Deep nesting: rejected by the depth limit, not a stack overflow.
        let deep = "[".repeat(4000) + &"]".repeat(4000);
        prop_assert!(Json::parse_bytes(deep.as_bytes()).is_err());
    }
}
