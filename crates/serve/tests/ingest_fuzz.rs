//! Fuzzing the daemon's ingest path: arbitrary bytes and mutated valid
//! frames must never panic anywhere between the socket and the engines —
//! they come back as structured error replies, and the streams that were
//! already open keep answering correctly afterwards. The same holds for
//! the other door into an engine, the snapshot document: a mutated stream
//! snapshot restores to the same answers or is refused, nothing else.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdt_json::Json;
use rdt_serve::{handle_request, ok_reply, parse_request, ErrorKind, StreamEngine};

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
        prop_assert_eq!(
            reply.to_string(),
            ok_reply(vec![(
                "line",
                Json::Arr(vec![Json::U64(1), Json::U64(0)])
            )])
            .to_string()
        );
    }

    /// Mutated stream snapshots. The `version` of the engine document is
    /// flipped: 2 restores, 1 is refused here (a version 2 body does not
    /// have version 1's `msgs` width), anything else is an unsupported
    /// version — all `admin` errors. Stray chain-layer keys injected into a
    /// version 2 document (the top-level tables of version 1, or a `chains`
    /// object) are **ignored**, like any key the core does not know: the
    /// daemon's engine has no chain table they could corrupt. Bit flips in
    /// the text restore or are refused, never panic.
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

        for version in [0u64, 1, 2, 3, rng.next()] {
            let restored = StreamEngine::from_stream_snapshot(&with_engine_key("version", Json::U64(version)));
            match restored {
                Ok((_, engine)) => {
                    prop_assert_eq!(version, 2);
                    prop_assert_eq!(answers(engine), expected.clone());
                }
                Err(err) => {
                    prop_assert_ne!(version, 2);
                    prop_assert_eq!(err.kind, ErrorKind::Admin);
                    prop_assert_eq!(err.message.contains("unsupported snapshot version"), version != 1);
                }
            }
        }
        let junk = [Json::Null, Json::U64(rng.next()), Json::Arr(vec![Json::U64(9999); 3]), Json::obj([("recs", Json::Null)])];
        for key in ["zmat", "cmat", "z_slots", "c_spine", "c_delivs", "c_linked", "slot_base", "chain_floor", "chains"] {
            let stray = with_engine_key(key, junk[rng.below(junk.len())].clone());
            let (_, engine) = StreamEngine::from_stream_snapshot(&stray).expect("stray chain keys are ignored");
            prop_assert_eq!(answers(engine), expected.clone());
        }
        for _ in 0..50 {
            let mut bytes = doc.to_string().into_bytes();
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
            if let Ok(parsed) = Json::parse_bytes(&bytes) {
                if let Ok((_, engine)) = StreamEngine::from_stream_snapshot(&parsed) {
                    let _ = answers(engine);
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
