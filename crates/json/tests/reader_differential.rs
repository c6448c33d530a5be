//! [`JsonReader`] against the tree parser, and the tree parser against the
//! parser it replaced.
//!
//! [`Json::parse_bytes`] is a walk over a [`JsonReader`], so the two cannot
//! disagree with each other; what can move is what both of them say. The
//! corpus below — the unit tests' parser inputs, xorshift byte soup over a
//! JSON-heavy alphabet, and every truncation and a set of single-byte
//! mutations of a pinned snapshot document — is therefore held to
//! [`PARENT_DIGEST`]: FNV-1a 64 over one line per input (`ok <compact text>`
//! or `err <offset> <message>`) as `Json::parse_bytes` answered **at the
//! parent of the commit that introduced the reader** (`b617060`, a
//! recursive-descent parser with its own number, string and keyword code).
//! It is never regenerated: the parser that computed it no longer exists.
//!
//! Beside it, a tree built through the reader's *typed* accessors (`u64`,
//! `bool`, `null`, `str`, the container steps) must equal the parsed tree,
//! value or error, input by input; and the typed-array reads, which run a
//! tight digit loop of their own, must agree with an item-by-item walk on
//! every shape that loop has to hand back: whitespace, a leading zero, a
//! 20th digit, a sign, a fraction, nesting, a trailing comma.

use rdt_json::{Json, JsonError, JsonReader};

const GOLDEN: &str = include_str!("../../rgraph/tests/golden/snapshot_v2.json");

/// FNV-1a 64 of the corpus transcript at `b617060`.
const PARENT_DIGEST: u64 = 0xb9ee_496f_6a50_d0f4;

/// The inputs of the parser's unit tests (`src/lib.rs`), valid and not.
const CORPUS: &[&[u8]] = &[
    b"0",
    b"-0",
    b"10",
    b"-10",
    b"1.5",
    b"-0.5",
    b"0.0",
    b"1e5",
    b"1E+5",
    b"1e-7",
    b"0e0",
    b"1.25e2",
    b"18446744073709551615",
    b"-9223372036854775808",
    b"-9223372036854775809",
    b"9999999999999999999",
    b"-9999999999999999999",
    b"18446744073709551616",
    b"99999999999999999999",
    b"123456789012345678901234567890",
    b"+1",
    b".5",
    b"1.",
    b"007",
    b"01.5",
    b"1e",
    b"1e+",
    b"-",
    b"--1",
    b"1+2",
    b"0x1",
    b"-.5",
    b"1.e3",
    b"1.5.2",
    b"1e5e5",
    b"00",
    b"-01",
    b"1-",
    b"e5",
    b"1e1.5",
    b"",
    b" ",
    b"{",
    b"[",
    b"[1,]",
    b"[,1]",
    b"{\"a\":1,}",
    b"{,}",
    b"{\"a\"}",
    b"{\"a\" 1}",
    b"{1:2}",
    b"true false",
    b"\"unterminated",
    b"nul",
    b"nulll",
    b"tru",
    b"fals",
    b"null",
    b"true",
    b"false",
    b" \t\r\n[ 1 , 2 ,\n{ \"k\" : [ ] , \"e\" : { } } ] \n",
    b"{\"n\": 3, \"xs\": [1.5], \"s\": \"hi\", \"flag\": false}",
    b"{\"a\":1,\"a\":2}",
    b"\"\\u\"",
    b"\"\\u1",
    b"\"\\u12",
    b"\"\\u123",
    b"\"\\u12\"",
    b"\"\\u+123\"",
    b"\"\\u 123\"",
    b"\"\\u12g4\"",
    b"\"\\u0041\"",
    b"\"\\uFFFD\"",
    b"\"\\uD800\"",
    b"\"\\uDBFF\"",
    b"\"\\uDC00\"",
    b"\"\\uDFFF\"",
    b"\"\\uD800\\uD800\"",
    b"\"\\uD800x\"",
    b"\"\\uD800\\n\"",
    b"\"\\uD834\\u\"",
    b"\"\\uD834\\uDD1E\"",
    b"\"\\q\"",
    b"\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"",
    b"\"line\nbreak\"",
    b"\"\xE2\x82\"",
    b"\"\x80\"",
    b"\"\xC0\xAF\"",
    b"\"\xF5\x80\x80\x80\"",
    b"\"\xE2\x82",
    b"\"\xE2\x82\xAC\"",
    b"\"\xF0\x9D\x84\x9E\"",
];

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 as usize) % n
    }
}

/// What a parse answered, as one line of the transcript.
fn line(result: &Result<Json, JsonError>) -> String {
    match result {
        Ok(value) => format!("ok {value}"),
        Err(e) => format!("err {} {}", e.offset, e.message),
    }
}

/// Every input of the differential, in transcript order.
fn inputs() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = CORPUS.iter().map(|input| input.to_vec()).collect();
    // Nesting at, one below and far above the bound, arrays and objects.
    for depth in [rdt_json::MAX_DEPTH - 1, rdt_json::MAX_DEPTH, 100_000] {
        inputs.push("[".repeat(depth).into_bytes());
        inputs.push(("[".repeat(depth) + &"]".repeat(depth)).into_bytes());
        inputs.push(("{\"k\":".repeat(depth) + "1" + &"}".repeat(depth)).into_bytes());
    }
    // Byte soup: short strings over the bytes a JSON lexer branches on.
    const ALPHABET: &[u8] = b"{}[]\",:0123456789.eE+-\\utrnfals \t\n\x00\x7f\x80\xc3\xa9\xff";
    let mut rng = Rng(0x5eed_0021);
    for _ in 0..20_000 {
        let len = 1 + rng.below(24);
        inputs.push(
            (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                .collect(),
        );
    }
    // The golden: every proper prefix, and at every offset a byte from each
    // class of the grammar.
    let golden = GOLDEN.trim_end().as_bytes();
    inputs.push(golden.to_vec());
    inputs.extend((0..golden.len()).map(|cut| golden[..cut].to_vec()));
    for at in 0..golden.len() {
        for byte in *b"\",]0 -.\xff" {
            if golden[at] != byte {
                let mut mutated = golden.to_vec();
                mutated[at] = byte;
                inputs.push(mutated);
            }
        }
    }
    inputs
}

/// The next value as a tree, through the typed accessors.
fn typed_tree(r: &mut JsonReader<'_>) -> Result<Json, JsonError> {
    match r.peek()? {
        b'{' => {
            r.begin_object()?;
            let mut pairs = Vec::new();
            while let Some(key) = r.next_key()? {
                pairs.push((key, typed_tree(r)?));
            }
            Ok(Json::Obj(pairs))
        }
        b'[' => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(typed_tree(r)?);
            }
            Ok(Json::Arr(items))
        }
        b'"' => r.str().map(Json::Str),
        b't' | b'f' => r.bool().map(Json::Bool),
        b'n' => r.null().map(|()| Json::Null),
        _ => {
            // `u64` where it applies, the general number otherwise.
            let mut probe = r.clone();
            match probe.u64() {
                Ok(value) => {
                    *r = probe;
                    Ok(Json::U64(value))
                }
                Err(_) => r.value(),
            }
        }
    }
}

fn typed_parse(bytes: &[u8]) -> Result<Json, JsonError> {
    let mut r = JsonReader::new(bytes);
    let value = typed_tree(&mut r)?;
    r.end()?;
    Ok(value)
}

#[test]
fn reader_and_parser_answer_like_the_parser_they_replaced() {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for input in inputs() {
        let parsed = Json::parse_bytes(&input);
        let transcript = line(&parsed);
        let typed = line(&typed_parse(&input));
        assert_eq!(typed, transcript, "{:?}", String::from_utf8_lossy(&input));
        for &b in transcript.as_bytes().iter().chain(b"\n") {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(digest, PARENT_DIGEST, "{digest:#018x}");
}

/// An item-by-item read of an array of unsigned integers.
fn walk<T: TryFrom<u64>>(bytes: &[u8], what: &str) -> Result<Vec<T>, JsonError> {
    let mut r = JsonReader::new(bytes);
    let mut out = Vec::new();
    r.begin_array()?;
    while r.next_item()? {
        let at = {
            r.peek()?;
            r.offset()
        };
        let item = T::try_from(r.u64()?).map_err(|_| JsonError {
            offset: at,
            message: format!("expected {what}"),
        })?;
        out.push(item);
    }
    r.end()?;
    Ok(out)
}

#[test]
fn typed_arrays_agree_with_the_general_walk() {
    let cases: &[&str] = &[
        "[]",
        "[0]",
        "[7]",
        "[1,2,3]",
        "[4294967295,0,4294967295]",
        "[4294967296]",
        "[9999999999999999999]",
        "[18446744073709551615]",
        "[18446744073709551616]",
        "[99999999999999999999]",
        "[27670116110564327424]",
        "[1,99999999999999999999,2]",
        "[007]",
        "[00]",
        "[01]",
        "[1,02]",
        "[0,0,10]",
        "[ ]",
        "[ 1]",
        "[1 ]",
        "[1, 2]",
        "[1 ,2]",
        "[\n1,\t2\r]",
        " [1,2]",
        "[1,2] ",
        "[-1]",
        "[-0]",
        "[1,-2]",
        "[1.0]",
        "[1.5]",
        "[1e3]",
        "[1E3]",
        "[1,2.0,3]",
        "[+1]",
        "[[1]]",
        "[1,[2]]",
        "[{}]",
        "[\"1\"]",
        "[true]",
        "[null]",
        "[1,]",
        "[,]",
        "[,1]",
        "[1,,2]",
        "[1",
        "[1,",
        "[",
        "",
        "1",
        "{}",
        "[1]]",
        "[1]x",
        "[1x]",
        "[12a,3]",
    ];
    for case in cases {
        let bytes = case.as_bytes();
        let mut r = JsonReader::new(bytes);
        let mut wide = vec![9u64];
        let read = r.u64s_into(&mut wide).and_then(|()| r.end());
        let expected = walk::<u64>(bytes, "an unsigned integer");
        match (&read, &expected) {
            (Ok(()), Ok(items)) => assert_eq!(wide[1..], items[..], "{case}: appended"),
            _ => assert_eq!(read.err(), expected.clone().err(), "{case}"),
        }
        assert_eq!(wide[0], 9, "{case}: what was there stays");

        let mut r = JsonReader::new(bytes);
        let mut narrow = Vec::new();
        let read = r.u32s_into(&mut narrow).and_then(|()| r.end());
        let expected = walk::<u32>(bytes, "an unsigned 32-bit integer");
        match (&read, &expected) {
            (Ok(()), Ok(items)) => assert_eq!(&narrow, items, "{case}"),
            _ => assert_eq!(read.err(), expected.clone().err(), "{case}: u32"),
        }
    }
    // Inside a document: the read stops after its array and the next step
    // sees what follows, at every nesting bound.
    let mut r = JsonReader::new(b"{\"a\":[1,2],\"b\":[ 3 ],\"c\":[]}");
    let mut out = Vec::new();
    r.begin_object().unwrap();
    while r.next_key().unwrap().is_some() {
        r.u32s_into(&mut out).unwrap();
    }
    r.end().unwrap();
    assert_eq!(out, [1, 2, 3]);
    for (depth, ok) in [
        (rdt_json::MAX_DEPTH - 1, true),
        (rdt_json::MAX_DEPTH, false),
    ] {
        let text = "[".repeat(depth) + "[1]" + &"]".repeat(depth);
        let mut r = JsonReader::new(text.as_bytes());
        for _ in 0..depth {
            r.begin_array().unwrap();
            assert!(r.next_item().unwrap());
        }
        assert_eq!(r.u32s_into(&mut out).is_ok(), ok, "depth {depth}");
        assert_eq!(Json::parse(&text).is_ok(), ok, "depth {depth}");
    }
}

/// `skip_value` passes over exactly one value, whatever it is, and rejects
/// what the parser rejects at the offset the parser rejects it.
#[test]
fn skipping_is_parsing_without_the_tree() {
    for input in inputs().iter().take(CORPUS.len() + 9 + 2_000) {
        let mut r = JsonReader::new(input);
        let skipped = r.skip_value().and_then(|()| r.end());
        let parsed = Json::parse_bytes(input).map(|_| ());
        assert_eq!(skipped, parsed, "{:?}", String::from_utf8_lossy(input));
    }
    let mut r = JsonReader::new(b"[{\"a\":[1,{\"b\":null}],\"c\":\"x\"},7]");
    r.begin_array().unwrap();
    assert!(r.next_item().unwrap());
    r.skip_value().unwrap();
    assert!(r.next_item().unwrap());
    assert_eq!(r.u64(), Ok(7));
    assert!(!r.next_item().unwrap());
    r.end().unwrap();
}
