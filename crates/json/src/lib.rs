//! Dependency-free JSON for the RDT workspace.
//!
//! The build container has no crates.io access, so `serde`/`serde_json`
//! are unavailable; this crate provides the small JSON kernel the
//! workspace needs instead:
//!
//! * [`Json`] — an ordered JSON value (object keys keep insertion order,
//!   so emitted reports are stable and diffable),
//! * [`Json::pretty`] / [`Display`](std::fmt::Display) — pretty and
//!   compact writers,
//! * [`JsonWriter`] — the compact form written straight into a byte buffer,
//!   for documents too large to be worth building as a tree first,
//! * [`JsonReader`] — its twin: text read in place, one typed step at a
//!   time, for documents too large to be worth parsing into a tree first,
//! * [`Json::parse`] — a strict parser, which is a walk over the reader: the
//!   grammar, and the wording and offset of every error, exist once,
//! * [`ToJson`] — the serialization trait experiment results and traces
//!   implement by hand (tuples and `Vec`s compose automatically).
//!
//! # Example
//!
//! ```rust
//! use rdt_json::{Json, ToJson};
//!
//! let value = Json::obj([("name", "fig7".to_json()), ("rows", vec![1u64, 2].to_json())]);
//! let text = value.pretty();
//! assert!(text.contains("\"name\": \"fig7\""));
//! assert_eq!(Json::parse(&text).unwrap(), value);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (emitted without a fraction).
    U64(u64),
    /// A signed integer (emitted without a fraction).
    I64(i64),
    /// A finite float (non-finite values are emitted as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser stopped at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(v) => Some(v),
            Json::I64(v) => u64::try_from(v).ok(),
            // `u64::MAX as f64` rounds up to 2⁶⁴, the first float out of range.
            Json::F64(v) if v >= 0.0 && v.fract() == 0.0 && v < u64::MAX as f64 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (serde_json style).
    pub fn pretty(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out, Some(0));
        into_text(out)
    }

    /// Appends the compact form (what [`Display`](std::fmt::Display)
    /// renders) to `out`.
    pub fn write_compact(&self, out: &mut Vec<u8>) {
        self.write(out, None);
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => push_bool(out, *b),
            Json::U64(v) => push_u64(out, *v),
            Json::I64(v) => push_i64(out, *v),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{:?}` keeps a fraction ("1.0") so floats re-parse as
                    // floats. Writing to a `Vec` cannot fail.
                    let _ = write!(out, "{v:?}");
                } else {
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    match indent {
                        Some(level) => {
                            out.push(b'\n');
                            push_indent(out, level + 1);
                            item.write(out, Some(level + 1));
                        }
                        None => item.write(out, None),
                    }
                }
                if let Some(level) = indent {
                    out.push(b'\n');
                    push_indent(out, level);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    match indent {
                        Some(level) => {
                            out.push(b'\n');
                            push_indent(out, level + 1);
                            push_escaped(out, key);
                            out.extend_from_slice(b": ");
                            value.write(out, Some(level + 1));
                        }
                        None => {
                            push_escaped(out, key);
                            out.push(b':');
                            value.write(out, None);
                        }
                    }
                }
                if let Some(level) = indent {
                    out.push(b'\n');
                    push_indent(out, level);
                }
                out.push(b'}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Json::parse_bytes(text.as_bytes())
    }

    /// Parses a complete JSON document from raw bytes.
    ///
    /// The parser is **total**: for *any* byte input it returns either a
    /// value or a [`JsonError`] — never a panic. Invalid UTF-8 inside a
    /// string, truncated `\u` escapes, lone surrogate halves, and
    /// pathological nesting (deeper than [`MAX_DEPTH`]) are all reported
    /// as errors with the byte offset the parser stopped at. This is the
    /// entry point for untrusted input (socket frames, files from other
    /// tools); [`Json::parse`] wraps it for already-valid UTF-8.
    pub fn parse_bytes(bytes: &[u8]) -> Result<Json, JsonError> {
        let mut reader = JsonReader::new(bytes);
        let value = reader.value()?;
        reader.end()?;
        Ok(value)
    }
}

/// Maximum container nesting [`Json::parse_bytes`] and [`JsonReader`]
/// accept. The tree walk recurses per nesting level, so unbounded depth
/// would let a short adversarial input (`[[[[…`) overflow the stack; 128
/// levels is far beyond anything the workspace's writers emit.
pub const MAX_DEPTH: usize = 128;

impl fmt::Display for Json {
    /// Compact form (no whitespace).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.write(&mut out, None);
        f.write_str(&into_text(out))
    }
}

// -------------------------------------------------------------- writer ---

/// The text of a rendered document. Every writer below appends ASCII or
/// whole `str`s, so the conversion never takes its lossy branch; it is
/// there so that rendering stays total.
fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

fn push_indent(out: &mut Vec<u8>, level: usize) {
    for _ in 0..level {
        out.extend_from_slice(b"  ");
    }
}

fn push_bool(out: &mut Vec<u8>, value: bool) {
    out.extend_from_slice(if value { b"true" } else { b"false" });
}

/// `00`, `01`, … `99`: two decimal digits per table step.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `value` in decimal: the digits fill a stack buffer from the
/// back, two per division, and are copied out once. A single digit — two
/// numbers in three of a snapshot — skips the buffer.
fn push_u64(out: &mut Vec<u8>, mut value: u64) {
    if value < 10 {
        out.push(b'0' + value as u8);
        return;
    }
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    // `value < 100` now: one more pair, less its leading zero.
    let pair = value as usize * 2;
    at -= 2;
    buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    out.extend_from_slice(&buf[at + usize::from(value < 10)..]);
}

fn push_i64(out: &mut Vec<u8>, value: i64) {
    if value < 0 {
        out.push(b'-');
    }
    push_u64(out, value.unsigned_abs());
}

/// Appends `s` as a JSON string: quoted, with `"`, `\` and the control
/// characters escaped. Every other byte — multi-byte UTF-8 sequences
/// included — is copied through in runs.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut copied = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x00..=0x1F => b'u',
            _ => continue,
        };
        out.extend_from_slice(&bytes[copied..i]);
        copied = i + 1;
        out.extend_from_slice(&[b'\\', short]);
        if short == b'u' {
            let digits = [HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xF)]];
            out.extend_from_slice(b"00");
            out.extend_from_slice(&digits);
        }
    }
    out.extend_from_slice(&bytes[copied..]);
    out.push(b'"');
}

/// Writes compact JSON text straight into a byte buffer, without a
/// [`Json`] tree in between.
///
/// The writer emits exactly what [`Display`](std::fmt::Display) emits for
/// the equivalent tree — same integer formatter, same string escaper, no
/// whitespace — so `Json::parse_bytes(text)?.to_string()` is `text` again.
/// It keeps one bit of state, whether the next key or value needs a comma
/// before it, and does not check that containers are balanced or that
/// object members have keys: it is for code that writes a fixed document
/// shape, and a test that parses the output holds that shape.
///
/// ```rust
/// use rdt_json::{Json, JsonWriter};
///
/// let mut out = Vec::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.begin_object();
/// w.key("name");
/// w.str("fig7");
/// w.key("rows");
/// w.u32s(&[1, 2]);
/// w.end_object();
/// assert_eq!(out, br#"{"name":"fig7","rows":[1,2]}"#);
/// assert_eq!(Json::parse_bytes(&out).unwrap().to_string().as_bytes(), out);
/// ```
#[derive(Debug)]
pub struct JsonWriter<'a> {
    out: &'a mut Vec<u8>,
    /// Whether a `,` goes before the next key or value.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending one document (or one value) to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        JsonWriter { out, comma: false }
    }

    /// The separator before a value, and the state after it.
    fn value(&mut self) {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
    }

    fn open(&mut self, bracket: u8) {
        self.value();
        self.out.push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.comma = true;
    }

    /// Opens an object; its members are [`key`](JsonWriter::key) and value
    /// calls up to the matching [`end_object`](JsonWriter::end_object).
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Closes the innermost open object.
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// Opens an array; its items are the value calls up to the matching
    /// [`end_array`](JsonWriter::end_array).
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Closes the innermost open array.
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// The key of the next object member; the next call writes its value
    /// (`w.key("n").u64(3)`).
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.value();
        push_escaped(self.out, key);
        self.out.push(b':');
        self.comma = false;
        self
    }

    /// An unsigned integer.
    pub fn u64(&mut self, value: u64) {
        self.value();
        push_u64(self.out, value);
    }

    /// `null`.
    pub fn null(&mut self) {
        self.value();
        self.out.extend_from_slice(b"null");
    }

    /// `true` / `false`.
    pub fn bool(&mut self, value: bool) {
        self.value();
        push_bool(self.out, value);
    }

    /// A string.
    pub fn str(&mut self, value: &str) {
        self.value();
        push_escaped(self.out, value);
    }

    /// A value that is already compact JSON text (a document written
    /// earlier, say), copied through as it is.
    pub fn raw(&mut self, text: &[u8]) {
        self.value();
        self.out.extend_from_slice(text);
    }

    /// An array with one `each` call per item.
    pub fn array<T>(&mut self, items: &[T], mut each: impl FnMut(&mut Self, &T)) {
        self.begin_array();
        for item in items {
            each(self, item);
        }
        self.end_array();
    }

    /// An array of unsigned integers.
    pub fn u32s(&mut self, values: &[u32]) {
        self.array(values, |w, &v| w.u64(u64::from(v)));
    }

    /// The buffer being written to, between two values: a caller streaming
    /// a long document may hand what it holds on and clear it, and the
    /// writer goes on where it stopped (the separators are its own state).
    pub fn buffer(&mut self) -> &mut Vec<u8> {
        self.out
    }
}

// -------------------------------------------------------------- lexers ---
//
// The scalar grammar, once: the reader below is the only caller, and the
// tree parser is a walk over the reader.

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, format!("expected {:?}", byte as char)))
    }
}

fn lex_keyword(bytes: &[u8], pos: &mut usize, keyword: &str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(())
    } else {
        Err(err(*pos, format!("expected `{keyword}`")))
    }
}

/// Reads the 4 hex digits of a `\uXXXX` escape at `*pos` (positioned on
/// the `u`). Strict: exactly four ASCII hex digits — `from_str_radix`
/// would also accept a leading `+`, so the digits are validated by hand.
fn lex_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let hex = bytes
        .get(*pos + 1..*pos + 5)
        .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
    let mut code = 0u32;
    for &b in hex {
        let digit = match b {
            b'0'..=b'9' => u32::from(b - b'0'),
            b'a'..=b'f' => u32::from(b - b'a') + 10,
            b'A'..=b'F' => u32::from(b - b'A') + 10,
            _ => return Err(err(*pos, "invalid \\u escape")),
        };
        code = code << 4 | digit;
    }
    *pos += 4;
    Ok(code)
}

fn lex_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let escape_start = *pos - 1;
                        let code = lex_hex4(bytes, pos)?;
                        let c = match code {
                            // High surrogate: must be followed by
                            // `\uDC00`–`\uDFFF`; combine the pair.
                            0xD800..=0xDBFF => {
                                if bytes.get(*pos + 1..*pos + 3) != Some(b"\\u".as_slice()) {
                                    return Err(err(
                                        escape_start,
                                        "unpaired high surrogate in \\u escape",
                                    ));
                                }
                                *pos += 2;
                                let low = lex_hex4(bytes, pos)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(err(
                                        escape_start,
                                        "high surrogate not followed by a low surrogate",
                                    ));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined).ok_or_else(|| {
                                    err(escape_start, "invalid surrogate pair in \\u escape")
                                })?
                            }
                            0xDC00..=0xDFFF => {
                                return Err(err(
                                    escape_start,
                                    "unpaired low surrogate in \\u escape",
                                ));
                            }
                            _ => char::from_u32(code)
                                .ok_or_else(|| err(escape_start, "invalid \\u escape"))?,
                        };
                        out.push(c);
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(&first) => {
                // Consume one UTF-8 character, decoding incrementally
                // from the raw bytes so a partial trailing sequence is a
                // reported error, not a panic.
                let len = match first {
                    0x00..=0x1F => return Err(err(*pos, "unescaped control character")),
                    0x20..=0x7F => 1,
                    0xC2..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF4 => 4,
                    _ => return Err(err(*pos, "invalid UTF-8")),
                };
                let seq = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| err(*pos, "invalid UTF-8"))?;
                let s = std::str::from_utf8(seq).map_err(|_| err(*pos, "invalid UTF-8"))?;
                out.push_str(s);
                *pos += len;
            }
        }
    }
}

/// Whether `text` — a run of digits, `.`, `e`, `E`, `+`, `-` — is a number
/// of RFC 8259: `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`.
/// `str::parse` is laxer (`+1`, `.5`, `1.`, `007`), so the run is held to
/// the grammar before it gets there.
fn is_rfc8259_number(text: &[u8]) -> bool {
    /// Where in the grammar the next byte falls.
    #[derive(Clone, Copy)]
    enum At {
        /// Before the first digit of the integer part.
        IntStart,
        /// After a leading `0`: no further integer digit may follow.
        IntZero,
        /// Inside `[1-9][0-9]*`.
        Int,
        /// After the `.`: a digit must follow.
        FracStart,
        /// Inside the fraction's digits.
        Frac,
        /// After `e` / `E`: a sign or a digit must follow.
        ExpSign,
        /// After the exponent's sign: a digit must follow.
        ExpStart,
        /// Inside the exponent's digits.
        Exp,
    }
    let digits = text.strip_prefix(b"-").unwrap_or(text);
    let mut at = At::IntStart;
    for &b in digits {
        at = match (at, b) {
            (At::IntStart, b'0') => At::IntZero,
            (At::IntStart, b'1'..=b'9') | (At::Int, b'0'..=b'9') => At::Int,
            (At::IntZero | At::Int, b'.') => At::FracStart,
            (At::FracStart | At::Frac, b'0'..=b'9') => At::Frac,
            (At::IntZero | At::Int | At::Frac, b'e' | b'E') => At::ExpSign,
            (At::ExpSign, b'+' | b'-') => At::ExpStart,
            (At::ExpSign | At::ExpStart | At::Exp, b'0'..=b'9') => At::Exp,
            _ => return false,
        };
    }
    matches!(at, At::IntZero | At::Int | At::Frac | At::Exp)
}

/// The run of decimal digits at `at`: its value modulo 2⁶⁴ and where it
/// ends. Nineteen digits cannot wrap, so a caller that bounds the length
/// has the exact value.
#[inline]
fn lex_digits(bytes: &[u8], mut at: usize) -> (u64, usize) {
    let mut value = 0u64;
    while let Some(digit) = bytes.get(at).map(|b| b.wrapping_sub(b'0')) {
        if digit > 9 {
            break;
        }
        value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
        at += 1;
    }
    (value, at)
}

/// The digits of an integer that needs no further look: 1 to 19 of them
/// (they fit a `u64`) and no leading zero.
#[inline]
fn is_plain_integer(bytes: &[u8], start: usize, end: usize) -> bool {
    let len = end - start;
    (1..=19).contains(&len) && (len == 1 || bytes[start] != b'0')
}

/// The number at `*pos`, as [`Json::U64`], [`Json::I64`] or [`Json::F64`].
///
/// A snapshot is unsigned integers of a few digits almost throughout, so
/// those are read in one pass over their digits: an optional `-`, 1 to 19
/// digits without a leading zero, and no `.`, exponent or sign after them.
/// Every other run — a 20th digit, a fraction, whatever is malformed —
/// takes the general path: delimit the run, hold it to the grammar, and
/// let `str::parse` convert it.
fn lex_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    let negative = bytes.get(start) == Some(&b'-');
    let first = start + usize::from(negative);
    let (value, end) = lex_digits(bytes, first);
    if is_plain_integer(bytes, first, end)
        && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        let fast = match negative {
            false => Some(Json::U64(value)),
            true => 0i64.checked_sub_unsigned(value).map(Json::I64),
        };
        if let Some(number) = fast {
            *pos = end;
            return Ok(number);
        }
    }

    if negative {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    // The scanned range is digits/sign/dot/exponent bytes only, so this
    // conversion cannot fail; still, stay total rather than `expect`.
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err(start, "invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(err(start, "expected a value"));
    }
    // Digits alone, after at most one `-`, break the grammar only by a
    // leading zero; the state machine is for the runs with a `.`, an
    // exponent or a further sign.
    let valid = if is_float {
        is_rfc8259_number(text.as_bytes())
    } else {
        let digits = text.strip_prefix('-').unwrap_or(text);
        digits.len() == 1 || !digits.starts_with('0')
    };
    if !valid {
        return Err(err(start, format!("invalid number `{text}`")));
    }
    if !is_float {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Json::I64(v));
        }
    }
    text.parse::<f64>()
        .map(Json::F64)
        .map_err(|_| err(start, format!("invalid number `{text}`")))
}

// -------------------------------------------------------------- reader ---

/// Reads JSON text in place, one step at a time, without a [`Json`] tree
/// in between: the twin of [`JsonWriter`].
///
/// The caller walks the document's shape — `begin_object`, then `next_key`
/// until it returns `None`; `begin_array`, then `next_item` until it returns
/// `false` — and takes each value with the accessor of the type it expects
/// (`u64`, `bool`, `str`, the typed arrays), with [`value`](JsonReader::value)
/// where it wants a tree after all, or with
/// [`skip_value`](JsonReader::skip_value) where it wants nothing. A value
/// of another type, malformed text, nesting deeper than [`MAX_DEPTH`] and
/// invalid UTF-8 are all [`JsonError`]s carrying the byte offset; nothing
/// panics on any input. [`Json::parse_bytes`] is `value` followed by
/// [`end`](JsonReader::end), so the reader and the tree parser are one
/// grammar and word every error alike.
///
/// Like the writer, the reader does not check that the caller's steps are
/// balanced (a `next_key` inside an array reads whatever is there as a key
/// and reports what it finds); it is for code that reads a fixed document
/// shape.
///
/// ```rust
/// use rdt_json::JsonReader;
///
/// let mut r = JsonReader::new(br#"{"name":"fig7","rows":[1,2],"later":{"x":null}}"#);
/// let (mut name, mut rows) = (String::new(), Vec::new());
/// r.begin_object()?;
/// while let Some(key) = r.next_key()? {
///     match key.as_str() {
///         "name" => name = r.str()?,
///         "rows" => r.u32s_into(&mut rows)?,
///         _ => r.skip_value()?,
///     }
/// }
/// r.end()?;
/// assert_eq!((name.as_str(), &rows[..]), ("fig7", &[1, 2][..]));
/// # Ok::<(), rdt_json::JsonError>(())
/// ```
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// Whether the innermost container was opened and nothing read from it
    /// yet: its next member needs no `,` before it.
    fresh: bool,
}

impl<'a> JsonReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        JsonReader {
            bytes,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// The byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Skips whitespace and returns the first byte of the next value (or
    /// whatever stands where one should) without consuming it.
    pub fn peek(&mut self) -> Result<u8, JsonError> {
        skip_ws(self.bytes, &mut self.pos);
        match self.bytes.get(self.pos) {
            Some(&byte) => Ok(byte),
            None => Err(err(self.pos, "unexpected end of input")),
        }
    }

    /// Accepts only whitespace up to the end of the input.
    pub fn end(&mut self) -> Result<(), JsonError> {
        skip_ws(self.bytes, &mut self.pos);
        if self.pos != self.bytes.len() {
            return Err(err(self.pos, "trailing characters after the document"));
        }
        Ok(())
    }

    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        if self.peek()? != bracket {
            return Err(err(self.pos, format!("expected {:?}", bracket as char)));
        }
        if self.depth >= MAX_DEPTH {
            return Err(err(self.pos, "nesting deeper than the supported maximum"));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
        self.fresh = false;
    }

    /// Steps to the next member of the innermost container, over the `,`
    /// before it if it is not the first; `false` (and the container closed)
    /// at its closing `bracket`.
    fn next_member(&mut self, bracket: u8, expected: &str) -> Result<bool, JsonError> {
        skip_ws(self.bytes, &mut self.pos);
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.bytes.get(self.pos) {
            Some(&b) if b == bracket => {
                self.close();
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(err(self.pos, expected)),
        }
    }

    /// Opens an object: the next value must be one.
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// The key of the innermost object's next member, positioned on its
    /// value; `None` once the object is closed.
    pub fn next_key(&mut self) -> Result<Option<String>, JsonError> {
        if !self.next_member(b'}', "expected ',' or '}' in object")? {
            return Ok(None);
        }
        skip_ws(self.bytes, &mut self.pos);
        let key = lex_string(self.bytes, &mut self.pos)?;
        skip_ws(self.bytes, &mut self.pos);
        expect(self.bytes, &mut self.pos, b':')?;
        Ok(Some(key))
    }

    /// Opens an array: the next value must be one.
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// Whether the innermost array has another item, positioned on it;
    /// `false` once the array is closed.
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.next_member(b']', "expected ',' or ']' in array")
    }

    /// The next value, which must be an unsigned integer.
    pub fn u64(&mut self) -> Result<u64, JsonError> {
        let start = match self.peek()? {
            b'-' | b'0'..=b'9' => self.pos,
            _ => return Err(err(self.pos, "expected an unsigned integer")),
        };
        match lex_number(self.bytes, &mut self.pos)? {
            Json::U64(value) => Ok(value),
            _ => Err(err(start, "expected an unsigned integer")),
        }
    }

    /// The next value, which must be `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, JsonError> {
        match self.peek()? {
            b't' => lex_keyword(self.bytes, &mut self.pos, "true").map(|()| true),
            b'f' => lex_keyword(self.bytes, &mut self.pos, "false").map(|()| false),
            _ => Err(err(self.pos, "expected a boolean")),
        }
    }

    /// The next value, which must be `null`.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.peek()?;
        lex_keyword(self.bytes, &mut self.pos, "null")
    }

    /// The next value, which must be a string.
    pub fn str(&mut self) -> Result<String, JsonError> {
        self.peek()?;
        lex_string(self.bytes, &mut self.pos)
    }

    /// The next value, whatever it is, as a tree.
    pub fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek()? {
            b'n' => self.null().map(|()| Json::Null),
            b't' | b'f' => self.bool().map(Json::Bool),
            b'"' => self.str().map(Json::Str),
            b'[' => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            b'{' => {
                self.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key()? {
                    pairs.push((key, self.value()?));
                }
                Ok(Json::Obj(pairs))
            }
            _ => lex_number(self.bytes, &mut self.pos),
        }
    }

    /// Passes over the next value, whatever it is, checking it as
    /// [`value`](JsonReader::value) would and keeping nothing.
    pub fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek()? {
            b'[' => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            b'{' => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            _ => self.value().map(drop),
        }
    }

    /// Appends the items of the next value, which must be an array of
    /// unsigned integers that fit a `u32`, to `out`.
    pub fn u32s_into(&mut self, out: &mut Vec<u32>) -> Result<(), JsonError> {
        self.uints_into(out, "expected an unsigned 32-bit integer")
    }

    /// Appends the items of the next value, which must be an array of
    /// unsigned integers, to `out`.
    pub fn u64s_into(&mut self, out: &mut Vec<u64>) -> Result<(), JsonError> {
        self.uints_into(out, "expected an unsigned integer")
    }

    /// The typed-array read. The compact form a [`JsonWriter`] emits —
    /// `[` digits `,` digits … `]`, each number 1 to 19 digits with no
    /// leading zero — is taken by a loop over the digits that looks at
    /// nothing else. Anything that loop does not expect (whitespace, a
    /// leading zero, a 20th digit, a sign, a fraction, an item out of `T`'s
    /// range, a stray comma, the end of the input) rewinds to the `[` and
    /// reads the array item by item, which accepts what the grammar allows
    /// and words the error for what it does not.
    fn uints_into<T: TryFrom<u64>>(
        &mut self,
        out: &mut Vec<T>,
        expected: &str,
    ) -> Result<(), JsonError> {
        self.begin_array()?;
        let (rewind, kept) = (self.pos, out.len());
        if self.compact_uints_into(out) {
            return Ok(());
        }
        self.pos = rewind;
        out.truncate(kept);
        while self.next_item()? {
            self.peek()?;
            let start = self.pos;
            let item = T::try_from(self.u64()?).map_err(|_| err(start, expected))?;
            out.push(item);
        }
        Ok(())
    }

    /// The digit loop of [`uints_into`](JsonReader::uints_into), just inside
    /// the `[`: `true` with the array closed if it was compact throughout.
    fn compact_uints_into<T: TryFrom<u64>>(&mut self, out: &mut Vec<T>) -> bool {
        let bytes = self.bytes;
        let mut at = self.pos;
        if bytes.get(at) == Some(&b']') {
            self.close();
            return true;
        }
        loop {
            let (value, end) = lex_digits(bytes, at);
            if !is_plain_integer(bytes, at, end) {
                return false;
            }
            let Ok(item) = T::try_from(value) else {
                return false;
            };
            out.push(item);
            match bytes.get(end) {
                Some(b',') => at = end + 1,
                Some(b']') => {
                    self.pos = end;
                    self.close();
                    return true;
                }
                _ => return false,
            }
        }
    }
}

// -------------------------------------------------------------- ToJson ---

/// Hand-written serialization into [`Json`].
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

macro_rules! to_json_unsigned {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}
to_json_unsigned!(u8, u16, u32, u64, usize);

macro_rules! to_json_signed {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::I64(*self as i64)
            }
        }
    )*};
}
to_json_signed!(i8, i16, i32, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

macro_rules! to_json_tuple {
    ($(($($name:ident . $idx:tt),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_json()),+])
            }
        }
    )*};
}
to_json_tuple! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_matches_serde_style() {
        let value = Json::obj([
            ("name", "figY".to_json()),
            ("rows", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let text = value.pretty();
        assert!(text.contains("\"name\": \"figY\""), "{text}");
        assert!(text.starts_with("{\n  \"name\""), "{text}");
        assert!(text.contains("\"empty\": []"), "{text}");
    }

    #[test]
    fn roundtrip_compact_and_pretty() {
        let value = Json::obj([
            ("a", Json::F64(0.5)),
            ("b", Json::I64(-3)),
            (
                "c",
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::Str("x\"y\n".into()),
                ]),
            ),
            ("d", Json::Obj(vec![])),
        ]);
        assert_eq!(Json::parse(&value.to_string()).unwrap(), value);
        assert_eq!(Json::parse(&value.pretty()).unwrap(), value);
    }

    #[test]
    fn floats_keep_their_fraction() {
        assert_eq!(Json::F64(1.0).to_string(), "1.0");
        assert_eq!(Json::parse("1.0").unwrap(), Json::F64(1.0));
        assert_eq!(Json::parse("7").unwrap(), Json::U64(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::I64(-7));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
    }

    /// The number grammar is RFC 8259's, not `str::parse`'s: no leading
    /// `+`, no bare or trailing `.`, no leading zeros, an exponent has
    /// digits.
    #[test]
    fn number_grammar_is_rfc_8259() {
        for (text, value) in [
            ("0", Json::U64(0)),
            ("-0", Json::I64(0)),
            ("10", Json::U64(10)),
            ("-10", Json::I64(-10)),
            ("1.5", Json::F64(1.5)),
            ("-0.5", Json::F64(-0.5)),
            ("0.0", Json::F64(0.0)),
            ("1e5", Json::F64(1e5)),
            ("1E+5", Json::F64(1e5)),
            ("1e-7", Json::F64(1e-7)),
            ("0e0", Json::F64(0.0)),
            ("1.25e2", Json::F64(125.0)),
            ("18446744073709551615", Json::U64(u64::MAX)),
            ("-9223372036854775808", Json::I64(i64::MIN)),
            // Twenty digits and more no longer fit an integer.
            ("18446744073709551616", Json::F64(18446744073709551616.0)),
            ("99999999999999999999", Json::F64(1e20)),
        ] {
            assert_eq!(Json::parse(text), Ok(value.clone()), "{text}");
            // Inside a container the number ends at the delimiter.
            let nested = Json::parse(&format!("[{text},{{\"k\":{text}}}]"));
            let object = Json::obj([("k", value.clone())]);
            assert_eq!(nested, Ok(Json::Arr(vec![value, object])), "{text}");
        }
        for text in [
            "+1", ".5", "1.", "007", "01.5", "1e", "1e+", "-", "--1", "1+2", "0x1", "-.5", "1.e3",
            "1.5.2", "1e5e5", "00", "-01", "1-", "e5", "1e1.5",
        ] {
            let error = Json::parse(text).expect_err(text);
            // `0x1` is the number `0` and then garbage; the others are bad
            // from their first byte.
            assert_eq!(error.offset, usize::from(text == "0x1"), "{text}: {error}");
            assert!(Json::parse(&format!("[{text}]")).is_err(), "[{text}]");
            assert!(
                Json::parse(&format!("{{\"k\":{text}}}")).is_err(),
                "{{\"k\":{text}}}"
            );
        }
        // The message names the whole run, in the style the unparsable runs
        // always had.
        for text in ["007", "1+2", "1."] {
            assert_eq!(
                Json::parse(&format!("[{text}]")).expect_err(text),
                err(1, format!("invalid number `{text}`"))
            );
        }
    }

    /// A float is a `u64` only below 2⁶⁴: `as` would saturate 2⁶⁴ and
    /// everything above it to `u64::MAX`.
    #[test]
    fn as_u64_stops_below_two_to_the_64() {
        let largest_below = 18_446_744_073_709_549_568.0; // 2⁶⁴ − 2¹¹
        assert_eq!(
            Json::F64(largest_below).as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        for text in ["18446744073709551616", "18446744073709551616.0", "1e20"] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), None, "{text}");
        }
        assert_eq!(Json::parse("1e0").unwrap().as_u64(), Some(1));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn accessors() {
        let value = Json::parse(r#"{"n": 3, "xs": [1.5], "s": "hi", "flag": false}"#).unwrap();
        assert_eq!(value.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            value.get("xs").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(value.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(value.get("flag").and_then(Json::as_bool), Some(false));
        assert_eq!(value.get("missing"), None);
    }

    #[test]
    fn tuples_and_vecs_compose() {
        let rows: Vec<(String, f64, u64)> = vec![("bhmr".into(), 0.25, 4)];
        let json = rows.to_json();
        assert_eq!(json.to_string(), r#"[["bhmr",0.25,4]]"#);
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "line\nquote\"back\\slash\ttab\u{1}";
        let json = Json::Str(s.to_string());
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);
    }

    /// The integer formatter against the standard library's, over every
    /// digit count and both signs' extremes.
    #[test]
    fn integers_format_like_the_standard_library() {
        let mut values = vec![0u64, 9, 10, 99, 100, 101, 4_294_967_295, u64::MAX];
        let mut power = 1u64;
        for _ in 0..19 {
            power *= 10;
            values.extend([power - 1, power, power + 1]);
        }
        for v in values {
            assert_eq!(Json::U64(v).to_string(), v.to_string());
        }
        for v in [0i64, -1, -9, -10, -100, 7, i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(Json::I64(v).to_string(), v.to_string());
        }
    }

    /// Every escape class, with multi-byte characters between them.
    #[test]
    fn escaper_output_is_pinned() {
        let s = "a\"b\\c\nd\re\tf\u{0}g\u{1f}h\u{7f}é€\u{1D11E}";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(
            text,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0000g\\u001fh\u{7f}é€\u{1D11E}\""
        );
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_string()));
        assert_eq!(Json::Str(String::new()).to_string(), "\"\"");
    }

    /// The writer's text is the tree's compact text, empty containers and
    /// nesting included, and pre-rendered values pass through.
    #[test]
    fn writer_emits_the_compact_form_of_the_tree() {
        let tree = Json::obj([
            ("format", "x\"y".to_json()),
            ("n", Json::U64(3)),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false)]),
            ),
            ("empty", Json::Arr(vec![])),
            (
                "rows",
                vec![vec![1u32, 2], vec![], vec![u32::MAX]].to_json(),
            ),
            ("words", vec![0u64, u64::MAX].to_json()),
            (
                "inner",
                Json::obj([("none", Json::Obj(vec![])), ("k", Json::U64(1))]),
            ),
            ("nothing", Json::Null),
            ("last", Json::U64(0)),
        ]);
        let mut inner = Vec::new();
        let mut w = JsonWriter::new(&mut inner);
        w.begin_object();
        w.key("none").begin_object();
        w.end_object();
        w.key("k").u64(1);
        w.end_object();

        let mut out = Vec::new();
        let mut w = JsonWriter::new(&mut out);
        w.begin_object();
        w.key("format").str("x\"y");
        w.key("n").u64(3);
        w.key("flags").array(&[true, false], |w, &b| w.bool(b));
        w.key("empty").u32s(&[]);
        w.key("rows")
            .array(&[vec![1u32, 2], vec![], vec![u32::MAX]], |w, row| {
                w.u32s(row)
            });
        w.key("words").array(&[0, u64::MAX], |w, &v| w.u64(v));
        w.key("inner").raw(&inner);
        w.key("nothing").null();
        w.key("last").u64(0);
        w.end_object();
        assert_eq!(String::from_utf8(out.clone()).unwrap(), tree.to_string());
        assert_eq!(Json::parse_bytes(&out).unwrap(), tree);

        let mut compact = b"[".to_vec();
        tree.write_compact(&mut compact);
        assert_eq!(compact[1..], out[..]);
    }

    /// Regression: truncated `\u` escapes used to reach
    /// `rest.chars().next().unwrap()` territory / slice past the end.
    /// Every prefix of a valid escape must be an error, not a panic.
    #[test]
    fn truncated_unicode_escape_is_an_error() {
        for input in [
            r#""\u"#,
            r#""\u1"#,
            r#""\u12"#,
            r#""\u123"#,
            r#""\u123"#,
            "\"\\u12\"",
            "\"\\u\"",
        ] {
            assert!(Json::parse(input).is_err(), "input {input:?}");
        }
    }

    /// Regression: `u32::from_str_radix` accepts a leading `+`, which the
    /// old parser would have treated as a valid escape digit run.
    #[test]
    fn unicode_escape_digits_are_strict() {
        assert!(Json::parse(r#""\u+123""#).is_err());
        assert!(Json::parse(r#""\u 123""#).is_err());
        assert!(Json::parse(r#""\u12g4""#).is_err());
        assert_eq!(
            Json::parse(r#""\u0041""#).unwrap(),
            Json::Str("A".to_string())
        );
        assert_eq!(
            Json::parse(r#""\uFFFD""#).unwrap(),
            Json::Str("\u{FFFD}".to_string())
        );
    }

    /// Lone surrogate halves are errors; a proper pair combines into one
    /// astral-plane character.
    #[test]
    fn surrogate_halves_and_pairs() {
        assert!(Json::parse(r#""\uD800""#).is_err());
        assert!(Json::parse(r#""\uDBFF""#).is_err());
        assert!(Json::parse(r#""\uDC00""#).is_err());
        assert!(Json::parse(r#""\uDFFF""#).is_err());
        assert!(Json::parse(r#""\uD800\uD800""#).is_err());
        assert!(Json::parse(r#""\uD800x""#).is_err());
        assert!(Json::parse(r#""\uD800\n""#).is_err());
        assert!(Json::parse(r#""\uD834\u""#).is_err());
        // U+1D11E MUSICAL SYMBOL G CLEF = \uD834\uDD1E.
        assert_eq!(
            Json::parse(r#""\uD834\uDD1E""#).unwrap(),
            Json::Str("\u{1D11E}".to_string())
        );
    }

    /// `parse_bytes` is total on invalid UTF-8: truncated multi-byte
    /// sequences, stray continuation bytes, and overlong forms all error.
    #[test]
    fn parse_bytes_rejects_invalid_utf8() {
        assert!(Json::parse_bytes(b"\"\xE2\x82\"").is_err());
        assert!(Json::parse_bytes(b"\"\x80\"").is_err());
        assert!(Json::parse_bytes(b"\"\xC0\xAF\"").is_err());
        assert!(Json::parse_bytes(b"\"\xF5\x80\x80\x80\"").is_err());
        assert!(Json::parse_bytes(b"\"\xE2\x82").is_err());
        // Valid multi-byte content still round-trips.
        assert_eq!(
            Json::parse_bytes("\"\u{20AC}\"".as_bytes()).unwrap(),
            Json::Str("\u{20AC}".to_string())
        );
    }

    /// Deep nesting is bounded: an adversarial `[[[[…` input returns an
    /// error instead of overflowing the parser's stack.
    #[test]
    fn nesting_depth_is_bounded() {
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
        let deep = "[".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
        let deep_obj = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&deep_obj).is_err());
    }
}
