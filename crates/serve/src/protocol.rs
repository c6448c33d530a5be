//! The `rdt-serve` wire protocol: newline-delimited JSON frames.
//!
//! Every request is one JSON object on one line; every reply is one JSON
//! object on one line. Success replies carry `"ok": true` plus
//! op-specific fields; failures carry `"ok": false` and a structured
//! `"error"` object with a machine-readable `kind` from the taxonomy in
//! [`ErrorKind`]. Parsing is **total**: any byte sequence — truncated
//! escapes, invalid UTF-8, wrong shapes — produces an error reply, never
//! a panic, so one hostile tenant cannot take the daemon down.
//!
//! There are two readers and they agree. [`parse_request`] builds a
//! [`Json`] tree and reads any valid spelling of any request; it is the
//! only path that words an error. [`scan_request`] reads the **canonical**
//! spelling of the four ops that make a stream's life — `open`, `event`,
//! `query` and `close`, in the byte form `docs/SERVE.md` documents and
//! every client in this repository writes — in place, building nothing but
//! the [`EventKind`] / [`QueryKind`] itself and borrowing the stream name
//! from the line. It answers `None` to everything else, malformed frames
//! included, and the tree parser takes those exactly as before: whenever
//! `scan_request(line)` is `Some(x)`, `parse_request(line)` is `Ok` of the
//! same request (`ingest_fuzz.rs` holds the two to that). There is one
//! writer: every line the daemon sends — the answer to any op, and every
//! refusal — is a typed [`Reply`] rendered by [`Reply::write`], whichever
//! reader took the frame.

use rdt_json::{Json, JsonWriter};

/// Most processes a single stream may declare. Engine state is `O(n²)`
/// per event in the worst case, so this bounds per-tenant memory.
pub const MAX_PROCESSES: usize = 512;

/// Most concurrently open streams across all tenants.
pub const MAX_STREAMS: usize = 4096;

/// Longest accepted request line, in bytes (newline included).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Longest accepted stream name, in bytes.
pub const MAX_NAME_BYTES: usize = 200;

/// The error taxonomy. `kind` in every error reply is one of these, so
/// clients can dispatch without string-matching messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON (includes invalid UTF-8 and truncated
    /// escapes).
    Parse,
    /// Valid JSON, but not a well-formed request frame.
    Frame,
    /// The named stream does not exist, already exists, or the name is
    /// unusable.
    Stream,
    /// A well-formed event was rejected by the engine (deliver before
    /// send, duplicate delivery, process out of range).
    Event,
    /// A well-formed query cannot be answered (unknown member
    /// checkpoint).
    Query,
    /// A configured resource bound was hit (process count, stream count,
    /// line length).
    Limit,
    /// A daemon administration failure (snapshot persistence, shard
    /// plumbing).
    Admin,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Frame => "frame",
            ErrorKind::Stream => "stream",
            ErrorKind::Event => "event",
            ErrorKind::Query => "query",
            ErrorKind::Limit => "limit",
            ErrorKind::Admin => "admin",
        }
    }
}

/// A structured per-request error: taxonomy kind plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Which taxonomy bucket the failure falls into.
    pub kind: ErrorKind,
    /// What went wrong, for humans.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
        }
    }
}

/// A daemon administration failure (snapshot persistence and restore,
/// shard plumbing).
pub(crate) fn admin(message: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::Admin, message)
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// One tenant event, exactly the four shapes of ROADMAP item 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A local checkpoint of `process`.
    Checkpoint {
        /// The checkpointing process.
        process: usize,
    },
    /// A message send; the reply carries the daemon-assigned handle.
    Send {
        /// Sending process.
        from: usize,
        /// Receiving process.
        to: usize,
    },
    /// Delivery of the message with handle `message`.
    Deliver {
        /// Handle from the send reply.
        message: u32,
    },
    /// A crash of `process`: bumps the stream's crash counter and
    /// returns the recovery line the tenant must roll back to.
    Crash {
        /// The crashed process.
        process: usize,
    },
}

/// One live query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryKind {
    /// Running count of reachable-but-untrackable checkpoint pairs.
    Untrackable,
    /// The recovery line: greatest consistent global checkpoint dominated
    /// by the current per-process frontier.
    RecoveryLine,
    /// Minimum consistent global checkpoint containing the members.
    MinConsistent(Vec<(usize, u32)>),
    /// Maximum consistent global checkpoint containing the members.
    MaxConsistent(Vec<(usize, u32)>),
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a stream with `processes` processes.
    Open {
        /// Stream name.
        stream: String,
        /// Number of processes (1..=[`MAX_PROCESSES`]).
        processes: usize,
    },
    /// Append one event to a stream.
    Event {
        /// Stream name.
        stream: String,
        /// The event.
        event: EventKind,
    },
    /// Answer one query on a stream.
    Query {
        /// Stream name.
        stream: String,
        /// The query.
        query: QueryKind,
    },
    /// Compact the stream's engine to its recovery line.
    Compact {
        /// Stream name.
        stream: String,
    },
    /// Drop a stream and free its engine.
    Close {
        /// Stream name.
        stream: String,
    },
    /// List open streams (sorted by name).
    Streams,
    /// Persist a snapshot of every stream to the daemon's snapshot path.
    Snapshot,
    /// Liveness check.
    Ping,
    /// Snapshot (when configured) and stop the daemon.
    Shutdown,
}

impl Request {
    /// The stream this request is scoped to, if any.
    pub fn stream(&self) -> Option<&str> {
        match self.route() {
            Route::Stream(stream, _) => Some(stream),
            Route::Streams | Route::Daemon(_) => None,
        }
    }

    /// Where the request runs, and what it asks there.
    pub(crate) fn route(&self) -> Route<'_> {
        match self {
            Request::Open { stream, processes } => {
                Route::Stream(stream, StreamOp::Open(*processes))
            }
            Request::Event { stream, event } => Route::Stream(stream, StreamOp::Event(event)),
            Request::Query { stream, query } => Route::Stream(stream, StreamOp::Query(query)),
            Request::Compact { stream } => Route::Stream(stream, StreamOp::Compact),
            Request::Close { stream } => Route::Stream(stream, StreamOp::Close),
            Request::Streams => Route::Streams,
            Request::Snapshot => Route::Daemon(DaemonOp::Snapshot),
            Request::Ping => Route::Daemon(DaemonOp::Ping),
            Request::Shutdown => Route::Daemon(DaemonOp::Shutdown),
        }
    }
}

/// What a stripe runs on one of its streams, borrowed from the request —
/// scanned or parsed — that names the stream.
#[derive(Clone, Copy)]
pub(crate) enum StreamOp<'r> {
    Open(usize),
    Event(&'r EventKind),
    Query(&'r QueryKind),
    Compact,
    Close,
}

/// Where a request runs.
pub(crate) enum Route<'r> {
    /// On the named stream, under its stripe's lock.
    Stream(&'r str, StreamOp<'r>),
    /// Across the stripes.
    Streams,
    /// In the server.
    Daemon(DaemonOp),
}

/// The ops the server answers, not the pool: what
/// [`PoolHandle::answer_frame`](crate::PoolHandle::answer_frame) hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonOp {
    /// Persist a snapshot.
    Snapshot,
    /// Liveness check.
    Ping,
    /// Persist (when configured) and stop.
    Shutdown,
}

fn frame_err(message: impl Into<String>) -> ServeError {
    ServeError::new(ErrorKind::Frame, message)
}

fn need_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| frame_err(format!("missing string field `{key}`")))
}

fn need_u64(obj: &Json, key: &str) -> Result<u64, ServeError> {
    match obj.get(key) {
        Some(&Json::U64(v)) => Ok(v),
        _ => Err(frame_err(format!("missing unsigned integer field `{key}`"))),
    }
}

fn need_usize(obj: &Json, key: &str) -> Result<usize, ServeError> {
    usize::try_from(need_u64(obj, key)?)
        .map_err(|_| frame_err(format!("field `{key}` out of range")))
}

fn need_u32(obj: &Json, key: &str) -> Result<u32, ServeError> {
    u32::try_from(need_u64(obj, key)?).map_err(|_| frame_err(format!("field `{key}` out of range")))
}

fn need_stream(obj: &Json) -> Result<String, ServeError> {
    let name = need_str(obj, "stream")?;
    if name.is_empty() {
        return Err(ServeError::new(ErrorKind::Stream, "stream name is empty"));
    }
    if name.len() > MAX_NAME_BYTES {
        return Err(ServeError::new(
            ErrorKind::Limit,
            format!("stream name longer than {MAX_NAME_BYTES} bytes"),
        ));
    }
    Ok(name.to_string())
}

fn need_members(obj: &Json) -> Result<Vec<(usize, u32)>, ServeError> {
    let arr = obj
        .get("members")
        .and_then(Json::as_array)
        .ok_or_else(|| frame_err("missing array field `members`"))?;
    let mut members = Vec::with_capacity(arr.len());
    for entry in arr {
        let pair = entry
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| frame_err("`members` entries must be [process, checkpoint] pairs"))?;
        let p = pair[0]
            .as_u64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| frame_err("`members` process is not an unsigned integer"))?;
        let idx = pair[1]
            .as_u64()
            .and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| frame_err("`members` checkpoint is not an unsigned integer"))?;
        members.push((p, idx));
    }
    if members.is_empty() {
        return Err(frame_err("`members` must not be empty"));
    }
    Ok(members)
}

/// Parses one request line. Total: every byte input yields a request or a
/// [`ServeError`] with the right taxonomy kind.
pub fn parse_request(line: &[u8]) -> Result<Request, ServeError> {
    let doc =
        Json::parse_bytes(line).map_err(|e| ServeError::new(ErrorKind::Parse, e.to_string()))?;
    // A document that parsed is an object exactly when it opens with `{`.
    if !line.trim_ascii_start().starts_with(b"{") {
        return Err(frame_err("request is not a JSON object"));
    }
    let op = need_str(&doc, "op")?;
    match op {
        "open" => {
            let stream = need_stream(&doc)?;
            let processes = need_usize(&doc, "processes")?;
            if processes == 0 {
                return Err(frame_err("`processes` must be at least 1"));
            }
            if processes > MAX_PROCESSES {
                return Err(ServeError::new(
                    ErrorKind::Limit,
                    format!("`processes` exceeds the maximum of {MAX_PROCESSES}"),
                ));
            }
            Ok(Request::Open { stream, processes })
        }
        "event" => {
            let stream = need_stream(&doc)?;
            let event = match need_str(&doc, "type")? {
                "checkpoint" => EventKind::Checkpoint {
                    process: need_usize(&doc, "process")?,
                },
                "send" => EventKind::Send {
                    from: need_usize(&doc, "from")?,
                    to: need_usize(&doc, "to")?,
                },
                "deliver" => EventKind::Deliver {
                    message: need_u32(&doc, "message")?,
                },
                "crash" => EventKind::Crash {
                    process: need_usize(&doc, "process")?,
                },
                other => {
                    return Err(frame_err(format!("unknown event type `{other}`")));
                }
            };
            Ok(Request::Event { stream, event })
        }
        "query" => {
            let stream = need_stream(&doc)?;
            let query = match need_str(&doc, "what")? {
                "untrackable" => QueryKind::Untrackable,
                "recovery-line" => QueryKind::RecoveryLine,
                "min-consistent" => QueryKind::MinConsistent(need_members(&doc)?),
                "max-consistent" => QueryKind::MaxConsistent(need_members(&doc)?),
                other => {
                    return Err(frame_err(format!("unknown query `{other}`")));
                }
            };
            Ok(Request::Query { stream, query })
        }
        "compact" => Ok(Request::Compact {
            stream: need_stream(&doc)?,
        }),
        "close" => Ok(Request::Close {
            stream: need_stream(&doc)?,
        }),
        "streams" => Ok(Request::Streams),
        "snapshot" => Ok(Request::Snapshot),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(frame_err(format!("unknown op `{other}`"))),
    }
}

/// A canonical `open`, `event`, `query` or `close` frame as
/// [`scan_request`] reads it: the [`Request`] of the same name with the
/// stream name borrowed from the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HotRequest<'a> {
    /// Create a stream.
    Open {
        /// Stream name.
        stream: &'a str,
        /// Number of processes (1..=[`MAX_PROCESSES`]).
        processes: usize,
    },
    /// Append one event to a stream.
    Event {
        /// Stream name.
        stream: &'a str,
        /// The event.
        event: EventKind,
    },
    /// Answer one query on a stream.
    Query {
        /// Stream name.
        stream: &'a str,
        /// The query.
        query: QueryKind,
    },
    /// Drop a stream.
    Close {
        /// Stream name.
        stream: &'a str,
    },
}

impl<'a> HotRequest<'a> {
    /// The same request with the name owned: what [`parse_request`] returns
    /// for the line this was scanned from.
    pub fn to_request(&self) -> Request {
        match self {
            HotRequest::Open { stream, processes } => Request::Open {
                stream: (*stream).to_string(),
                processes: *processes,
            },
            HotRequest::Event { stream, event } => Request::Event {
                stream: (*stream).to_string(),
                event: event.clone(),
            },
            HotRequest::Query { stream, query } => Request::Query {
                stream: (*stream).to_string(),
                query: query.clone(),
            },
            HotRequest::Close { stream } => Request::Close {
                stream: (*stream).to_string(),
            },
        }
    }

    /// The stream it names and what it asks there, as `Request::route`
    /// gives them for the parsed form.
    pub(crate) fn route(&self) -> (&'a str, StreamOp<'_>) {
        match self {
            HotRequest::Open { stream, processes } => (stream, StreamOp::Open(*processes)),
            HotRequest::Event { stream, event } => (stream, StreamOp::Event(event)),
            HotRequest::Query { stream, query } => (stream, StreamOp::Query(query)),
            HotRequest::Close { stream } => (stream, StreamOp::Close),
        }
    }
}

/// What a scanning step returns: the value it split off the front of the
/// line and the bytes after it, or `None` if the front is not that value in
/// its canonical form.
type Scanned<'a, T> = Option<(T, &'a [u8])>;

/// Splits a quoted stream name off the front of `rest`: 1..=
/// [`MAX_NAME_BYTES`] bytes of valid UTF-8 holding no `"`, no `\` and no
/// control byte — a JSON string that is its own content, so the name can be
/// borrowed as it stands.
fn scan_name(rest: &[u8]) -> Scanned<'_, &str> {
    let rest = rest.strip_prefix(b"\"")?;
    let len = rest
        .iter()
        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
    if len == 0 || len > MAX_NAME_BYTES {
        return None;
    }
    let (name, rest) = rest.split_at_checked(len)?;
    Some((std::str::from_utf8(name).ok()?, rest.strip_prefix(b"\"")?))
}

/// Splits an RFC 8259 unsigned integer (`0 | [1-9][0-9]*`) that fits `T`
/// off the front of `rest`. At most 19 digits are read — every such number
/// fits a `u64` — so a longer run is left to the tree parser, like a
/// fraction or an exponent: whatever follows the digits has to be the
/// frame's next delimiter.
fn scan_uint<T: TryFrom<u64>>(rest: &[u8]) -> Scanned<'_, T> {
    let len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let (digits, rest) = rest.split_at_checked(len)?;
    let leading_zero = digits.first() == Some(&b'0') && len > 1;
    if len == 0 || len > 19 || leading_zero {
        return None;
    }
    let value = digits
        .iter()
        .fold(0u64, |value, &d| value * 10 + u64::from(d - b'0'));
    Some((T::try_from(value).ok()?, rest))
}

/// Splits `[[P,I],…]`, at least one pair, off the front of `rest`.
fn scan_members(rest: &[u8]) -> Scanned<'_, Vec<(usize, u32)>> {
    let mut rest = rest.strip_prefix(b"[")?;
    let mut members = Vec::new();
    loop {
        let (process, after) = scan_uint(rest.strip_prefix(b"[")?)?;
        let (index, after) = scan_uint(after.strip_prefix(b",")?)?;
        members.push((process, index));
        match after.strip_prefix(b"]")?.split_first()? {
            (b',', after) => rest = after,
            (b']', after) => return Some((members, after)),
            _ => return None,
        }
    }
}

fn scan_event(rest: &[u8]) -> Scanned<'_, EventKind> {
    if let Some(rest) = rest.strip_prefix(br#"send","from":"#) {
        let (from, rest) = scan_uint(rest)?;
        let (to, rest) = scan_uint(rest.strip_prefix(br#","to":"#)?)?;
        Some((EventKind::Send { from, to }, rest))
    } else if let Some(rest) = rest.strip_prefix(br#"deliver","message":"#) {
        let (message, rest) = scan_uint(rest)?;
        Some((EventKind::Deliver { message }, rest))
    } else if let Some(rest) = rest.strip_prefix(br#"checkpoint","process":"#) {
        let (process, rest) = scan_uint(rest)?;
        Some((EventKind::Checkpoint { process }, rest))
    } else {
        let (process, rest) = scan_uint(rest.strip_prefix(br#"crash","process":"#)?)?;
        Some((EventKind::Crash { process }, rest))
    }
}

fn scan_query(rest: &[u8]) -> Scanned<'_, QueryKind> {
    if let Some(rest) = rest.strip_prefix(br#"untrackable""#) {
        Some((QueryKind::Untrackable, rest))
    } else if let Some(rest) = rest.strip_prefix(br#"recovery-line""#) {
        Some((QueryKind::RecoveryLine, rest))
    } else if let Some(rest) = rest.strip_prefix(br#"min-consistent","members":"#) {
        let (members, rest) = scan_members(rest)?;
        Some((QueryKind::MinConsistent(members), rest))
    } else {
        let (members, rest) = scan_members(rest.strip_prefix(br#"max-consistent","members":"#)?)?;
        Some((QueryKind::MaxConsistent(members), rest))
    }
}

/// Reads one **canonical** `open`, `event`, `query` or `close` frame in
/// place:
///
/// ```text
/// {"op":"open","stream":NAME,"processes":N}
/// {"op":"event","stream":NAME,"type":"send","from":N,"to":N}
/// {"op":"event","stream":NAME,"type":"deliver","message":N}
/// {"op":"event","stream":NAME,"type":"checkpoint","process":N}
/// {"op":"event","stream":NAME,"type":"crash","process":N}
/// {"op":"query","stream":NAME,"what":"untrackable"}
/// {"op":"query","stream":NAME,"what":"recovery-line"}
/// {"op":"query","stream":NAME,"what":"min-consistent","members":[[N,N],…]}
/// {"op":"query","stream":NAME,"what":"max-consistent","members":[[N,N],…]}
/// {"op":"close","stream":NAME}
/// ```
///
/// these keys in this order and no others, no whitespace, `NAME` a quoted
/// name that needs no unescaping (see `scan_name`), `N` an unsigned
/// integer of at most 19 digits that fits its field — for `processes`,
/// one in 1..=[`MAX_PROCESSES`]. Any other line — another op, another
/// spelling of these, anything that deserves an error — is `None` and
/// belongs to [`parse_request`], which agrees with every `Some` returned
/// here. Nothing is allocated except a `members` list.
pub fn scan_request(line: &[u8]) -> Option<HotRequest<'_>> {
    let rest = line.strip_prefix(br#"{"op":""#)?;
    if let Some(rest) = rest.strip_prefix(br#"event","stream":"#) {
        let (stream, rest) = scan_name(rest)?;
        let (event, rest) = scan_event(rest.strip_prefix(br#","type":""#)?)?;
        (rest == b"}").then_some(HotRequest::Event { stream, event })
    } else if let Some(rest) = rest.strip_prefix(br#"query","stream":"#) {
        let (stream, rest) = scan_name(rest)?;
        let (query, rest) = scan_query(rest.strip_prefix(br#","what":""#)?)?;
        (rest == b"}").then_some(HotRequest::Query { stream, query })
    } else if let Some(rest) = rest.strip_prefix(br#"open","stream":"#) {
        let (stream, rest) = scan_name(rest)?;
        let (processes, rest) = scan_uint(rest.strip_prefix(br#","processes":"#)?)?;
        let allowed = (1..=MAX_PROCESSES).contains(&processes);
        (allowed && rest == b"}").then_some(HotRequest::Open { stream, processes })
    } else {
        let (stream, rest) = scan_name(rest.strip_prefix(br#"close","stream":"#)?)?;
        (rest == b"}").then_some(HotRequest::Close { stream })
    }
}

/// One line the daemon writes: the answer to any op, or a refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply<'a> {
    /// A `checkpoint` event: the index of the checkpoint taken.
    Checkpoint(u32),
    /// A `send` event: the handle deliveries refer to.
    Message(u32),
    /// A `deliver` event.
    Delivered,
    /// A `crash` event: the stream's crash counter, this crash included,
    /// and the recovery line, one checkpoint index per process.
    Crashed { crashes: u64, line: Vec<u32> },
    /// An `untrackable` query: the running count.
    Untrackable(u64),
    /// A `recovery-line` query.
    Line(Vec<u32>),
    /// A `min-consistent` / `max-consistent` query: the global checkpoint,
    /// or `None` when no consistent one contains the members.
    Global(Option<Vec<u32>>),
    /// `open`: the stream opened and its number of processes.
    Opened { stream: &'a str, processes: usize },
    /// `compact`: the closure rows let go and the compaction epoch after.
    Compacted { dropped: u64, epoch: u64 },
    /// `close`: the stream closed.
    Closed(&'a str),
    /// `streams`: every open stream, sorted by name.
    Streams(Vec<String>),
    /// `ping`.
    Pong,
    /// `snapshot`: the number of streams persisted.
    Persisted(usize),
    /// `shutdown`: what its persist did, when a snapshot path is configured.
    Stopping(Option<Result<usize, ServeError>>),
    /// A refused request: the stream it was scoped to, if any — so
    /// multiplexing clients can route the error — and why.
    Refused(Option<&'a str>, ServeError),
}

impl<'a> Reply<'a> {
    /// The reply to a request on `stream`: `answer`, or its refusal.
    pub fn on(stream: &'a str, answer: Result<Reply<'a>, ServeError>) -> Reply<'a> {
        answer.unwrap_or_else(|error| Reply::Refused(Some(stream), error))
    }

    /// Appends the reply's line — `{"ok":true,…}` or `{"ok":false,…}`, then
    /// a newline — to `out`. This is the only description of any reply's
    /// shape.
    pub fn write(&self, out: &mut Vec<u8>) {
        let mut w = JsonWriter::new(out);
        w.begin_object();
        w.key("ok").bool(!matches!(self, Reply::Refused(..)));
        match self {
            Reply::Checkpoint(index) => w.key("checkpoint").u64(u64::from(*index)),
            Reply::Message(handle) => w.key("message").u64(u64::from(*handle)),
            Reply::Delivered => {}
            Reply::Crashed { crashes, line } => {
                w.key("crashes").u64(*crashes);
                w.key("line").u32s(line);
            }
            Reply::Line(line) => w.key("line").u32s(line),
            Reply::Untrackable(pairs) => w.key("untrackable").u64(*pairs),
            Reply::Global(Some(indices)) => w.key("global").u32s(indices),
            Reply::Global(None) => w.key("global").null(),
            Reply::Opened { stream, processes } => {
                w.key("stream").str(stream);
                w.key("processes").u64(*processes as u64);
            }
            Reply::Compacted { dropped, epoch } => {
                w.key("dropped").u64(*dropped);
                w.key("epoch").u64(*epoch);
            }
            Reply::Closed(stream) => w.key("closed").str(stream),
            Reply::Streams(names) => w.key("streams").array(names, |w, name| w.str(name)),
            Reply::Pong => w.key("pong").bool(true),
            Reply::Persisted(count) => w.key("persisted").u64(*count as u64),
            Reply::Stopping(persist) => {
                w.key("stopping").bool(true);
                match persist {
                    Some(Ok(count)) => w.key("persisted").u64(*count as u64),
                    Some(Err(e)) => w.key("snapshot_error").str(&e.to_string()),
                    None => {}
                }
            }
            Reply::Refused(stream, error) => {
                if let Some(name) = stream {
                    w.key("stream").str(name);
                }
                w.key("error").begin_object();
                w.key("kind").str(error.kind.as_str());
                w.key("message").str(&error.message);
                w.end_object();
            }
        }
        w.end_object();
        out.push(b'\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_op_set() {
        let open = parse_request(br#"{"op":"open","stream":"s","processes":3}"#).unwrap();
        assert_eq!(
            open,
            Request::Open {
                stream: "s".into(),
                processes: 3
            }
        );
        let send =
            parse_request(br#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#).unwrap();
        assert_eq!(
            send,
            Request::Event {
                stream: "s".into(),
                event: EventKind::Send { from: 0, to: 1 }
            }
        );
        let q = parse_request(
            br#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1]]}"#,
        )
        .unwrap();
        assert_eq!(
            q,
            Request::Query {
                stream: "s".into(),
                query: QueryKind::MinConsistent(vec![(0, 1)])
            }
        );
        assert_eq!(parse_request(br#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(br#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_frames_map_to_taxonomy_kinds() {
        // Byte soup, invalid UTF-8, and the regression truncated escape.
        for bytes in [&b"\xff\xfe\x00"[..], b"{", b"\"\\u12\"", b"[1,2,3", b""] {
            let err = parse_request(bytes).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Parse, "{bytes:?}");
        }
        // Valid JSON, invalid frames.
        assert_eq!(parse_request(b"[1,2]").unwrap_err().kind, ErrorKind::Frame);
        assert_eq!(
            parse_request(br#"{"op":"warp"}"#).unwrap_err().kind,
            ErrorKind::Frame
        );
        assert_eq!(
            parse_request(br#"{"op":"open","stream":"s"}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Frame
        );
        assert_eq!(
            parse_request(br#"{"op":"open","stream":"s","processes":0}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Frame
        );
        assert_eq!(
            parse_request(br#"{"op":"open","stream":"s","processes":100000}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Limit
        );
        assert_eq!(
            parse_request(br#"{"op":"open","stream":"","processes":2}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Stream
        );
        // Negative numbers are not unsigned fields.
        assert_eq!(
            parse_request(br#"{"op":"event","stream":"s","type":"deliver","message":-1}"#)
                .unwrap_err()
                .kind,
            ErrorKind::Frame
        );
    }

    /// A member given as a float is read when it is an integer below 2⁶⁴;
    /// 2⁶⁴ itself, which the reader holds as a float, is not a process.
    #[test]
    fn float_members_stop_below_two_to_the_64() {
        let query = |members: &str| {
            let line = format!(
                r#"{{"op":"query","stream":"s","what":"min-consistent","members":{members}}}"#
            );
            parse_request(line.as_bytes())
        };
        assert_eq!(
            query("[[1.0,1e0]]"),
            Ok(Request::Query {
                stream: "s".into(),
                query: QueryKind::MinConsistent(vec![(1, 1)])
            })
        );
        for members in ["[[18446744073709551616,0]]", "[[0,1e20]]"] {
            let err = query(members).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Frame, "{members}: {err}");
        }
    }

    #[test]
    fn canonical_hot_frames_scan_to_what_they_parse_to() {
        let name = "n".repeat(MAX_NAME_BYTES);
        for line in [
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"deliver","message":4294967295}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"checkpoint","process":0}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"crash","process":511}"#.to_string(),
            r#"{"op":"open","stream":"s","processes":1}"#.to_string(),
            r#"{"op":"open","stream":"s","processes":512}"#.to_string(),
            r#"{"op":"close","stream":"s"}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"untrackable"}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"recovery-line"}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1]]}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"max-consistent","members":[[0,1],[2,0],[1,9]]}"#
                .to_string(),
            "{\"op\":\"query\",\"stream\":\"tenant-βγ/東京\",\"what\":\"untrackable\"}".to_string(),
            format!(
                r#"{{"op":"event","stream":"{name}","type":"send","from":9999999999999999999,"to":0}}"#
            ),
        ] {
            let scanned = scan_request(line.as_bytes()).expect(&line);
            assert_eq!(
                Ok(scanned.to_request()),
                parse_request(line.as_bytes()),
                "{line}"
            );
        }
        let long = "n".repeat(MAX_NAME_BYTES + 1);
        for line in [
            // Other ops, other spellings, and everything that is an error.
            r#"{"op":"compact","stream":"s"}"#.to_string(),
            r#"{"op":"ping"}"#.to_string(),
            r#"{"op":"open","stream":"s","processes":0}"#.to_string(),
            r#"{"op":"open","stream":"s","processes":513}"#.to_string(),
            r#"{"op":"open","stream":"s","processes":3,"x":0}"#.to_string(),
            r#"{"op":"close","stream":"s","x":0}"#.to_string(),
            r#"{"op":"close","stream":""}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":1} "#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}}"#.to_string(),
            r#"{"op":"event", "stream":"s","type":"send","from":0,"to":1}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","to":1,"from":0}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":00,"to":1}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":1.0}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":-1}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":}"#.to_string(),
            r#"{"op":"event","stream":"s","type":"send","from":10000000000000000000,"to":1}"#
                .to_string(),
            r#"{"op":"event","stream":"s","type":"deliver","message":4294967296}"#.to_string(),
            r#"{"op":"event","stream":"","type":"checkpoint","process":0}"#.to_string(),
            r#"{"op":"event","stream":"a\u0062","type":"checkpoint","process":0}"#.to_string(),
            "{\"op\":\"event\",\"stream\":\"a\x01\",\"type\":\"checkpoint\",\"process\":0}"
                .to_string(),
            r#"{"op":"event","stream":"s","type":"teleport","process":0}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"untrackable","members":[[0,1]]}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"min-consistent"}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"min-consistent","members":[]}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1],]}"#.to_string(),
            r#"{"op":"query","stream":"s","what":"min-consistent","members":[[0,1,2]]}"#
                .to_string(),
            format!(r#"{{"op":"query","stream":"{long}","what":"untrackable"}}"#),
        ] {
            assert_eq!(scan_request(line.as_bytes()), None, "{line}");
        }
        // Invalid UTF-8 in the name is the tree parser's error to word.
        assert_eq!(
            scan_request(b"{\"op\":\"query\",\"stream\":\"\xE2\x82\",\"what\":\"untrackable\"}"),
            None
        );
    }

    #[test]
    fn replies_have_the_documented_shape() {
        let text = |reply: Reply| {
            let mut out = Vec::new();
            reply.write(&mut out);
            let line = String::from_utf8(out).unwrap();
            line.strip_suffix('\n').expect("one line").to_string()
        };
        assert_eq!(text(Reply::Checkpoint(3)), r#"{"ok":true,"checkpoint":3}"#);
        assert_eq!(text(Reply::Message(7)), r#"{"ok":true,"message":7}"#);
        assert_eq!(text(Reply::Delivered), r#"{"ok":true}"#);
        let line = vec![1, 0, u32::MAX];
        assert_eq!(
            text(Reply::Crashed { crashes: 2, line }),
            r#"{"ok":true,"crashes":2,"line":[1,0,4294967295]}"#
        );
        assert_eq!(
            text(Reply::Untrackable(u64::MAX)),
            r#"{"ok":true,"untrackable":18446744073709551615}"#
        );
        assert_eq!(text(Reply::Line(vec![])), r#"{"ok":true,"line":[]}"#);
        assert_eq!(
            text(Reply::Global(Some(vec![4, 5]))),
            r#"{"ok":true,"global":[4,5]}"#
        );
        assert_eq!(text(Reply::Global(None)), r#"{"ok":true,"global":null}"#);
        let opened = Reply::Opened {
            stream: "s\"",
            processes: 3,
        };
        assert_eq!(text(opened), r#"{"ok":true,"stream":"s\"","processes":3}"#);
        let compacted = Reply::Compacted {
            dropped: 4,
            epoch: 1,
        };
        assert_eq!(text(compacted), r#"{"ok":true,"dropped":4,"epoch":1}"#);
        assert_eq!(text(Reply::Closed("s")), r#"{"ok":true,"closed":"s"}"#);
        let names = vec!["a".to_string(), "b\u{1}".to_string()];
        assert_eq!(
            text(Reply::Streams(names)),
            r#"{"ok":true,"streams":["a","b\u0001"]}"#
        );
        assert_eq!(text(Reply::Pong), r#"{"ok":true,"pong":true}"#);
        assert_eq!(text(Reply::Persisted(2)), r#"{"ok":true,"persisted":2}"#);
        assert_eq!(
            text(Reply::Stopping(None)),
            r#"{"ok":true,"stopping":true}"#
        );
        assert_eq!(
            text(Reply::Stopping(Some(Ok(2)))),
            r#"{"ok":true,"stopping":true,"persisted":2}"#
        );
        let failed = ServeError::new(ErrorKind::Admin, "writing snapshot: disk full");
        assert_eq!(
            text(Reply::Stopping(Some(Err(failed.clone())))),
            r#"{"ok":true,"stopping":true,"snapshot_error":"admin: writing snapshot: disk full"}"#
        );
        assert_eq!(
            text(Reply::Refused(None, failed)),
            r#"{"ok":false,"error":{"kind":"admin","message":"writing snapshot: disk full"}}"#
        );
        let never_sent = ServeError::new(ErrorKind::Event, "message 7 was never sent");
        assert_eq!(
            text(Reply::on("s", Err(never_sent))),
            r#"{"ok":false,"stream":"s","error":{"kind":"event","message":"message 7 was never sent"}}"#
        );
        assert_eq!(text(Reply::on("s", Ok(Reply::Delivered))), r#"{"ok":true}"#);
    }
}
