//! The lock-striped engine pool.
//!
//! Streams are partitioned over `workers` *stripes* by an FNV-1a hash of
//! the stream name; each stripe is a `Mutex<HashMap<name, StreamEngine>>`
//! and a request runs on the thread that submitted it, under its
//! stripe's lock — no shard threads, no hand-off. Two hashes, two jobs: the
//! stripe is FNV-1a's, unkeyed, so a stream lands on the same stripe in
//! every run and on every platform; inside a stripe the map hashes with
//! std's keyed `RandomState`, so a client that picks names cannot build the
//! collision chains an unkeyed hash would let it build. Nothing reads a map
//! in its iteration order: the `streams` reply and every render sort the
//! names, and a restore installs by name. The determinism
//! contract is unchanged: a stream's replies depend only on the order of
//! its own requests — never on the stripe count or on what other tenants
//! do. One connection executes its frames in order on one thread, and
//! across connections the stripe lock serialises a stream's requests, so
//! replaying a session against a 1-stripe and an N-stripe pool yields
//! byte-identical per-stream replies. A long request (a compaction) delays
//! only requests of the same stripe; a snapshot holds one stripe's lock
//! for one stream at a time, for as long as rendering that stream takes —
//! after the first persist, what changed in it since the last one.
//!
//! A stripe has one door, `run_op`: every stream-scoped op runs through it
//! and comes back as a typed [`Reply`] or a [`ServeError`].
//! [`PoolHandle::answer_frame`] is the daemon's way to it: bytes in, reply
//! line out. A canonical `open`, `event`, `query` or `close` frame
//! ([`scan_request`]) picks its stripe by hashing the stream name where it
//! lies in the frame and finds the engine by the name's `&str` — no
//! `String`, no tree (an `open` allocates the key it inserts); every other
//! frame is parsed into a [`Request`] first. Either way the reply goes
//! straight into the caller's buffer. [`PoolHandle::request`] and
//! [`handle_request`] take a parsed request to the same door and return the
//! parsed form of the same text; `handle_request` runs it against a B-tree
//! the caller holds, which the door takes as it takes a stripe's map.
//!
//! A persist renders either the whole daemon document or one record of what
//! changed since the last persist; the server decides which, appends the
//! record to the file, or drops it when it holds no entry and lists the
//! streams the file already does. It streams: [`PoolHandle::stream_persist`]
//! hands its chunk of [`PERSIST_CHUNK`] bytes on between two streams, with
//! no lock held, once it is half full, and [`PoolHandle::write_persist`] is
//! the same renderer keeping every byte in a `Vec`. Snapshot
//! restore ([`PoolHandle::restore_file`], and [`PoolHandle::restore_text`]
//! for callers that want only the count) reads the file's bytes in one
//! sequential pass — no `Json` tree — folds the records into the
//! document's tables, and reuses the deterministic work-stealing pool
//! ([`rdt_sim::parallel_map_indexed`]) to validate and build many engines in
//! parallel: results come back in item order, so the restored daemon is
//! identical for any `--workers` or thread count there too, and nothing is
//! installed unless everything built. From the same pass it tells the
//! server where the document and the last complete record end and whether
//! the file is one this build writes ([`Restored`]); each stream restored
//! from an engine document of version 4 keeps that document's marks, so a
//! restarted daemon's first persist appends what changed since the file.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rdt_json::{Json, JsonReader, JsonWriter};
use rdt_sim::parallel_map_indexed;

use crate::engine::{once, unreadable, StreamEngine, StreamTables};
use crate::protocol::{
    admin, parse_request, scan_request, DaemonOp, ErrorKind, Reply, Request, Route, ServeError,
    StreamOp, MAX_STREAMS,
};

/// Daemon snapshot format marker.
pub const POOL_SNAPSHOT_FORMAT: &str = "rdt-serve-snapshot";

/// Daemon snapshot format version: 2 since the file became a document
/// followed by records. Version 1 documents (engine versions 1 to 3, no
/// records) still restore.
pub const POOL_SNAPSHOT_VERSION: u64 = 2;

/// Bytes of a record's header: `@`, the body's length in ten decimal
/// digits, a space, the body's FNV-1a 64 in sixteen hex digits, `\n`.
pub(crate) const RECORD_HEADER: usize = 29;

/// The buffer a streamed persist ([`PoolHandle::stream_persist`]) renders
/// into, in bytes: it is handed on after any stream's entry that leaves it
/// half full or more, so an entry of up to half a chunk never grows it.
pub const PERSIST_CHUNK: usize = 64 * 1024;

/// FNV-1a 64-bit's starting state.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit — stable across platforms, so shard assignment (and
/// with it any shard-local observable) is reproducible everywhere, and
/// every record of the snapshot file is checksummed with it.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a 64-bit of `bytes` continued from `hash`, the hash of the bytes
/// before them: a record's checksum is taken a chunk at a time.
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The stripe a stream lives on, of `stripes` (at least one).
fn stripe_index(stream: &str, stripes: usize) -> usize {
    (fnv1a(stream.as_bytes()) % stripes as u64) as usize
}

/// Engines by stream name: what the stripe door finds, adds and drops
/// streams in. A stripe is a hash map; [`handle_request`]'s caller hands in
/// a B-tree. Neither is ever read in its iteration order.
trait Engines {
    fn stream_mut(&mut self, name: &str) -> Option<&mut StreamEngine>;
    fn insert_stream(&mut self, name: &str, engine: StreamEngine);
    fn remove_stream(&mut self, name: &str);
}

impl Engines for HashMap<Box<str>, StreamEngine> {
    fn stream_mut(&mut self, name: &str) -> Option<&mut StreamEngine> {
        self.get_mut(name)
    }

    fn insert_stream(&mut self, name: &str, engine: StreamEngine) {
        self.insert(name.into(), engine);
    }

    /// A hash table never shrinks by itself, so a stripe would keep the
    /// buckets of its largest burst of opens; it gives them back once three
    /// quarters of its room stand empty.
    fn remove_stream(&mut self, name: &str) {
        self.remove(name);
        if self.capacity() > 4 * self.len().max(16) {
            self.shrink_to_fit();
        }
    }
}

impl Engines for BTreeMap<String, StreamEngine> {
    fn stream_mut(&mut self, name: &str) -> Option<&mut StreamEngine> {
        self.get_mut(name)
    }

    fn insert_stream(&mut self, name: &str, engine: StreamEngine) {
        self.insert(name.to_string(), engine);
    }

    fn remove_stream(&mut self, name: &str) {
        self.remove(name);
    }
}

/// The stripe door: runs one stream-scoped op on `stream` against a
/// stripe's engines — under the stripe's lock when the pool calls it. This
/// is the daemon's ingest heart: it must never panic on any input, which
/// the `panic-reachability` lint enforces statically from this entry point.
fn run_op<'a>(
    streams: &mut impl Engines,
    stream: &'a str,
    op: StreamOp<'_>,
) -> Result<Reply<'a>, ServeError> {
    let refuse = |message| Err(ServeError::new(ErrorKind::Stream, message));
    match (op, streams.stream_mut(stream)) {
        (StreamOp::Open(_), Some(_)) => refuse(format!("stream `{stream}` already open")),
        (StreamOp::Open(processes), None) => {
            streams.insert_stream(stream, StreamEngine::new(processes));
            Ok(Reply::Opened { stream, processes })
        }
        (_, None) => refuse(format!("unknown stream `{stream}`")),
        (StreamOp::Event(event), Some(engine)) => engine.ingest_event(event),
        (StreamOp::Query(query), Some(engine)) => engine.answer_query(query),
        (StreamOp::Compact, Some(engine)) => {
            let [dropped, epoch] = engine.compact();
            Ok(Reply::Compacted { dropped, epoch })
        }
        (StreamOp::Close, Some(_)) => {
            streams.remove_stream(stream);
            Ok(Reply::Closed(stream))
        }
    }
}

/// The tree of a reply's text. [`Reply::write`] emits the canonical compact
/// form, so the tree prints as the text again; `Null` is never returned.
fn parsed(reply: &Reply<'_>) -> Json {
    let mut text = Vec::new();
    reply.write(&mut text);
    Json::parse_bytes(&text).unwrap_or(Json::Null)
}

/// Runs one stream-scoped request through the stripe door against
/// `streams`, engines the caller keeps by name as a stripe does, and
/// returns the parsed form of the line the daemon would send for it. The
/// daemon itself does not come through here.
pub fn handle_request(streams: &mut BTreeMap<String, StreamEngine>, req: &Request) -> Json {
    parsed(&match req.route() {
        Route::Stream(stream, op) => Reply::on(stream, run_op(streams, stream, op)),
        // Daemon-scoped ops never reach a stripe; answer defensively
        // rather than panicking.
        Route::Streams | Route::Daemon(_) => {
            Reply::Refused(None, admin("daemon-scoped request routed to a shard"))
        }
    })
}

/// A stripe's engines, found by the name's hash under a key of the map's
/// own ([`RandomState`](std::collections::hash_map::RandomState)): clients
/// choose the names, so no client can predict which collide. A name is a
/// `Box<str>`, a bucket 8 bytes smaller than with a `String`.
type Stripe = Mutex<HashMap<Box<str>, StreamEngine>>;

/// A poisoned stripe (a request panicked under its lock) is out of
/// service: its streams answer in-band with this error, other stripes
/// keep serving.
fn not_running() -> ServeError {
    ServeError::new(ErrorKind::Admin, "shard is not running")
}

/// The lexical half of a restore: the envelope and every stream entry of a
/// daemon snapshot document, read in sequence into typed tables; returns
/// them, where the document ends and the envelope's version.
fn read_document(text: &[u8]) -> Result<(Vec<StreamTables>, usize, u64), ServeError> {
    let mut r = JsonReader::new(text);
    if r.peek().map_err(unreadable)? != b'{' {
        return Err(admin("not an rdt-serve snapshot"));
    }
    let (mut format, mut version, mut entries) = (None, None, None);
    r.begin_object().map_err(unreadable)?;
    while let Some(key) = r.next_key().map_err(unreadable)? {
        match key.as_str() {
            "format" => once(&mut format, &key, r.str().map_err(unreadable)?)?,
            "version" => once(&mut version, &key, r.u64().map_err(unreadable)?)?,
            "streams" => once(&mut entries, &key, read_entries(&mut r)?)?,
            _ => r.skip_value().map_err(unreadable)?,
        }
    }
    if format.as_deref() != Some(POOL_SNAPSHOT_FORMAT) {
        return Err(admin("not an rdt-serve snapshot"));
    }
    let version = version
        .filter(|v| (1..=POOL_SNAPSHOT_VERSION).contains(v))
        .ok_or_else(|| admin("unsupported snapshot version"))?;
    let entries = entries.ok_or_else(|| admin("missing `streams` array"))?;
    Ok((entries, r.offset(), version))
}

/// A `streams` array: stream entries, at most [`MAX_STREAMS`] of them.
fn read_entries(r: &mut JsonReader<'_>) -> Result<Vec<StreamTables>, ServeError> {
    let mut list = Vec::new();
    r.begin_array().map_err(unreadable)?;
    while r.next_item().map_err(unreadable)? {
        if list.len() == MAX_STREAMS {
            return Err(admin("snapshot exceeds the stream limit"));
        }
        list.push(StreamEngine::read_stream_snapshot(r)?);
    }
    Ok(list)
}

/// One record's body: the entries of the streams that changed and the
/// names of every stream live at the persist.
fn read_record(body: &[u8]) -> Result<(Vec<StreamTables>, Vec<String>), ServeError> {
    let mut r = JsonReader::new(body);
    let (mut entries, mut live) = (None, None);
    r.begin_object().map_err(unreadable)?;
    while let Some(key) = r.next_key().map_err(unreadable)? {
        match key.as_str() {
            "streams" => once(&mut entries, &key, read_entries(&mut r)?)?,
            "live" => {
                let mut names = Vec::new();
                r.begin_array().map_err(unreadable)?;
                while r.next_item().map_err(unreadable)? {
                    if names.len() == MAX_STREAMS {
                        return Err(admin("snapshot exceeds the stream limit"));
                    }
                    names.push(r.str().map_err(unreadable)?);
                }
                once(&mut live, &key, names)?;
            }
            _ => r.skip_value().map_err(unreadable)?,
        }
    }
    r.end().map_err(unreadable)?;
    let entries = entries.ok_or_else(|| admin("record has no `streams` array"))?;
    Ok((
        entries,
        live.ok_or_else(|| admin("record has no `live` array"))?,
    ))
}

/// The next record of `log` — its body and the bytes after it — or `None`
/// where the log ends or its next record is torn: a header that is not
/// one, a body shorter than its header says, or a checksum that does not
/// match. A crash mid-append leaves such a tail, and nothing after it is
/// trusted.
fn next_record(log: &[u8]) -> Option<(&[u8], &[u8])> {
    let header = log.get(..RECORD_HEADER)?;
    // Only the spelling the writer uses: an upper-case hex digit is the
    // same number, but not the same bytes.
    let digits = |field: &[u8], radix| {
        let valid = field
            .iter()
            .all(|&b| b.is_ascii_digit() || (radix == 16 && (b'a'..=b'f').contains(&b)));
        let field = std::str::from_utf8(field).ok().filter(|_| valid)?;
        u64::from_str_radix(field, radix).ok()
    };
    let framed = header[0] == b'@' && header[11] == b' ' && header[28] == b'\n';
    let len = usize::try_from(digits(&header[1..11], 10)?).ok()?;
    let sum = digits(&header[12..28], 16)?;
    let (body, rest) = log[RECORD_HEADER..].split_at_checked(len)?;
    (framed && fnv1a(body) == sum).then_some((body, rest))
}

/// The record fold of a restore: the entries of the document, with every
/// complete record after it laid over them in order — a whole entry
/// replaces its stream's, a delta entry is folded into it, and the streams a
/// record does not list as live are dropped. It stops at the first torn
/// record, and returns the folded entries and the bytes of `log` up to
/// there. A record that is intact but names a stream twice, lists one it
/// holds no state of, holds an entry it does not list or a delta with no
/// base refuses the whole file.
fn fold_records(
    entries: Vec<StreamTables>,
    mut log: &[u8],
) -> Result<(Vec<StreamTables>, usize), ServeError> {
    if next_record(log).is_none() {
        return Ok((entries, 0));
    }
    let start = log.len();
    let mut streams = BTreeMap::new();
    for entry in entries {
        let name = entry
            .name()
            .ok_or_else(|| admin("stream entry has no name"))?
            .to_string();
        if streams.insert(name.clone(), entry).is_some() {
            return Err(admin(format!("snapshot names stream `{name}` twice")));
        }
    }
    while let Some((body, rest)) = next_record(log) {
        let (entries, live) = read_record(body)?;
        let live: BTreeSet<String> = live.into_iter().collect();
        let mut seen = BTreeSet::new();
        for entry in entries {
            let name = entry
                .name()
                .ok_or_else(|| admin("stream entry has no name"))?
                .to_string();
            if !live.contains(&name) {
                return Err(admin(format!(
                    "record holds stream `{name}` but does not list it"
                )));
            }
            if !seen.insert(name.clone()) {
                return Err(admin(format!("record names stream `{name}` twice")));
            }
            match streams.get_mut(&name) {
                Some(base) if entry.is_delta() => base.fold(entry)?,
                None if entry.is_delta() => {
                    return Err(admin(format!("stream `{name}`: a delta with no base")))
                }
                _ => {
                    streams.insert(name, entry);
                }
            }
        }
        if let Some(name) = live.iter().find(|name| !streams.contains_key(*name)) {
            return Err(admin(format!(
                "record lists stream `{name}`, of which there is no state"
            )));
        }
        streams.retain(|name, _| live.contains(name));
        log = rest;
    }
    Ok((streams.into_values().collect(), start - log.len()))
}

/// What a render writes of each stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Render {
    /// The whole document, leaving what persists wrote untouched.
    Document,
    /// The whole document, as a persist.
    Whole,
    /// A record of what changed since the last persist.
    Record,
}

/// What a persist rendered ([`PoolHandle::write_persist`],
/// [`PoolHandle::stream_persist`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rendered {
    /// Streams live in it: the `persisted` count.
    pub live: usize,
    /// Streams it holds an entry of: all of them when whole, those that
    /// changed since the last persist in a record.
    pub entries: usize,
    /// Bytes rendered: the document, or a record's body (its header aside,
    /// its closing newline counted).
    pub bytes: u64,
    /// A record body's FNV-1a 64, taken over the chunks as they went by;
    /// not taken for a document.
    pub sum: u64,
}

impl Rendered {
    /// The header of the record whose body this is: `@`, the length in ten
    /// decimal digits, a space, the checksum in sixteen hex digits, `\n`.
    pub fn record_header(&self) -> String {
        format!("@{:010} {:016x}\n", self.bytes, self.sum)
    }
}

/// Where a streamed render hands its buffer's bytes, a chunk at a time.
type Sink<'s> = &'s mut dyn FnMut(&[u8]) -> Result<(), ServeError>;

/// The length and, for a record, the FNV-1a 64 of what a render wrote,
/// counted as the bytes pass.
struct Tally {
    /// Where the bytes of the buffer not yet counted start.
    from: usize,
    bytes: u64,
    /// `None` when no checksum is taken.
    sum: Option<u64>,
}

impl Tally {
    /// Counts `out[from..]`.
    fn count(&mut self, out: &[u8]) {
        let new = &out[self.from..];
        self.bytes += new.len() as u64;
        self.sum = self.sum.map(|sum| fnv1a_from(sum, new));
        self.from = out.len();
    }

    /// Counts what `chunk` holds, hands it to `sink` and clears it.
    fn spill(&mut self, chunk: &mut Vec<u8>, sink: Sink<'_>) -> Result<(), ServeError> {
        self.count(chunk);
        sink(chunk)?;
        chunk.clear();
        self.from = 0;
        Ok(())
    }
}

/// What [`PoolHandle::restore_file`] read of a snapshot file besides its
/// streams: where its parts end, and whether it is a file this build
/// writes, onto which a persist may append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Restored {
    /// Streams installed.
    pub streams: usize,
    /// Bytes of the document, and of the newline after it if there is one.
    pub document: usize,
    /// Bytes up to the end of the last complete record (`document` when
    /// there is none): what is left of the file once a torn tail is cut.
    pub complete: usize,
    /// Whether the file is this build's: envelope version
    /// [`POOL_SNAPSHOT_VERSION`], every entry of the document of engine
    /// version 4, and the document followed by its newline.
    pub current: bool,
}

/// A cloneable handle to the pool: what connection threads submit
/// requests through.
#[derive(Clone)]
pub struct PoolHandle {
    stripes: Arc<[Stripe]>,
    open_streams: Arc<AtomicUsize>,
}

impl PoolHandle {
    /// One frame of a connection, bytes in, reply line out: this is what
    /// `serve_connection` calls per frame. A canonical `open`, `event`,
    /// `query` or `close` ([`scan_request`]) runs under its stripe's lock —
    /// chosen by hashing the name where it lies in `frame` — and nothing is
    /// allocated for the frame itself; every other frame goes through
    /// [`parse_request`] first.
    /// The reply line, newline included, is written straight into `out` and
    /// `None` returned — except for `snapshot`, `ping` and `shutdown`, which
    /// are the server's to answer and are handed back with nothing written.
    pub fn answer_frame(&self, frame: &[u8], out: &mut Vec<u8>) -> Option<DaemonOp> {
        let parsed;
        let reply = match scan_request(frame) {
            Some(hot) => {
                let (stream, op) = hot.route();
                self.run(stream, op)
            }
            None => match parse_request(frame) {
                Err(error) => Reply::Refused(None, error),
                Ok(req) => {
                    parsed = req;
                    match self.reply(&parsed) {
                        Ok(reply) => reply,
                        Err(op) => return Some(op),
                    }
                }
            },
        };
        reply.write(out);
        None
    }

    /// The reply to a parsed request, or the daemon op it is.
    fn reply<'r>(&self, req: &'r Request) -> Result<Reply<'r>, DaemonOp> {
        match req.route() {
            Route::Stream(stream, op) => Ok(self.run(stream, op)),
            Route::Streams => Ok(Reply::Streams(self.stream_names())),
            Route::Daemon(op) => Err(op),
        }
    }

    /// Runs one stream-scoped op through the stripe door, under the lock of
    /// the stream's stripe. The global stream count is reserved before an
    /// `open` and given back when the open is refused or a `close`
    /// succeeds, so the bound holds under concurrent opens.
    fn run<'a>(&self, stream: &'a str, op: StreamOp<'_>) -> Reply<'a> {
        let opening = matches!(op, StreamOp::Open(_));
        let answer = if opening && self.open_streams.fetch_add(1, Ordering::SeqCst) >= MAX_STREAMS {
            let limit = format!("stream limit of {MAX_STREAMS} reached");
            Err(ServeError::new(ErrorKind::Limit, limit))
        } else {
            match self.stripes[stripe_index(stream, self.stripes.len())].lock() {
                Ok(mut streams) => run_op(&mut *streams, stream, op),
                Err(_) => Err(not_running()),
            }
        };
        if (opening && answer.is_err()) || (matches!(op, StreamOp::Close) && answer.is_ok()) {
            self.open_streams.fetch_sub(1, Ordering::SeqCst);
        }
        Reply::on(stream, answer)
    }

    /// Runs one request on the calling thread — a stream-scoped one through
    /// the stripe door — and returns the parsed form of the line the daemon
    /// sends for it. `snapshot`, `ping` and `shutdown` are the server's to
    /// answer; submitting one here yields an `admin` refusal.
    pub fn request(&self, req: Request) -> Json {
        let server_op = |_| {
            Reply::Refused(
                None,
                admin("request is handled by the server, not the pool"),
            )
        };
        parsed(&self.reply(&req).unwrap_or_else(server_op))
    }

    fn stream_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for stripe in self.stripes.iter() {
            if let Ok(streams) = stripe.lock() {
                names.extend(streams.keys().map(|name| name.to_string()));
            }
        }
        names.sort();
        names
    }

    /// Appends the daemon snapshot document to `out` and returns the number
    /// of streams in it: every stream of every stripe, sorted by name so the
    /// document is identical for any worker count. On an error `out` may
    /// hold part of a document. What the daemon's persists wrote is neither
    /// read nor changed: this is the whole document a persist would write.
    pub fn write_snapshot_document(&self, out: &mut Vec<u8>) -> Result<usize, ServeError> {
        self.render(out, Render::Document, None)
            .map(|rendered| rendered.live)
    }

    /// Appends what a persist writes to `out` and returns how many streams
    /// are live in it and how many it holds an entry of: the whole daemon
    /// document when `whole`, otherwise one framed record — a header giving
    /// the body's length and FNV-1a 64, then a body listing the live
    /// streams' names and holding an entry for each stream that changed
    /// since the last persist (or since the restore that read it), whole if
    /// that persist did not write it and a delta if it did. The marks of
    /// what is written are kept per stream; a record is only correct on a
    /// file the previous persist reached, so after a persist that failed the
    /// next must be whole. On an error `out` may hold part of either. This
    /// is [`stream_persist`](PoolHandle::stream_persist) with `out` for its
    /// sink, and the same bytes.
    pub fn write_persist(&self, out: &mut Vec<u8>, whole: bool) -> Result<Rendered, ServeError> {
        if whole {
            return self.render(out, Render::Whole, None);
        }
        let start = out.len();
        out.resize(start + RECORD_HEADER, b' ');
        let rendered = self.render(out, Render::Record, None)?;
        out[start..start + RECORD_HEADER].copy_from_slice(rendered.record_header().as_bytes());
        Ok(rendered)
    }

    /// A persist streamed through `chunk`, which is cleared and reserved at
    /// [`PERSIST_CHUNK`] bytes: what [`write_persist`](PoolHandle::write_persist)
    /// appends — a record without its header, which comes from the returned
    /// [`Rendered`] — rendered stream by stream into `chunk` and handed to
    /// `sink` after any stream's entry that leaves it half full or more,
    /// with no stripe lock held. The last part stays in `chunk`, counted in
    /// the returned length and checksum: the caller writes it, or drops the
    /// record when it holds no entry (then nothing has gone to `sink`). So a
    /// persist holds one chunk, and one entry past it, however large the
    /// document. A `sink` error stops the render and is returned.
    pub fn stream_persist(
        &self,
        chunk: &mut Vec<u8>,
        whole: bool,
        sink: &mut dyn FnMut(&[u8]) -> Result<(), ServeError>,
    ) -> Result<Rendered, ServeError> {
        chunk.clear();
        chunk.reserve(PERSIST_CHUNK);
        let how = if whole { Render::Whole } else { Render::Record };
        self.render(chunk, how, Some(sink))
    }

    /// The one renderer of documents and records. The names are collected
    /// stripe by stripe, then each stream is written into `out`, in name
    /// order, under its stripe's lock, taken for that one stream; with a
    /// `sink`, `out` — which then holds nothing else — is handed to it
    /// between two streams once it is half a chunk full. A stream closed in between is not in the output; one
    /// opened in between is in the next. A record is rendered without its
    /// header.
    fn render(
        &self,
        out: &mut Vec<u8>,
        how: Render,
        mut sink: Option<Sink<'_>>,
    ) -> Result<Rendered, ServeError> {
        let mut names: Vec<(String, usize)> = Vec::new();
        for (i, stripe) in self.stripes.iter().enumerate() {
            let streams = stripe.lock().map_err(|_| not_running())?;
            names.extend(streams.keys().map(|name| (name.to_string(), i)));
        }
        names.sort_unstable();
        let mut tally = Tally {
            from: out.len(),
            bytes: 0,
            sum: (how == Render::Record).then_some(FNV_OFFSET),
        };
        let mut w = JsonWriter::new(out);
        w.begin_object();
        if how != Render::Record {
            w.key("format").str(POOL_SNAPSHOT_FORMAT);
            w.key("version").u64(POOL_SNAPSHOT_VERSION);
        }
        w.key("streams").begin_array();
        let (mut live, mut entries) = (Vec::new(), 0);
        for (name, stripe) in &names {
            let mut streams = self.stripes[*stripe].lock().map_err(|_| not_running())?;
            if let Some(engine) = streams.get_mut(name.as_str()) {
                let wrote = match how {
                    Render::Document => {
                        engine.write_stream_snapshot(name, &mut w);
                        true
                    }
                    Render::Whole | Render::Record => {
                        engine.write_persist_entry(name, how == Render::Whole, &mut w)
                    }
                };
                entries += usize::from(wrote);
                live.push(name.as_str());
            }
            drop(streams);
            if let Some(sink) = sink.as_deref_mut() {
                if w.buffer().len() >= PERSIST_CHUNK / 2 {
                    tally.spill(w.buffer(), sink)?;
                }
            }
        }
        w.end_array();
        if how == Render::Record {
            w.key("live").array(&live, |w, name| w.str(name));
        }
        w.end_object();
        if how == Render::Record {
            w.buffer().push(b'\n');
        }
        tally.count(w.buffer());
        Ok(Rendered {
            live: live.len(),
            entries,
            bytes: tally.bytes,
            sum: tally.sum.unwrap_or(0),
        })
    }

    /// The daemon snapshot document as a [`Json`] tree: the parsed form of
    /// what [`write_snapshot_document`](PoolHandle::write_snapshot_document)
    /// writes. The daemon does not call it.
    pub fn snapshot_document(&self) -> Result<Json, ServeError> {
        let mut text = Vec::new();
        self.write_snapshot_document(&mut text)?;
        Json::parse_bytes(&text).map_err(|e| ServeError::new(ErrorKind::Admin, e.to_string()))
    }

    /// Restores every stream of a snapshot file — its bytes — into the
    /// pool, or none of them, and returns how many it installed:
    /// [`restore_file`](PoolHandle::restore_file)'s `streams`.
    pub fn restore_text(&self, text: &[u8], threads: usize) -> Result<usize, ServeError> {
        self.restore_file(text, threads).map(|file| file.streams)
    }

    /// Restores every stream of a snapshot file — its bytes — into the
    /// pool, or none of them, and says what it read ([`Restored`]) — all
    /// the server needs to keep appending to the file, from the one pass.
    ///
    /// The text is read once, in sequence, into per-stream typed tables
    /// ([`StreamEngine::read_stream_snapshot`]: no `Json` tree): the
    /// document, then each record after it, folded into the document's
    /// tables (`fold_records`) up to the first torn one; the tables are
    /// validated and the engines built in parallel on the deterministic
    /// work-stealing pool; and only when every entry has built, no name
    /// comes twice or is already open, and the stream limit holds, are the
    /// engines installed, under all stripe locks at once. Anything else —
    /// a document that does not read, or an intact record that does not
    /// fold — is an [`ErrorKind::Admin`] error that leaves the pool as it
    /// was. A stream whose tables are of engine version 4 is installed with
    /// their marks, as if a persist had just written them.
    pub fn restore_file(&self, text: &[u8], threads: usize) -> Result<Restored, ServeError> {
        let (entries, end, version) = read_document(text)?;
        let current =
            version == POOL_SNAPSHOT_VERSION && entries.iter().all(StreamTables::is_current);
        // The document is followed by nothing, or by a newline and records.
        let (document, log) = match &text[end..] {
            [] => (end, &[][..]),
            [b'\n', log @ ..] => (end + 1, log),
            _ => {
                return Err(admin(
                    "reading snapshot: trailing characters after the document",
                ))
            }
        };
        let (entries, folded) = fold_records(entries, log)?;
        let entries: Vec<_> = entries
            .into_iter()
            .map(|tables| Mutex::new(Some(tables)))
            .collect();
        // Each worker takes the tables of the entries it steals.
        let built = parallel_map_indexed(
            &entries,
            threads,
            || (),
            |_, _, entry| match entry.lock().map(|mut tables| tables.take()) {
                Ok(Some(tables)) => StreamEngine::from_stream_tables(tables),
                _ => Err(not_running()),
            },
            |_| {},
        );
        let built = built.into_iter().collect::<Result<Vec<_>, _>>()?;
        let mut names: Vec<&str> = built.iter().map(|(name, _)| name.as_str()).collect();
        names.sort_unstable();
        if let Some(twice) = names.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(admin(format!("snapshot names stream `{}` twice", twice[0])));
        }

        let mut stripes = Vec::with_capacity(self.stripes.len());
        for stripe in self.stripes.iter() {
            stripes.push(stripe.lock().map_err(|_| not_running())?);
        }
        let count = stripes.len();
        let home = |name: &str| stripe_index(name, count);
        let open = |name: &str| stripes[home(name)].contains_key(name);
        if let Some((name, _)) = built.iter().find(|(name, _)| open(name)) {
            return Err(admin(format!(
                "snapshot names stream `{name}`, which is already open"
            )));
        }
        if self.open_streams.fetch_add(built.len(), Ordering::SeqCst) + built.len() > MAX_STREAMS {
            self.open_streams.fetch_sub(built.len(), Ordering::SeqCst);
            return Err(admin("snapshot exceeds the stream limit"));
        }
        let installed = built.len();
        for (name, engine) in built {
            let stripe = home(&name);
            stripes[stripe].insert(name.into_boxed_str(), engine);
        }
        Ok(Restored {
            streams: installed,
            document,
            complete: document + folded,
            current: current && document > end,
        })
    }

    /// [`restore_text`](PoolHandle::restore_text) on the compact text of
    /// `doc`: for callers that hold the document as a tree.
    pub fn restore_document(&self, doc: &Json, threads: usize) -> Result<usize, ServeError> {
        let mut text = Vec::new();
        doc.write_compact(&mut text);
        self.restore_text(&text, threads)
    }
}

/// The pool itself: the stripes, reached through its handle.
pub struct EnginePool {
    handle: PoolHandle,
}

impl EnginePool {
    /// Creates a pool of `workers` stripes (at least one).
    pub fn new(workers: usize) -> EnginePool {
        let stripes = (0..workers.max(1)).map(|_| Stripe::default()).collect();
        EnginePool {
            handle: PoolHandle {
                stripes,
                open_streams: Arc::new(AtomicUsize::new(0)),
            },
        }
    }

    /// Number of stripes.
    pub fn workers(&self) -> usize {
        self.handle.stripes.len()
    }

    /// A cloneable request handle for connection threads.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Retires the pool. There is no thread to stop; the engines are
    /// freed when the last handle drops.
    pub fn join(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, EventKind};

    fn req(line: &str) -> Request {
        parse_request(line.as_bytes()).expect("test request parses")
    }

    /// Replays the same multi-tenant session against pools of different
    /// sizes: per-stream replies must be byte-identical.
    #[test]
    fn worker_count_does_not_change_replies() {
        let session = [
            r#"{"op":"open","stream":"a","processes":3}"#,
            r#"{"op":"open","stream":"b","processes":2}"#,
            r#"{"op":"event","stream":"a","type":"checkpoint","process":0}"#,
            r#"{"op":"event","stream":"a","type":"send","from":0,"to":1}"#,
            r#"{"op":"event","stream":"b","type":"send","from":1,"to":0}"#,
            r#"{"op":"event","stream":"a","type":"deliver","message":0}"#,
            r#"{"op":"event","stream":"b","type":"deliver","message":0}"#,
            r#"{"op":"event","stream":"a","type":"checkpoint","process":1}"#,
            r#"{"op":"query","stream":"a","what":"untrackable"}"#,
            r#"{"op":"query","stream":"a","what":"recovery-line"}"#,
            r#"{"op":"query","stream":"b","what":"recovery-line"}"#,
            r#"{"op":"event","stream":"a","type":"crash","process":1}"#,
            r#"{"op":"query","stream":"b","what":"untrackable"}"#,
        ];
        let mut transcripts: Vec<Vec<String>> = Vec::new();
        for workers in [1, 2, 7] {
            let pool = EnginePool::new(workers);
            let handle = pool.handle();
            let replies: Vec<String> = session
                .iter()
                .map(|line| handle.request(req(line)).to_string())
                .collect();
            pool.join();
            transcripts.push(replies);
        }
        assert_eq!(transcripts[0], transcripts[1]);
        assert_eq!(transcripts[0], transcripts[2]);
    }

    /// Errors on one stream leave other tenants fully operational.
    #[test]
    fn tenant_isolation_across_errors() {
        let pool = EnginePool::new(3);
        let handle = pool.handle();
        handle.request(req(r#"{"op":"open","stream":"good","processes":2}"#));
        handle.request(req(r#"{"op":"open","stream":"evil","processes":2}"#));
        // A storm of invalid events on `evil`.
        for _ in 0..10 {
            let reply = handle.request(req(
                r#"{"op":"event","stream":"evil","type":"deliver","message":7}"#,
            ));
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        }
        // `good` is unaffected.
        let reply = handle.request(req(
            r#"{"op":"event","stream":"good","type":"send","from":0,"to":1}"#,
        ));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        let reply = handle.request(req(
            r#"{"op":"query","stream":"good","what":"untrackable"}"#,
        ));
        assert_eq!(reply.get("untrackable"), Some(&Json::U64(0)));
        pool.join();
    }

    /// Snapshot → restore into a fresh pool (different worker count)
    /// answers every query byte-identically.
    #[test]
    fn snapshot_restore_across_pool_sizes() {
        let pool = EnginePool::new(2);
        let handle = pool.handle();
        for line in [
            r#"{"op":"open","stream":"t1","processes":3}"#,
            r#"{"op":"open","stream":"t2","processes":2}"#,
            r#"{"op":"event","stream":"t1","type":"send","from":0,"to":1}"#,
            r#"{"op":"event","stream":"t1","type":"deliver","message":0}"#,
            r#"{"op":"event","stream":"t1","type":"checkpoint","process":1}"#,
            r#"{"op":"event","stream":"t2","type":"checkpoint","process":0}"#,
        ] {
            let reply = handle.request(req(line));
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{line}");
        }
        let doc = handle.snapshot_document().expect("snapshot");
        let queries = [
            r#"{"op":"query","stream":"t1","what":"untrackable"}"#,
            r#"{"op":"query","stream":"t1","what":"recovery-line"}"#,
            r#"{"op":"query","stream":"t1","what":"min-consistent","members":[[1,1]]}"#,
            r#"{"op":"query","stream":"t2","what":"recovery-line"}"#,
        ];
        let before: Vec<String> = queries
            .iter()
            .map(|line| handle.request(req(line)).to_string())
            .collect();
        pool.join();

        let pool2 = EnginePool::new(5);
        let handle2 = pool2.handle();
        let installed = handle2.restore_document(&doc, 4).expect("restore");
        assert_eq!(installed, 2);
        let after: Vec<String> = queries
            .iter()
            .map(|line| handle2.request(req(line)).to_string())
            .collect();
        assert_eq!(before, after);
        // And the re-snapshot is byte-identical too.
        assert_eq!(
            doc.to_string(),
            handle2.snapshot_document().expect("snapshot").to_string()
        );
        pool2.join();
    }

    fn open(handle: &PoolHandle, stream: &str, processes: usize) -> Json {
        handle.request(Request::Open {
            stream: stream.to_string(),
            processes,
        })
    }

    fn query(handle: &PoolHandle, stream: &str, what: &str) -> String {
        let line = format!(r#"{{"op":"query","stream":"{stream}","what":"{what}"}}"#);
        handle.request(req(&line)).to_string()
    }

    /// Eight threads, one handle clone each, send concurrently on four
    /// streams of one stripe and four of other stripes. Per stream the
    /// message ids handed out are exactly `0..k`, and the engine ends up
    /// in the state a single-threaded replay of the sends in id order
    /// produces.
    #[test]
    fn concurrent_requests_serialise_per_stream() {
        const STRIPES: usize = 5;
        const THREADS: usize = 8;
        const ROUNDS: usize = 40;
        const N: usize = 4;
        let stripe = |name: &str| stripe_index(name, STRIPES);
        let candidates = || (0..).map(|i| format!("s{i}"));
        let mut streams: Vec<String> = candidates().filter(|s| stripe(s) == 0).take(4).collect();
        for other in 1..STRIPES {
            streams.extend(candidates().find(|s| stripe(s) == other));
        }
        assert_eq!(streams.len(), 8);

        let pool = EnginePool::new(STRIPES);
        for stream in &streams {
            assert_eq!(
                open(&pool.handle(), stream, N).get("ok"),
                Some(&Json::Bool(true))
            );
        }
        // Every thread starts on the barrier so the sends overlap.
        let barrier = std::sync::Barrier::new(THREADS);
        // Per thread: (stream index, message id, from, to) of every send.
        let logs: Vec<Vec<(usize, u64, usize, usize)>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (handle, streams, barrier) = (pool.handle(), &streams, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut log = Vec::new();
                        for round in 0..ROUNDS {
                            for (s, stream) in streams.iter().enumerate() {
                                let from = t % N;
                                let to = (from + 1 + round % (N - 1)) % N;
                                let reply = handle.request(Request::Event {
                                    stream: stream.clone(),
                                    event: EventKind::Send { from, to },
                                });
                                let id = reply.get("message").and_then(Json::as_u64);
                                log.push((s, id.expect("send accepted"), from, to));
                            }
                        }
                        log
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("sender thread"))
                .collect()
        });

        let replay = EnginePool::new(1);
        for (s, stream) in streams.iter().enumerate() {
            let mut sends: Vec<(u64, usize, usize)> = logs
                .iter()
                .flatten()
                .filter(|entry| entry.0 == s)
                .map(|&(_, id, from, to)| (id, from, to))
                .collect();
            sends.sort_unstable();
            let ids: Vec<u64> = sends.iter().map(|send| send.0).collect();
            let expected: Vec<u64> = (0..(THREADS * ROUNDS) as u64).collect();
            assert_eq!(ids, expected, "{stream}: gap or duplicate");

            open(&replay.handle(), stream, N);
            for &(id, from, to) in &sends {
                let line = format!(
                    r#"{{"op":"event","stream":"{stream}","type":"send","from":{from},"to":{to}}}"#
                );
                let reply = replay.handle().request(req(&line));
                assert_eq!(reply.get("message"), Some(&Json::U64(id)));
            }
            // The same deliveries, checkpoints and answering sends on both
            // sides make the final answers depend on which send got which
            // id.
            for handle in [pool.handle(), replay.handle()] {
                for &(id, from, to) in &sends {
                    let mut events = vec![EventKind::Deliver { message: id as u32 }];
                    if id % 3 == 0 {
                        events.push(EventKind::Checkpoint { process: from });
                    }
                    if id % 2 == 0 {
                        events.push(EventKind::Send { from: to, to: from });
                    }
                    for event in events {
                        let reply = handle.request(Request::Event {
                            stream: stream.clone(),
                            event,
                        });
                        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
                    }
                }
            }
            for what in ["untrackable", "recovery-line"] {
                assert_eq!(
                    query(&pool.handle(), stream, what),
                    query(&replay.handle(), stream, what),
                    "{stream}: {what}"
                );
            }
        }
        assert_eq!(
            pool.handle()
                .snapshot_document()
                .expect("snapshot")
                .to_string(),
            replay
                .handle()
                .snapshot_document()
                .expect("snapshot")
                .to_string()
        );
    }

    /// Concurrent opens beyond `MAX_STREAMS`: exactly the limit is
    /// admitted, and rejected opens and successful closes give their
    /// reservation back.
    #[test]
    fn stream_limit_holds_under_concurrent_opens() {
        const THREADS: usize = 8;
        let per_thread = MAX_STREAMS / THREADS + 25;
        let pool = EnginePool::new(3);
        let barrier = std::sync::Barrier::new(THREADS);
        let opened: Vec<Vec<String>> = std::thread::scope(|scope| {
            let openers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (handle, barrier) = (pool.handle(), &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let mut mine = Vec::new();
                        for i in 0..per_thread {
                            let name = format!("t{t}-{i}");
                            let reply = open(&handle, &name, 1);
                            if reply.get("ok") == Some(&Json::Bool(true)) {
                                mine.push(name);
                            } else {
                                let text = reply.to_string();
                                assert!(text.contains(r#""kind":"limit""#), "{text}");
                            }
                        }
                        mine
                    })
                })
                .collect();
            openers
                .into_iter()
                .map(|o| o.join().expect("opener thread"))
                .collect()
        });
        let handle = pool.handle();
        let admitted: usize = opened.iter().map(Vec::len).sum();
        assert_eq!(admitted, MAX_STREAMS);
        assert_eq!(handle.open_streams.load(Ordering::SeqCst), MAX_STREAMS);

        // A duplicate open at the limit is refused by the limit, a close
        // frees one slot, a duplicate open below the limit is refused by
        // the stripe and releases its reservation again.
        let name = &opened.iter().flatten().next().expect("one stream")[..];
        assert!(open(&handle, name, 1)
            .to_string()
            .contains(r#""kind":"limit""#));
        let close = format!(r#"{{"op":"close","stream":"{name}"}}"#);
        assert_eq!(
            handle.request(req(&close)).get("ok"),
            Some(&Json::Bool(true))
        );
        assert_eq!(
            handle.request(req(&close)).get("ok"),
            Some(&Json::Bool(false))
        );
        assert_eq!(handle.open_streams.load(Ordering::SeqCst), MAX_STREAMS - 1);
        let other = &opened.iter().flatten().nth(1).expect("two streams")[..];
        assert!(open(&handle, other, 1)
            .to_string()
            .contains(r#""kind":"stream""#));
        assert_eq!(handle.open_streams.load(Ordering::SeqCst), MAX_STREAMS - 1);
        assert_eq!(open(&handle, name, 1).get("ok"), Some(&Json::Bool(true)));
        assert!(open(&handle, "one-too-many", 1)
            .to_string()
            .contains(r#""kind":"limit""#));
        assert_eq!(handle.open_streams.load(Ordering::SeqCst), MAX_STREAMS);
    }

    /// No output depends on the order a stripe's map iterates in. Two pools
    /// take the same streams in opposite orders; their maps, each hashing
    /// under keys of its own, iterate in different orders. The `streams`
    /// reply, the snapshot document and a whole persist must still be the
    /// same bytes, and so must the record persisted after more events and
    /// a close, sent in opposite orders too.
    #[test]
    fn no_output_depends_on_map_order() {
        let names: Vec<String> = (0..64).map(|i| format!("tenant-{i:02}")).collect();
        let handles = [EnginePool::new(2).handle(), EnginePool::new(2).handle()];
        let feed = |handle: &PoolHandle, frames: &mut dyn Iterator<Item = String>| {
            let mut out = Vec::new();
            for frame in frames {
                out.clear();
                assert!(handle.answer_frame(frame.as_bytes(), &mut out).is_none());
                assert!(out.starts_with(br#"{"ok":true"#), "{frame}");
            }
        };
        let first = |name: &String| {
            [
                format!(r#"{{"op":"open","stream":"{name}","processes":3}}"#),
                format!(r#"{{"op":"event","stream":"{name}","type":"send","from":0,"to":1}}"#),
                format!(r#"{{"op":"event","stream":"{name}","type":"deliver","message":0}}"#),
                format!(r#"{{"op":"event","stream":"{name}","type":"checkpoint","process":1}}"#),
            ]
        };
        let then = |name: &String| {
            let last = if name.ends_with('7') {
                format!(r#"{{"op":"close","stream":"{name}"}}"#)
            } else {
                format!(r#"{{"op":"event","stream":"{name}","type":"send","from":2,"to":0}}"#)
            };
            [
                format!(r#"{{"op":"event","stream":"{name}","type":"checkpoint","process":2}}"#),
                last,
            ]
        };
        feed(&handles[0], &mut names.iter().flat_map(first));
        feed(&handles[1], &mut names.iter().rev().flat_map(first));
        let order = |handle: &PoolHandle| {
            let mut keys: Vec<Box<str>> = Vec::new();
            for stripe in handle.stripes.iter() {
                keys.extend(stripe.lock().expect("stripe").keys().cloned());
            }
            keys
        };
        assert_ne!(
            order(&handles[0]),
            order(&handles[1]),
            "the maps iterate alike"
        );

        let outputs = |handle: &PoolHandle| {
            let mut streams = Vec::new();
            assert!(handle
                .answer_frame(br#"{"op":"streams"}"#, &mut streams)
                .is_none());
            let mut document = Vec::new();
            handle
                .write_snapshot_document(&mut document)
                .expect("document");
            let mut whole = Vec::new();
            handle
                .write_persist(&mut whole, true)
                .expect("whole persist");
            [streams, document, whole]
        };
        assert_eq!(outputs(&handles[0]), outputs(&handles[1]));
        feed(&handles[0], &mut names.iter().flat_map(then));
        feed(&handles[1], &mut names.iter().rev().flat_map(then));
        let record = |handle: &PoolHandle| {
            let mut record = Vec::new();
            let rendered = handle.write_persist(&mut record, false).expect("record");
            assert_eq!(rendered.live, 58);
            record
        };
        assert_eq!(record(&handles[0]), record(&handles[1]));
    }

    /// Closing what a burst opened gives the stripe's table back: 4 000
    /// streams opened and closed leave room for a few dozen, not 4 000.
    #[test]
    fn closed_streams_give_their_buckets_back() {
        let handle = EnginePool::new(1).handle();
        let names: Vec<String> = (0..4000).map(|i| format!("burst-{i}")).collect();
        for name in &names {
            assert_eq!(open(&handle, name, 1).get("ok"), Some(&Json::Bool(true)));
        }
        let capacity = || handle.stripes[0].lock().expect("stripe").capacity();
        assert!(capacity() >= 4000);
        for name in &names {
            let close = format!(r#"{{"op":"close","stream":"{name}"}}"#);
            assert_eq!(
                handle.request(req(&close)).get("ok"),
                Some(&Json::Bool(true))
            );
        }
        assert!(capacity() <= 64, "room for {} streams kept", capacity());
    }

    /// What a poisoned stripe answers, byte for byte, to every op on one of
    /// its streams, scanned or parsed: the literal was captured at commit
    /// 77eaae6, where this refusal was still a tree.
    #[test]
    fn a_poisoned_stripe_refuses_with_the_pinned_bytes() {
        let handle = EnginePool::new(1).handle();
        assert_eq!(open(&handle, "s", 2).get("ok"), Some(&Json::Bool(true)));
        let poisoner = handle.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.stripes[0].lock().expect("first lock");
            panic!("poisoning the stripe on purpose");
        })
        .join();
        assert!(panicked.is_err());
        let refused = r#"{"ok":false,"stream":"s","error":{"kind":"admin","message":"shard is not running"}}"#;
        for frame in [
            r#"{"op":"event","stream":"s","type":"send","from":0,"to":1}"#,
            r#"{"op":"query","stream":"s","what":"untrackable"}"#,
            r#"{ "op":"event","stream":"s","type":"checkpoint","process":0}"#,
            r#"{"op":"open","stream":"s","processes":2}"#,
            r#"{"op":"compact","stream":"s"}"#,
            r#"{"op":"close","stream":"s"}"#,
        ] {
            let mut out = Vec::new();
            assert!(handle.answer_frame(frame.as_bytes(), &mut out).is_none());
            assert_eq!(
                String::from_utf8_lossy(&out),
                format!("{refused}\n"),
                "{frame}"
            );
        }
    }

    /// A request that panicked under a stripe's lock takes that stripe
    /// out of service in-band; the other stripes keep serving.
    #[test]
    fn poisoned_stripe_answers_in_band() {
        let pool = EnginePool::new(2);
        let handle = pool.handle();
        let name_on = |i: usize| {
            (0..)
                .map(|k| format!("s{k}"))
                .find(|s| stripe_index(s, 2) == i)
                .expect("a name per stripe")
        };
        let (dead, alive) = (name_on(0), name_on(1));
        for name in [&dead, &alive] {
            assert_eq!(open(&handle, name, 2).get("ok"), Some(&Json::Bool(true)));
        }
        let poisoner = handle.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.stripes[0].lock().expect("first lock");
            panic!("poisoning stripe 0 on purpose");
        })
        .join();
        assert!(panicked.is_err());

        let reply = query(&handle, &dead, "untrackable");
        assert!(reply.contains(r#""kind":"admin""#), "{reply}");
        assert!(reply.contains("shard is not running"), "{reply}");
        assert_eq!(
            query(&handle, &alive, "untrackable"),
            r#"{"ok":true,"untrackable":0}"#
        );
        assert_eq!(
            handle.request(Request::Streams).to_string(),
            format!(r#"{{"ok":true,"streams":["{alive}"]}}"#)
        );
        assert_eq!(
            handle.snapshot_document().expect_err("poisoned").kind,
            ErrorKind::Admin
        );
    }
}
