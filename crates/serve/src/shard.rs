//! The lock-striped engine pool.
//!
//! Streams are partitioned over `workers` *stripes* by an FNV-1a hash of
//! the stream name; each stripe is a `Mutex<BTreeMap<name, StreamEngine>>`
//! and a request runs on the thread that submitted it, under its
//! stripe's lock — no shard threads, no hand-off. The determinism
//! contract is unchanged: a stream's replies depend only on the order of
//! its own requests — never on the stripe count or on what other tenants
//! do. One connection executes its frames in order on one thread, and
//! across connections the stripe lock serialises a stream's requests, so
//! replaying a session against a 1-stripe and an N-stripe pool yields
//! byte-identical per-stream replies. A long request (a compaction) delays
//! only requests of the same stripe; a snapshot holds one stripe's lock
//! for one stream at a time, for as long as rendering that stream takes —
//! with its snapshot cache hot, what changed in it since the last persist.
//!
//! A stripe has one door, `run_op`: every stream-scoped op runs through it
//! and comes back as a typed [`Reply`] or a [`ServeError`].
//! [`PoolHandle::answer_frame`] is the daemon's way to it: bytes in, reply
//! line out. A canonical `event` or `query` frame ([`scan_request`]) picks
//! its stripe by hashing the stream name where it lies in the frame and
//! finds the engine with `BTreeMap::get_mut(&str)` — no `String`, no tree;
//! every other frame is parsed into a [`Request`] first. Either way the
//! reply goes straight into the caller's buffer. [`PoolHandle::request`]
//! and [`handle_request`] take a parsed request to the same door and
//! return the parsed form of the same text.
//!
//! Snapshot restore ([`PoolHandle::restore_text`]) reads the file's bytes
//! in one sequential pass — no `Json` tree — and reuses the deterministic
//! work-stealing pool ([`rdt_sim::parallel_map_indexed`]) to validate and
//! build many engines in parallel: results come back in item order, so the
//! restored daemon is identical for any `--workers` count there too, and
//! nothing is installed unless everything built.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rdt_json::{Json, JsonReader, JsonWriter};
use rdt_sim::parallel_map_indexed;

use crate::engine::{once, unreadable, StreamEngine, StreamTables};
use crate::protocol::{
    admin, parse_request, scan_request, DaemonOp, ErrorKind, HotRequest, Reply, Request, Route,
    ServeError, StreamOp, MAX_STREAMS,
};

/// Daemon snapshot format marker.
pub const POOL_SNAPSHOT_FORMAT: &str = "rdt-serve-snapshot";

/// Daemon snapshot format version.
pub const POOL_SNAPSHOT_VERSION: u64 = 1;

/// FNV-1a 64-bit — stable across platforms, so shard assignment (and
/// with it any shard-local observable) is reproducible everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
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

/// The stripe door: runs one stream-scoped op on `stream` against a
/// stripe's engines — under the stripe's lock when the pool calls it. This
/// is the daemon's ingest heart: it must never panic on any input, which
/// the `panic-reachability` lint enforces statically from this entry point.
fn run_op<'a>(
    streams: &mut BTreeMap<String, StreamEngine>,
    stream: &'a str,
    op: StreamOp<'_>,
) -> Result<Reply<'a>, ServeError> {
    let refuse = |message| Err(ServeError::new(ErrorKind::Stream, message));
    match (op, streams.get_mut(stream)) {
        (StreamOp::Open(_), Some(_)) => refuse(format!("stream `{stream}` already open")),
        (StreamOp::Open(processes), None) => {
            streams.insert(stream.to_string(), StreamEngine::new(processes));
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
            streams.remove(stream);
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

/// Runs one stream-scoped request against a stripe's engines through the
/// stripe door and returns the parsed form of the line the daemon would
/// send for it. The daemon itself does not come through here.
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

type Stripe = Mutex<BTreeMap<String, StreamEngine>>;

/// A poisoned stripe (a request panicked under its lock) is out of
/// service: its streams answer in-band with this error, other stripes
/// keep serving.
fn not_running() -> ServeError {
    ServeError::new(ErrorKind::Admin, "shard is not running")
}

/// The lexical half of a restore: the envelope and every stream entry of a
/// daemon snapshot document, read in sequence into typed tables.
fn read_document(text: &[u8]) -> Result<Vec<StreamTables>, ServeError> {
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
            "streams" => {
                let mut list = Vec::new();
                r.begin_array().map_err(unreadable)?;
                while r.next_item().map_err(unreadable)? {
                    if list.len() == MAX_STREAMS {
                        return Err(admin("snapshot exceeds the stream limit"));
                    }
                    list.push(StreamEngine::read_stream_snapshot(&mut r)?);
                }
                once(&mut entries, &key, list)?;
            }
            _ => r.skip_value().map_err(unreadable)?,
        }
    }
    r.end().map_err(unreadable)?;
    if format.as_deref() != Some(POOL_SNAPSHOT_FORMAT) {
        return Err(admin("not an rdt-serve snapshot"));
    }
    if version != Some(POOL_SNAPSHOT_VERSION) {
        return Err(admin("unsupported snapshot version"));
    }
    entries.ok_or_else(|| admin("missing `streams` array"))
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
    /// `serve_connection` calls per frame. A canonical `event` or `query`
    /// ([`scan_request`]) runs under its stripe's lock — chosen by hashing
    /// the name where it lies in `frame` — and nothing is allocated for the
    /// frame itself; every other frame goes through [`parse_request`] first.
    /// The reply line, newline included, is written straight into `out` and
    /// `None` returned — except for `snapshot`, `ping` and `shutdown`, which
    /// are the server's to answer and are handed back with nothing written.
    pub fn answer_frame(&self, frame: &[u8], out: &mut Vec<u8>) -> Option<DaemonOp> {
        let parsed;
        let reply = match scan_request(frame) {
            Some(HotRequest::Event { stream, event }) => self.run(stream, StreamOp::Event(&event)),
            Some(HotRequest::Query { stream, query }) => self.run(stream, StreamOp::Query(&query)),
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
                Ok(mut streams) => run_op(&mut streams, stream, op),
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
                names.extend(streams.keys().cloned());
            }
        }
        names.sort();
        names
    }

    /// Appends the daemon snapshot document to `out` and returns the number
    /// of streams in it: every stream of every stripe, sorted by name so the
    /// document is identical for any worker count. On an error `out` may
    /// hold part of a document.
    ///
    /// The names are collected stripe by stripe, then each stream is
    /// rendered — through its own snapshot cache — straight into `out`, in
    /// name order, under its stripe's lock, taken for that one stream. A
    /// stream closed in between is not in the document; one opened in
    /// between is in the next.
    pub fn write_snapshot_document(&self, out: &mut Vec<u8>) -> Result<usize, ServeError> {
        let mut names: Vec<(String, usize)> = Vec::new();
        for (i, stripe) in self.stripes.iter().enumerate() {
            let streams = stripe.lock().map_err(|_| not_running())?;
            names.extend(streams.keys().map(|name| (name.clone(), i)));
        }
        names.sort_unstable();
        let mut w = JsonWriter::new(out);
        w.begin_object();
        w.key("format").str(POOL_SNAPSHOT_FORMAT);
        w.key("version").u64(POOL_SNAPSHOT_VERSION);
        w.key("streams").begin_array();
        let mut written = 0;
        for (name, stripe) in &names {
            let mut streams = self.stripes[*stripe].lock().map_err(|_| not_running())?;
            if let Some(engine) = streams.get_mut(name) {
                engine.write_stream_snapshot(name, &mut w);
                written += 1;
            }
        }
        w.end_array();
        w.end_object();
        Ok(written)
    }

    /// The daemon snapshot document as a [`Json`] tree: the parsed form of
    /// what [`write_snapshot_document`](PoolHandle::write_snapshot_document)
    /// writes. The daemon does not call it.
    pub fn snapshot_document(&self) -> Result<Json, ServeError> {
        let mut text = Vec::new();
        self.write_snapshot_document(&mut text)?;
        Json::parse_bytes(&text).map_err(|e| ServeError::new(ErrorKind::Admin, e.to_string()))
    }

    /// Restores every stream of a snapshot document — the file's bytes —
    /// into the pool, or none of them.
    ///
    /// The text is read once, in sequence, into per-stream typed tables
    /// ([`StreamEngine::read_stream_snapshot`]: no `Json` tree); the tables
    /// are validated and the engines built in parallel on the deterministic
    /// work-stealing pool; and only when every entry has built, no name
    /// comes twice or is already open, and the stream limit holds, are the
    /// engines installed, under all stripe locks at once. Anything else is
    /// an [`ErrorKind::Admin`] error that leaves the pool as it was.
    pub fn restore_text(&self, text: &[u8], threads: usize) -> Result<usize, ServeError> {
        let entries: Vec<_> = read_document(text)?
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
        if let Some((name, _)) = built.iter().find(|(n, _)| stripes[home(n)].contains_key(n)) {
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
            stripes[stripe].insert(name, engine);
        }
        Ok(installed)
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
