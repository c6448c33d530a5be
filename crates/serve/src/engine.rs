//! One tenant stream: an [`IncrementalAnalysis`] — the R-graph core and
//! nothing else: no wire query reads a chain closure or takes a mark, so the
//! daemon's engine carries neither the chain layer nor the undo journal —
//! plus stream-level metadata, with fully fallible ingest.
//!
//! Every event routes through the engine's `try_append_*` APIs, so an
//! adversarial event order — deliver before send, duplicate delivery,
//! checkpoint on an unknown process — comes back as a structured
//! [`ServeError`] and leaves the stream's state untouched. Queries
//! validate their members before touching the engine for the same
//! reason.

use rdt_causality::{CheckpointId, ProcessId};
use rdt_json::{Json, JsonError, JsonReader, JsonWriter};
use rdt_rgraph::{IncrementalAnalysis, SnapshotMarks, SnapshotTables};

use crate::protocol::{
    admin, ErrorKind, EventKind, QueryKind, Reply, ServeError, MAX_NAME_BYTES, MAX_PROCESSES,
};

/// Stream snapshot format marker (one per stream inside the daemon
/// document).
pub const STREAM_SNAPSHOT_FORMAT: &str = "rdt-serve-stream";

/// One entry of the daemon snapshot document, read and typed but not yet
/// validated: what [`StreamEngine::read_stream_snapshot`] returns and
/// [`StreamEngine::from_stream_tables`] takes.
#[derive(Debug, Default)]
pub struct StreamTables {
    name: Option<String>,
    crashes: Option<u64>,
    engine: Option<SnapshotTables>,
}

impl StreamTables {
    /// The name the entry gives, if any.
    pub(crate) fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Whether the entry's engine document is of the version this build
    /// writes ([`SnapshotTables::is_current`]).
    pub(crate) fn is_current(&self) -> bool {
        self.engine.as_ref().is_some_and(SnapshotTables::is_current)
    }

    /// Whether the entry is a delta: its engine's tables extend the ones
    /// an earlier entry of the stream holds ([`SnapshotTables::is_delta`]).
    pub(crate) fn is_delta(&self) -> bool {
        self.engine.as_ref().is_some_and(SnapshotTables::is_delta)
    }

    /// Lays a delta entry of this stream over this one: its crash counter
    /// replaces this one's, its engine tables are folded over these.
    pub(crate) fn fold(&mut self, delta: StreamTables) -> Result<(), ServeError> {
        let name = self.name.as_deref().unwrap_or("?");
        let stream_err = |e: rdt_rgraph::SnapshotError| admin(format!("stream `{name}`: {e}"));
        match (self.engine.as_mut(), delta.engine) {
            (Some(base), Some(engine)) => base.fold(engine).map_err(stream_err)?,
            _ => return Err(admin(format!("stream `{name}`: a delta with no base"))),
        }
        if delta.crashes.is_some() {
            self.crashes = delta.crashes;
        }
        Ok(())
    }
}

/// A snapshot that is not the JSON its reader expects, as an `admin` error.
pub(crate) fn unreadable(e: JsonError) -> ServeError {
    admin(format!("reading snapshot: {e}"))
}

/// Keeps the value read for `key` of a snapshot object. A key that is read
/// may come once, at every level of the document: a restore does not get to
/// choose between two tables.
pub(crate) fn once<T>(slot: &mut Option<T>, key: &str, value: T) -> Result<(), ServeError> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err(admin(format!("snapshot key `{key}` appears twice"))),
    }
}

/// Writes one entry of the daemon snapshot document: the stream's metadata,
/// then the engine's own document as `engine` writes it; returns what
/// `engine` does.
fn write_entry<T>(
    name: &str,
    crashes: u64,
    w: &mut JsonWriter<'_>,
    engine: impl FnOnce(&mut JsonWriter<'_>) -> T,
) -> T {
    w.begin_object();
    w.key("format").str(STREAM_SNAPSHOT_FORMAT);
    w.key("name").str(name);
    w.key("crashes").u64(crashes);
    let written = engine(w.key("engine"));
    w.end_object();
    written
}

/// Members of a query up to which their checkpoint ids stay on the stack.
const MEMBER_STACK_ENTRIES: usize = 16;

/// Runs `f` on `members` as checkpoint ids: on the stack up to
/// [`MEMBER_STACK_ENTRIES`] of them, in one `Vec` above.
fn with_checkpoint_ids<T>(members: &[(usize, u32)], f: impl FnOnce(&[CheckpointId]) -> T) -> T {
    let id = |&(p, idx): &(usize, u32)| CheckpointId::new(ProcessId::new(p), idx);
    if members.len() > MEMBER_STACK_ENTRIES {
        return f(&members.iter().map(id).collect::<Vec<_>>());
    }
    let mut stack = [CheckpointId::new(ProcessId::new(0), 0); MEMBER_STACK_ENTRIES];
    for (slot, member) in stack.iter_mut().zip(members) {
        *slot = id(member);
    }
    f(&stack[..members.len()])
}

/// One tenant stream.
#[derive(Debug)]
pub struct StreamEngine {
    /// Boxed, like the optional fields below: a stripe's hash table holds
    /// its streams by value, one to a bucket, with at least one bucket in
    /// eight empty.
    engine: Box<IncrementalAnalysis>,
    /// Crash events observed (crashes are markers: they report the
    /// recovery line but do not mutate the pattern).
    crashes: u64,
    /// What the last persist that wrote this stream wrote of it, or the
    /// restore that read it from a version 4 entry; `None` until then (one
    /// pointer: the stripes hold thousands of streams inline).
    on_disk: Option<Box<OnDisk>>,
    /// The last recovery line this stream answered, then the frontier it
    /// holds for (`n` entries each, one block); `None` until the first
    /// `recovery-line` or `crash`, and after a restore. Never persisted.
    line: Option<Box<[u32]>>,
}

#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<StreamEngine>() == 40);

/// What of a stream a persist wrote.
#[derive(Debug)]
struct OnDisk {
    marks: SnapshotMarks,
    crashes: u64,
}

impl StreamEngine {
    /// Creates an empty stream over `processes` processes. The caller
    /// (the protocol layer) has already validated the bound.
    pub fn new(processes: usize) -> StreamEngine {
        StreamEngine {
            engine: Box::new(IncrementalAnalysis::new(processes)),
            crashes: 0,
            on_disk: None,
            line: None,
        }
    }

    /// Number of processes in the stream.
    pub fn processes(&self) -> usize {
        self.engine.num_processes()
    }

    /// Events accepted so far.
    pub fn events(&self) -> usize {
        self.engine.events_appended()
    }

    /// The recovery line: greatest consistent global checkpoint dominated
    /// by the current frontier. The last line answered is reused unless a
    /// checkpoint taken since it fits the frontier or is undecided
    /// ([`IncrementalAnalysis::any_fits_beyond`]); only then does the
    /// descent run again, with the current frontier as its caps. Either way
    /// the cache then holds for that frontier.
    fn recovery_line(&mut self) -> Vec<u32> {
        let n = self.engine.num_processes();
        let engine = &mut self.engine;
        let stale = self
            .line
            .as_deref()
            .is_none_or(|c| engine.any_fits_beyond(&c[n..]));
        let cache = self
            .line
            .get_or_insert_with(|| vec![0; 2 * n].into_boxed_slice());
        let (line, frontier) = cache.split_at_mut(n);
        for (p, last) in frontier.iter_mut().enumerate() {
            *last = engine.last_checkpoint_index(ProcessId::new(p));
        }
        if stale {
            engine.max_consistent_dominated_into(frontier, line);
        }
        line.to_vec()
    }

    /// Applies one event. On failure the engine state is untouched.
    pub fn ingest_event(&mut self, event: &EventKind) -> Result<Reply<'static>, ServeError> {
        let event_err =
            |e: rdt_rgraph::AppendError| ServeError::new(ErrorKind::Event, e.to_string());
        match *event {
            EventKind::Checkpoint { process } => {
                let id = self
                    .engine
                    .try_append_checkpoint(ProcessId::new(process))
                    .map_err(event_err)?;
                Ok(Reply::Checkpoint(id.index))
            }
            EventKind::Send { from, to } => {
                let mid = self
                    .engine
                    .try_append_send(ProcessId::new(from), ProcessId::new(to))
                    .map_err(event_err)?;
                Ok(Reply::Message(mid))
            }
            EventKind::Deliver { message } => {
                self.engine.try_append_deliver(message).map_err(event_err)?;
                Ok(Reply::Delivered)
            }
            EventKind::Crash { process } => {
                if process >= self.processes() {
                    return Err(ServeError::new(
                        ErrorKind::Event,
                        format!(
                            "process {process} out of range (stream has {})",
                            self.processes()
                        ),
                    ));
                }
                self.crashes += 1;
                Ok(Reply::Crashed {
                    crashes: self.crashes,
                    line: self.recovery_line(),
                })
            }
        }
    }

    /// Answers one query. All member validation happens before the engine
    /// is consulted, so invalid members are [`ErrorKind::Query`] errors
    /// rather than panics.
    pub fn answer_query(&mut self, query: &QueryKind) -> Result<Reply<'static>, ServeError> {
        match query {
            QueryKind::Untrackable => Ok(Reply::Untrackable(self.engine.untrackable_pairs())),
            QueryKind::RecoveryLine => Ok(Reply::Line(self.recovery_line())),
            QueryKind::MinConsistent(members) | QueryKind::MaxConsistent(members) => {
                self.validate_members(members)?;
                let min = matches!(query, QueryKind::MinConsistent(_));
                let gc = with_checkpoint_ids(members, |ids| self.consistent_containing(ids, min));
                Ok(Reply::Global(gc))
            }
        }
    }

    /// The scanned members, each checked where it lies: the first that
    /// names no checkpoint of the stream is the error.
    fn validate_members(&self, members: &[(usize, u32)]) -> Result<(), ServeError> {
        let missing = members.iter().find(|&&(p, idx)| {
            p >= self.processes()
                || !self
                    .engine
                    .checkpoint_exists(CheckpointId::new(ProcessId::new(p), idx))
        });
        match missing {
            None => Ok(()),
            Some((p, idx)) => Err(ServeError::new(
                ErrorKind::Query,
                format!("checkpoint ({p}, {idx}) does not exist"),
            )),
        }
    }

    /// The minimum (`min`) or maximum consistent global checkpoint
    /// containing the validated `ids`, if there is one.
    fn consistent_containing(&mut self, ids: &[CheckpointId], min: bool) -> Option<Vec<u32>> {
        // No global checkpoint to find: no fixpoint to run.
        if self.engine.fits_frontier(ids) == Some(false) {
            return None;
        }
        let mut gc = vec![0u32; self.processes()];
        let exists = if min {
            self.engine.min_consistent_containing_into(ids, &mut gc)
        } else {
            self.engine.max_consistent_containing_into(ids, &mut gc)
        };
        exists.then_some(gc)
    }

    /// Compacts the engine to its recovery line and reports what was
    /// reclaimed, as `[dropped, epoch]`: `dropped` counts the closure rows
    /// the daemon held and let go, which are R-graph nodes, and `epoch` is
    /// the engine's compaction epoch after the call.
    pub fn compact(&mut self) -> [u64; 2] {
        let stats = self.engine.compact_to_recovery_line();
        [stats.dropped_nodes() as u64, self.engine.compaction_epoch()]
    }

    /// Writes the stream (metadata, then the engine's own document) whole,
    /// as one entry of the daemon snapshot document, straight from the
    /// tables. What the stream's persists wrote is neither read nor changed.
    pub fn write_stream_snapshot(&self, name: &str, w: &mut JsonWriter<'_>) {
        write_entry(name, self.crashes, w, |w| self.engine.write_snapshot(w));
    }

    /// Writes the stream's entry of a persist: whole when `whole` or when
    /// no persist wrote the stream before, otherwise as a delta against what
    /// the last one wrote ([`IncrementalAnalysis::write_snapshot_since`]) —
    /// and nothing at all when nothing changed since. Returns whether it
    /// wrote an entry. The marks of what it writes are kept for the next
    /// persist, which writes a delta only if this one reached the file.
    pub fn write_persist_entry(&mut self, name: &str, whole: bool, w: &mut JsonWriter<'_>) -> bool {
        let (engine, crashes) = (&mut self.engine, self.crashes);
        let since = self.on_disk.as_deref().filter(|_| !whole);
        if since.is_some_and(|d| !engine.changed_since(&d.marks) && d.crashes == crashes) {
            return false;
        }
        let marks = write_entry(name, crashes, w, |w| {
            engine.write_snapshot_since(since.map(|d| &d.marks), w)
        });
        self.on_disk = Some(Box::new(OnDisk { marks, crashes }));
        true
    }

    /// The stream's entry as a [`Json`] tree: the parsed form of what
    /// [`write_stream_snapshot`](StreamEngine::write_stream_snapshot)
    /// writes. The daemon does not call it.
    pub fn stream_snapshot(&self, name: &str) -> Json {
        let mut text = Vec::new();
        self.write_stream_snapshot(name, &mut JsonWriter::new(&mut text));
        Json::parse_bytes(&text).expect("the writer emits well-formed JSON")
    }

    /// Reads one stream entry — the next value of `r` — of a daemon
    /// snapshot document into its typed tables: the lexical half of a
    /// restore, keys in any order, unknown keys skipped. Total: malformed
    /// text, an entry of another format and an engine document of a version
    /// other than 1 to 4 are [`ErrorKind::Admin`] errors.
    pub fn read_stream_snapshot(r: &mut JsonReader<'_>) -> Result<StreamTables, ServeError> {
        let not_ours = || admin("stream entry is not an rdt-serve stream");
        if r.peek().map_err(unreadable)? != b'{' {
            return Err(not_ours());
        }
        let mut t = StreamTables::default();
        let mut format = None;
        r.begin_object().map_err(unreadable)?;
        while let Some(key) = r.next_key().map_err(unreadable)? {
            match key.as_str() {
                "format" => once(&mut format, &key, r.str().map_err(unreadable)?)?,
                "name" => once(&mut t.name, &key, r.str().map_err(unreadable)?)?,
                "crashes" => once(&mut t.crashes, &key, r.u64().map_err(unreadable)?)?,
                "engine" => {
                    let engine = <IncrementalAnalysis>::read_snapshot(r);
                    let name = t.name.as_deref().unwrap_or("?");
                    let engine = engine.map_err(|e| admin(format!("stream `{name}`: {e}")))?;
                    once(&mut t.engine, &key, engine)?;
                }
                _ => r.skip_value().map_err(unreadable)?,
            }
        }
        match format.as_deref() {
            Some(STREAM_SNAPSHOT_FORMAT) => Ok(t),
            _ => Err(not_ours()),
        }
    }

    /// Validates a stream entry's tables and builds the stream; returns its
    /// name and engine. The entry is held to what `open` would have allowed
    /// — a name of 1 to [`MAX_NAME_BYTES`] bytes, at most [`MAX_PROCESSES`]
    /// processes — because no frame can name, and so none could ever close,
    /// a stream outside those limits. Total: every inconsistency is an
    /// [`ErrorKind::Admin`] error. A stream built from an engine document of
    /// version 4 keeps the marks of those tables
    /// ([`IncrementalAnalysis::mark_written`]), as if a persist had just
    /// written them: the next persist that does not write whole writes only
    /// what changed since, and nothing if nothing did.
    pub fn from_stream_tables(t: StreamTables) -> Result<(String, StreamEngine), ServeError> {
        let name = t.name.ok_or_else(|| admin("stream entry has no name"))?;
        if name.is_empty() || name.len() > MAX_NAME_BYTES {
            return Err(admin(format!(
                "stream name of {} bytes (allowed: 1..={MAX_NAME_BYTES})",
                name.len()
            )));
        }
        let crashes = t
            .crashes
            .ok_or_else(|| admin(format!("stream `{name}`: missing crash counter")))?;
        let tables = t
            .engine
            .ok_or_else(|| admin(format!("stream `{name}`: missing engine state")))?;
        let current = tables.is_current();
        let mut engine = IncrementalAnalysis::from_snapshot_tables(tables)
            .map_err(|e| admin(format!("stream `{name}`: {e}")))?;
        if engine.num_processes() > MAX_PROCESSES {
            return Err(admin(format!(
                "stream `{name}`: {} processes (allowed: 1..={MAX_PROCESSES})",
                engine.num_processes()
            )));
        }
        // The tables of a version 4 entry are on disk as the engine now is:
        // a persist appending to the file they came from writes what changes.
        let on_disk = current.then(|| {
            let marks = engine.mark_written();
            Box::new(OnDisk { marks, crashes })
        });
        let stream = StreamEngine {
            engine: Box::new(engine),
            crashes,
            on_disk,
            line: None,
        };
        Ok((name, stream))
    }

    /// [`read_stream_snapshot`](StreamEngine::read_stream_snapshot) and
    /// [`from_stream_tables`](StreamEngine::from_stream_tables) on the
    /// compact text of `doc`: for callers that hold an entry as a tree.
    pub fn from_stream_snapshot(doc: &Json) -> Result<(String, StreamEngine), ServeError> {
        let mut text = Vec::new();
        doc.write_compact(&mut text);
        let tables = StreamEngine::read_stream_snapshot(&mut JsonReader::new(&text))?;
        StreamEngine::from_stream_tables(tables)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_queries() {
        let mut s = StreamEngine::new(2);
        let cp = s.ingest_event(&EventKind::Checkpoint { process: 0 });
        assert_eq!(cp, Ok(Reply::Checkpoint(1)));
        let send = s.ingest_event(&EventKind::Send { from: 0, to: 1 });
        assert_eq!(send, Ok(Reply::Message(0)));
        let delivered = s.ingest_event(&EventKind::Deliver { message: 0 });
        assert_eq!(delivered, Ok(Reply::Delivered));
        let pairs = s.answer_query(&QueryKind::Untrackable);
        assert_eq!(pairs, Ok(Reply::Untrackable(0)));
        let line = s.answer_query(&QueryKind::RecoveryLine);
        assert_eq!(line, Ok(Reply::Line(vec![1, 0])));
        let min = s.answer_query(&QueryKind::MinConsistent(vec![(0, 1)]));
        assert_eq!(min, Ok(Reply::Global(Some(vec![1, 0]))));
        let crash = s.ingest_event(&EventKind::Crash { process: 1 });
        let line = vec![1, 0];
        assert_eq!(crash, Ok(Reply::Crashed { crashes: 1, line }));
    }

    #[test]
    fn adversarial_events_error_and_leave_state() {
        let mut s = StreamEngine::new(2);
        assert_eq!(
            s.ingest_event(&EventKind::Deliver { message: 0 })
                .unwrap_err()
                .kind,
            ErrorKind::Event
        );
        assert_eq!(
            s.ingest_event(&EventKind::Checkpoint { process: 9 })
                .unwrap_err()
                .kind,
            ErrorKind::Event
        );
        assert_eq!(s.events(), 0);
        // Still functional afterwards.
        s.ingest_event(&EventKind::Send { from: 0, to: 1 }).unwrap();
        assert_eq!(s.events(), 1);
    }

    #[test]
    fn unknown_members_are_query_errors() {
        let mut s = StreamEngine::new(2);
        assert_eq!(
            s.answer_query(&QueryKind::MinConsistent(vec![(0, 5)]))
                .unwrap_err()
                .kind,
            ErrorKind::Query
        );
        assert_eq!(
            s.answer_query(&QueryKind::MaxConsistent(vec![(9, 0)]))
                .unwrap_err()
                .kind,
            ErrorKind::Query
        );
    }

    /// Deterministic xorshift generator driving the line-cache session.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 as usize) % n
        }
    }

    /// What the line-cache session met, so that it can insist on every
    /// case the cache has.
    #[derive(Debug, Default)]
    struct LineCases {
        kept: usize,
        moved: usize,
        undecided: usize,
        restored: usize,
        reopened: usize,
    }

    /// The recovery line a fresh descent of the stream's engine gives: no
    /// cap below any process's last checkpoint.
    fn fresh_line(s: &StreamEngine) -> Vec<u32> {
        let uncapped = vec![u32::MAX; s.processes()];
        s.engine
            .max_consistent_dominated(&uncapped)
            .as_slice()
            .to_vec()
    }

    /// Notes which case the stream's next recovery line meets.
    fn note_case(s: &mut StreamEngine, seen: &mut LineCases) {
        let n = s.processes();
        let Some(cache) = s.line.as_deref() else {
            return;
        };
        let retained = s.engine.retained_from();
        if (0..n).any(|p| cache[n + p] + 1 < retained[p]) {
            seen.undecided += 1;
        } else if s.engine.any_fits_beyond(&cache[n..]) {
            seen.moved += 1;
        } else {
            seen.kept += 1;
        }
    }

    /// Every `recovery-line` reply and every `crash` line of a seeded
    /// session equals a fresh descent of the same engine, through sends,
    /// deliveries out of order, checkpoints, coordinated rounds, compactions
    /// (some dropping checkpoints taken after the cached frontier), snapshot
    /// round trips and a close and reopen; min and max answers equal the
    /// fixpoints asked directly.
    #[test]
    fn recovery_line_cache_equals_a_fresh_descent() {
        let mut seen = LineCases::default();
        for seed in [3u64, 71, 1_999, 40_503] {
            for n in 2..=5 {
                let mut rng = Rng(seed.wrapping_mul(n as u64 + 7) | 1);
                let mut s = StreamEngine::new(n);
                let mut in_flight: Vec<u32> = Vec::new();
                for _ in 0..500 {
                    match rng.below(40) {
                        0..=7 => {
                            let process = rng.below(n);
                            s.ingest_event(&EventKind::Checkpoint { process }).unwrap();
                        }
                        8..=17 => {
                            let (from, to) = (rng.below(n), rng.below(n));
                            let Reply::Message(mid) =
                                s.ingest_event(&EventKind::Send { from, to }).unwrap()
                            else {
                                panic!("a send is answered with its handle");
                            };
                            if rng.below(8) != 0 {
                                in_flight.push(mid);
                            }
                        }
                        18..=26 if !in_flight.is_empty() => {
                            let message = in_flight.swap_remove(rng.below(in_flight.len()));
                            s.ingest_event(&EventKind::Deliver { message }).unwrap();
                        }
                        27..=30 => {
                            note_case(&mut s, &mut seen);
                            let fresh = fresh_line(&s);
                            let process = rng.below(n);
                            let reply = s.ingest_event(&EventKind::Crash { process }).unwrap();
                            let Reply::Crashed { line, .. } = reply else {
                                panic!("a crash is answered with the line");
                            };
                            assert_eq!(line, fresh, "crash line");
                        }
                        31..=34 => {
                            note_case(&mut s, &mut seen);
                            let fresh = fresh_line(&s);
                            let reply = s.answer_query(&QueryKind::RecoveryLine).unwrap();
                            assert_eq!(reply, Reply::Line(fresh), "recovery line");
                        }
                        35 => {
                            let p = rng.below(n);
                            let last = s.engine.last_checkpoint_index(ProcessId::new(p));
                            let index = rng.below(last as usize + 1) as u32;
                            let member = [CheckpointId::new(ProcessId::new(p), index)];
                            let retained = s.engine.retained_from()[p];
                            let (min, max) = (
                                s.engine.min_consistent_containing(&member),
                                s.engine.max_consistent_containing(&member),
                            );
                            let as_reply = |gc: Option<rdt_rgraph::GlobalCheckpoint>| {
                                Ok(Reply::Global(gc.map(|gc| gc.as_slice().to_vec())))
                            };
                            let members = vec![(p, index)];
                            let asked = QueryKind::MinConsistent(members.clone());
                            assert_eq!(s.answer_query(&asked), as_reply(min), "min, {retained}");
                            let asked = QueryKind::MaxConsistent(members);
                            assert_eq!(s.answer_query(&asked), as_reply(max), "max");
                        }
                        36 => {
                            // A coordinated round: every message delivered,
                            // every process checkpointed twice, so the line
                            // moves past the cached frontier, and compacted.
                            for message in in_flight.drain(..) {
                                s.ingest_event(&EventKind::Deliver { message }).unwrap();
                            }
                            for _ in 0..2 {
                                for process in 0..n {
                                    s.ingest_event(&EventKind::Checkpoint { process }).unwrap();
                                }
                            }
                            s.compact();
                        }
                        37 => {
                            s.compact();
                        }
                        38 => {
                            let mut text = Vec::new();
                            s.write_stream_snapshot("tenant", &mut JsonWriter::new(&mut text));
                            let mut r = JsonReader::new(&text);
                            let tables = StreamEngine::read_stream_snapshot(&mut r).unwrap();
                            let (_, restored) = StreamEngine::from_stream_tables(tables).unwrap();
                            assert!(restored.line.is_none(), "a restored stream has no line");
                            s = restored;
                            seen.restored += 1;
                        }
                        39 if rng.below(4) == 0 => {
                            s = StreamEngine::new(n);
                            in_flight.clear();
                            seen.reopened += 1;
                        }
                        _ => {}
                    }
                }
            }
        }
        assert!(
            [
                seen.kept,
                seen.moved,
                seen.undecided,
                seen.restored,
                seen.reopened
            ]
            .iter()
            .all(|&count| count > 0),
            "{seen:?}"
        );
    }

    #[test]
    fn stream_snapshot_roundtrips() {
        let mut s = StreamEngine::new(3);
        s.ingest_event(&EventKind::Checkpoint { process: 0 })
            .unwrap();
        s.ingest_event(&EventKind::Send { from: 0, to: 1 }).unwrap();
        s.ingest_event(&EventKind::Deliver { message: 0 }).unwrap();
        s.ingest_event(&EventKind::Crash { process: 1 }).unwrap();
        let doc = s.stream_snapshot("tenant-a");
        let (name, mut restored) = StreamEngine::from_stream_snapshot(&doc).unwrap();
        assert_eq!(name, "tenant-a");
        assert_eq!(
            restored.stream_snapshot("tenant-a").to_string(),
            doc.to_string()
        );
        assert_eq!(
            restored.answer_query(&QueryKind::Untrackable).unwrap(),
            s.answer_query(&QueryKind::Untrackable).unwrap()
        );
    }
}
