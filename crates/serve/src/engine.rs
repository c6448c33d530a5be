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
use rdt_rgraph::{IncrementalAnalysis, SnapshotCache, SnapshotTables};

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
/// then the engine's own document as `engine` writes it.
fn write_entry(
    name: &str,
    crashes: u64,
    w: &mut JsonWriter<'_>,
    engine: impl FnOnce(&mut JsonWriter<'_>),
) {
    w.begin_object();
    w.key("format").str(STREAM_SNAPSHOT_FORMAT);
    w.key("name").str(name);
    w.key("crashes").u64(crashes);
    engine(w.key("engine"));
    w.end_object();
}

/// One tenant stream.
#[derive(Debug)]
pub struct StreamEngine {
    engine: IncrementalAnalysis,
    /// Crash events observed (crashes are markers: they report the
    /// recovery line but do not mutate the pattern).
    crashes: u64,
    /// The text of the engine's write-once snapshot tables, kept from one
    /// persist to the next; empty until the first.
    cache: SnapshotCache,
}

impl StreamEngine {
    /// Creates an empty stream over `processes` processes. The caller
    /// (the protocol layer) has already validated the bound.
    pub fn new(processes: usize) -> StreamEngine {
        StreamEngine {
            engine: IncrementalAnalysis::new(processes),
            crashes: 0,
            cache: SnapshotCache::default(),
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
    /// by the current frontier.
    fn recovery_line(&self) -> Vec<u32> {
        let mut line = vec![0u32; self.processes()];
        self.engine.recovery_line_into(&mut line);
        line
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
                let ids = self.validate_members(members)?;
                let mut gc = vec![0u32; self.processes()];
                let exists = if matches!(query, QueryKind::MinConsistent(_)) {
                    self.engine.min_consistent_containing_into(&ids, &mut gc)
                } else {
                    self.engine.max_consistent_containing_into(&ids, &mut gc)
                };
                Ok(Reply::Global(exists.then_some(gc)))
            }
        }
    }

    fn validate_members(&self, members: &[(usize, u32)]) -> Result<Vec<CheckpointId>, ServeError> {
        members
            .iter()
            .map(|&(p, idx)| {
                let id = CheckpointId::new(ProcessId::new(p), idx);
                if p >= self.processes() || !self.engine.checkpoint_exists(id) {
                    return Err(ServeError::new(
                        ErrorKind::Query,
                        format!("checkpoint ({p}, {idx}) does not exist"),
                    ));
                }
                Ok(id)
            })
            .collect()
    }

    /// Compacts the engine to its recovery line and reports what was
    /// reclaimed, as `[dropped, epoch]`: `dropped` counts the closure rows
    /// the daemon held and let go, which are R-graph nodes, and `epoch` is
    /// the engine's compaction epoch after the call.
    pub fn compact(&mut self) -> [u64; 2] {
        let stats = self.engine.compact_to_recovery_line();
        [stats.dropped_nodes() as u64, self.engine.compaction_epoch()]
    }

    /// Writes the stream (metadata, then the engine's own document) as one
    /// entry of the daemon snapshot document, straight from the tables and
    /// through the stream's snapshot cache: what changed since the last
    /// persist is rendered, the rest of the write-once tables is copied.
    pub fn write_stream_snapshot(&mut self, name: &str, w: &mut JsonWriter<'_>) {
        let (engine, cache) = (&self.engine, &mut self.cache);
        write_entry(name, self.crashes, w, |w| {
            engine.write_snapshot_cached(cache, w)
        });
    }

    /// The stream's entry as a [`Json`] tree: the parsed form of what
    /// [`write_stream_snapshot`](StreamEngine::write_stream_snapshot)
    /// writes, rendered without the cache. The daemon does not call it.
    pub fn stream_snapshot(&self, name: &str) -> Json {
        let mut text = Vec::new();
        write_entry(name, self.crashes, &mut JsonWriter::new(&mut text), |w| {
            self.engine.write_snapshot(w)
        });
        Json::parse_bytes(&text).expect("the writer emits well-formed JSON")
    }

    /// Reads one stream entry — the next value of `r` — of a daemon
    /// snapshot document into its typed tables: the lexical half of a
    /// restore, keys in any order, unknown keys skipped. Total: malformed
    /// text, an entry of another format and an engine document of a version
    /// other than 1 to 3 are [`ErrorKind::Admin`] errors.
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
    /// [`ErrorKind::Admin`] error.
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
        let engine = IncrementalAnalysis::from_snapshot_tables(tables)
            .map_err(|e| admin(format!("stream `{name}`: {e}")))?;
        if engine.num_processes() > MAX_PROCESSES {
            return Err(admin(format!(
                "stream `{name}`: {} processes (allowed: 1..={MAX_PROCESSES})",
                engine.num_processes()
            )));
        }
        let stream = StreamEngine {
            engine,
            crashes,
            cache: SnapshotCache::default(),
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
