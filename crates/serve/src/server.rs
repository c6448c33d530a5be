//! The daemon's socket front end.
//!
//! One listener (TCP or Unix-domain), one thread per connection, one
//! request per line. Connections are untrusted: lines are length-bounded
//! before parsing, parsing is total, and every failure becomes a
//! structured error reply on that connection only — other tenants keep
//! streaming.
//!
//! Pipelining: a client may send any number of frames before reading.
//! The connection thread runs each request itself (under the stream's
//! stripe lock, see [`crate::shard`]): it hands the frame's bytes and its
//! one output buffer to [`PoolHandle::answer_frame`], which appends the
//! reply line — a typed [`Reply`], with no tree on the way out, nor on the
//! way in for a canonical `open`, `event`, `query` or `close` — and answers
//! the three [`DaemonOp`]s that come back (`ping`, `snapshot`, `shutdown`)
//! itself.
//! It writes the buffer out whenever its read buffer holds no further
//! complete frame — that is, before any read that could block — so replies
//! leave in request order, a pipelined window costs one write, and depth 1
//! costs one write per reply. TCP sockets are `TCP_NODELAY`. The frame and
//! reply buffers keep at most 16 KiB between uses: one long frame or reply
//! is not held for the rest of the connection.
//!
//! Persistence: with `--snapshot PATH`, the daemon restores the snapshot
//! at startup (if present; the file's bytes go straight to
//! [`PoolHandle::restore_file`], which reads engine snapshot versions 1 to
//! 4, on no more threads than the stripe count or the CPUs the process may
//! run on), persists on the `snapshot` op, and persists again on
//! `shutdown`.
//!
//! The file is a log: one whole daemon document (envelope version 2, engine
//! version 4), then records appended to it, each one persist's worth of
//! what changed ([`PoolHandle::write_persist`]: the live stream names and
//! an entry per changed stream, length-prefixed and FNV-1a-checksummed).
//! A boot that restores a file this build writes — envelope version 2,
//! every document entry of engine version 4, the document followed by its
//! newline — adopts it: it cuts a torn tail back to the end of the last
//! complete record, keeps the file open as the persist log, and every
//! restored stream keeps the marks of the tables it was restored from, as
//! if a persist had just written them. Three fixed rules decide what a
//! persist writes:
//!
//! * the first persist of a daemon that adopted no file writes the file
//!   whole (an older file is converted so);
//! * so does a persist whose record would take the file past twice the
//!   size of its document;
//! * every other persist appends one record through the handle kept open
//!   onto the file — or writes nothing when the record would hold no entry
//!   and list as many live streams as the file holds (a live stream without
//!   an entry was written before and not closed since, so it is live there
//!   too); it answers the same `persisted` count either way.
//!
//! Every persist streams to the file through one chunk of
//! [`PERSIST_CHUNK`] bytes ([`PoolHandle::stream_persist`]): the renderer
//! hands the chunk on between two streams' entries once it is half full,
//! never under a stripe lock, so a persist holds one chunk and one entry,
//! not a document. A whole write streams into a temp file that it renames
//! over `PATH`, and reopens the handle onto the new file. A record goes
//! through the handle by positional writes (the file is not opened for
//! appending): its body first, from the end of the file plus the header's
//! 29 bytes on, with the length and FNV-1a 64 counted over the chunks as
//! they pass, then the header in front of it. A crash between the two
//! leaves a header of zeros, a torn record that restore ignores and a boot
//! cuts. A body that would take the file past twice its document stops
//! being written at that bound, and the persist writes whole instead. A
//! failed append truncates the file back to its last good length (best
//! effort), and any failure — a render, an append, a write or a rename —
//! makes the next persist write whole: a record is only correct on the file
//! the previous persist reached. Persists are serialised by one mutex, held
//! from the first byte rendered to the last written, that holds the chunk
//! and the handle: every connection thread goes through the same temp file
//! and the same handle, and two of them at once would tear both. With that,
//! a reader of `PATH` — or a crash at any point — sees a complete document
//! and a run of complete records, perhaps followed by a torn one, which
//! restore ignores: it lands on the last complete persist. A write or
//! rename that fails removes the temp file and is an `admin` error; a temp
//! file a killed daemon left behind is removed at startup.

use std::fs::{self, File};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::fs::{FileExt, FileTypeExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::protocol::{admin, DaemonOp, ErrorKind, Reply, ServeError, MAX_LINE_BYTES};
use crate::shard::{EnginePool, PoolHandle, Restored, PERSIST_CHUNK, RECORD_HEADER};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Stripe count of the engine pool (clamped to at least 1).
    pub workers: usize,
    /// Snapshot file for restore-at-startup / `snapshot` / shutdown
    /// persistence. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Splits into an owned read half and write half (`try_clone`).
    fn split(self) -> std::io::Result<(Conn, Conn)> {
        match self {
            Conn::Tcp(s) => {
                let r = s.try_clone()?;
                Ok((Conn::Tcp(r), Conn::Tcp(s)))
            }
            Conn::Unix(s) => {
                let r = s.try_clone()?;
                Ok((Conn::Unix(r), Conn::Unix(s)))
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// How a connection thread wakes the accept loop after flipping the
/// shutdown flag: connect once and immediately drop.
enum Poke {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

struct Shared {
    handle: PoolHandle,
    snapshot_path: Option<PathBuf>,
    /// Held by the one thread that is persisting, from the first byte
    /// rendered to the last written. Lock order: this, then a stripe; no
    /// stripe holder takes it.
    persist: Mutex<Persist>,
    shutdown: AtomicBool,
    poke: Poke,
}

/// What persists keep from one to the next.
struct Persist {
    /// The chunk a persist streams through, [`PERSIST_CHUNK`] bytes between
    /// persists.
    chunk: Vec<u8>,
    /// The snapshot file as the last persist (or the boot that restored
    /// and adopted it) left it, open for writing; `None` before the first
    /// persist of a daemon that adopted no file and after a failed persist,
    /// when the next persist writes the file whole.
    log: Option<Log>,
}

struct Log {
    file: File,
    /// Bytes of the whole document at the head of the file.
    base: u64,
    /// Bytes of the file: the document and every record appended since.
    len: u64,
    /// Streams live at the state the file holds: the `persisted` count of
    /// the last persist that wrote to it, or the streams restored from it.
    live: usize,
}

impl Log {
    /// The snapshot file a boot restored, kept as the persist log when it is
    /// a file this build writes: cut back to its last complete record, so
    /// that the next persist appends after it. `None` — the next persist
    /// writes whole — for any other file and when the file does not open or
    /// cut.
    fn adopt(path: &Path, read: u64, restored: &Restored) -> Option<Log> {
        if !restored.current {
            return None;
        }
        let file = fs::OpenOptions::new().write(true).open(path).ok()?;
        let len = restored.complete as u64;
        if len < read {
            file.set_len(len).ok()?;
        }
        Some(Log {
            file,
            base: restored.document as u64,
            len,
            live: restored.streams,
        })
    }

    /// Appends one record of what changed since the last persist: the body
    /// streams to `len + RECORD_HEADER` on, then the header goes to `len`.
    /// Returns the live count, as when the record holds no entry and lists
    /// as many live streams as the file does, which writes nothing — or
    /// `None` when the record would take the file past twice its document:
    /// its body stops at that bound, is cut off again, and the caller writes
    /// whole. A failed render or write cuts the file back to `len` (best
    /// effort).
    fn append(
        &mut self,
        handle: &PoolHandle,
        chunk: &mut Vec<u8>,
    ) -> Result<Option<usize>, ServeError> {
        let appending = |e: std::io::Error| admin(format!("appending to snapshot: {e}"));
        let (file, limit) = (&self.file, 2 * self.base);
        let (mut at, mut fits) = (self.len + RECORD_HEADER as u64, true);
        let mut put = |bytes: &[u8]| {
            fits &= at + bytes.len() as u64 <= limit;
            if fits {
                file.write_all_at(bytes, at).map_err(appending)?;
            }
            at += bytes.len() as u64;
            Ok(())
        };
        let record = match handle.stream_persist(chunk, false, &mut put) {
            // No entry, and as many live streams as the file holds: every
            // live stream was written before and not closed since, so it is
            // live there too, and the file already holds this state. Nothing
            // went to `put`: the chunk is only handed on after an entry.
            Ok(record) if record.entries == 0 && record.live == self.live => {
                return Ok(Some(record.live))
            }
            Ok(record) => put(chunk).map(|()| record),
            Err(e) => Err(e),
        };
        let written = record.and_then(|record| {
            if !fits {
                return Ok(None);
            }
            let header = record.record_header();
            file.write_all_at(header.as_bytes(), self.len)
                .map_err(appending)?;
            Ok(Some(record))
        });
        match written {
            Ok(Some(record)) => {
                self.len = at;
                self.live = record.live;
                Ok(Some(record.live))
            }
            cut => {
                let _ = self.file.set_len(self.len);
                cut.map(|_| None)
            }
        }
    }
}

impl Shared {
    fn poke_accept(&self) {
        match &self.poke {
            Poke::Tcp(addr) => drop(TcpStream::connect(addr)),
            Poke::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// The temp file a whole write goes through: `PATH.tmp`.
fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Writes a whole file to `path`: `write` streams it into a temp file in
/// the same directory, which is then renamed over `path`. Callers hold the
/// persist lock: the temp file's name is fixed. When any step fails the
/// temp file is removed (best effort) before the error is returned: after a
/// full disk it is a torn file occupying the space that just ran out.
fn write_snapshot_file<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let tmp = temp_path(path);
    let published = File::create(&tmp)
        .map_err(|e| admin(format!("writing snapshot: {e}")))
        .and_then(|mut file| write(&mut file))
        .and_then(|written| {
            fs::rename(&tmp, path).map_err(|e| admin(format!("publishing snapshot: {e}")))?;
            Ok(written)
        });
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}

/// Persists the current pool state to the configured snapshot path;
/// returns the number of streams persisted.
fn persist_snapshot(shared: &Shared) -> Result<usize, ServeError> {
    let path = shared
        .snapshot_path
        .as_deref()
        .ok_or_else(|| admin("daemon has no snapshot path configured"))?;
    // A persist that panicked left at most part of a document in the
    // chunk, which every render clears first, and wrote whole next: it
    // took the handle before rendering.
    let mut persist = shared
        .persist
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let Persist { chunk, log } = &mut *persist;
    let persisted = persist_to(&shared.handle, path, chunk, log);
    // An entry of more than half a chunk grew it; the mutex keeps one chunk.
    chunk.clear();
    chunk.shrink_to(PERSIST_CHUNK);
    persisted
}

/// One persist by the three rules: a record appended to the open log, or
/// nothing when it would hold nothing new, or else the file written whole.
fn persist_to(
    handle: &PoolHandle,
    path: &Path,
    chunk: &mut Vec<u8>,
    log: &mut Option<Log>,
) -> Result<usize, ServeError> {
    if let Some(mut open) = log.take() {
        if let Some(live) = open.append(handle, chunk)? {
            *log = Some(open);
            return Ok(live);
        }
    }
    let rendered = write_snapshot_file(path, |file| {
        let mut put = |bytes: &[u8]| {
            file.write_all(bytes)
                .map_err(|e| admin(format!("writing snapshot: {e}")))
        };
        let rendered = handle.stream_persist(chunk, true, &mut put)?;
        chunk.push(b'\n');
        put(chunk)?;
        Ok(rendered)
    })?;
    let len = rendered.bytes + 1;
    // Without the handle the next persist writes whole again.
    let file = fs::OpenOptions::new().write(true).open(path);
    *log = file.ok().map(|file| Log {
        file,
        base: len,
        len,
        live: rendered.live,
    });
    Ok(rendered.live)
}

/// Answers one frame into `out`: the pool reads it and answers everything
/// but the daemon ops ([`PoolHandle::answer_frame`]), which are answered
/// here. Returns whether the daemon should stop.
fn dispatch_line(shared: &Shared, line: &[u8], out: &mut Vec<u8>) -> bool {
    let Some(op) = shared.handle.answer_frame(line, out) else {
        return false;
    };
    let reply = match op {
        DaemonOp::Ping => Reply::Pong,
        DaemonOp::Snapshot => {
            persist_snapshot(shared).map_or_else(|e| Reply::Refused(None, e), Reply::Persisted)
        }
        DaemonOp::Shutdown => {
            let persisted = shared
                .snapshot_path
                .is_some()
                .then(|| persist_snapshot(shared));
            Reply::Stopping(persisted)
        }
    };
    reply.write(out);
    op == DaemonOp::Shutdown
}

/// Capacity a connection's frame or reply buffer keeps between uses; a
/// buffer grown past it by one long frame or reply gives the rest back.
const CONN_BUFFER_FLOOR: usize = 16 * 1024;

/// Empties a connection buffer for its next use, at most
/// [`CONN_BUFFER_FLOOR`] bytes of capacity kept.
fn recycle(buf: &mut Vec<u8>) {
    buf.clear();
    buf.shrink_to(CONN_BUFFER_FLOOR);
}

/// Writes the pending replies out as one `write_all` + `flush`.
fn flush_replies(writer: &mut Conn, out: &mut Vec<u8>) -> std::io::Result<()> {
    let written = writer.write_all(out).and_then(|()| writer.flush());
    recycle(out);
    written
}

fn serve_connection(shared: &Shared, conn: Conn) {
    let Ok((read_half, mut writer)) = conn.split() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = Vec::new();
    // Replies rendered but not yet written, in request order.
    let mut out = Vec::new();
    let mut stop = false;
    while !stop && !shared.shutdown.load(Ordering::SeqCst) {
        // Never hold a reply across a read that could block: unless
        // another complete frame is already buffered, write them out.
        if !reader.buffer().contains(&b'\n') && flush_replies(&mut writer, &mut out).is_err() {
            break;
        }
        recycle(&mut line);
        // Read one byte past the limit so an exactly-limit line (newline
        // included) still goes through while an oversized one is caught.
        let n = match (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line)
        {
            Ok(n) => n,
            Err(_) => break,
        };
        if n == 0 {
            break; // EOF
        }
        if line.len() > MAX_LINE_BYTES {
            let e = ServeError::new(
                ErrorKind::Limit,
                format!("request line longer than {MAX_LINE_BYTES} bytes"),
            );
            Reply::Refused(None, e).write(&mut out);
            break; // The stream is mid-line; resynchronizing is not safe.
        }
        let frame = line.trim_ascii();
        if frame.is_empty() {
            continue;
        }
        stop = dispatch_line(shared, frame, &mut out);
    }
    let _ = flush_replies(&mut writer, &mut out);
    if stop {
        // Only now that the reply is on the wire: the accept loop wakes
        // and the process exits under this thread.
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.poke_accept();
    }
}

/// A bound daemon: listener plus engine pool, ready to [`run`](Server::run).
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    restored: usize,
}

impl Server {
    /// Binds the endpoint, creates the engine pool, and — when a snapshot
    /// path is configured and the file exists — restores every stream
    /// from it.
    pub fn bind(config: ServerConfig) -> Result<Server, ServeError> {
        let pool = EnginePool::new(config.workers);
        let handle = pool.handle();

        let (mut restored, mut log) = (0usize, None);
        if let Some(path) = &config.snapshot_path {
            // A temp file is only ever a whole write in progress: one a
            // killed daemon left behind holds up to a document of disk.
            let _ = fs::remove_file(temp_path(path));
            if path.exists() {
                let bytes = fs::read(path).map_err(|e| admin(format!("reading snapshot: {e}")))?;
                // The build is the same for any thread count: no more
                // threads than the process may run at once.
                let cpus = std::thread::available_parallelism().map_or(1, usize::from);
                let file = handle.restore_file(&bytes, pool.workers().min(cpus))?;
                restored = file.streams;
                log = Log::adopt(path, bytes.len() as u64, &file);
            }
        }

        let (listener, poke) = match &config.endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())
                    .map_err(|e| admin(format!("binding {addr}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| admin(format!("resolving local address: {e}")))?;
                (Listener::Tcp(listener), Poke::Tcp(local))
            }
            Endpoint::Unix(path) => {
                // A socket left by a previous run would make bind fail, so
                // it is replaced; anything else at the path is not the
                // daemon's to delete.
                if let Ok(meta) = fs::symlink_metadata(path) {
                    if !meta.file_type().is_socket() {
                        let path = path.display();
                        return Err(admin(format!(
                            "binding {path}: not a socket, left as it is"
                        )));
                    }
                    let _ = fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)
                    .map_err(|e| admin(format!("binding {}: {e}", path.display())))?;
                (Listener::Unix(listener), Poke::Unix(path.clone()))
            }
        };

        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                handle,
                snapshot_path: config.snapshot_path,
                persist: Mutex::new(Persist {
                    chunk: Vec::new(),
                    log,
                }),
                shutdown: AtomicBool::new(false),
                poke,
            }),
            restored,
        })
    }

    /// Streams restored from the snapshot at bind time.
    pub fn restored_streams(&self) -> usize {
        self.restored
    }

    /// The actual TCP address (useful when binding port 0).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(_) => None,
        }
    }

    /// Accepts connections until a `shutdown` request arrives. Each
    /// connection gets its own thread; a connection failing never
    /// affects the others.
    pub fn run(self) -> Result<(), ServeError> {
        let mut consecutive_errors = 0usize;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let conn = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    // Replies are written whole; Nagle would only hold
                    // the last segment of a window back for the ACK.
                    let _ = s.set_nodelay(true);
                    Conn::Tcp(s)
                }),
                Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match conn {
                Ok(conn) => {
                    consecutive_errors = 0;
                    let shared = Arc::clone(&self.shared);
                    std::thread::spawn(move || serve_connection(&shared, conn));
                }
                Err(_) => {
                    consecutive_errors += 1;
                    if consecutive_errors > 100 {
                        return Err(admin("listener failed repeatedly; stopping"));
                    }
                }
            }
        }
        if let Poke::Unix(path) = &self.shared.poke {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        reply.trim_end().to_string()
    }

    /// Full daemon lifecycle over a real TCP socket: multi-tenant
    /// session, malformed frames answered in-band, snapshot, shutdown,
    /// restart, byte-identical answers (with a different worker count).
    #[test]
    fn daemon_survives_restart_with_identical_answers() {
        let dir = std::env::temp_dir().join(format!("rdt-serve-test-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let snapshot = dir.join("daemon.snapshot.json");
        let _ = fs::remove_file(&snapshot);

        let server = Server::bind(ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            workers: 2,
            snapshot_path: Some(snapshot.clone()),
        })
        .expect("bind");
        assert_eq!(server.restored_streams(), 0);
        let addr = server.local_addr().expect("tcp addr");
        let daemon = std::thread::spawn(move || server.run());

        let mut conn = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let rt = |c: &mut TcpStream, r: &mut BufReader<TcpStream>, l: &str| roundtrip(c, r, l);

        assert!(rt(&mut conn, &mut reader, r#"{"op":"ping"}"#).contains("pong"));
        for line in [
            r#"{"op":"open","stream":"alpha","processes":3}"#,
            r#"{"op":"open","stream":"beta","processes":2}"#,
            r#"{"op":"event","stream":"alpha","type":"send","from":0,"to":1}"#,
            r#"{"op":"event","stream":"alpha","type":"deliver","message":0}"#,
            r#"{"op":"event","stream":"alpha","type":"checkpoint","process":1}"#,
            r#"{"op":"event","stream":"beta","type":"checkpoint","process":0}"#,
        ] {
            let reply = rt(&mut conn, &mut reader, line);
            assert!(reply.starts_with(r#"{"ok":true"#), "{line} -> {reply}");
        }
        // Malformed frames: structured error, connection stays up.
        let reply = rt(&mut conn, &mut reader, r#"{"op":"open""#);
        assert!(reply.contains(r#""kind":"parse""#), "{reply}");
        let reply = rt(
            &mut conn,
            &mut reader,
            r#"{"op":"event","stream":"alpha","type":"deliver","message":99}"#,
        );
        assert!(reply.contains(r#""kind":"event""#), "{reply}");

        let queries = [
            r#"{"op":"query","stream":"alpha","what":"untrackable"}"#,
            r#"{"op":"query","stream":"alpha","what":"recovery-line"}"#,
            r#"{"op":"query","stream":"alpha","what":"max-consistent","members":[[1,1]]}"#,
            r#"{"op":"query","stream":"beta","what":"min-consistent","members":[[0,1]]}"#,
            r#"{"op":"streams"}"#,
        ];
        let before: Vec<String> = queries
            .iter()
            .map(|q| rt(&mut conn, &mut reader, q))
            .collect();

        let reply = rt(&mut conn, &mut reader, r#"{"op":"shutdown"}"#);
        assert!(reply.contains(r#""persisted":2"#), "{reply}");
        daemon.join().expect("daemon thread").expect("daemon run");

        // Restart with a different worker count; answers must not change.
        let server = Server::bind(ServerConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
            workers: 5,
            snapshot_path: Some(snapshot.clone()),
        })
        .expect("rebind");
        assert_eq!(server.restored_streams(), 2);
        let addr = server.local_addr().expect("tcp addr");
        let daemon = std::thread::spawn(move || server.run());
        let mut conn = TcpStream::connect(addr).expect("reconnect");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let after: Vec<String> = queries
            .iter()
            .map(|q| rt(&mut conn, &mut reader, q))
            .collect();
        assert_eq!(before, after);
        rt(&mut conn, &mut reader, r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread").expect("daemon run");
        let _ = fs::remove_file(&snapshot);
    }

    /// Unix-domain socket variant: bind, ping, shutdown.
    #[test]
    fn unix_socket_serves() {
        let path = std::env::temp_dir().join(format!("rdt-serve-{}.sock", std::process::id()));
        let server = Server::bind(ServerConfig {
            endpoint: Endpoint::Unix(path.clone()),
            workers: 1,
            snapshot_path: None,
        })
        .expect("bind unix");
        let daemon = std::thread::spawn(move || server.run());
        let mut conn = UnixStream::connect(&path).expect("connect unix");
        conn.write_all(b"{\"op\":\"open\",\"stream\":\"u\",\"processes\":2}\n")
            .expect("write");
        let mut reader = BufReader::new(conn.try_clone().expect("clone"));
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert!(reply.starts_with(r#"{"ok":true"#), "{reply}");
        conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
        reply.clear();
        reader.read_line(&mut reply).expect("read");
        assert!(reply.contains("stopping"), "{reply}");
        daemon.join().expect("daemon thread").expect("daemon run");
    }

    /// `--unix PATH` replaces a socket a previous run left at `PATH`, and
    /// refuses to bind over anything else, leaving it intact: a snapshot
    /// named by both `--unix` and `--snapshot` survives the boot.
    #[test]
    fn unix_bind_replaces_only_a_socket() {
        let path = std::env::temp_dir().join(format!("rdt-serve-bind-{}", std::process::id()));
        let config = || ServerConfig {
            endpoint: Endpoint::Unix(path.clone()),
            workers: 1,
            snapshot_path: None,
        };
        fs::write(&path, b"not a socket\n").expect("write file");
        let err = Server::bind(config())
            .err()
            .expect("a regular file is refused");
        assert_eq!(err.kind, ErrorKind::Admin);
        assert!(
            err.message.contains(&*path.to_string_lossy()),
            "{}",
            err.message
        );
        assert_eq!(fs::read(&path).expect("file kept"), b"not a socket\n");
        fs::remove_file(&path).expect("remove file");

        drop(UnixListener::bind(&path).expect("stale socket"));
        assert!(fs::symlink_metadata(&path)
            .expect("left behind")
            .file_type()
            .is_socket());
        let server = Server::bind(config()).expect("a stale socket is replaced");
        let daemon = std::thread::spawn(move || server.run());
        let mut conn = UnixStream::connect(&path).expect("connect unix");
        conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
        let mut reply = String::new();
        BufReader::new(conn).read_line(&mut reply).expect("read");
        assert!(reply.contains("stopping"), "{reply}");
        daemon.join().expect("daemon thread").expect("daemon run");
    }

    /// A daemon on a fresh endpoint of either transport, for the tests
    /// that drive the reply buffer's edges over both.
    struct TestDaemon {
        thread: std::thread::JoinHandle<Result<(), ServeError>>,
        addr: Poke,
    }

    impl TestDaemon {
        fn boot(unix: bool, tag: &str, workers: usize) -> TestDaemon {
            let path =
                std::env::temp_dir().join(format!("rdt-serve-{tag}-{}.sock", std::process::id()));
            let server = Server::bind(ServerConfig {
                endpoint: if unix {
                    Endpoint::Unix(path.clone())
                } else {
                    Endpoint::Tcp("127.0.0.1:0".to_string())
                },
                workers,
                snapshot_path: None,
            })
            .expect("bind");
            let addr = server.local_addr().map_or(Poke::Unix(path), Poke::Tcp);
            TestDaemon {
                thread: std::thread::spawn(move || server.run()),
                addr,
            }
        }

        /// A client connection whose reads give up after ten seconds, so
        /// a stranded reply fails the test instead of hanging it.
        fn connect(&self) -> (BufReader<Conn>, Conn) {
            let timeout = Some(std::time::Duration::from_secs(10));
            let conn = match &self.addr {
                Poke::Tcp(addr) => {
                    let s = TcpStream::connect(addr).expect("connect tcp");
                    s.set_read_timeout(timeout).expect("timeout");
                    Conn::Tcp(s)
                }
                Poke::Unix(path) => {
                    let s = UnixStream::connect(path).expect("connect unix");
                    s.set_read_timeout(timeout).expect("timeout");
                    Conn::Unix(s)
                }
            };
            let (read_half, writer) = conn.split().expect("split");
            (BufReader::new(read_half), writer)
        }

        fn stop(self) {
            let (mut reader, mut writer) = self.connect();
            writer.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
            assert!(next_reply(&mut reader).contains("stopping"));
            self.thread
                .join()
                .expect("daemon thread")
                .expect("daemon run");
        }
    }

    fn half_close(writer: &Conn) {
        match writer {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        }
        .expect("shutdown(Write)");
    }

    fn next_reply(reader: &mut BufReader<Conn>) -> String {
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("a reply within the timeout");
        reply.trim_end().to_string()
    }

    /// Everything the daemon sends until it closes the connection.
    fn replies_until_eof(reader: &mut BufReader<Conn>) -> Vec<String> {
        let mut text = String::new();
        reader.read_to_string(&mut text).expect("read to EOF");
        text.lines().map(str::to_string).collect()
    }

    const OPEN_A: &str = r#"{"op":"open","stream":"a","processes":2}"#;
    const SEND_A: &str = r#"{"op":"event","stream":"a","type":"send","from":0,"to":1}"#;

    /// Blank lines between frames and a trailing partial frame do not
    /// strand the replies already rendered.
    #[test]
    fn replies_leave_before_a_blocking_read() {
        for unix in [false, true] {
            let daemon = TestDaemon::boot(unix, "partial", 2);
            let (mut reader, mut writer) = daemon.connect();
            writer
                .write_all(format!("{OPEN_A}\n{SEND_A}\n\n{{\"op\":").as_bytes())
                .expect("write");
            assert!(next_reply(&mut reader).contains(r#""processes":2"#));
            assert_eq!(next_reply(&mut reader), r#"{"ok":true,"message":0}"#);
            writer.write_all(b"\"ping\"}\n").expect("write");
            assert!(next_reply(&mut reader).contains("pong"));
            daemon.stop();
        }
    }

    /// An oversized line: the earlier replies, then the `limit` error,
    /// then the daemon closes the connection.
    #[test]
    fn oversized_line_follows_the_earlier_replies() {
        for unix in [false, true] {
            let daemon = TestDaemon::boot(unix, "limit", 2);
            let (mut reader, mut writer) = daemon.connect();
            let mut bytes = format!("{OPEN_A}\n{SEND_A}\n").into_bytes();
            // Exactly what the daemon reads before giving up, so nothing
            // is left unread to turn its close into a reset.
            bytes.resize(bytes.len() + MAX_LINE_BYTES + 1, b'x');
            writer.write_all(&bytes).expect("write");
            let replies = replies_until_eof(&mut reader);
            assert_eq!(replies.len(), 3, "{replies:?}");
            assert_eq!(replies[1], r#"{"ok":true,"message":0}"#);
            assert_eq!(
                replies[2],
                r#"{"ok":false,"error":{"kind":"limit","message":"request line longer than 1048576 bytes"}}"#
            );
            daemon.stop();
        }
    }

    /// A buffer that one long frame grew keeps only the floor once it is
    /// recycled; one that stayed below the floor keeps its block. Through a
    /// daemon, a `ping` padded to the line limit and one after it are both
    /// answered.
    #[test]
    fn connection_buffers_give_a_long_frame_back() {
        let mut padded = vec![b' '; MAX_LINE_BYTES - 14];
        padded.extend_from_slice(b"{\"op\":\"ping\"}\n");
        assert_eq!(padded.len(), MAX_LINE_BYTES);
        let mut line = Vec::new();
        let mut reader = std::io::Cursor::new(&padded).take(MAX_LINE_BYTES as u64 + 1);
        reader.read_until(b'\n', &mut line).expect("read");
        assert!(line.capacity() >= MAX_LINE_BYTES);
        recycle(&mut line);
        assert!(line.is_empty() && line.capacity() <= CONN_BUFFER_FLOOR);

        line.extend_from_slice(OPEN_A.as_bytes());
        let (block, capacity) = (line.as_ptr(), line.capacity());
        recycle(&mut line);
        assert_eq!((line.as_ptr(), line.capacity()), (block, capacity));

        let daemon = TestDaemon::boot(false, "recycle", 1);
        let (mut reader, mut writer) = daemon.connect();
        writer.write_all(&padded).expect("write");
        assert!(next_reply(&mut reader).contains("pong"));
        writer.write_all(b"{\"op\":\"ping\"}\n").expect("write");
        assert!(next_reply(&mut reader).contains("pong"));
        daemon.stop();
    }

    /// N pipelined frames, then the client shuts its write half down:
    /// N replies, then EOF.
    #[test]
    fn half_close_still_yields_every_reply() {
        for unix in [false, true] {
            let daemon = TestDaemon::boot(unix, "halfclose", 2);
            let (mut reader, mut writer) = daemon.connect();
            let frames = format!("{OPEN_A}\n") + &format!("{SEND_A}\n").repeat(40);
            writer.write_all(frames.as_bytes()).expect("write");
            half_close(&writer);
            let replies = replies_until_eof(&mut reader);
            assert_eq!(replies.len(), 41);
            assert_eq!(replies[40], r#"{"ok":true,"message":39}"#);
            daemon.stop();
        }
    }

    /// `shutdown` at the end of a pipelined window: every reply of the
    /// window and the `stopping` reply arrive, and the daemon exits.
    #[test]
    fn shutdown_reply_is_flushed_with_the_window() {
        for unix in [false, true] {
            let daemon = TestDaemon::boot(unix, "shutdown", 2);
            let (mut reader, mut writer) = daemon.connect();
            writer
                .write_all(format!("{OPEN_A}\n{SEND_A}\n{{\"op\":\"shutdown\"}}\n").as_bytes())
                .expect("write");
            let replies = replies_until_eof(&mut reader);
            assert_eq!(replies.len(), 3, "{replies:?}");
            assert!(replies[2].contains("stopping"), "{}", replies[2]);
            daemon
                .thread
                .join()
                .expect("daemon thread")
                .expect("daemon run");
        }
    }

    /// A two-tenant session with malformed frames, rejected events,
    /// queries, `streams`, compaction and a close.
    fn pipelining_session() -> Vec<String> {
        let event = |stream: &str, body: String| {
            format!(r#"{{"op":"event","stream":"{stream}","type":{body}}}"#)
        };
        let mut lines = vec![
            r#"{"op":"open","stream":"a","processes":3}"#.to_string(),
            r#"{"op":"open","stream":"b","processes":2}"#.to_string(),
        ];
        for k in 0..120usize {
            lines.push(event(
                "a",
                format!(r#""send","from":{},"to":{}"#, k % 3, (k + 1) % 3),
            ));
            if k >= 2 {
                lines.push(event("a", format!(r#""deliver","message":{}"#, k - 2)));
            }
            if k % 4 == 0 {
                lines.push(event(
                    "a",
                    format!(r#""checkpoint","process":{}"#, (k / 4) % 3),
                ));
                lines.push(event("b", format!(r#""checkpoint","process":{}"#, k % 2)));
            }
            if k % 7 == 0 {
                lines.push("this is not json".to_string());
                lines.push(event("b", r#""deliver","message":999"#.to_string()));
            }
            if k % 10 == 0 {
                lines.push(r#"{"op":"query","stream":"a","what":"recovery-line"}"#.to_string());
                lines.push(r#"{"op":"query","stream":"a","what":"untrackable"}"#.to_string());
                lines.push(r#"{"op":"streams"}"#.to_string());
            }
        }
        lines.extend(
            [
                r#"{"op":"compact","stream":"a"}"#,
                r#"{"op":"close","stream":"b"}"#,
                r#"{"op":"query","stream":"b","what":"untrackable"}"#,
                r#"{"op":"query","stream":"a","what":"recovery-line"}"#,
                r#"{"op":"ping"}"#,
            ]
            .map(str::to_string),
        );
        lines
    }

    /// All frames in one write give the transcript one frame at a time
    /// gives, for any worker count, over both transports.
    #[test]
    fn pipelined_transcript_equals_depth_one() {
        let lines = pipelining_session();
        let daemon = TestDaemon::boot(false, "depth1", 1);
        let (mut reader, mut writer) = daemon.connect();
        let depth_one: Vec<String> = lines
            .iter()
            .map(|line| {
                writer
                    .write_all(format!("{line}\n").as_bytes())
                    .expect("write");
                next_reply(&mut reader)
            })
            .collect();
        daemon.stop();
        assert_eq!(depth_one.len(), lines.len());
        assert!(depth_one.iter().any(|r| r.contains(r#""kind":"parse""#)));
        assert!(depth_one.iter().any(|r| r.contains(r#""kind":"event""#)));

        let all_frames = lines.join("\n") + "\n";
        for (unix, workers) in [
            (false, 1),
            (false, 2),
            (false, 5),
            (true, 1),
            (true, 2),
            (true, 5),
        ] {
            let daemon = TestDaemon::boot(unix, &format!("pipelined{workers}"), workers);
            let (mut reader, mut writer) = daemon.connect();
            // Written from a second thread: the session is larger than
            // a socket buffer may be, so replies must be read meanwhile.
            let pipelined = std::thread::scope(|scope| {
                scope.spawn(|| {
                    writer.write_all(all_frames.as_bytes()).expect("write");
                    half_close(&writer);
                });
                replies_until_eof(&mut reader)
            });
            assert_eq!(pipelined, depth_one, "unix {unix}, workers {workers}");
            daemon.stop();
        }
    }
}
