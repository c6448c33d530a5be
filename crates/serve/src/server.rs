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
//! way in for a canonical `event` or `query` — and answers the three
//! [`DaemonOp`]s that come back (`ping`, `snapshot`, `shutdown`) itself.
//! It writes the buffer out whenever its read buffer holds no further
//! complete frame — that is, before any read that could block — so replies
//! leave in request order, a pipelined window costs one write, and depth 1
//! costs one write per reply. TCP sockets are `TCP_NODELAY`.
//!
//! Persistence: with `--snapshot PATH`, the daemon restores the snapshot
//! at startup (if present; the file's bytes go straight to
//! [`PoolHandle::restore_text`], which reads engine snapshot versions 1 to
//! 3), persists on the `snapshot` op, and persists again on `shutdown`
//! (version 3, always). A persist writes the document's text straight from
//! the engines' tables and their snapshot caches
//! ([`PoolHandle::write_snapshot_document`]) into one buffer, then into a
//! temp file that it renames over `PATH`. Persists are serialised by one
//! mutex held from the first byte written to the rename: every connection
//! thread goes through the same temp file, and two of them at once would
//! truncate and rename it from under each other. The mutex also holds that
//! buffer, kept from one persist to the next, so a persist allocates no
//! document. With that, a reader of `PATH` — or a crash at any point — sees
//! a complete earlier snapshot or a complete later one; a write or rename
//! that fails removes the temp file and is an `admin` error.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::protocol::{admin, DaemonOp, ErrorKind, Reply, ServeError, MAX_LINE_BYTES};
use crate::shard::{EnginePool, PoolHandle};

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
    /// The buffer a persist renders the document into, reused from one
    /// persist to the next; held by the one thread that is persisting, from
    /// serialisation to rename. Lock order: this, then a stripe; no stripe
    /// holder takes it.
    persist: Mutex<Vec<u8>>,
    shutdown: AtomicBool,
    poke: Poke,
}

impl Shared {
    fn poke_accept(&self) {
        match &self.poke {
            Poke::Tcp(addr) => drop(TcpStream::connect(addr)),
            Poke::Unix(path) => drop(UnixStream::connect(path)),
        }
    }
}

/// Writes `text` to `path` through a temp file in the same directory and a
/// rename. Callers hold the persist lock: the temp file's name is fixed.
/// When either step fails the temp file is removed (best effort) before the
/// error is returned: after a full disk it is a torn file occupying the
/// space that just ran out.
fn write_snapshot_file(path: &Path, text: &[u8]) -> Result<(), ServeError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let published = fs::write(&tmp, text)
        .map_err(|e| admin(format!("writing snapshot: {e}")))
        .and_then(|()| {
            fs::rename(&tmp, path).map_err(|e| admin(format!("publishing snapshot: {e}")))
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
    // buffer, which is cleared before it is used again.
    let mut text = shared
        .persist
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    text.clear();
    let count = shared.handle.write_snapshot_document(&mut text)?;
    text.push(b'\n');
    write_snapshot_file(path, &text)?;
    Ok(count)
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

/// Writes the pending replies out as one `write_all` + `flush`.
fn flush_replies(writer: &mut Conn, out: &mut Vec<u8>) -> std::io::Result<()> {
    let written = writer.write_all(out).and_then(|()| writer.flush());
    out.clear();
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
        line.clear();
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

        let mut restored = 0usize;
        if let Some(path) = &config.snapshot_path {
            if path.exists() {
                let bytes = fs::read(path).map_err(|e| admin(format!("reading snapshot: {e}")))?;
                restored = handle.restore_text(&bytes, pool.workers())?;
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
                // A stale socket file from a previous run would make bind
                // fail; the daemon owns the path, so clear it.
                if path.exists() {
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
                persist: Mutex::new(Vec::new()),
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
