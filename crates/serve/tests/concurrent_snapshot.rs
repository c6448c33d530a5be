//! Persists of a running daemon: from several connections at once, beside
//! streams that come and go, through a rename that fails, and with every
//! stream's snapshot cache hot.
//!
//! Every connection thread persists through the same `PATH.tmp`. Before
//! persists were serialised, two `snapshot` ops at once (or a `snapshot`
//! beside a `shutdown`) truncated and overwrote each other's temp file and
//! renamed it from under one another: of the 180 `snapshot` replies here,
//! 3 to 21 came back `"publishing snapshot: No such file or directory"` on
//! every run, and now and then the *published* path held half a document.
//!
//! Three connections send 60 `snapshot` ops each, all started on one
//! barrier, while a fourth keeps appending events, a fifth keeps opening
//! and closing a stream whose name sorts between the others (a persist
//! renders one stream at a time, each under its own stripe's lock), and
//! this thread keeps reading the published path. Every reply must be
//! `persisted`; every read must restore and list each stream once, in name
//! order. A stress test cannot show the absence of a race, but this one
//! failed on every run before the persist lock.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use rdt_json::Json;
use rdt_serve::{Endpoint, EnginePool, Server, ServerConfig};

const STREAMS: usize = 6;
const PROCESSES: usize = 6;
/// Rounds of `event_frames` per stream before the first snapshot.
const SETUP_ROUNDS: usize = 400;
const SNAPSHOTTERS: usize = 3;
const SNAPSHOTS_EACH: usize = 60;

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    fn connect(socket: &Path) -> Client {
        let writer = UnixStream::connect(socket).expect("connect");
        let timeout = Some(std::time::Duration::from_secs(60));
        writer.set_read_timeout(timeout).expect("timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { reader, writer }
    }

    /// One frame as one write, then its reply.
    fn roundtrip(&mut self, frame: &str) -> String {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply in time");
        reply.trim_end().to_string()
    }

    /// A frame that must succeed.
    fn ok(&mut self, frame: &str) {
        let reply = self.roundtrip(frame);
        assert!(reply.starts_with(r#"{"ok":true"#), "{frame} -> {reply}");
    }
}

/// Frame `k` of an endless well-formed session on `stream`: a ring of
/// sends, each delivered two frames later, and a checkpoint every third.
fn event_frames(stream: usize, k: usize) -> Vec<String> {
    let event = |body: String| format!(r#"{{"op":"event","stream":"s{stream}","type":{body}}}"#);
    let mut frames = vec![event(format!(
        r#""send","from":{},"to":{}"#,
        k % PROCESSES,
        (k + 1) % PROCESSES
    ))];
    if k >= 2 {
        frames.push(event(format!(r#""deliver","message":{}"#, k - 2)));
    }
    if k.is_multiple_of(3) {
        frames.push(event(format!(
            r#""checkpoint","process":{}"#,
            (k / 3) % PROCESSES
        )));
    }
    frames
}

/// Restores one read of the published snapshot, as a restart would.
fn restores(bytes: &[u8]) -> Result<usize, String> {
    let pool = EnginePool::new(2);
    let installed = pool.handle().restore_text(bytes, 1);
    installed.map_err(|e| e.to_string())
}

/// The names of a document's stream entries, in document order.
fn entry_names(bytes: &[u8]) -> Vec<String> {
    let doc = Json::parse_bytes(bytes).expect("the snapshot parses");
    let entries = doc.get("streams").and_then(Json::as_array);
    let name = |entry: &Json| entry.get("name").and_then(Json::as_str).map(str::to_string);
    entries
        .expect("a stream list")
        .iter()
        .filter_map(name)
        .collect()
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdt-serve-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A daemon on a Unix socket in `dir`, persisting to `dir/daemon.snapshot.json`.
fn boot(dir: &Path, workers: usize) -> (std::thread::JoinHandle<()>, PathBuf, PathBuf) {
    let (socket, snapshot) = (dir.join("daemon.sock"), dir.join("daemon.snapshot.json"));
    let server = Server::bind(ServerConfig {
        endpoint: Endpoint::Unix(socket.clone()),
        workers,
        snapshot_path: Some(snapshot.clone()),
    })
    .expect("bind");
    let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
    (daemon, socket, snapshot)
}

#[test]
fn concurrent_persists_neither_fail_nor_tear_the_published_snapshot() {
    let dir = scratch_dir("concurrent");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 3);

    // Enough state that writing it takes a while, then a first snapshot so
    // the published path exists before anyone reads it.
    let mut setup = Client::connect(&socket);
    for stream in 0..STREAMS {
        setup.ok(&format!(
            r#"{{"op":"open","stream":"s{stream}","processes":{PROCESSES}}}"#
        ));
        for k in 0..SETUP_ROUNDS {
            for frame in event_frames(stream, k) {
                setup.ok(&frame);
            }
        }
    }
    let persisted = |count: usize| format!(r#"{{"ok":true,"persisted":{count}}}"#);
    assert_eq!(setup.roundtrip(r#"{"op":"snapshot"}"#), persisted(STREAMS));

    let start = Barrier::new(SNAPSHOTTERS + 3);
    let done = AtomicBool::new(false);
    let (replies, reads) = std::thread::scope(|scope| {
        let snapshotters: Vec<_> = (0..SNAPSHOTTERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&socket);
                    start.wait();
                    (0..SNAPSHOTS_EACH)
                        .map(|_| client.roundtrip(r#"{"op":"snapshot"}"#))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        let appender = scope.spawn(|| {
            let mut client = Client::connect(&socket);
            start.wait();
            // Bounded: the message table only grows, and with it the
            // document every later snapshot writes.
            let mut k = SETUP_ROUNDS;
            while k < 4 * SETUP_ROUNDS && !done.load(Ordering::SeqCst) {
                for frame in event_frames(0, k) {
                    client.ok(&frame);
                }
                k += 1;
            }
        });
        // `s2-churn` sorts between `s2` and `s3`: at most one stream more
        // than `STREAMS` is open at any time.
        let churner = scope.spawn(|| {
            let mut client = Client::connect(&socket);
            start.wait();
            let event =
                |body: &str| format!(r#"{{"op":"event","stream":"s2-churn","type":{body}}}"#);
            while !done.load(Ordering::SeqCst) {
                client.ok(r#"{"op":"open","stream":"s2-churn","processes":2}"#);
                client.ok(&event(r#""send","from":0,"to":1"#));
                client.ok(&event(r#""checkpoint","process":1"#));
                client.ok(r#"{"op":"close","stream":"s2-churn"}"#);
            }
        });

        start.wait();
        let mut reads = Vec::new();
        while !snapshotters.iter().all(|s| s.is_finished()) {
            let bytes = std::fs::read(&snapshot).expect("the published path exists");
            reads.push((restores(&bytes), entry_names(&bytes)));
        }
        done.store(true, Ordering::SeqCst);
        appender.join().expect("appender thread");
        churner.join().expect("churner thread");
        let replies: Vec<String> = snapshotters
            .into_iter()
            .flat_map(|s| s.join().expect("snapshotter thread"))
            .collect();
        (replies, reads)
    });

    assert_eq!(replies.len(), SNAPSHOTTERS * SNAPSHOTS_EACH);
    let persisted_any = |r: &String| *r == persisted(STREAMS) || *r == persisted(STREAMS + 1);
    let failed: Vec<&String> = replies.iter().filter(|r| !persisted_any(r)).collect();
    let torn: Vec<&String> = reads.iter().filter_map(|r| r.0.as_ref().err()).collect();
    assert!(
        failed.is_empty() && torn.is_empty(),
        "{} of {} snapshot replies failed (first: {:?}), {} of {} reads of the published \
         snapshot were torn (first: {:?})",
        failed.len(),
        replies.len(),
        failed.first(),
        torn.len(),
        reads.len(),
        torn.first()
    );
    for (restored, names) in &reads {
        assert_eq!(restored, &Ok(names.len()));
        assert!(
            names.windows(2).all(|pair| pair[0] < pair[1]),
            "entries out of name order or named twice: {names:?}"
        );
        assert!(names.len() == STREAMS || names.len() == STREAMS + 1);
    }

    // A `shutdown` persists too, beside nothing now; the file it leaves is
    // the one a restart reads.
    let reply = setup.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(
        reply.contains(&format!(r#""persisted":{STREAMS}"#)),
        "{reply}"
    );
    daemon.join().expect("daemon thread");
    let bytes = std::fs::read(&snapshot).expect("final snapshot");
    assert_eq!(restores(&bytes), Ok(STREAMS));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persist whose rename fails — `PATH` is a non-empty directory — is an
/// `admin` error naming the step, leaves no `PATH.tmp` behind (after a full
/// disk that would be a torn file holding the space that just ran out), and
/// costs the connection nothing: once the directory is gone, the next
/// `snapshot` persists a file that restores.
#[test]
fn a_failed_publish_leaves_no_temp_file_and_the_next_persist_succeeds() {
    let dir = scratch_dir("publish");
    let _ = std::fs::remove_dir_all(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let tmp = dir.join("daemon.snapshot.json.tmp");

    let mut client = Client::connect(&socket);
    client.ok(&format!(
        r#"{{"op":"open","stream":"s0","processes":{PROCESSES}}}"#
    ));
    for k in 0..40 {
        for frame in event_frames(0, k) {
            client.ok(&frame);
        }
    }
    std::fs::create_dir_all(snapshot.join("occupied")).expect("a directory at PATH");

    let reply = client.roundtrip(r#"{"op":"snapshot"}"#);
    assert!(
        reply.contains(r#""kind":"admin""#) && reply.contains("publishing snapshot"),
        "{reply}"
    );
    assert!(!tmp.exists(), "the failed persist left {}", tmp.display());
    let reply = client.roundtrip(r#"{"op":"query","stream":"s0","what":"untrackable"}"#);
    assert!(reply.starts_with(r#"{"ok":true,"untrackable":"#), "{reply}");

    std::fs::remove_dir_all(&snapshot).expect("clear PATH");
    assert_eq!(
        client.roundtrip(r#"{"op":"snapshot"}"#),
        r#"{"ok":true,"persisted":1}"#
    );
    assert!(!tmp.exists());
    let bytes = std::fs::read(&snapshot).expect("the published snapshot");
    assert_eq!(restores(&bytes), Ok(1));
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The fifth `snapshot` of a session — every stream's cache rendered four
/// times before, with compactions, crashes, refused events and messages left
/// in transit across persists — writes the file a daemon restored from it
/// writes with every cache cold, byte for byte, for 1 and 5 stripes.
#[test]
fn a_hot_persist_is_the_file_a_cold_restart_persists() {
    for (workers, restart_workers) in [(1, 5), (5, 1)] {
        let dir = scratch_dir(&format!("hot{workers}"));
        let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
        let (daemon, socket, snapshot) = boot(&dir, workers);
        let mut client = Client::connect(&socket);
        for stream in 0..STREAMS {
            client.ok(&format!(
                r#"{{"op":"open","stream":"s{stream}","processes":{PROCESSES}}}"#
            ));
        }
        let mut next = [0usize; STREAMS];
        for persist in 1..=5 {
            for (stream, k) in next.iter_mut().enumerate() {
                // Message `k - 2` of the ring is delivered two frames later,
                // so two messages of every stream are in transit at each
                // persist; stream 3 leaves one in transit from the start.
                for _ in 0..60 + 25 * stream {
                    for frame in event_frames(stream, *k) {
                        if stream != 3 || !frame.contains(r#""message":0}"#) {
                            client.ok(&frame);
                        }
                    }
                    *k += 1;
                }
                if persist < 4 {
                    let reply = client.roundtrip(&format!(
                        r#"{{"op":"event","stream":"s{stream}","type":"deliver","message":9999}}"#
                    ));
                    assert!(reply.contains(r#""kind":"event""#), "{reply}");
                    client.ok(&format!(
                        r#"{{"op":"event","stream":"s{stream}","type":"crash","process":1}}"#
                    ));
                    if stream % 2 == persist % 2 {
                        client.ok(&format!(r#"{{"op":"compact","stream":"s{stream}"}}"#));
                    }
                }
            }
            let reply = client.roundtrip(r#"{"op":"snapshot"}"#);
            assert_eq!(reply, format!(r#"{{"ok":true,"persisted":{STREAMS}}}"#));
        }
        let hot = std::fs::read(&snapshot).expect("the fifth snapshot");
        client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        assert!(std::fs::read(&snapshot).expect("shutdown snapshot") == hot);

        let (daemon, socket, snapshot) = boot(&dir, restart_workers);
        let mut client = Client::connect(&socket);
        client.ok(r#"{"op":"snapshot"}"#);
        let cold = std::fs::read(&snapshot).expect("the restarted daemon's snapshot");
        assert!(
            cold == hot,
            "{workers} stripes: the hot persist ({} bytes) differs from the cold one ({} bytes)",
            hot.len(),
            cold.len()
        );
        client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
