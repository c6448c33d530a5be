//! Persists from several connections at once.
//!
//! Every connection thread persists through the same `PATH.tmp`. Before
//! persists were serialised, two `snapshot` ops at once (or a `snapshot`
//! beside a `shutdown`) truncated and overwrote each other's temp file and
//! renamed it from under one another: of the 180 `snapshot` replies here,
//! 3 to 21 came back `"publishing snapshot: No such file or directory"` on
//! every run, and now and then the *published* path held half a document.
//!
//! Three connections send 60 `snapshot` ops each, all started on one
//! barrier, while a fourth keeps appending events and this thread keeps
//! reading the published path. Every reply must be `persisted`; every read
//! must parse and restore. A stress test cannot show the absence of a race,
//! but this one failed on every run before the persist lock.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

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

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdt-serve-concurrent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn concurrent_persists_neither_fail_nor_tear_the_published_snapshot() {
    let dir = scratch_dir();
    let (socket, snapshot) = (dir.join("daemon.sock"), dir.join("daemon.snapshot.json"));
    let _ = std::fs::remove_file(&snapshot);
    let server = Server::bind(ServerConfig {
        endpoint: Endpoint::Unix(socket.clone()),
        workers: 3,
        snapshot_path: Some(snapshot.clone()),
    })
    .expect("bind");
    let daemon = std::thread::spawn(move || server.run());

    // Enough state that writing it takes a while, then a first snapshot so
    // the published path exists before anyone reads it.
    let mut setup = Client::connect(&socket);
    for stream in 0..STREAMS {
        let open = format!(r#"{{"op":"open","stream":"s{stream}","processes":{PROCESSES}}}"#);
        assert!(setup.roundtrip(&open).starts_with(r#"{"ok":true"#));
        for k in 0..SETUP_ROUNDS {
            for frame in event_frames(stream, k) {
                let reply = setup.roundtrip(&frame);
                assert!(reply.starts_with(r#"{"ok":true"#), "{frame} -> {reply}");
            }
        }
    }
    let persisted = format!(r#"{{"ok":true,"persisted":{STREAMS}}}"#);
    assert_eq!(setup.roundtrip(r#"{"op":"snapshot"}"#), persisted);

    let start = Barrier::new(SNAPSHOTTERS + 2);
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
                    let reply = client.roundtrip(&frame);
                    assert!(reply.starts_with(r#"{"ok":true"#), "{frame} -> {reply}");
                }
                k += 1;
            }
        });

        start.wait();
        let mut reads = Vec::new();
        while !snapshotters.iter().all(|s| s.is_finished()) {
            let bytes = std::fs::read(&snapshot).expect("the published path exists");
            reads.push(restores(&bytes));
        }
        done.store(true, Ordering::SeqCst);
        appender.join().expect("appender thread");
        let replies: Vec<String> = snapshotters
            .into_iter()
            .flat_map(|s| s.join().expect("snapshotter thread"))
            .collect();
        (replies, reads)
    });

    assert_eq!(replies.len(), SNAPSHOTTERS * SNAPSHOTS_EACH);
    let failed: Vec<&String> = replies.iter().filter(|r| **r != persisted).collect();
    let torn: Vec<&String> = reads.iter().filter_map(|r| r.as_ref().err()).collect();
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
    assert!(reads.iter().all(|r| r == &Ok(STREAMS)));

    // A `shutdown` persists too, beside nothing now; the file it leaves is
    // the one a restart reads.
    let reply = setup.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(
        reply.contains(&format!(r#""persisted":{STREAMS}"#)),
        "{reply}"
    );
    daemon.join().expect("daemon thread").expect("daemon run");
    let bytes = std::fs::read(&snapshot).expect("final snapshot");
    assert_eq!(restores(&bytes), Ok(STREAMS));
    let _ = std::fs::remove_dir_all(&dir);
}
