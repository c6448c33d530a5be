//! Persists of a running daemon: from several connections at once, beside
//! streams that come and go, through a rename that fails, appended as
//! records to the file the first one wrote, cut off mid-record, resumed by
//! a daemon restarted on the file, and skipped when nothing changed.
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
//! `persisted`; every read must restore, and the document at its head list
//! each stream once, in name order. A stress test cannot show the absence of
//! a race, but this one failed on every run before the persist lock.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use rdt_json::Json;
use rdt_serve::{Endpoint, EnginePool, PoolHandle, Server, ServerConfig, PERSIST_CHUNK};

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

/// The names of the stream entries of the document a snapshot file starts
/// with — its first line — in document order.
fn entry_names(bytes: &[u8]) -> Vec<String> {
    let document = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
    let doc = Json::parse_bytes(document).expect("the snapshot's document parses");
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
    // The document at the head of a read lists what the last whole write
    // held; the records after it may have opened or closed `s2-churn`.
    let some_streams = |count: usize| count == STREAMS || count == STREAMS + 1;
    for (restored, names) in &reads {
        assert!(
            restored.as_ref().is_ok_and(|&count| some_streams(count)),
            "{restored:?}"
        );
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

/// What a pool replies to `frame`, as the daemon would send it.
fn answer(handle: &PoolHandle, frame: &str) -> String {
    let mut out = Vec::new();
    assert!(handle.answer_frame(frame.as_bytes(), &mut out).is_none());
    String::from_utf8(out)
        .expect("UTF-8")
        .trim_end()
        .to_string()
}

/// The whole document a pool renders.
fn document(pool: &EnginePool) -> Vec<u8> {
    let mut text = Vec::new();
    pool.handle()
        .write_snapshot_document(&mut text)
        .expect("the pool's document");
    text
}

/// The whole document a fresh pool of `workers` stripes renders once it has
/// restored `bytes`.
fn rendered(bytes: &[u8], workers: usize) -> Vec<u8> {
    let pool = EnginePool::new(workers);
    pool.handle()
        .restore_text(bytes, 1)
        .expect("the file restores");
    document(&pool)
}

/// Whether `after` is `before` with exactly one record appended: a header
/// whose length field counts every byte after it, and nothing more.
fn appends_one_record(before: &[u8], after: &[u8]) -> bool {
    let Some(record) = after.strip_prefix(before) else {
        return false;
    };
    let len = record.get(1..11).map(String::from_utf8_lossy);
    let len = len.and_then(|digits| digits.parse::<usize>().ok());
    record.first() == Some(&b'@') && len.is_some_and(|len| record.len() == 29 + len)
}

/// The session's frames go to the daemon and to an in-process twin pool.
struct Twinned {
    client: Client,
    twin: EnginePool,
}

impl Twinned {
    fn ok(&mut self, frame: &str) {
        self.client.ok(frame);
        answer(&self.twin.handle(), frame);
    }

    fn roundtrip(&mut self, frame: &str) -> String {
        let reply = self.client.roundtrip(frame);
        assert_eq!(answer(&self.twin.handle(), frame), reply, "{frame}");
        reply
    }
}

/// The fifth `snapshot` of a session — the four after the first appended,
/// with compactions, crashes, refused events and messages left in transit
/// across persists — leaves a file that neither the `shutdown` after it nor
/// the first `snapshot` of the daemon restarted on it changes (nothing
/// changed), and that restores to the whole document of an uninterrupted
/// twin fed the same session, byte for byte, for 1 and 5 stripes (so the
/// documents the two stripe counts restore to are equal too).
#[test]
fn a_hot_persist_is_the_file_a_cold_restart_persists() {
    let mut restored_documents = Vec::new();
    for (workers, restart_workers) in [(1, 5), (5, 1)] {
        let dir = scratch_dir(&format!("hot{workers}"));
        let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
        let (daemon, socket, snapshot) = boot(&dir, workers);
        let mut client = Twinned {
            client: Client::connect(&socket),
            twin: EnginePool::new(restart_workers),
        };
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
                // A long first period, so that the later ones append.
                let rounds = if persist == 1 { 600 } else { 20 + 5 * stream };
                for _ in 0..rounds {
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
                    if stream == persist {
                        client.ok(&format!(r#"{{"op":"compact","stream":"s{stream}"}}"#));
                    }
                }
            }
            let reply = client.client.roundtrip(r#"{"op":"snapshot"}"#);
            assert_eq!(reply, format!(r#"{{"ok":true,"persisted":{STREAMS}}}"#));
        }
        let hot = std::fs::read(&snapshot).expect("the fifth snapshot");
        let records = hot.windows(2).filter(|pair| pair == b"\n@").count();
        assert_eq!(records, 4, "{workers} stripes: persists 2 to 5 append");
        assert!(hot.starts_with(br#"{"format":"rdt-serve-snapshot","version":2,"#));
        let Twinned {
            client: mut wire,
            twin,
        } = client;
        wire.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        let shut = std::fs::read(&snapshot).expect("shutdown snapshot");
        assert!(
            shut == hot,
            "{workers} stripes: a shutdown with nothing changed wrote to the file"
        );

        // The restarted daemon adopts the file: with nothing changed, its
        // first persist writes nothing either.
        let (daemon, socket, snapshot) = boot(&dir, restart_workers);
        let mut client = Client::connect(&socket);
        let reply = client.roundtrip(r#"{"op":"snapshot"}"#);
        assert_eq!(reply, format!(r#"{{"ok":true,"persisted":{STREAMS}}}"#));
        let kept = std::fs::read(&snapshot).expect("the restarted daemon's snapshot");
        assert!(
            kept == hot,
            "{workers} stripes: the restarted daemon's first persist changed the file"
        );
        let restored = rendered(&kept, restart_workers);
        assert!(
            restored == document(&twin),
            "{workers} stripes: the file restored ({} bytes rendered) differs from the \
             uninterrupted twin's document ({} bytes)",
            restored.len(),
            document(&twin).len()
        );
        restored_documents.push(restored);
        client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        restored_documents[0] == restored_documents[1],
        "1 and 5 stripes restore to other documents"
    );
}

/// A `PATH.tmp` left behind by a daemon killed mid-rewrite is removed when
/// the next daemon boots, and the file at `PATH` restores as it was.
#[test]
fn a_stale_temp_file_is_removed_at_boot() {
    let dir = scratch_dir("stale");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let mut client = Client::connect(&socket);
    client.ok(&format!(
        r#"{{"op":"open","stream":"s0","processes":{PROCESSES}}}"#
    ));
    for k in 0..30 {
        for frame in event_frames(0, k) {
            client.ok(&frame);
        }
    }
    let query = r#"{"op":"query","stream":"s0","what":"recovery-line"}"#;
    let before = client.roundtrip(query);
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");

    let tmp = dir.join("daemon.snapshot.json.tmp");
    std::fs::write(
        &tmp,
        b"{\"format\":\"rdt-serve-snapshot\",\"version\":2,\"str",
    )
    .expect("junk");
    let (daemon, socket, _) = boot(&dir, 3);
    assert!(!tmp.exists(), "the stale temp file survived the boot");
    let mut client = Client::connect(&socket);
    assert_eq!(client.roundtrip(query), before);
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");
    assert_eq!(
        restores(&std::fs::read(&snapshot).expect("snapshot")),
        Ok(1)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The questions a restored daemon is asked about the torn-tail session.
fn query_set() -> Vec<String> {
    let mut queries = vec![r#"{"op":"streams"}"#.to_string()];
    for stream in ["t0", "t1", "t2"] {
        for what in ["untrackable", "recovery-line"] {
            queries.push(format!(
                r#"{{"op":"query","stream":"{stream}","what":"{what}"}}"#
            ));
        }
        queries.push(format!(
            r#"{{"op":"query","stream":"{stream}","what":"min-consistent","members":[[1,1]]}}"#
        ));
    }
    queries
}

/// The answers to [`query_set`] of a pool restored from `bytes`.
fn answers_of(bytes: &[u8]) -> Result<Vec<String>, String> {
    let pool = EnginePool::new(2);
    pool.handle()
        .restore_text(bytes, 2)
        .map_err(|e| e.to_string())?;
    let handle = pool.handle();
    Ok(query_set().iter().map(|q| answer(&handle, q)).collect())
}

/// A session of four persists — the first writes the file whole, the other
/// three append — across a compaction, a crash, a stream closed and opened
/// again under its name and messages in transit. The file cut at every byte
/// of the last record, and the file with any one byte of it flipped,
/// restore to the answers the daemon gave right after the third persist:
/// a torn or corrupt tail is never trusted, and what it leaves is the last
/// persist that completed (the session-level rollback guarantee: a restart
/// lands only on a state the uninterrupted run was in).
#[test]
fn a_torn_or_flipped_record_restores_the_persist_before_it() {
    const PERSISTS: usize = 4;
    let dir = scratch_dir("torn");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let mut client = Client::connect(&socket);
    let event = |stream: usize, body: String| {
        format!(r#"{{"op":"event","stream":"t{stream}","type":{body}}}"#)
    };
    let (mut lens, mut acknowledged) = (Vec::new(), Vec::new());
    let mut next = [0usize; 3];
    for persist in 1..=PERSISTS {
        for (stream, k) in next.iter_mut().enumerate() {
            if *k == 0 {
                client.ok(&format!(
                    r#"{{"op":"open","stream":"t{stream}","processes":4}}"#
                ));
            }
            let rounds = if persist == 1 { 300 } else { 30 };
            for _ in 0..rounds {
                client.ok(&event(
                    stream,
                    format!(r#""send","from":{},"to":{}"#, *k % 4, (*k + 1) % 4),
                ));
                if *k >= 3 {
                    client.ok(&event(stream, format!(r#""deliver","message":{}"#, *k - 3)));
                }
                if k.is_multiple_of(2) {
                    client.ok(&event(
                        stream,
                        format!(r#""checkpoint","process":{}"#, (*k / 2) % 4),
                    ));
                }
                *k += 1;
            }
        }
        match persist {
            2 => client.ok(r#"{"op":"compact","stream":"t1"}"#),
            3 => {
                client.ok(&event(0, r#""crash","process":2"#.to_string()));
                client.ok(r#"{"op":"close","stream":"t2"}"#);
                next[2] = 0;
            }
            _ => {}
        }
        let reply = client.roundtrip(r#"{"op":"snapshot"}"#);
        assert!(reply.starts_with(r#"{"ok":true,"persisted":"#), "{reply}");
        lens.push(std::fs::metadata(&snapshot).expect("snapshot").len() as usize);
        acknowledged.push(
            query_set()
                .iter()
                .map(|q| client.roundtrip(q))
                .collect::<Vec<_>>(),
        );
    }
    let file = std::fs::read(&snapshot).expect("snapshot");
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(file.len(), lens[PERSISTS - 1]);
    assert_eq!(answers_of(&file).as_ref(), Ok(&acknowledged[PERSISTS - 1]));
    let last = lens[PERSISTS - 2]..lens[PERSISTS - 1];
    assert_eq!(file[last.start], b'@', "the last persist appended a record");
    let before = Ok(&acknowledged[PERSISTS - 2]);
    assert_ne!(before, Ok(&acknowledged[PERSISTS - 1]));
    for cut in last.clone() {
        assert_eq!(
            answers_of(&file[..cut]).as_ref(),
            before,
            "cut at byte {cut}"
        );
    }
    for at in last {
        let mut flipped = file.clone();
        flipped[at] ^= 1 << (at % 8);
        assert_eq!(answers_of(&flipped).as_ref(), before, "byte {at} flipped");
    }
}

/// Sends rounds `next[stream]..next[stream] + rounds` of [`event_frames`]
/// on `stream` through `send`.
fn rounds(next: &mut [usize], stream: usize, rounds: usize, mut send: impl FnMut(&str)) {
    for _ in 0..rounds {
        for frame in event_frames(stream, next[stream]) {
            send(&frame);
        }
        next[stream] += 1;
    }
}

fn open_frame(stream: usize) -> String {
    format!(r#"{{"op":"open","stream":"s{stream}","processes":{PROCESSES}}}"#)
}

/// A daemon restarted on its file resumes it: the first life writes the
/// file whole and appends a record to it, the second — after events, a
/// compaction, a crash, a close and a reopen under the same name — appends
/// exactly one record and leaves every byte before it as it was, and the
/// file restores to the whole document of an uninterrupted twin fed the
/// same session, which a third life answers as, for 1 and 5 stripes.
#[test]
fn a_restarted_daemon_appends_to_the_file_it_restored() {
    for (workers, restart_workers) in [(1, 5), (5, 1)] {
        let dir = scratch_dir(&format!("resume{workers}"));
        let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
        let (daemon, socket, snapshot) = boot(&dir, workers);
        let mut client = Twinned {
            client: Client::connect(&socket),
            twin: EnginePool::new(restart_workers),
        };
        let persisted = format!(r#"{{"ok":true,"persisted":{STREAMS}}}"#);
        let mut next = [0usize; STREAMS];
        for stream in 0..STREAMS {
            client.ok(&open_frame(stream));
            rounds(&mut next, stream, 300, |frame| client.ok(frame));
        }
        assert_eq!(client.client.roundtrip(r#"{"op":"snapshot"}"#), persisted);
        let whole = std::fs::read(&snapshot).expect("the first persist");
        for stream in 0..STREAMS {
            rounds(&mut next, stream, 10, |frame| client.ok(frame));
        }
        assert_eq!(client.client.roundtrip(r#"{"op":"snapshot"}"#), persisted);
        let first_life = std::fs::read(&snapshot).expect("the second persist");
        assert!(appends_one_record(&whole, &first_life));
        client.client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");

        let (daemon, socket, snapshot) = boot(&dir, restart_workers);
        client.client = Client::connect(&socket);
        rounds(&mut next, 0, 20, |frame| client.ok(frame));
        let reply = client.roundtrip(r#"{"op":"compact","stream":"s1"}"#);
        assert!(!reply.contains(r#""dropped":0"#), "{reply}");
        client.ok(r#"{"op":"event","stream":"s2","type":"crash","process":1}"#);
        client.ok(r#"{"op":"close","stream":"s3"}"#);
        client.ok(&open_frame(3));
        next[3] = 0;
        rounds(&mut next, 3, 5, |frame| client.ok(frame));
        assert_eq!(client.client.roundtrip(r#"{"op":"snapshot"}"#), persisted);
        let second_life = std::fs::read(&snapshot).expect("the second life's persist");
        assert!(
            appends_one_record(&first_life, &second_life),
            "{workers} stripes: the second life did not append one record to the first's file"
        );
        client.client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        assert!(std::fs::read(&snapshot).expect("the file") == second_life);

        let (daemon, socket, _) = boot(&dir, workers);
        let mut third = Client::connect(&socket);
        let twin = client.twin.handle();
        let mut queries = vec![r#"{"op":"streams"}"#.to_string()];
        for stream in 0..STREAMS {
            for what in ["untrackable", "recovery-line"] {
                queries.push(format!(
                    r#"{{"op":"query","stream":"s{stream}","what":"{what}"}}"#
                ));
            }
        }
        for query in &queries {
            assert_eq!(third.roundtrip(query), answer(&twin, query), "{query}");
        }
        third.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        assert!(
            rendered(&second_life, workers) == document(&client.twin),
            "{workers} stripes: the resumed file restores to another document than the twin's"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The first life's file cut at every byte of its last record: the boot
/// cuts the torn tail back to the persist before it, the second life's
/// persist appends one record right after that persist, and the file
/// restores to the document of a twin fed the acknowledged prefix — the
/// frames up to that persist — and the second life's frames.
#[test]
fn a_restart_on_a_torn_record_appends_after_the_persist_before_it() {
    let dir = scratch_dir("resume-torn");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let mut client = Client::connect(&socket);
    let mut next = [0usize; 3];
    let mut prefix = Vec::new();
    for stream in 0..2 {
        prefix.push(open_frame(stream));
        rounds(&mut next, stream, 40, |frame| {
            prefix.push(frame.to_string())
        });
    }
    for frame in &prefix {
        client.ok(frame);
    }
    client.ok(r#"{"op":"snapshot"}"#);
    let acknowledged = std::fs::read(&snapshot).expect("the first persist");
    // Two rounds on `s0` only: a short last record.
    rounds(&mut next, 0, 2, |frame| client.ok(frame));
    client.ok(r#"{"op":"snapshot"}"#);
    let full = std::fs::read(&snapshot).expect("the second persist");
    assert!(appends_one_record(&acknowledged, &full));
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");

    // After the restart: `s1` goes on, `s2` is opened.
    let mut after = Vec::new();
    rounds(&mut next, 1, 3, |frame| after.push(frame.to_string()));
    after.push(open_frame(2));
    rounds(&mut next, 2, 3, |frame| after.push(frame.to_string()));
    let twin = EnginePool::new(3);
    for frame in prefix.iter().chain(&after) {
        assert!(answer(&twin.handle(), frame).starts_with(r#"{"ok":true"#));
    }
    let expected = document(&twin);

    for cut in acknowledged.len()..full.len() {
        std::fs::write(&snapshot, &full[..cut]).expect("the cut file");
        let (daemon, socket, _) = boot(&dir, 1 + cut % 3);
        let mut client = Client::connect(&socket);
        for frame in &after {
            client.ok(frame);
        }
        assert_eq!(
            client.roundtrip(r#"{"op":"snapshot"}"#),
            r#"{"ok":true,"persisted":3}"#
        );
        client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        let file = std::fs::read(&snapshot).expect("the resumed file");
        assert!(
            appends_one_record(&acknowledged, &file),
            "cut at byte {cut}: the record is not appended right after the acknowledged persist"
        );
        assert!(
            rendered(&file, 2) == expected,
            "cut at byte {cut}: the file restores to another document than the twin's"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persist with nothing to record — no stream changed, none opened or
/// closed — leaves the file byte-identical and answers the same
/// `persisted` count as one that writes; a `crash` alone and a `close`
/// alone (no entry, one live stream fewer) each still append a record.
#[test]
fn a_persist_with_nothing_to_record_writes_nothing() {
    let dir = scratch_dir("unchanged");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let mut client = Client::connect(&socket);
    let mut next = [0usize; 2];
    for stream in 0..2 {
        client.ok(&open_frame(stream));
        rounds(&mut next, stream, 30, |frame| client.ok(frame));
    }
    let persist = |client: &mut Client, count: usize| {
        let reply = client.roundtrip(r#"{"op":"snapshot"}"#);
        assert_eq!(reply, format!(r#"{{"ok":true,"persisted":{count}}}"#));
        std::fs::read(&snapshot).expect("the snapshot")
    };
    let mut file = persist(&mut client, 2);
    assert_eq!(persist(&mut client, 2), file, "nothing changed");
    let mut events = Vec::new();
    rounds(&mut next, 0, 3, |frame| events.push(frame.to_string()));
    let crash = r#"{"op":"event","stream":"s1","type":"crash","process":0}"#.to_string();
    let close = r#"{"op":"close","stream":"s1"}"#.to_string();
    for (what, frames, live) in [
        ("events", events, 2),
        ("a crash", vec![crash], 2),
        ("a close", vec![close], 1),
    ] {
        for frame in &frames {
            client.ok(frame);
        }
        let appended = persist(&mut client, live);
        assert!(appends_one_record(&file, &appended), "{what}");
        file = appended;
        assert_eq!(
            persist(&mut client, live),
            file,
            "nothing changed since {what}"
        );
    }
    let reply = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""persisted":1"#), "{reply}");
    daemon.join().expect("daemon thread");
    assert_eq!(std::fs::read(&snapshot).expect("the snapshot"), file);

    let (daemon, socket, _) = boot(&dir, 3);
    let mut client = Client::connect(&socket);
    assert_eq!(persist(&mut client, 1), file, "a restart changed nothing");
    let reply = client.roundtrip(r#"{"op":"shutdown"}"#);
    assert!(reply.contains(r#""persisted":1"#), "{reply}");
    daemon.join().expect("daemon thread");
    assert_eq!(std::fs::read(&snapshot).expect("the snapshot"), file);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file of an older build is not adopted: the file a version 2 daemon
/// persisted (envelope 1, engine documents of version 2; read here, never
/// regenerated), and the same file under an envelope of version 2, are
/// each written whole by the first persist, with nothing changed, as one
/// version 4 document of the state they hold.
#[test]
fn an_older_file_is_written_whole_by_the_first_persist() {
    let golden = include_bytes!("golden/daemon_v2.snapshot.json");
    let head = br#"{"format":"rdt-serve-snapshot","version":1,"#;
    assert!(golden.starts_with(head));
    let relabelled = [
        &br#"{"format":"rdt-serve-snapshot","version":2,"#[..],
        &golden[head.len()..],
    ]
    .concat();
    let dir = scratch_dir("older");
    for old in [&golden[..], &relabelled] {
        let snapshot = dir.join("daemon.snapshot.json");
        std::fs::write(&snapshot, old).expect("the older file");
        let (daemon, socket, _) = boot(&dir, 2);
        let mut client = Client::connect(&socket);
        assert_eq!(
            client.roundtrip(r#"{"op":"snapshot"}"#),
            r#"{"ok":true,"persisted":2}"#
        );
        client.ok(r#"{"op":"shutdown"}"#);
        daemon.join().expect("daemon thread");
        let file = std::fs::read(&snapshot).expect("the rewritten file");
        let mut whole = rendered(old, 1);
        assert!(!whole
            .windows(33)
            .any(|w| w == br#""rdt-rgraph-snapshot","version":2"#));
        whole.push(b'\n');
        assert!(
            file == whole,
            "the first persist on an older file did not write it whole"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record whose body reached the file and whose header did not — the
/// header's 29 bytes zeros, as a `kill -9` between the two writes leaves it,
/// since a record's body is written first and its header after — restores
/// to the persist before it, and a boot on that file cuts it off and appends
/// the next persist's record right after that persist.
#[test]
fn a_record_without_its_header_restores_the_persist_before_it() {
    let dir = scratch_dir("headerless");
    let _ = std::fs::remove_file(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 2);
    let mut client = Client::connect(&socket);
    let mut next = [0usize; 3];
    let mut prefix = Vec::new();
    for stream in 0..2 {
        prefix.push(open_frame(stream));
        rounds(&mut next, stream, 40, |frame| {
            prefix.push(frame.to_string())
        });
    }
    for frame in &prefix {
        client.ok(frame);
    }
    client.ok(r#"{"op":"snapshot"}"#);
    let acknowledged = std::fs::read(&snapshot).expect("the first persist");
    rounds(&mut next, 0, 30, |frame| client.ok(frame));
    client.ok(r#"{"op":"snapshot"}"#);
    let full = std::fs::read(&snapshot).expect("the second persist");
    assert!(appends_one_record(&acknowledged, &full));
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");

    let mut headerless = full;
    headerless[acknowledged.len()..acknowledged.len() + 29].fill(0);
    assert!(
        rendered(&headerless, 2) == rendered(&acknowledged, 2),
        "the record without its header was trusted"
    );

    let mut after = Vec::new();
    rounds(&mut next, 1, 3, |frame| after.push(frame.to_string()));
    after.push(open_frame(2));
    rounds(&mut next, 2, 3, |frame| after.push(frame.to_string()));
    let twin = EnginePool::new(3);
    for frame in prefix.iter().chain(&after) {
        assert!(answer(&twin.handle(), frame).starts_with(r#"{"ok":true"#));
    }
    std::fs::write(&snapshot, &headerless).expect("the headerless file");
    let (daemon, socket, _) = boot(&dir, 3);
    let mut client = Client::connect(&socket);
    for frame in &after {
        client.ok(frame);
    }
    assert_eq!(
        client.roundtrip(r#"{"op":"snapshot"}"#),
        r#"{"ok":true,"persisted":3}"#
    );
    client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");
    let file = std::fs::read(&snapshot).expect("the resumed file");
    assert!(
        appends_one_record(&acknowledged, &file),
        "the record is not appended right after the acknowledged persist"
    );
    assert!(
        rendered(&file, 2) == document(&twin),
        "the resumed file restores to another document than the twin's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The file the daemon's persists stream, kept beside it in memory: the same
/// three rules applied to [`PoolHandle::write_persist`] renders into a `Vec`
/// on a twin pool fed the same frames.
struct InMemory {
    file: Vec<u8>,
    /// Bytes of the document at the head of `file`.
    base: usize,
    /// Streams live at the state `file` holds.
    live: usize,
    /// Whether the next persist may append: false before the first and
    /// after a failed one.
    open: bool,
}

/// How an in-memory persist went.
#[derive(Debug, PartialEq)]
enum Wrote {
    Nothing,
    Record,
    Whole,
}

impl InMemory {
    /// One persist of `twin`: the `persisted` count, and what it wrote.
    fn persist(&mut self, twin: &EnginePool) -> (usize, Wrote) {
        let handle = twin.handle();
        if self.open {
            let mut record = Vec::new();
            let rendered = handle.write_persist(&mut record, false).expect("record");
            if rendered.entries == 0 && rendered.live == self.live {
                return (rendered.live, Wrote::Nothing);
            }
            if self.file.len() + record.len() <= 2 * self.base {
                self.file.extend_from_slice(&record);
                self.live = rendered.live;
                return (rendered.live, Wrote::Record);
            }
        }
        let mut whole = Vec::new();
        let rendered = handle.write_persist(&mut whole, true).expect("whole");
        whole.push(b'\n');
        (self.base, self.file) = (whole.len(), whole);
        (self.live, self.open) = (rendered.live, true);
        (rendered.live, Wrote::Whole)
    }
}

/// A session of persists that write a document and records of more than a
/// chunk each, nothing when nothing changed, a record of a close alone, a
/// record the 2× rule turns into a whole write, and a whole write whose
/// publish fails: after each, the streamed file equals, byte for byte, the
/// file [`InMemory`] renders into a `Vec`, and the failed persist leaves the
/// next one whole on both sides.
#[test]
fn a_streamed_file_is_the_in_memory_render_byte_for_byte() {
    let dir = scratch_dir("streamed");
    let _ = std::fs::remove_dir_all(dir.join("daemon.snapshot.json"));
    let (daemon, socket, snapshot) = boot(&dir, 3);
    let mut client = Twinned {
        client: Client::connect(&socket),
        twin: EnginePool::new(2),
    };
    let mut memory = InMemory {
        file: Vec::new(),
        base: 0,
        live: 0,
        open: false,
    };
    let mut next = [0usize; STREAMS];
    let persist = |client: &mut Twinned, memory: &mut InMemory, expected: Wrote| {
        let (live, wrote) = memory.persist(&client.twin);
        assert_eq!(wrote, expected);
        let reply = client.client.roundtrip(r#"{"op":"snapshot"}"#);
        assert_eq!(reply, format!(r#"{{"ok":true,"persisted":{live}}}"#));
        let file = std::fs::read(&snapshot).expect("the snapshot");
        assert!(
            file == memory.file,
            "{expected:?}: the streamed file ({} bytes) is not the in-memory one ({} bytes)",
            file.len(),
            memory.file.len()
        );
        (file.len(), memory.base)
    };
    for stream in 0..STREAMS {
        client.ok(&open_frame(stream));
        rounds(&mut next, stream, 600, |frame| client.ok(frame));
    }
    let (len, base) = persist(&mut client, &mut memory, Wrote::Whole);
    assert!(base > 2 * PERSIST_CHUNK, "a document of {base} bytes");
    for stream in 0..STREAMS {
        rounds(&mut next, stream, 300, |frame| client.ok(frame));
    }
    let (appended, _) = persist(&mut client, &mut memory, Wrote::Record);
    assert!(
        appended - len > PERSIST_CHUNK,
        "a record of {} bytes",
        appended - len
    );
    persist(&mut client, &mut memory, Wrote::Nothing);
    client.ok(r#"{"op":"close","stream":"s5"}"#);
    persist(&mut client, &mut memory, Wrote::Record);
    for stream in 0..4 {
        rounds(&mut next, stream, 600, |frame| client.ok(frame));
    }
    persist(&mut client, &mut memory, Wrote::Whole);

    // The next record is too large again, and the whole write it turns into
    // cannot be published: `PATH` is a non-empty directory by then.
    for stream in 0..4 {
        rounds(&mut next, stream, 2000, |frame| client.ok(frame));
    }
    std::fs::remove_file(&snapshot).expect("the published file");
    std::fs::create_dir_all(snapshot.join("occupied")).expect("a directory at PATH");
    let reply = client.client.roundtrip(r#"{"op":"snapshot"}"#);
    assert!(reply.contains("publishing snapshot"), "{reply}");
    memory.persist(&client.twin);
    memory.open = false;
    std::fs::remove_dir_all(&snapshot).expect("clear PATH");
    persist(&mut client, &mut memory, Wrote::Whole);
    rounds(&mut next, 1, 5, |frame| client.ok(frame));
    persist(&mut client, &mut memory, Wrote::Record);

    client.client.ok(r#"{"op":"shutdown"}"#);
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}
