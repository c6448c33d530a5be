//! The wire transcript, pinned from the commit before the reply trees went
//! away.
//!
//! `golden/wire_transcript.txt` is one two-tenant session over a real
//! socket — request line, reply line, alternating — holding every op, every
//! event type, every query kind with one to three members, a `null` global,
//! crashes, compactions, stream names with non-ASCII letters and one of
//! exactly the longest length, valid but non-canonical spellings of the hot
//! frames (whitespace, reordered and duplicated keys, `\u` escapes in the
//! name, float-typed members), and every error kind reachable in-band:
//! `parse`, `frame`, `stream`, `event`, `query`, `limit` by `processes` and
//! by name length, `admin` by `snapshot` without a path. It was captured at
//! commit 1c1a798, where every reply was still a `Json` tree printed by
//! `write_compact`, by a throw-away copy of this test that wrote the file
//! instead of reading it. Those trees were the only definition the reply
//! bytes ever had; since the typed replies replaced them, this file is.
//! **Never regenerate it**: a daemon that disagrees with it has changed the
//! wire.
//!
//! The session is the file: the requests sent are its odd lines. Every
//! daemon configuration must answer them with its even lines, byte for byte
//! — one frame at a time and fully pipelined, over TCP and over a Unix
//! socket, with 1 and with 5 stripes.
//!
//! `golden/cold_replies.txt` pins what that session cannot hold, because
//! its daemon has no snapshot path: a `snapshot` and a `shutdown` that
//! persist, and both when the persist fails (the path a non-empty
//! directory: the `admin` error naming `publishing snapshot`, and
//! `snapshot_error`) — beside `open`, `close`, `streams` and the error
//! envelope for stream names holding a control byte, `"` and `\`. It holds
//! two sessions, each under a heading that says where the snapshot path
//! points, and was captured the same way at commit 77eaae6, where every
//! reply but the eight hot shapes was still a `Json` tree. **Never
//! regenerate it either.**

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use rdt_serve::{Endpoint, Server, ServerConfig};

const GOLDEN: &str = include_str!("golden/wire_transcript.txt");

const COLD_GOLDEN: &str = include_str!("golden/cold_replies.txt");

/// `(requests, replies)` of a session: request and reply lines alternate.
fn session(text: &str) -> (Vec<&str>, Vec<&str>) {
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() % 2, 0, "request and reply lines alternate");
    let requests = lines.iter().step_by(2).copied().collect();
    let replies = lines.iter().skip(1).step_by(2).copied().collect();
    (requests, replies)
}

/// `(requests, replies)` of the golden session.
fn golden_session() -> (Vec<&'static str>, Vec<&'static str>) {
    session(GOLDEN)
}

/// `(where the snapshot path points, requests, replies)` of each session of
/// the cold-reply golden.
type ColdSession = (&'static str, Vec<&'static str>, Vec<&'static str>);

fn cold_sessions() -> Vec<ColdSession> {
    COLD_GOLDEN
        .split("# snapshot path: ")
        .skip(1)
        .map(|section| {
            let (heading, body) = section.split_once('\n').expect("a heading line");
            let (requests, replies) = session(body);
            (heading, requests, replies)
        })
        .collect()
}

/// Sends the session over `stream` — one frame per round trip, or all of
/// it in one write from a second thread followed by `half_close` — and
/// returns the reply lines.
fn converse<S: Sync>(
    stream: &S,
    half_close: impl Fn(&S) -> std::io::Result<()> + Sync,
    pipelined: bool,
    requests: &[&str],
) -> Vec<String>
where
    for<'a> &'a S: Read + Write,
{
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    if pipelined {
        let all_frames = requests.join("\n") + "\n";
        // Written from a second thread: the session is larger than a socket
        // buffer may be, so replies must be read meanwhile.
        let text = std::thread::scope(|scope| {
            scope.spawn(|| {
                writer.write_all(all_frames.as_bytes()).expect("write");
                half_close(stream).expect("shutdown(Write)");
            });
            let mut text = String::new();
            reader.read_to_string(&mut text).expect("read to EOF");
            text
        });
        return text.lines().map(str::to_string).collect();
    }
    requests
        .iter()
        .map(|request| {
            writer
                .write_all(format!("{request}\n").as_bytes())
                .expect("write");
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("a reply in time");
            reply.trim_end_matches('\n').to_string()
        })
        .collect()
}

/// Boots a daemon with `snapshot_path`, runs `after_bind`, has the session
/// with it and returns the reply lines. Reads give up after ten seconds, so
/// a stranded reply fails the test instead of hanging it. The session ends
/// in `shutdown`, so the daemon is gone when this returns.
fn transcript(
    unix: bool,
    workers: usize,
    pipelined: bool,
    snapshot_path: Option<PathBuf>,
    after_bind: impl FnOnce(),
    requests: &[&str],
) -> Vec<String> {
    // Tests run side by side: every daemon gets its own socket path.
    static DAEMONS: AtomicUsize = AtomicUsize::new(0);
    let path: PathBuf = std::env::temp_dir().join(format!(
        "rdt-wire-{}-{}.sock",
        std::process::id(),
        DAEMONS.fetch_add(1, Ordering::Relaxed)
    ));
    let server = Server::bind(ServerConfig {
        endpoint: if unix {
            Endpoint::Unix(path.clone())
        } else {
            Endpoint::Tcp("127.0.0.1:0".to_string())
        },
        workers,
        snapshot_path,
    })
    .expect("bind");
    after_bind();
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());
    let timeout = Some(Duration::from_secs(10));
    let replies = match addr {
        Some(addr) => {
            let stream = TcpStream::connect(addr).expect("connect tcp");
            stream.set_read_timeout(timeout).expect("timeout");
            let half_close = |s: &TcpStream| s.shutdown(Shutdown::Write);
            converse(&stream, half_close, pipelined, requests)
        }
        None => {
            let stream = UnixStream::connect(&path).expect("connect unix");
            stream.set_read_timeout(timeout).expect("timeout");
            let half_close = |s: &UnixStream| s.shutdown(Shutdown::Write);
            converse(&stream, half_close, pipelined, requests)
        }
    };
    daemon.join().expect("daemon thread").expect("daemon run");
    replies
}

/// The golden is what its header says it is: a transcript that left any of
/// these out would pin less than the test claims.
#[test]
fn golden_session_covers_the_wire() {
    let (requests, replies) = golden_session();
    assert!(requests.len() >= 250, "{} frames", requests.len());
    assert_eq!(requests.last(), Some(&r#"{"op":"shutdown"}"#));
    for op in [
        "open", "event", "query", "compact", "close", "streams", "snapshot", "ping", "shutdown",
    ] {
        let frame = format!(r#"{{"op":"{op}""#);
        assert!(requests.iter().any(|r| r.starts_with(&frame)), "op {op}");
    }
    for needle in [
        r#""type":"send""#,
        r#""type":"deliver""#,
        r#""type":"checkpoint""#,
        r#""type":"crash""#,
        r#""what":"untrackable""#,
        r#""what":"recovery-line""#,
        r#""what":"min-consistent","members":[["#,
        r#""what":"max-consistent","members":[["#,
        "\"stream\":\"tenant-βγ/東京\"",
        r#""stream":"alpha""#,
        r#"{ "op" : "event""#,
    ] {
        assert!(requests.iter().any(|r| r.contains(needle)), "{needle}");
    }
    // Member lists of one, two and three pairs.
    for pairs in 1..=3usize {
        assert!(
            requests
                .iter()
                .any(|r| r.contains("-consistent") && r.matches("],[").count() == pairs - 1),
            "{pairs} member(s)"
        );
    }
    for needle in [
        r#"{"ok":true}"#,
        r#""checkpoint":"#,
        r#""message":"#,
        r#""crashes":"#,
        r#""line":["#,
        r#""untrackable":"#,
        r#""global":["#,
        r#""global":null"#,
        r#""dropped":"#,
        r#""closed":"#,
        r#""streams":["#,
        r#""pong":true"#,
        r#""stopping":true"#,
        r#""kind":"parse""#,
        r#""kind":"frame""#,
        r#""kind":"stream""#,
        r#""kind":"event""#,
        r#""kind":"query""#,
        r#""kind":"admin""#,
        "`processes` exceeds the maximum",
        "stream name longer than",
    ] {
        assert!(replies.iter().any(|r| r.contains(needle)), "{needle}");
    }
}

#[test]
fn every_configuration_answers_with_the_golden_bytes() {
    let (requests, replies) = golden_session();
    for unix in [false, true] {
        for workers in [1, 5] {
            for pipelined in [false, true] {
                // No snapshot path, so `snapshot` is the in-band `admin` error.
                let got = transcript(unix, workers, pipelined, None, || (), &requests);
                assert_eq!(
                    got.len(),
                    replies.len(),
                    "unix {unix}, workers {workers}, pipelined {pipelined}"
                );
                for (i, (got, want)) in got.iter().zip(&replies).enumerate() {
                    assert_eq!(
                        got, want,
                        "reply {i} to {} (unix {unix}, workers {workers}, pipelined {pipelined})",
                        requests[i]
                    );
                }
            }
        }
    }
}

/// Every configuration answers both cold sessions with their golden bytes,
/// each daemon on a fresh snapshot path. A non-empty directory is put at the
/// path after the daemon has bound (a restore would refuse it) and before
/// the first frame.
#[test]
fn cold_replies_answer_with_the_golden_bytes() {
    let sessions = cold_sessions();
    let headings: Vec<&str> = sessions.iter().map(|s| s.0).collect();
    assert_eq!(headings, ["a file", "a non-empty directory"]);
    let replies = |heading: &str| {
        sessions
            .iter()
            .find(|s| s.0 == heading)
            .map(|s| s.2.join("\n"))
    };
    let (file, directory) = (
        replies("a file").unwrap(),
        replies("a non-empty directory").unwrap(),
    );
    for needle in [
        r#"{"ok":true,"persisted":"#,
        r#"{"ok":true,"stopping":true,"persisted":"#,
        r#""closed":"#,
        r#""streams":[]"#,
        r#""streams":["back\\slash","c\u0001trl","q\"uote","tab\tnew\nline\u001f"]"#,
        "already open",
        "unknown stream",
        r#""kind":"event""#,
        r#""kind":"query""#,
    ] {
        assert!(
            file.contains(needle) || directory.contains(needle),
            "{needle}"
        );
    }
    for needle in [
        r#"{"ok":false,"error":{"kind":"admin","message":"publishing snapshot: "#,
        r#"{"ok":true,"stopping":true,"snapshot_error":"admin: publishing snapshot: "#,
    ] {
        assert!(directory.contains(needle), "{needle}");
    }

    for (heading, requests, replies) in &sessions {
        for unix in [false, true] {
            for workers in [1, 5] {
                for pipelined in [false, true] {
                    let dir = std::env::temp_dir().join(format!(
                        "rdt-wire-cold-{}-{unix}-{workers}-{pipelined}",
                        std::process::id()
                    ));
                    let _ = std::fs::remove_dir_all(&dir);
                    std::fs::create_dir_all(&dir).expect("a temp directory");
                    let path = dir.join("daemon.snapshot.json");
                    let occupy = || {
                        if *heading == "a non-empty directory" {
                            std::fs::create_dir_all(path.join("occupied")).expect("occupy");
                        }
                    };
                    let got = transcript(
                        unix,
                        workers,
                        pipelined,
                        Some(path.clone()),
                        occupy,
                        requests,
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                    let config =
                        format!("{heading}: unix {unix}, workers {workers}, pipelined {pipelined}");
                    assert_eq!(got.len(), replies.len(), "{config}");
                    for (i, (got, want)) in got.iter().zip(replies).enumerate() {
                        assert_eq!(got, want, "reply {i} to {} ({config})", requests[i]);
                    }
                }
            }
        }
    }
}
