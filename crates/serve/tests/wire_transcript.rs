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

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use rdt_serve::{Endpoint, Server, ServerConfig};

const GOLDEN: &str = include_str!("golden/wire_transcript.txt");

/// `(requests, replies)` of the golden session.
fn golden_session() -> (Vec<&'static str>, Vec<&'static str>) {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len() % 2, 0, "request and reply lines alternate");
    let requests = lines.iter().step_by(2).copied().collect();
    let replies = lines.iter().skip(1).step_by(2).copied().collect();
    (requests, replies)
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

/// Boots a daemon without a snapshot path (so `snapshot` is the in-band
/// `admin` error), has the session with it and returns the reply lines.
/// Reads give up after ten seconds, so a stranded reply fails the test
/// instead of hanging it. The session ends in `shutdown`, so the daemon is
/// gone when this returns.
fn transcript(unix: bool, workers: usize, pipelined: bool, requests: &[&str]) -> Vec<String> {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "rdt-wire-{}-{workers}-{pipelined}.sock",
        std::process::id()
    ));
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
                let got = transcript(unix, workers, pipelined, &requests);
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
