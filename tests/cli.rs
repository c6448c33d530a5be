//! Black-box tests of the `rdt-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdt-cli"))
}

#[test]
fn list_shows_all_protocols_and_environments() {
    let output = cli().arg("list").output().expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    for name in [
        "bhmr",
        "bhmr-nosimple",
        "fdas",
        "fdi",
        "nras",
        "cas",
        "cbr",
        "bcs",
        "uncoordinated",
    ] {
        assert!(text.contains(name), "missing protocol {name}");
    }
    for env in ["random", "groups", "client-server", "ring", "pipeline"] {
        assert!(text.contains(env), "missing environment {env}");
    }
}

#[test]
fn run_with_verify_reports_rdt() {
    let output = cli()
        .args([
            "run",
            "--protocol",
            "bhmr",
            "--env",
            "random",
            "--messages",
            "120",
            "--verify",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("R = "), "missing stats: {text}");
    assert!(
        text.contains("RDT          : holds"),
        "verification missing: {text}"
    );
}

/// `--stats` times the phases of the analysis `--verify` then reads: the
/// verdict, R-path count and violations `--verify` prints are those it
/// prints alone, and the timed R-path phase reports the same count.
#[test]
fn verify_with_stats_reports_what_verify_alone_reports() {
    let run = |extra: &[&str]| {
        let mut args = vec![
            "run",
            "--protocol",
            "uncoordinated",
            "--n",
            "4",
            "--seed",
            "3",
        ];
        args.extend(["--messages", "200", "--verify"]);
        let output = cli().args(args).args(extra).output().expect("binary runs");
        assert!(output.status.success());
        String::from_utf8(output.stdout).unwrap()
    };
    let verified = |text: &str| {
        let mut lines = text.lines().skip_while(|line| !line.starts_with("  RDT "));
        let head = lines.next().expect("an RDT line").to_string();
        let violations = lines.take_while(|line| line.starts_with("    "));
        let block: Vec<String> = std::iter::once(head.clone())
            .chain(violations.map(str::to_string))
            .collect();
        (head, block)
    };
    let (alone, with_stats) = (run(&[]), run(&["--stats"]));
    let (head, block) = verified(&alone);
    assert_eq!(verified(&with_stats).1, block);
    assert!(head.contains("VIOLATED") && block.len() == 4, "{alone}");
    let count = head
        .split('(')
        .nth(1)
        .and_then(|rest| rest.split(' ').next());
    let count = count.expect("an R-path count");
    let check = format!("({count} R-paths, RDT VIOLATED)");
    assert!(with_stats.contains(&check), "{with_stats}");
}

#[test]
fn audit_figure_1_flags_the_violation() {
    let output = cli()
        .args(["audit", "--figure", "1"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("RDT: violated"));
    assert!(text.contains("min GC containing"));
}

#[test]
fn save_and_replay_trace_roundtrip() {
    let path = std::env::temp_dir().join("rdt-cli-test-trace.json");
    let path_str = path.to_str().unwrap();
    let output = cli()
        .args([
            "run",
            "--protocol",
            "fdas",
            "--env",
            "ring",
            "--messages",
            "40",
            "--save-trace",
            path_str,
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());

    let output = cli()
        .args(["replay", "--trace", path_str])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("replaying trace"));
    assert!(text.contains("RDT: holds"));
    let _ = std::fs::remove_file(path);
}

/// The trace `run --n 2 --messages 3 --seed 1 --save-trace` writes; each
/// case below breaks one guarantee of the runner's by hand.
const SMALL_TRACE: &str = r#"[["send",4,0,1,0],["deliver",5,1,0,0],["send",15,0,1,1],["ckpt",23,0,1,"basic"],["ckpt",23,1,1,"basic"],["ckpt",30,0,2,"basic"],["send",46,1,0,2],["deliver",115,1,0,1],["deliver",139,0,1,2]]"#;

/// `replay` of `SMALL_TRACE` with `from` replaced by `to`: exits 1 with a
/// message naming trace event `event`, and does not panic.
fn replay_refuses(case: &str, from: &str, to: &str, event: usize) {
    assert!(SMALL_TRACE.contains(from), "{case}");
    let events = SMALL_TRACE.replace(from, to);
    let path = std::env::temp_dir().join(format!("rdt-cli-{case}-{}.json", std::process::id()));
    std::fs::write(&path, format!(r#"{{"n":2,"events":{events}}}"#)).expect("write the trace");
    let output = cli()
        .args(["replay", "--trace", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let text = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(1), "{case}: {text}");
    assert!(
        text.contains(&format!("trace event {event}:")),
        "{case}: {text}"
    );
    assert!(!text.contains("panicked"), "{case}: {text}");
}

#[test]
fn replay_refuses_a_message_id_beyond_the_trace() {
    let huge = r#"["send",4,0,1,1000000000000000000],["deliver",5,1,0,1000000000000000000]"#;
    replay_refuses(
        "huge-id",
        r#"["send",4,0,1,0],["deliver",5,1,0,0]"#,
        huge,
        0,
    );
}

#[test]
fn replay_refuses_a_message_sent_twice() {
    replay_refuses("resent", r#"["send",15,0,1,1]"#, r#"["send",15,0,1,0]"#, 2);
}

#[test]
fn replay_refuses_a_checkpoint_index_that_is_not_the_next() {
    let second = r#"["ckpt",30,0,2,"basic"]"#;
    replay_refuses("skipped", second, r#"["ckpt",30,0,3,"basic"]"#, 5);
    // 2^32 + 2 would read as 2 if cut to 32 bits.
    replay_refuses("wide", second, r#"["ckpt",30,0,4294967298,"basic"]"#, 5);
}

#[test]
fn replay_refuses_a_delivery_that_does_not_match_its_send() {
    replay_refuses(
        "crossed",
        r#"["deliver",5,1,0,0]"#,
        r#"["deliver",5,0,1,0]"#,
        1,
    );
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let output = cli().arg("bogus").output().expect("binary runs");
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("usage:"));
}

#[test]
fn unknown_protocol_fails_helpfully() {
    let output = cli()
        .args(["run", "--protocol", "nonsense"])
        .output()
        .expect("binary runs");
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("unknown protocol"));
}

#[test]
fn certify_refuses_a_sample_it_cannot_read() {
    for value in ["2%", "nan", "-0.5"] {
        let output = cli()
            .args(["certify", "--scope", "2,2", "--sample", value])
            .output()
            .expect("binary runs");
        assert!(!output.status.success(), "--sample {value} ran");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.contains("--sample"), "--sample {value}: {text}");
    }
}

#[test]
fn unknown_flags_are_refused_with_usage() {
    for args in [
        &["run", "--protocl", "fdas"][..],
        &["list", "--n", "4"],
        &["audit", "--figure", "1", "--seed", "3"],
        &["certify", "--scope", "2,2", "--n", "3"],
    ] {
        let output = cli().args(args).output().expect("binary runs");
        assert!(!output.status.success(), "{args:?} ran");
        let text = String::from_utf8(output.stderr).unwrap();
        let flag = args.iter().rfind(|a| a.starts_with("--")).unwrap();
        assert!(
            text.contains(&format!("reads no {flag}")),
            "{args:?}: {text}"
        );
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
}

#[test]
fn unparsable_values_are_refused_with_usage() {
    for (args, flag) in [
        (&["run", "--n", "abc"][..], "--n"),
        (&["run", "--messages", "-3"], "--messages"),
        (&["compare", "--seed", "1.5"], "--seed"),
        (&["run", "--verify", "yes"], "--verify"),
        (&["domino", "--rounds", "many"], "--rounds"),
        (
            &["certify", "--scope", "2,2", "--threads", "x"],
            "--threads",
        ),
    ] {
        let output = cli().args(args).output().expect("binary runs");
        assert!(!output.status.success(), "{args:?} ran");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.contains(flag), "{args:?}: {text}");
        assert!(text.contains("usage:"), "{args:?}: {text}");
    }
}

/// A value that parses but that the run cannot take is refused with the
/// reason and the usage, exit 1: it never reaches a panic in the library.
#[test]
fn out_of_range_values_are_refused_with_usage() {
    for (args, flag) in [
        (
            &["run", "--n", "3", "--messages", "5", "--crash-rate", "-1"][..],
            "--crash-rate",
        ),
        (
            &["run", "--n", "3", "--messages", "5", "--crash-rate", "nan"],
            "--crash-rate",
        ),
        (
            &["run", "--n", "3", "--messages", "5", "--crash-rate", "inf"],
            "--crash-rate",
        ),
        (
            &[
                "compare",
                "--n",
                "3",
                "--messages",
                "5",
                "--crash-rate",
                "-1",
            ],
            "--crash-rate",
        ),
        (&["domino", "--rounds", "0"], "--rounds"),
    ] {
        let output = cli().args(args).output().expect("binary runs");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.contains(flag), "{args:?}: {text}");
        assert!(text.contains("usage:"), "{args:?}: {text}");
        assert!(!text.contains("panicked"), "{args:?}: {text}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

/// A value flag with nothing after it, or with another flag after it, is
/// refused with the usage line: it is never read as `true`, so no file of
/// that name is written.
#[test]
fn value_flags_without_a_value_are_refused_with_usage() {
    let dir = std::env::temp_dir().join(format!("rdt-cli-bare-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, flag) in [
        (
            &["run", "--n", "3", "--messages", "10", "--save-trace"][..],
            "--save-trace",
        ),
        (
            &["run", "--save-trace", "--n", "3", "--messages", "10"],
            "--save-trace",
        ),
        (&["run", "--n", "3", "--messages", "10", "--dot"], "--dot"),
        (&["run", "--dot", "--n", "3", "--messages", "10"], "--dot"),
        (&["certify", "--scope", "2,2", "--json"], "--json"),
        (&["certify", "--json", "--scope", "2,2"], "--json"),
    ] {
        let output = cli()
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(
            text.contains(&format!("{flag} needs a value")),
            "{args:?}: {text}"
        );
        assert!(text.contains("usage:"), "{args:?}: {text}");
        assert!(
            !dir.join("true").exists(),
            "{args:?} wrote a file named `true`"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A switch never takes the argument after it: before the subcommand it
/// stays a switch, and the subcommand still runs.
#[test]
fn a_switch_before_the_subcommand_leaves_it_alone() {
    let output = cli()
        .args(["--stats", "run", "--n", "3", "--messages", "10"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("protocol bhmr in random (n=3"), "{text}");
    assert!(text.contains("online probe"), "stats block missing: {text}");
    assert!(
        text.contains("phase timings"),
        "stats block missing: {text}"
    );
}

#[test]
fn help_prints_the_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = cli().arg(flag).output().expect("binary runs");
        assert!(output.status.success(), "{flag}");
        let text = String::from_utf8(output.stdout).unwrap();
        assert!(text.starts_with("usage:"), "{flag}: {text}");
        assert!(text.contains("rdt-cli run [--protocol NAME]"), "{text}");
        assert!(output.stderr.is_empty(), "{flag}");
    }
}

/// Extra positionals, a flag given twice, a value given to a switch and
/// both connect endpoints at once are refused with the usage.
#[test]
fn the_grammar_refuses_with_usage() {
    for (args, reason) in [
        (&["list", "extra"][..], "unexpected argument \"extra\""),
        (&["run", "--n", "3", "--n", "4"], "--n is given twice"),
        (&["run", "--verify=yes"], "--verify takes no value"),
        (
            &["run", "--stats", "extra"],
            "--stats takes no value (\"extra\")",
        ),
        (&[], "no command given"),
        (
            &["connect", "--addr", "127.0.0.1:1", "--unix", "x"],
            "--addr and --unix are exclusive",
        ),
    ] {
        let output = cli().args(args).output().expect("binary runs");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.starts_with(reason), "{args:?}: {text}");
        assert!(text.contains("usage:"), "{args:?}: {text}");
        assert!(output.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn a_value_flag_takes_name_equals_value() {
    let output = cli()
        .args(["run", "--n=3", "--messages", "10"])
        .output()
        .expect("binary runs");
    assert!(output.status.success(), "{output:?}");
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("(n=3, seed 1)"), "{text}");
    assert!(text.contains("10 sent"), "{text}");
}

/// Every binary whose stdout is a pipe with no reader — its read end closed
/// before the binary starts — ends its output quietly: no panic, no
/// backtrace, its usual exit code. Rust ignores `SIGPIPE`, so a `println!`
/// there panics and exits 101; `rdt-serve` died so right after binding.
/// The daemon must keep serving after its status line: it answers a
/// `shutdown` on its socket and exits 0. The other binaries are found
/// beside `rdt-cli`, so every binary must be built (`cargo build --bins`).
#[test]
fn every_binary_ends_quietly_on_a_closed_stdout() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::process::Stdio;

    let binary = |name: &str| {
        let path = std::path::Path::new(env!("CARGO_BIN_EXE_rdt-cli")).with_file_name(name);
        assert!(
            path.exists(),
            "{} is not built: build every binary first (`cargo build --bins`)",
            path.display()
        );
        Command::new(path)
    };
    let readerless = || {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        writer
    };
    let quiet = |what: &str, stderr: &[u8]| {
        let stderr = String::from_utf8_lossy(stderr);
        assert!(
            !stderr.contains("panicked") && !stderr.contains("Broken pipe"),
            "{what}: {stderr}"
        );
    };
    let dir = std::env::temp_dir().join(format!("rdt-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let runs: [(&str, &[&str]); 6] = [
        ("rdt-cli", &["--help"]),
        (
            "rdt-cli",
            &["run", "--n", "3", "--messages", "10", "--stats"],
        ),
        ("experiments", &["--help"]),
        ("experiments", &["--quick", "table1"]),
        ("rdt-lint", &["--rules"]),
        ("rdt-lint", &["--explain", "wall-clock"]),
    ];
    for (name, args) in runs {
        let output = binary(name)
            .args(args)
            .env("RDT_RESULTS_DIR", &dir)
            .stdout(readerless())
            .output()
            .expect("binary runs");
        let what = format!("{name} {}", args.join(" "));
        assert!(output.status.success(), "{what}: {}", output.status);
        quiet(&what, &output.stderr);
    }

    let socket = dir.join("daemon.sock");
    let mut daemon = binary("rdt-serve")
        .arg("--unix")
        .arg(&socket)
        .stdout(readerless())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rdt-serve starts");
    let started = std::time::Instant::now();
    let mut conn = loop {
        if let Some(status) = daemon.try_wait().expect("daemon status") {
            let output = daemon.wait_with_output().expect("daemon output");
            let stderr = String::from_utf8_lossy(&output.stderr);
            panic!("rdt-serve exited before serving: {status}: {stderr}");
        }
        if let Ok(conn) = UnixStream::connect(&socket) {
            break conn;
        }
        assert!(started.elapsed().as_secs() < 30, "rdt-serve never listened");
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    conn.write_all(b"{\"op\":\"shutdown\"}\n").expect("write");
    let mut reply = String::new();
    BufReader::new(conn).read_line(&mut reply).expect("reply");
    assert!(reply.contains("stopping"), "{reply}");
    let output = daemon.wait_with_output().expect("daemon exits");
    assert!(output.status.success(), "rdt-serve: {}", output.status);
    quiet("rdt-serve", &output.stderr);
    let _ = std::fs::remove_dir_all(&dir);
}
