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
