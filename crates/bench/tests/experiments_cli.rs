//! Black-box tests of the `experiments` binary's command line: what it
//! refuses, what it lists, and that a failed artifact write fails the run.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_lists_every_experiment_in_run_order() {
    let output = experiments(&["--help"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(
        text.contains(
            "[all|fig7|fig8|fig9|table1|cor45|rdtcheck|sim-throughput|incremental|compaction|\
             certify-scale|ablation|sensitivity|scaling|coordinated|necessity|recovery|\
             recovery-exec]"
        ),
        "{text}"
    );
}

#[test]
fn unknown_experiment_is_refused_with_the_list() {
    // `certify` is not an experiment: `rdt-cli certify` is the certifier's
    // one front end.
    for name in ["fig10", "certify"] {
        let output = experiments(&[name]);
        assert_eq!(output.status.code(), Some(1), "{name}");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(
            text.contains(&format!("unknown experiment {name:?}")),
            "{text}"
        );
        assert!(text.contains("usage: experiments [all|fig7|"), "{text}");
        assert!(text.contains("|recovery-exec]"), "{text}");
    }
}

#[test]
fn scope_is_refused_where_nothing_reads_it() {
    let output = experiments(&["--quick", "--scope", "3,2", "fig7"]);
    assert_eq!(output.status.code(), Some(1), "--scope was ignored by fig7");
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.starts_with("experiments reads no --scope"), "{text}");
    assert!(text.contains("usage: experiments [all|fig7|"), "{text}");
    assert!(output.stdout.is_empty(), "fig7 ran anyway");
}

#[test]
fn a_failed_artifact_write_fails_the_run() {
    // A results directory that is a regular file: every write fails.
    let blocker = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("results-is-a-file");
    std::fs::write(&blocker, b"").expect("create the blocking file");
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "table1"])
        .env("RDT_RESULTS_DIR", &blocker)
        .output()
        .expect("binary runs");
    assert!(!output.status.success(), "a failed write exited 0");
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("table1.json"), "{text}");
}

/// The workspace's one command-line grammar, rule by rule: every refusal
/// exits 1 with its reason and the usage on stderr, and runs nothing.
#[test]
fn the_grammar_refuses_before_anything_runs() {
    for (args, reason) in [
        (&["--quick=yes", "fig7"][..], "--quick takes no value"),
        (
            &["--threads", "2", "--threads", "3"],
            "--threads is given twice",
        ),
        (&["--threads=0"], "--threads must be at least 1"),
        (&["--threads", "--quick"], "--threads needs a value"),
        (&["--bogus"], "experiments reads no --bogus"),
        (&["fig7", "fig8"], "unexpected argument \"fig8\""),
        (
            &["fig7", "--quick", "fig8"],
            "--quick takes no value (\"fig8\")",
        ),
    ] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let text = String::from_utf8(output.stderr).unwrap();
        assert!(text.starts_with(reason), "{args:?}: {text}");
        assert!(
            text.contains("usage: experiments [all|fig7|"),
            "{args:?}: {text}"
        );
        assert!(output.stdout.is_empty(), "{args:?} ran");
    }
    let output = experiments(&["-h"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("[--quick] [--threads N]"), "{text}");
}
