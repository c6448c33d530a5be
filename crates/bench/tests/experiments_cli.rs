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
             certify|certify-scale|ablation|sensitivity|scaling|coordinated|necessity|recovery|\
             recovery-exec]"
        ),
        "{text}"
    );
}

#[test]
fn unknown_experiment_is_refused_with_the_list() {
    let output = experiments(&["fig10"]);
    assert!(!output.status.success());
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("unknown experiment \"fig10\""), "{text}");
    assert!(text.contains("|recovery-exec]"), "{text}");
}

#[test]
fn scope_is_refused_where_nothing_reads_it() {
    let output = experiments(&["--quick", "--scope", "3,2", "fig7"]);
    assert!(!output.status.success(), "--scope was ignored by fig7");
    let text = String::from_utf8(output.stderr).unwrap();
    assert!(text.contains("--scope"), "{text}");
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
