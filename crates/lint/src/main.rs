//! `rdt-lint`: run the workspace determinism lint from the command line;
//! `rdt-lint --help` lists its flags.
//!
//! Exits 0 iff the workspace is clean (no findings outside `lint.allow`,
//! no stale allowlist entries). `--json` prints a machine-readable report
//! (stable keys, `elapsed_ns` carries the scan's wall time); `--sarif`
//! prints SARIF 2.1.0 for code-scanning upload; the two are exclusive.
//! Both still exit non-zero on findings so CI fails the job while keeping
//! the artifact. `--rules` lists the rules and `--explain RULE` prints one.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use rdt_sim::{out, outln, Args, Arity::Switch, Arity::Value, Flag, Grammar};

fn workspace_root() -> PathBuf {
    // The binary lives in crates/lint; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[rustfmt::skip]
const FLAGS: &[Flag] =
    &[("root", Value("DIR")), ("json", Switch), ("sarif", Switch), ("rules", Switch), ("explain", Value("RULE"))];

fn grammar() -> Grammar {
    Grammar::new("rdt-lint", "", 0, FLAGS)
}

/// The lint's own check between flags, after the grammar's.
fn checked(args: Args) -> Result<Args, String> {
    if args.switch("json") && args.switch("sarif") {
        return Err("--json and --sarif are exclusive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match grammar().read(std::env::args().skip(1), checked) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.switch("rules") {
        for (id, summary) in rdt_lint::rule_catalog() {
            outln!("{id}: {summary}");
        }
        return ExitCode::SUCCESS;
    }
    if let Some(id) = args.value("explain") {
        let Some(text) = rdt_lint::explain(id) else {
            eprintln!("rdt-lint: unknown rule {id:?} (see --rules)");
            return ExitCode::FAILURE;
        };
        outln!("{id}\n{}\n\n{text}", "=".repeat(id.len()));
        return ExitCode::SUCCESS;
    }
    let root = args
        .value("root")
        .map_or_else(workspace_root, PathBuf::from);
    let start = Instant::now();
    let report = match rdt_lint::run_lint(&root) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("rdt-lint: {message}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    if args.switch("json") {
        outln!("{}", report.to_json(elapsed_ns).pretty());
    } else if args.switch("sarif") {
        outln!("{}", report.to_sarif().pretty());
    } else {
        out!("{}", report.render());
    }
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(argv: &[&str]) -> Result<Option<Args>, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        grammar().parse(&argv)?.map(checked).transpose()
    }

    #[test]
    fn flags_keep_their_meanings() {
        let args = read(&["--root", "dir", "--sarif"]).unwrap().unwrap();
        assert_eq!(args.value("root"), Some("dir"));
        assert!(args.switch("sarif") && !args.switch("json"));
        let args = read(&["--json", "--explain=wall-clock"]).unwrap().unwrap();
        assert!(args.switch("json"));
        assert_eq!(args.value("explain"), Some("wall-clock"));
        assert!(read(&["--rules"]).unwrap().unwrap().switch("rules"));
        assert_eq!(read(&["--help"]), Ok(None));
        assert_eq!(read(&["-h"]), Ok(None));
    }

    #[test]
    fn the_grammar_and_the_lint_refuse() {
        for (argv, reason) in [
            (
                &["--json", "--sarif"][..],
                "--json and --sarif are exclusive",
            ),
            (&["--sarif", "--json"], "--json and --sarif are exclusive"),
            (&["--json", "--json"], "--json is given twice"),
            (&["--json=yes"], "--json takes no value"),
            (&["--root"], "--root needs a value"),
            (&["--explain", "--rules"], "--explain needs a value"),
            (&["--fix"], "rdt-lint reads no --fix"),
            (&["src"], "unexpected argument \"src\""),
            (
                &["--sarif", "out.sarif"],
                "--sarif takes no value (\"out.sarif\")",
            ),
        ] {
            let err = read(argv).expect_err("refused");
            assert!(err.starts_with(reason), "{argv:?}: {err}");
        }
    }

    #[test]
    fn help_exits_zero_and_a_refusal_one() {
        let grammar = grammar();
        let read = |argv: &[&str]| {
            let argv = argv.iter().map(|s| s.to_string());
            grammar.read(argv, checked).err()
        };
        assert_eq!(read(&["--help"]), Some(ExitCode::SUCCESS));
        assert_eq!(read(&["--json", "--sarif"]), Some(ExitCode::FAILURE));
        assert_eq!(read(&["--json", "--json"]), Some(ExitCode::FAILURE));
        assert_eq!(read(&["--sarif"]), None);
    }
}
