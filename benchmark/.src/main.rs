//! `serve-bench`: the performance baseline of the `rdt-serve` daemon.
//!
//! ```text
//! serve-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//! serve-bench trace --workload W [--seed S] [--quick]      same as run --trace 1
//! serve-bench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run --workload W` is the command of `BENCHMARK.json`: it prints every
//! metric by name and unit and, as its last line, the result object
//! (`correct`, `attempted`, `failed`, `metrics`) — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of the ladder with
//! `--trace 1`. Without `--workload` it runs both on all four workloads
//! and emits one stamped set, the input of `compare`.

mod calibrate;
mod compare;
mod daemon;
mod gen;
mod run;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use rdt_json::Json;

use crate::gen::{Workload, WORKLOADS};
use crate::run::{Outcome, Plan};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: serve-bench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
       serve-bench trace --workload W [--seed S] [--quick]
       serve-bench compare A.json B.json [--bounds BENCHMARK.json]";

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_run_args(args: &[String], traced: bool) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced,
        quick: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            parsed.quick = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value `{value}` for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(gen::workload(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}`; one of {names:?}")
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 60.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn one(w: &'static Workload, args: &RunArgs, traced: bool) -> Result<Outcome, String> {
    let outcome = if traced {
        trace::run_traced(w, args.seed, args.quick)?
    } else {
        run::run_untraced(w, args.seed, Plan::new(w, args.seconds, args.quick))?
    };
    outcome.print();
    Ok(outcome)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// Where and on what a set was measured.
fn stamp(args: &RunArgs, cpus: usize, pinned: bool) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |rest| rest.trim_start_matches([' ', '\t', ':']));
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    Json::obj([
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::U64(cpus as u64)),
        ("cpu", Json::Str(cpu.to_string())),
        ("kernel", Json::Str(kernel.trim().to_string())),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("pinned", Json::Bool(pinned)),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("comparable", Json::Bool(!args.quick)),
    ])
}

fn run_main(args: &RunArgs) -> Result<bool, String> {
    // Read before pinning: afterwards the affinity mask hides the others.
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = daemon::pin_to_last_cpu();
    if !pinned {
        eprintln!("serve-bench: `taskset` is unavailable: daemon and generator are spread over the CPUs, expect noisy timings");
    }
    if let Some(w) = args.workload {
        let outcome = one(w, args, args.traced)?;
        let mut result = outcome.to_json();
        if let (true, Json::Obj(pairs)) = (args.quick, &mut result) {
            pairs.push(("comparable".to_string(), Json::Bool(false)));
        }
        println!("{result}");
        // `correct` carries the verdict; exit code 0 says a result was printed.
        return Ok(true);
    }
    let mut correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let end_to_end = one(w, args, false)?;
        let per_layer = one(w, args, true)?;
        correct &= end_to_end.failed == 0 && per_layer.failed == 0;
        workloads.push((
            w.name.to_string(),
            Json::obj([
                ("end_to_end", end_to_end.to_json()),
                ("per_layer", per_layer.to_json()),
            ]),
        ));
    }
    let set = Json::obj([
        ("meta", stamp(args, cpus, pinned)),
        ("workloads", Json::Obj(workloads)),
    ]);
    match &args.out {
        Some(path) => {
            std::fs::write(path, set.pretty() + "\n").map_err(|e| format!("writing {path}: {e}"))?
        }
        None => println!("{}", set.pretty()),
    }
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("", &[][..]),
    };
    let result = match command {
        "daemon" => return daemon::daemon_main(rest),
        "calibrate" => return calibrate::calibrate_main(),
        "run" => parse_run_args(rest, false).and_then(|args| run_main(&args)),
        "trace" => parse_run_args(rest, true).and_then(|args| run_main(&args)),
        "compare" => compare::compare_main(rest),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("serve-bench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is data the driver reads; the tables in the code
    /// are what the program prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench = Json::parse_bytes(&std::fs::read(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let rows = |key: &str, fields: [&str; 3]| -> Vec<Vec<String>> {
            let array = bench
                .get(key)
                .and_then(Json::as_array)
                .expect("array present");
            array
                .iter()
                .map(|row| {
                    fields
                        .iter()
                        .filter_map(|f| row.get(f).and_then(Json::as_str).map(str::to_string))
                        .collect()
                })
                .collect()
        };
        let table = |t: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            t.iter()
                .map(|&(a, b, c)| vec![a.to_string(), b.to_string(), c.to_string()])
                .collect()
        };
        assert_eq!(
            rows("end_to_end", ["name", "unit", "better"]),
            table(&run::END_TO_END)
        );
        assert_eq!(
            rows("per_layer", ["name", "unit", "better"]),
            table(&trace::PER_LAYER)
        );
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(rows("workloads", ["name", "why", ""]), workloads);
        assert_eq!(
            bench.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS as u64)
        );
    }
}
