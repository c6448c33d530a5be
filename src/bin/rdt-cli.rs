//! `rdt-cli` — run checkpointing simulations and theory audits from the
//! command line.
//!
//! ```text
//! rdt-cli list
//! rdt-cli run --protocol bhmr --env client-server --n 8 --seed 3 \
//!             --messages 2000 --ckpt-mean 80 [--fifo] [--verify] [--stats] [--detail] \
//!             [--crash-rate R [--max-crashes K]] [--dot pattern.dot]
//! rdt-cli compare --env random --n 8 --seed 3 --messages 2000
//! rdt-cli audit --figure 1
//! rdt-cli domino --rounds 10
//! rdt-cli certify --scope 3,4 [--threads N] [--sample FRAC] [--progress]
//!         [--json results/certify_report.json]
//! rdt-cli connect [--addr ADDR | --unix PATH]
//! ```
//!
//! Each subcommand reads the flags listed for it in `COMMANDS`; any other
//! flag, or a value its flag cannot read, exits 1 with the usage line.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;

use rdt::theory::{dot, min_max, paper_figures};
use rdt::workloads::EnvironmentKind;
use rdt::{
    analyze, domino_pattern, run_protocol_kind, Failure, ProcessId, ProtocolKind, RdtChecker,
    SimConfig, StopCondition,
};

type Flags = BTreeMap<String, String>;

/// The flags `build_config` reads.
const SIM_FLAGS: [&str; 8] = [
    "n",
    "seed",
    "messages",
    "ckpt-mean",
    "send-mean",
    "fifo",
    "crash-rate",
    "max-crashes",
];

/// The flags that may stand bare, meaning `true`; every other flag takes
/// the next argument as its value.
const SWITCHES: [&str; 5] = ["fifo", "verify", "stats", "detail", "progress"];

type Command = fn(&Flags) -> Result<ExitCode, String>;

/// Every subcommand, what runs it, and the flags it reads: its own, and
/// `SIM_FLAGS` where the bool is set.
const COMMANDS: [(&str, Command, bool, &[&str]); 8] = [
    ("list", cmd_list, false, &[]),
    (
        "run",
        cmd_run,
        true,
        &[
            "protocol",
            "env",
            "verify",
            "stats",
            "detail",
            "dot",
            "save-trace",
        ],
    ),
    ("compare", cmd_compare, true, &["env"]),
    ("audit", cmd_audit, false, &["figure"]),
    ("domino", cmd_domino, false, &["rounds"]),
    ("replay", cmd_replay, false, &["trace", "dot"]),
    (
        "certify",
        cmd_certify,
        false,
        &["scope", "threads", "sample", "progress", "json"],
    ),
    ("connect", cmd_connect, false, &["addr", "unix"]),
];

const USAGE: &str = "usage: rdt-cli <list|run|compare|audit|domino|replay|certify|connect> \
                     [--flags]\nsee the module docs (`cargo doc`) for the full flag list";

fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Flags::new();
    let mut positional = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = match iter.next_if(|next| !next.starts_with("--")) {
                Some(value) => value.clone(),
                None if SWITCHES.contains(&name) => "true".to_string(),
                None => return Err(format!("--{name} needs a value")),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((flags, positional))
}

/// The value of `--key`, `default` when the flag is absent; an error naming
/// the flag when its value does not parse.
fn get<T>(flags: &Flags, key: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(value) => value
            .parse()
            .map_err(|err| format!("--{key} {value:?}: {err}")),
    }
}

fn build_config(flags: &Flags, n: usize) -> Result<SimConfig, String> {
    let basics = match get(flags, "ckpt-mean", 80u64)? {
        // Lets self-checkpointing workloads (e.g. domino) run without the
        // timer instead of panicking on a zero exponential mean.
        0 => rdt::sim::BasicCheckpointModel::Disabled,
        mean => rdt::sim::BasicCheckpointModel::Exponential { mean },
    };
    Ok(SimConfig::new(n)
        .with_seed(get(flags, "seed", 1u64)?)
        .with_basic_checkpoints(basics)
        .with_stop(StopCondition::MessagesSent(get(
            flags, "messages", 1_000u64,
        )?))
        .with_fifo(get(flags, "fifo", false)?)
        .with_crash_rate(get(flags, "crash-rate", 0.0f64)?)
        .with_max_crashes(get(flags, "max-crashes", 2u32)?))
}

fn cmd_list(_: &Flags) -> Result<ExitCode, String> {
    println!("protocols:");
    for &kind in ProtocolKind::all() {
        println!(
            "  {:<16} rdt={:<5} zcf={:<5} piggyback(n=8)={}B",
            kind.name(),
            kind.ensures_rdt(),
            kind.ensures_z_cycle_freedom(),
            kind.piggyback_bytes(8)
        );
    }
    println!("environments:");
    for &env in EnvironmentKind::all() {
        println!("  {}", env.name());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let protocol: ProtocolKind = get(flags, "protocol", ProtocolKind::Bhmr)?;
    let env: EnvironmentKind = get(flags, "env", EnvironmentKind::Random)?;
    let n = get(flags, "n", 8usize)?;
    let config = build_config(flags, n)?;
    let (stats_wanted, detail, verify) = (
        get(flags, "stats", false)?,
        get(flags, "detail", false)?,
        get(flags, "verify", false)?,
    );
    let mut app = env.build(n, get(flags, "send-mean", 20u64)?);
    let outcome = run_protocol_kind(protocol, &config, app.as_mut());

    let stats = &outcome.stats.total;
    println!(
        "protocol {} in {} (n={n}, seed {}):",
        protocol.name(),
        env.name(),
        config.seed
    );
    println!(
        "  messages     : {} sent, {} delivered",
        stats.messages_sent, stats.messages_delivered
    );
    println!(
        "  checkpoints  : {} basic + {} forced (R = {:.4})",
        stats.basic_checkpoints,
        stats.forced_checkpoints,
        stats.forced_ratio()
    );
    println!(
        "  piggyback    : {:.1} bytes/message",
        stats.mean_piggyback_bytes()
    );
    println!("  sim end time : {}", outcome.stats.end_time);

    if let Some(recovery) = &outcome.recovery {
        println!(
            "  crashes      : {} injected, {} deliveries undone, {} orphans discarded, {} lost \
             messages replayed",
            recovery.crashes.len(),
            recovery.total_deliveries_undone(),
            recovery.total_orphans_discarded(),
            recovery.total_lost_replayed()
        );
        println!(
            "  rollback     : max depth {} ckpts, max domino span {} of {n} processes, {} \
             rolled to initial, mean span {:.1} ticks",
            recovery.max_rollback_depth(),
            recovery.max_domino_span(),
            recovery.total_rolled_to_initial(),
            recovery.mean_rollback_span_ticks()
        );
        match recovery.resident_nodes_after_compaction {
            Some(resident) => println!(
                "  compaction   : {} recovery-line compactions reclaimed {} closure rows, \
                 {resident} resident nodes after the last",
                recovery.compactions, recovery.reclaimed_rows
            ),
            None => println!("  compaction   : no compaction discarded state"),
        }
        if stats_wanted {
            println!(
                "    line compute : {:>7.3} ms (incremental engine, all crashes)",
                recovery.line_compute_time.as_secs_f64() * 1e3
            );
            for (k, crash) in recovery.crashes.iter().enumerate() {
                println!(
                    "    crash #{k} at {}: P{} down, line {:?}, depth {}, span {}",
                    crash.at,
                    crash.process.index(),
                    crash.line,
                    crash.max_depth(),
                    crash.domino_span
                );
            }
        }
    }

    if detail {
        let metrics = rdt::sim::TraceMetrics::of(&outcome.trace);
        print!("{}", metrics.render());
    }
    if verify {
        let report = RdtChecker::new(&outcome.trace.to_pattern()).check();
        println!(
            "  RDT          : {} ({} R-paths checked)",
            if report.holds() { "holds" } else { "VIOLATED" },
            report.r_paths_found()
        );
        for violation in report.violations().iter().take(3) {
            println!("    {violation}");
        }
    }
    if stats_wanted {
        // The trace replayed into a bare engine, the violation count read
        // back after every event, so append and query cost show apart.
        let trace = &outcome.trace;
        let probe = rdt::sim::OnlineRdtReport::replay(trace.num_processes(), trace.events())
            .expect("a simulated trace replays into the engine");
        println!(
            "  online probe ({} events appended during the run):",
            probe.events_appended
        );
        println!(
            "    append     : {:>9.3} ms (incremental engine updates)",
            probe.append_time.as_secs_f64() * 1e3
        );
        let verdict = match probe.first_violation_event {
            Some(event) => format!(
                "{} untrackable pairs, first after event {event}",
                probe.untrackable_pairs
            ),
            None => "no untrackable pair at any step".to_string(),
        };
        println!(
            "    query      : {:>9.3} ms ({verdict})",
            probe.query_time.as_secs_f64() * 1e3
        );
        // One shared PatternAnalysis; its laziness splits the offline
        // check into its phases so each can be timed in isolation.
        let pattern = outcome.trace.to_pattern();
        let analysis = rdt::PatternAnalysis::new(&pattern);

        let watch = rdt::Stopwatch::start();
        let replay_ok = analysis.core().is_ok();
        let replay = watch.elapsed();

        let watch = rdt::Stopwatch::start();
        analysis.zigzag();
        let chains = watch.elapsed();

        println!("  phase timings (one shared analysis):");
        println!(
            "    replay     : {:>9.3} ms (into the incremental core)",
            replay.as_secs_f64() * 1e3
        );
        println!(
            "    chains     : {:>9.3} ms (chain closures)",
            chains.as_secs_f64() * 1e3
        );
        if replay_ok {
            let watch = rdt::Stopwatch::start();
            let report = analysis.rdt_report();
            let check = watch.elapsed();
            println!(
                "    R-path check: {:>8.3} ms ({} R-paths, RDT {})",
                check.as_secs_f64() * 1e3,
                report.r_paths_found(),
                if report.holds() { "holds" } else { "VIOLATED" }
            );
        } else {
            println!("    R-path check: skipped (pattern unrealizable)");
        }
    }
    if let Some(path) = flags.get("dot") {
        let text = dot::pattern_to_dot(&outcome.trace.to_pattern());
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        println!("  pattern DOT  : {path}");
    }
    if let Some(path) = flags.get("save-trace") {
        let json = rdt::json::ToJson::to_json(&outcome.trace).to_string();
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        println!("  trace JSON   : {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(flags: &Flags) -> Result<ExitCode, String> {
    let Some(path) = flags.get("trace") else {
        eprintln!("usage: rdt-cli replay --trace <file.json> [--dot out.dot]");
        return Ok(ExitCode::FAILURE);
    };
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("could not read {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let trace: rdt::Trace = match rdt::Trace::from_json_str(&json) {
        Ok(trace) => trace,
        Err(err) => {
            eprintln!("could not parse {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    println!(
        "replaying trace: {} processes, {} events, {} checkpoints",
        trace.num_processes(),
        trace.events().len(),
        trace.checkpoint_count()
    );
    let metrics = rdt::sim::TraceMetrics::of(&trace);
    print!("{}", metrics.render());
    let pattern = trace.to_pattern();
    let report = RdtChecker::new(&pattern).check();
    println!("RDT: {}", if report.holds() { "holds" } else { "violated" });
    for violation in report.violations().iter().take(5) {
        println!("  {violation}");
    }
    if let Some(out) = flags.get("dot") {
        if std::fs::write(out, dot::pattern_to_dot(&pattern)).is_ok() {
            println!("pattern DOT: {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(flags: &Flags) -> Result<ExitCode, String> {
    let env: EnvironmentKind = get(flags, "env", EnvironmentKind::Random)?;
    let n = get(flags, "n", 8usize)?;
    let config = build_config(flags, n)?;
    let send_mean = get(flags, "send-mean", 20u64)?;
    println!(
        "{:>16} {:>10} {:>10} {:>8} {:>14}",
        "protocol", "forced", "basic", "R", "piggyback B/m"
    );
    for &protocol in ProtocolKind::all() {
        let mut app = env.build(n, send_mean);
        let outcome = run_protocol_kind(protocol, &config, app.as_mut());
        let stats = &outcome.stats.total;
        println!(
            "{:>16} {:>10} {:>10} {:>8.4} {:>14.1}",
            protocol.name(),
            stats.forced_checkpoints,
            stats.basic_checkpoints,
            stats.forced_ratio(),
            stats.mean_piggyback_bytes()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_audit(flags: &Flags) -> Result<ExitCode, String> {
    let figure = get::<String>(flags, "figure", "1".into())?;
    let pattern = match figure.as_str() {
        "1" => paper_figures::figure_1(),
        "2" => paper_figures::figure_2_unbroken(),
        "2b" => paper_figures::figure_2_broken(),
        "4" => paper_figures::figure_4_unbroken(),
        "4b" => paper_figures::figure_4_broken(),
        other => {
            return Err(format!(
                "unknown figure {other:?}; expected 1, 2, 2b, 4 or 4b"
            ))
        }
    };
    println!(
        "figure {figure}: {} processes, {} messages, {} checkpoints",
        pattern.num_processes(),
        pattern.num_messages(),
        pattern.total_checkpoints()
    );
    let report = RdtChecker::new(&pattern).check();
    println!("RDT: {}", if report.holds() { "holds" } else { "violated" });
    for violation in report.violations() {
        println!("  {violation}");
    }
    for c in pattern.checkpoints() {
        if let Some(gc) = min_max::min_consistent_containing(&pattern, &[c]) {
            println!("  min GC containing {c}: {gc}");
        } else {
            println!("  {c} is USELESS (belongs to no consistent GC)");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_domino(flags: &Flags) -> Result<ExitCode, String> {
    let rounds = get(flags, "rounds", 10usize)?;
    let pattern = domino_pattern(rounds);
    println!("domino pattern, {rounds} rounds:");
    for cap in (0..rounds as u32).rev().take(3) {
        let report = analyze(
            &pattern,
            &[Failure {
                process: ProcessId::new(0),
                resume_cap: cap,
            }],
        );
        println!(
            "  P0 resumes from index {cap}: line {}, {} checkpoints discarded",
            report.line, report.total_discarded
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_certify(flags: &Flags) -> Result<ExitCode, String> {
    let scope: rdt::Scope = get(flags, "scope", "3,4".parse()?)?;
    // A value that fell through to `None` would be an exhaustive run: hours
    // at a scope where the sample was meant to take minutes.
    let sample = match flags.get("sample").map(|v| (v, v.parse::<f64>())) {
        None => None,
        Some((_, Ok(fraction))) if fraction >= 0.0 => Some(fraction),
        Some((value, _)) => {
            return Err(format!(
                "--sample takes a fraction >= 0 (e.g. 0.02), not {value:?}"
            ))
        }
    };
    let options = rdt::CertifyOptions {
        threads: get(flags, "threads", 0usize)?,
        sample,
        // Progress/ETA lines go to stderr; suppressed in --json mode so
        // scripted runs stay quiet.
        progress: get(flags, "progress", false)? && !flags.contains_key("json"),
        ..rdt::CertifyOptions::default()
    };
    let watch = rdt::Stopwatch::start();
    let report = rdt::certify(&scope, &options);
    let elapsed = watch.elapsed();
    print!("{}", report.render());
    eprintln!("certified in {:.2}s", elapsed.as_secs_f64());
    if let Some(path) = flags.get("json") {
        let text = rdt::json::ToJson::to_json(&report).pretty();
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        println!("  report JSON  : {path}");
    }
    Ok(if report.certified_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `rdt-cli connect`: stream stdin lines to a running daemon and print
/// its replies, one per line, in request order. Full duplex: this thread
/// writes while a second one prints, so a piped session is pipelined and
/// neither side ever waits on a full socket buffer.
fn cmd_connect(flags: &Flags) -> Result<ExitCode, String> {
    use std::net::{Shutdown, TcpStream};
    use std::os::unix::net::UnixStream;
    let outcome = if let Some(path) = flags.get("unix") {
        UnixStream::connect(path)
            .and_then(|s| Ok((s.try_clone()?, s)))
            .map(|(r, w)| connect_duplex(r, w, |s| s.shutdown(Shutdown::Write)))
    } else {
        let addr = flags.get("addr").map_or("127.0.0.1:7878", String::as_str);
        TcpStream::connect(addr)
            .and_then(|s| Ok((s.try_clone()?, s)))
            .map(|(r, w)| connect_duplex(r, w, |s| s.shutdown(Shutdown::Write)))
    };
    Ok(outcome.unwrap_or_else(|err| {
        eprintln!("connect: {err}");
        ExitCode::FAILURE
    }))
}

/// Sends every non-blank stdin line, then shuts the write half down;
/// the daemon answers what it got and closes, which ends the printing
/// thread. Succeeds when every line sent was answered.
fn connect_duplex<S: Read + Write + Send>(
    read_half: S,
    write_half: S,
    half_close: impl FnOnce(&S) -> std::io::Result<()>,
) -> ExitCode {
    const CLOSED: &str = "daemon closed the connection";
    std::thread::scope(|scope| {
        let printer = scope.spawn(move || {
            let mut stdout = std::io::stdout().lock();
            let mut replies = BufReader::new(read_half);
            let mut reply = Vec::new();
            let mut received = 0usize;
            while matches!(replies.read_until(b'\n', &mut reply), Ok(n) if n > 0) {
                if stdout.write_all(&reply).is_err() {
                    break;
                }
                received += 1;
                reply.clear();
            }
            received
        });

        let mut input = BufReader::new(std::io::stdin().lock());
        let mut socket = std::io::BufWriter::new(write_half);
        let mut line = String::new();
        let mut sent = 0usize;
        let mut failure = None;
        loop {
            // As the daemon does with replies: never hold a frame back
            // across a read that could block.
            if !input.buffer().contains(&b'\n') && socket.flush().is_err() {
                failure = Some(CLOSED.to_string());
                break;
            }
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(err) => {
                    failure = Some(format!("reading stdin: {err}"));
                    break;
                }
            }
            if line.trim().is_empty() {
                continue;
            }
            if !line.ends_with('\n') {
                line.push('\n');
            }
            if socket.write_all(line.as_bytes()).is_err() {
                failure = Some(CLOSED.to_string());
                break;
            }
            sent += 1;
        }
        let _ = socket.flush();
        // Fails only when the daemon is already gone.
        let _ = half_close(socket.get_ref());
        let received = printer.join().ok();
        if failure.is_none() && received != Some(sent) {
            failure = Some(CLOSED.to_string());
        }
        match failure {
            None => ExitCode::SUCCESS,
            Some(message) => {
                eprintln!("connect: {message}");
                ExitCode::FAILURE
            }
        }
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = match parse_flags(&args) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let command = positional.first().map(String::as_str);
    let Some(&(name, run, sim, own)) = COMMANDS.iter().find(|c| Some(c.0) == command) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let reads = |flag: &str| own.contains(&flag) || (sim && SIM_FLAGS.contains(&flag));
    let outcome = match flags.keys().find(|flag| !reads(flag)) {
        Some(flag) => Err(format!("{name} reads no --{flag}")),
        None => run(&flags),
    };
    outcome.unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_positionals_are_separated() {
        let (flags, positional) = parse_flags(&strings(&[
            "run",
            "--protocol",
            "bhmr",
            "--verify",
            "--n",
            "8",
        ]))
        .unwrap();
        assert_eq!(positional, vec!["run"]);
        assert_eq!(flags.get("protocol").map(String::as_str), Some("bhmr"));
        assert_eq!(flags.get("verify").map(String::as_str), Some("true"));
        assert_eq!(flags.get("n").map(String::as_str), Some("8"));
    }

    #[test]
    fn trailing_boolean_flag() {
        let (flags, _) = parse_flags(&strings(&["run", "--fifo"])).unwrap();
        assert_eq!(flags.get("fifo").map(String::as_str), Some("true"));
    }

    /// Only a switch stands bare: a value flag at the end, or before
    /// another flag, is refused rather than read as `true`.
    #[test]
    fn a_value_flag_needs_its_value() {
        for args in [&["run", "--save-trace"][..], &["run", "--dot", "--n", "3"]] {
            let err = parse_flags(&strings(args)).expect_err("a bare value flag is refused");
            assert!(err.ends_with("needs a value"), "{args:?}: {err}");
        }
    }

    /// An absent flag reads its default; a present one must parse.
    #[test]
    fn get_falls_back_to_default() {
        let (flags, _) = parse_flags(&strings(&["run", "--seed", "junk"])).unwrap();
        let err = get(&flags, "seed", 7u64).expect_err("unparsable values are refused");
        assert!(err.starts_with("--seed \"junk\""), "{err}");
        assert_eq!(get(&flags, "missing", 9u64), Ok(9));
        let (flags, _) = parse_flags(&strings(&["run", "--seed", "12"])).unwrap();
        assert_eq!(get(&flags, "seed", 7u64), Ok(12));
    }

    #[test]
    fn config_builder_uses_flags() {
        let (flags, _) = parse_flags(&strings(&[
            "run",
            "--seed",
            "5",
            "--messages",
            "42",
            "--ckpt-mean",
            "99",
            "--fifo",
        ]))
        .unwrap();
        let config = build_config(&flags, 3).expect("every value parses");
        assert_eq!(config.seed, 5);
        assert_eq!(config.stop, rdt::StopCondition::MessagesSent(42));
        assert!(config.fifo);
    }
}
