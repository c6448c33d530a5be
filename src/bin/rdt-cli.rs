//! `rdt-cli` — run checkpointing simulations and theory audits from the
//! command line.
//!
//! ```text
//! rdt-cli run --protocol bhmr --env client-server --n 8 --seed 3 --messages 2000 --verify
//! rdt-cli certify --scope 3,4 --json results/certify_report.json
//! ```
//!
//! `rdt-cli --help` lists every subcommand with the flags it reads (its
//! table in `COMMANDS`); any other flag, or a value its flag cannot read,
//! exits 1 with that usage.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;

use rdt::sim::{out, outln, scripted, synopsis, Args, Arity::Switch, Arity::Value, Flag, Grammar};
use rdt::theory::{dot, min_max, paper_figures};
use rdt::workloads::EnvironmentKind;
use rdt::{
    analyze, domino_pattern, run_protocol_kind, Failure, PatternAnalysis, ProcessId, ProtocolKind,
    SimConfig, StopCondition,
};

/// The flags `build_config` reads.
#[rustfmt::skip]
const SIM_FLAGS: &[Flag] = &[
    ("n", Value("N")), ("seed", Value("SEED")), ("messages", Value("M")), ("ckpt-mean", Value("T")),
    ("send-mean", Value("T")), ("fifo", Switch), ("crash-rate", Value("R")), ("max-crashes", Value("K")),
];

type Command = fn(&Args) -> Result<ExitCode, String>;

/// Every subcommand, what runs it, and the flags it reads: its own, and
/// `SIM_FLAGS` where the bool is set. One row per subcommand, as `--help`
/// prints them.
#[rustfmt::skip]
const COMMANDS: [(&str, Command, bool, &[Flag]); 8] = [
    ("list", cmd_list, false, &[]),
    ("run", cmd_run, true, &[("protocol", Value("NAME")), ("env", Value("NAME")), ("verify", Switch),
        ("stats", Switch), ("detail", Switch), ("dot", Value("PATH")), ("save-trace", Value("PATH"))]),
    ("compare", cmd_compare, true, &[("env", Value("NAME"))]),
    ("audit", cmd_audit, false, &[("figure", Value("1|2|2b|4|4b"))]),
    ("domino", cmd_domino, false, &[("rounds", Value("R"))]),
    ("replay", cmd_replay, false, &[("trace", Value("PATH")), ("dot", Value("PATH"))]),
    ("certify", cmd_certify, false, &[("scope", Value("N,M[,B]")), ("threads", Value("N")),
        ("sample", Value("FRAC")), ("progress", Switch), ("json", Value("PATH"))]),
    ("connect", cmd_connect, false, &[("addr", Value("ADDR")), ("unix", Value("PATH"))]),
];

/// The flags `COMMANDS` lists for one subcommand.
fn flags_of(sim: bool, own: &'static [Flag]) -> impl Iterator<Item = Flag> {
    let sim = if sim { SIM_FLAGS } else { &[] };
    own.iter().chain(sim).copied()
}

/// Every subcommand's flags in one table, which finds the subcommand
/// wherever it stands; the usage has one line per subcommand.
fn grammar() -> Grammar {
    let all: Vec<Flag> = COMMANDS.iter().flat_map(|c| flags_of(c.2, c.3)).collect();
    let mut grammar = Grammar::new("rdt-cli", "<command>", 1, &all);
    grammar.usage = "usage:".to_string();
    for (name, _, sim, own) in COMMANDS {
        let flags: Vec<Flag> = flags_of(sim, own).collect();
        grammar.usage += format!("\n  rdt-cli {name} {}", synopsis(&flags)).trim_end();
    }
    grammar
}

fn build_config(args: &Args, n: usize) -> Result<SimConfig, String> {
    let basics = match args.get("ckpt-mean")?.unwrap_or(80u64) {
        // Lets self-checkpointing workloads (e.g. domino) run without the
        // timer instead of panicking on a zero exponential mean.
        0 => rdt::sim::BasicCheckpointModel::Disabled,
        mean => rdt::sim::BasicCheckpointModel::Exponential { mean },
    };
    let crash_rate = args.get("crash-rate")?.unwrap_or(0.0f64);
    if !(crash_rate.is_finite() && crash_rate >= 0.0) {
        return Err("--crash-rate takes a finite rate >= 0 (crashes per 1000 ticks)".to_string());
    }
    Ok(SimConfig::new(n)
        .with_seed(args.get("seed")?.unwrap_or(1u64))
        .with_basic_checkpoints(basics)
        .with_stop(StopCondition::MessagesSent(
            args.get("messages")?.unwrap_or(1_000u64),
        ))
        .with_fifo(args.switch("fifo"))
        .with_crash_rate(crash_rate)
        .with_max_crashes(args.get("max-crashes")?.unwrap_or(2u32)))
}

fn cmd_list(_: &Args) -> Result<ExitCode, String> {
    outln!("protocols:");
    for &kind in ProtocolKind::all() {
        // The bytes one message carries, as the protocol itself counts them.
        let one = run_protocol_kind(kind, &SimConfig::new(8), &mut scripted(vec![(0, 1)]));
        outln!(
            "  {:<16} rdt={:<5} zcf={:<5} piggyback(n=8)={}B",
            kind.name(),
            kind.ensures_rdt(),
            kind.ensures_z_cycle_freedom(),
            one.stats.total.piggyback_bytes_sent
        );
    }
    outln!("environments:");
    for &env in EnvironmentKind::all() {
        outln!("  {}", env.name());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let protocol: ProtocolKind = args.get("protocol")?.unwrap_or(ProtocolKind::Bhmr);
    let env: EnvironmentKind = args.get("env")?.unwrap_or(EnvironmentKind::Random);
    let n = args.get("n")?.unwrap_or(8usize);
    let config = build_config(args, n)?;
    let stats_wanted = args.switch("stats");
    let mut app = env.build(n, args.get("send-mean")?.unwrap_or(20u64));
    let outcome = run_protocol_kind(protocol, &config, app.as_mut());

    let stats = &outcome.stats.total;
    outln!(
        "protocol {} in {} (n={n}, seed {}):",
        protocol.name(),
        env.name(),
        config.seed
    );
    outln!(
        "  messages     : {} sent, {} delivered",
        stats.messages_sent,
        stats.messages_delivered
    );
    outln!(
        "  checkpoints  : {} basic + {} forced (R = {:.4})",
        stats.basic_checkpoints,
        stats.forced_checkpoints,
        stats.forced_ratio()
    );
    outln!(
        "  piggyback    : {:.1} bytes/message",
        stats.mean_piggyback_bytes()
    );
    outln!("  sim end time : {}", outcome.stats.end_time);

    if let Some(recovery) = &outcome.recovery {
        outln!(
            "  crashes      : {} injected, {} deliveries undone, {} orphans discarded, {} lost \
             messages replayed",
            recovery.crashes.len(),
            recovery.total_deliveries_undone(),
            recovery.total_orphans_discarded(),
            recovery.total_lost_replayed()
        );
        outln!(
            "  rollback     : max depth {} ckpts, max domino span {} of {n} processes, {} \
             rolled to initial, mean span {:.1} ticks",
            recovery.max_rollback_depth(),
            recovery.max_domino_span(),
            recovery.total_rolled_to_initial(),
            recovery.mean_rollback_span_ticks()
        );
        match recovery.resident_nodes_after_compaction {
            Some(resident) => outln!(
                "  compaction   : {} recovery-line compactions reclaimed {} closure rows, \
                 {resident} resident nodes after the last",
                recovery.compactions,
                recovery.reclaimed_rows
            ),
            None => outln!("  compaction   : no compaction discarded state"),
        }
        if stats_wanted {
            outln!(
                "    line compute : {:>7.3} ms (incremental engine, all crashes)",
                recovery.line_compute_time.as_secs_f64() * 1e3
            );
            for (k, crash) in recovery.crashes.iter().enumerate() {
                outln!(
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

    if args.switch("detail") {
        let metrics = rdt::sim::TraceMetrics::of(&outcome.trace);
        out!("{}", metrics.render());
    }
    if args.switch("verify") {
        let report = PatternAnalysis::new(&outcome.trace.to_pattern()).rdt_report();
        outln!(
            "  RDT          : {} ({} R-paths checked)",
            if report.holds() { "holds" } else { "VIOLATED" },
            report.r_paths_found()
        );
        for violation in report.violations().iter().take(3) {
            outln!("    {violation}");
        }
    }
    if stats_wanted {
        // The trace replayed into a bare engine, the violation count read
        // back after every event, so append and query cost show apart.
        let trace = &outcome.trace;
        let probe = rdt::sim::OnlineRdtReport::replay(trace.num_processes(), trace.events())
            .expect("a simulated trace replays into the engine");
        outln!(
            "  online probe ({} events appended during the run):",
            probe.events_appended
        );
        outln!(
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
        outln!(
            "    query      : {:>9.3} ms ({verdict})",
            probe.query_time.as_secs_f64() * 1e3
        );
        // One shared PatternAnalysis; its laziness splits the offline
        // check into its phases so each can be timed in isolation.
        let analysis = PatternAnalysis::new(&outcome.trace.to_pattern());

        let watch = rdt::Stopwatch::start();
        let replay_ok = analysis.core().is_ok();
        let replay = watch.elapsed();

        let watch = rdt::Stopwatch::start();
        analysis.zigzag();
        let chains = watch.elapsed();

        outln!("  phase timings (one shared analysis):");
        outln!(
            "    replay     : {:>9.3} ms (into the incremental core)",
            replay.as_secs_f64() * 1e3
        );
        outln!(
            "    chains     : {:>9.3} ms (chain closures)",
            chains.as_secs_f64() * 1e3
        );
        if replay_ok {
            let watch = rdt::Stopwatch::start();
            let report = analysis.rdt_report();
            let check = watch.elapsed();
            outln!(
                "    R-path check: {:>8.3} ms ({} R-paths, RDT {})",
                check.as_secs_f64() * 1e3,
                report.r_paths_found(),
                if report.holds() { "holds" } else { "VIOLATED" }
            );
        } else {
            outln!("    R-path check: skipped (pattern unrealizable)");
        }
    }
    if let Some(path) = args.value("dot") {
        let text = dot::pattern_to_dot(&outcome.trace.to_pattern());
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("  pattern DOT  : {path}");
    }
    if let Some(path) = args.value("save-trace") {
        let json = rdt::json::ToJson::to_json(&outcome.trace).to_string();
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("  trace JSON   : {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &Args) -> Result<ExitCode, String> {
    let path = args.value("trace").ok_or("replay needs --trace PATH")?;
    let read = std::fs::read_to_string(path).map_err(|err| format!("could not read {path}: {err}"));
    let parse = |json: String| {
        rdt::Trace::from_json_str(&json).map_err(|err| format!("could not parse {path}: {err}"))
    };
    let trace = match read.and_then(parse) {
        Ok(trace) => trace,
        Err(message) => {
            eprintln!("{message}");
            return Ok(ExitCode::FAILURE);
        }
    };
    outln!(
        "replaying trace: {} processes, {} events, {} checkpoints",
        trace.num_processes(),
        trace.events().len(),
        trace.checkpoint_count()
    );
    let metrics = rdt::sim::TraceMetrics::of(&trace);
    out!("{}", metrics.render());
    let pattern = match trace.try_to_pattern() {
        Ok(pattern) => pattern,
        Err(err) => {
            eprintln!("could not replay {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let report = PatternAnalysis::new(&pattern).rdt_report();
    outln!("RDT: {}", if report.holds() { "holds" } else { "violated" });
    for violation in report.violations().iter().take(5) {
        outln!("  {violation}");
    }
    if let Some(out) = args.value("dot") {
        if std::fs::write(out, dot::pattern_to_dot(&pattern)).is_ok() {
            outln!("pattern DOT: {out}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let env: EnvironmentKind = args.get("env")?.unwrap_or(EnvironmentKind::Random);
    let n = args.get("n")?.unwrap_or(8usize);
    let config = build_config(args, n)?;
    let send_mean = args.get("send-mean")?.unwrap_or(20u64);
    outln!(
        "{:>16} {:>10} {:>10} {:>8} {:>14}",
        "protocol",
        "forced",
        "basic",
        "R",
        "piggyback B/m"
    );
    for &protocol in ProtocolKind::all() {
        let mut app = env.build(n, send_mean);
        let outcome = run_protocol_kind(protocol, &config, app.as_mut());
        let stats = &outcome.stats.total;
        outln!(
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

fn cmd_audit(args: &Args) -> Result<ExitCode, String> {
    let figure = args.value("figure").unwrap_or("1");
    let pattern = match figure {
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
    outln!(
        "figure {figure}: {} processes, {} messages, {} checkpoints",
        pattern.num_processes(),
        pattern.num_messages(),
        pattern.total_checkpoints()
    );
    let report = PatternAnalysis::new(&pattern).rdt_report();
    outln!("RDT: {}", if report.holds() { "holds" } else { "violated" });
    for violation in report.violations() {
        outln!("  {violation}");
    }
    for c in pattern.checkpoints() {
        if let Some(gc) = min_max::min_consistent_containing(&pattern, &[c]) {
            outln!("  min GC containing {c}: {gc}");
        } else {
            outln!("  {c} is USELESS (belongs to no consistent GC)");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_domino(args: &Args) -> Result<ExitCode, String> {
    let rounds = args.get("rounds")?.map_or(10, std::num::NonZeroUsize::get);
    let pattern = domino_pattern(rounds);
    outln!("domino pattern, {rounds} rounds:");
    for cap in (0..rounds as u32).rev().take(3) {
        let report = analyze(
            &pattern,
            &[Failure {
                process: ProcessId::new(0),
                resume_cap: cap,
            }],
        );
        outln!(
            "  P0 resumes from index {cap}: line {}, {} checkpoints discarded",
            report.line,
            report.total_discarded
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_certify(args: &Args) -> Result<ExitCode, String> {
    let scope: rdt::Scope = args.get("scope")?.unwrap_or("3,4".parse()?);
    // A value that fell through to `None` would be an exhaustive run: hours
    // at a scope where the sample was meant to take minutes.
    let sample = args.get::<f64>("sample")?;
    if sample.is_some_and(|fraction| fraction.is_nan() || fraction < 0.0) {
        return Err("--sample takes a fraction >= 0 (e.g. 0.02)".to_string());
    }
    let options = rdt::CertifyOptions {
        threads: args.get("threads")?.unwrap_or(0usize),
        sample,
        // Progress/ETA lines go to stderr; suppressed in --json mode so
        // scripted runs stay quiet.
        progress: args.switch("progress") && !args.switch("json"),
    };
    let watch = rdt::Stopwatch::start();
    let report = rdt::certify(&scope, &options);
    let elapsed = watch.elapsed();
    out!("{}", report.render());
    eprintln!("certified in {:.2}s", elapsed.as_secs_f64());
    if let Some(path) = args.value("json") {
        let text = rdt::json::ToJson::to_json(&report).pretty();
        if let Err(err) = std::fs::write(path, text) {
            eprintln!("could not write {path}: {err}");
            return Ok(ExitCode::FAILURE);
        }
        outln!("  report JSON  : {path}");
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
fn cmd_connect(args: &Args) -> Result<ExitCode, String> {
    use std::net::{Shutdown, TcpStream};
    use std::os::unix::net::UnixStream;
    if args.switch("addr") && args.switch("unix") {
        return Err("--addr and --unix are exclusive".to_string());
    }
    let outcome = if let Some(path) = args.value("unix") {
        UnixStream::connect(path)
            .and_then(|s| Ok((s.try_clone()?, s)))
            .map(|(r, w)| connect_duplex(r, w, |s| s.shutdown(Shutdown::Write)))
    } else {
        let addr = args.value("addr").unwrap_or("127.0.0.1:7878");
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
    let outcome = grammar().read(std::env::args().skip(1), |args| {
        let command = COMMANDS.iter().find(|c| args.positional(0) == Some(c.0));
        let Some(&(name, run, sim, own)) = command else {
            return Err(match args.positional(0) {
                Some(name) => format!("unknown command {name:?}"),
                None => "no command given".to_string(),
            });
        };
        let reads = |given: &&(&str, _)| flags_of(sim, own).any(|flag| flag.0 == given.0);
        match args.flags.iter().find(|given| !reads(given)) {
            Some((flag, _)) => Err(format!("{name} reads no --{flag}")),
            None => run(&args),
        }
    });
    outcome.unwrap_or_else(|code| code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        grammar().parse(&argv).map(|args| args.expect("no --help"))
    }

    #[test]
    fn flags_and_positionals_are_separated() {
        let args = parse(&["run", "--protocol", "bhmr", "--verify", "--n", "8"]).unwrap();
        assert_eq!(args.positional(0), Some("run"));
        assert_eq!(args.value("protocol"), Some("bhmr"));
        assert!(args.switch("verify"));
        assert_eq!(args.value("n"), Some("8"));
    }

    /// A switch stands bare wherever it is, and never takes the argument
    /// after it: not even the subcommand.
    #[test]
    fn trailing_boolean_flag() {
        let args = parse(&["run", "--fifo"]).unwrap();
        assert!(args.switch("fifo"));
        let args = parse(&["--stats", "run", "--n", "3"]).unwrap();
        assert!(args.switch("stats"));
        assert_eq!(args.positional(0), Some("run"));
    }

    /// Only a switch stands bare: a value flag at the end, or before
    /// another flag, is refused rather than read as `true`.
    #[test]
    fn a_value_flag_needs_its_value() {
        for argv in [&["run", "--save-trace"][..], &["run", "--dot", "--n", "3"]] {
            let err = parse(argv).expect_err("a bare value flag is refused");
            assert!(err.ends_with("needs a value"), "{argv:?}: {err}");
        }
    }

    /// An absent flag reads its default; a present one must parse.
    #[test]
    fn get_falls_back_to_default() {
        let args = parse(&["run", "--seed", "junk"]).unwrap();
        let err = args
            .get::<u64>("seed")
            .expect_err("unparsable values are refused");
        assert!(err.starts_with("--seed \"junk\""), "{err}");
        assert_eq!(args.get::<u64>("messages"), Ok(None));
        let args = parse(&["run", "--seed=12"]).unwrap();
        assert_eq!(args.get::<u64>("seed"), Ok(Some(12)));
    }

    #[test]
    fn config_builder_uses_flags() {
        let args = parse(&[
            "run",
            "--seed",
            "5",
            "--messages",
            "42",
            "--ckpt-mean",
            "99",
            "--fifo",
        ])
        .unwrap();
        let config = build_config(&args, 3).expect("every value parses");
        assert_eq!(config.seed, 5);
        assert_eq!(config.stop, rdt::StopCondition::MessagesSent(42));
        assert!(config.fifo);
    }

    /// The table is per subcommand, but the grammar reads one union of
    /// them: a flag two subcommands share must take the same arity.
    #[test]
    fn shared_flags_agree_on_their_arity() {
        let all: Vec<Flag> = COMMANDS.iter().flat_map(|c| flags_of(c.2, c.3)).collect();
        for (name, arity) in &all {
            assert!(
                all.iter().all(|f| f.0 != *name || f.1 == *arity),
                "--{name}"
            );
        }
    }
}
