//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation.
//!
//! ```text
//! experiments [all|fig7|fig8|fig9|table1|cor45|rdtcheck|certify|certify-scale|sim-throughput|incremental|compaction|ablation|sensitivity|coordinated|scaling|necessity|recovery|recovery-exec] \
//!     [--quick] [--threads N]
//! ```
//!
//! `--quick` shrinks message counts and seed sets for smoke runs.
//! `--threads N` sets the worker count of the parallel sweep engine used
//! for the figure sweeps (default: one per CPU); results are bit-identical
//! for every `N`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;

use rdt_bench::{
    ablation, certify_scale, closure_bench, compaction_bench, coordinated, corollary45,
    incremental_vs_batch, necessity, rdt_check, recovery_exec, recovery_experiment, render_figure,
    render_recovery_exec, render_table1, run_sweep_with_metrics, scaling, sensitivity,
    sim_throughput, table1, write_json, CompactionDecile, Sweep, SweepOptions,
};
use rdt_workloads::EnvironmentKind;

/// System allocator wrapped to count every allocation into
/// `rdt_bench::allocs`, so BENCH-SIM-THROUGHPUT can report heap
/// allocations per run. The workspace libraries forbid `unsafe`; this
/// shim is the one sanctioned exception and lives only in the binary.
struct CountingAllocator;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter update is one atomic increment
// that itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        rdt_bench::allocs::note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        rdt_bench::allocs::note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

struct Scale {
    seeds: Vec<u64>,
    messages: u64,
    check_seeds: Vec<u64>,
    check_messages: u64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            seeds: (1..=10).collect(),
            messages: 4_000,
            check_seeds: (1..=5).collect(),
            check_messages: 300,
        }
    }

    fn quick() -> Self {
        Scale {
            seeds: vec![1, 2],
            messages: 400,
            check_seeds: vec![1],
            check_messages: 80,
        }
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(std::env::var("RDT_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()))
}

fn run_figures(which: &str, scale: &Scale, dir: &std::path::Path, options: &SweepOptions) {
    let multipliers = [1u64, 2, 4, 8, 16];
    let specs: &[(&str, EnvironmentKind, usize)] = &[
        ("fig7", EnvironmentKind::Random, 8),
        ("fig8", EnvironmentKind::Groups, 12),
        ("fig9", EnvironmentKind::ClientServer, 8),
    ];
    for &(name, env, n) in specs {
        if which != "all" && which != name {
            continue;
        }
        let sweep = Sweep::figure(name, env, n, &multipliers, &scale.seeds, scale.messages);
        let (result, metrics) = run_sweep_with_metrics(&sweep, options);
        print!("{}", render_figure(&result));
        println!("  [{name}] {}", metrics.render());
        match write_json(dir, name, &result) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write {name}.json: {err}\n"),
        }
    }
}

struct Cli {
    quick: bool,
    threads: Option<usize>,
    scope: Option<String>,
    which: String,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        quick: false,
        threads: None,
        scope: None,
        which: "all".to_string(),
    };
    let mut positional = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--quick" {
            cli.quick = true;
        } else if let Some(value) = arg.strip_prefix("--scope=") {
            cli.scope = Some(value.to_string());
        } else if arg == "--scope" {
            let value = iter.next().ok_or("--scope needs a value (n,m or n,m,b)")?;
            cli.scope = Some(value.clone());
        } else if let Some(value) = arg.strip_prefix("--threads=") {
            cli.threads = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid thread count: {value:?}"))?,
            );
        } else if arg == "--threads" {
            let value = iter.next().ok_or("--threads needs a value")?;
            cli.threads = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid thread count: {value:?}"))?,
            );
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg:?}"));
        } else if positional.replace(arg.clone()).is_some() {
            return Err(format!("unexpected extra argument {arg:?}"));
        }
    }
    if cli.threads == Some(0) {
        return Err("--threads must be at least 1".to_string());
    }
    if let Some(which) = positional {
        cli.which = which;
    }
    Ok(cli)
}

/// Every experiment name the driver accepts, in the order of the usage
/// line in the module docs (a unit test holds the two lists together).
const KNOWN: [&str; 19] = [
    "all",
    "fig7",
    "fig8",
    "fig9",
    "table1",
    "cor45",
    "rdtcheck",
    "certify",
    "certify-scale",
    "sim-throughput",
    "incremental",
    "compaction",
    "ablation",
    "sensitivity",
    "coordinated",
    "scaling",
    "necessity",
    "recovery",
    "recovery-exec",
];

fn main() -> ExitCode {
    rdt_bench::allocs::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let options = match cli.threads {
        Some(threads) => SweepOptions::with_threads(threads),
        None => SweepOptions::auto(),
    };
    let quick = cli.quick;
    let which = cli.which;
    let scale = if quick { Scale::quick() } else { Scale::full() };
    let dir = results_dir();

    if !KNOWN.contains(&which.as_str()) {
        eprintln!("unknown experiment {which:?}; expected one of {KNOWN:?}");
        return ExitCode::FAILURE;
    }

    run_figures(&which, &scale, &dir, &options);

    if which == "all" || which == "table1" {
        let result = table1(8, &scale.seeds, scale.messages);
        print!("{}", render_table1(&result));
        match write_json(&dir, "table1", &result) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write table1.json: {err}\n"),
        }
    }

    if which == "all" || which == "cor45" {
        println!("== COR-4.5 — on-the-fly min consistent GC vs offline R-graph fixpoint ==");
        for &env in &[EnvironmentKind::Random, EnvironmentKind::ClientServer] {
            let result = corollary45(env, 4, &scale.check_seeds, scale.check_messages);
            println!(
                "  {:>14}: {} checkpoints checked, {} mismatches ({})",
                env.name(),
                result.checked,
                result.mismatches,
                if result.mismatches == 0 { "OK" } else { "FAIL" }
            );
            if write_json(&dir, &format!("cor45-{}", env.name()), &result).is_err() {
                eprintln!("  !! could not write cor45 results");
            }
            if result.mismatches > 0 {
                return ExitCode::FAILURE;
            }
        }
        println!();
    }

    if which == "all" || which == "rdtcheck" {
        println!("== RDT-CHECK — offline verification of every protocol in every environment ==");
        let result = rdt_check(4, &scale.check_seeds, scale.check_messages);
        let total = result.runs.len();
        println!(
            "  {total} runs; unexpected RDT failures: {} ({}); uncoordinated runs that happened to satisfy RDT: {}",
            result.unexpected_failures,
            if result.unexpected_failures == 0 { "OK" } else { "FAIL" },
            result.uncoordinated_passes,
        );
        let _ = write_json(&dir, "rdtcheck", &result);
        if result.unexpected_failures > 0 {
            return ExitCode::FAILURE;
        }
        println!();

        println!("== BENCH-RDTCHECK — word-parallel closure kernels vs naive reference ==");
        let sizes: &[u64] = if quick { &[100, 400] } else { &[400, 1_600] };
        let bench = closure_bench(sizes, if quick { 3 } else { 5 });
        println!(
            "  {:>10} {:>11} {:>14} {:>14} {:>9}",
            "messages", "delivered", "naive (ns)", "optimized (ns)", "speedup"
        );
        for &(messages, delivered, naive_ns, optimized_ns, speedup) in &bench.rows {
            println!(
                "  {messages:>10} {delivered:>11} {naive_ns:>14} {optimized_ns:>14} {speedup:>8.1}x"
            );
        }
        match write_json(&dir, "BENCH_rdtcheck", &bench) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_rdtcheck.json: {err}\n"),
        }
    }

    if which == "all" || which == "sim-throughput" {
        println!("== BENCH-SIM-THROUGHPUT — packed round-executor engine vs legacy protocols ==");
        let (messages, reps) = if quick { (800, 3) } else { (4_000, 5) };
        let bench = sim_throughput(messages, reps);
        println!(
            "  {:>8} {:>16} {:>3} {:>8} {:>12} {:>12} {:>8} {:>10} {:>10}",
            "env",
            "protocol",
            "n",
            "events",
            "legacy (ns)",
            "exec (ns)",
            "speedup",
            "allocs-l",
            "allocs-x"
        );
        for row in &bench.rows {
            println!(
                "  {:>8} {:>16} {:>3} {:>8} {:>12} {:>12} {:>7.2}x {:>10} {:>10}",
                row.environment,
                row.protocol,
                row.n,
                row.events,
                row.legacy_ns,
                row.executor_ns,
                row.speedup,
                row.legacy_allocs,
                row.executor_allocs
            );
        }
        match write_json(&dir, "BENCH_sim_throughput", &bench) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_sim_throughput.json: {err}\n"),
        }
        // Regression gate: the executor engine must actually pay for its
        // complexity on the headline configuration.
        if let Err(reason) = bench.gate() {
            eprintln!("  !! sim-throughput gate FAIL: {reason}");
            return ExitCode::FAILURE;
        }
    }

    if which == "all" || which == "incremental" {
        println!("== BENCH-INCREMENTAL — append-only engine vs from-scratch rebuilds ==");
        let sizes: &[u64] = if quick {
            &[400, 1_600]
        } else {
            &[400, 800, 1_600, 3_200, 6_400]
        };
        let bench =
            incremental_vs_batch(sizes, if quick { 3 } else { 5 }, if quick { 8 } else { 16 });
        println!(
            "  {:>8} {:>12} {:>16} {:>18} {:>9} {:>14}",
            "events", "checkpoints", "incremental (ns)", "batch est. (ns)", "speedup", "events/sec"
        );
        for row in &bench.rows {
            println!(
                "  {:>8} {:>12} {:>16} {:>18} {:>8.1}x {:>14.0}",
                row.events,
                row.checkpoints,
                row.incremental_ns,
                row.batch_est_ns,
                row.speedup,
                row.events_per_sec
            );
        }
        match write_json(&dir, "BENCH_incremental", &bench) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_incremental.json: {err}\n"),
        }
        // Regression gate: once traces are non-trivial the engine must
        // beat rebuilding from scratch, at any scale.
        let floor = bench.min_speedup_at(1_600);
        if floor < 1.0 {
            eprintln!("  !! incremental slower than batch at >=1600 events ({floor:.2}x)");
            return ExitCode::FAILURE;
        }
    }

    if which == "all" || which == "compaction" {
        println!("== BENCH-COMPACTION — recovery-line compaction vs unbounded engine growth ==");
        // The compacted engine streams the full event count; the
        // uncompacted control runs a prefix (finishing the full stream
        // without compaction is the quadratic blow-up being shown).
        let (events, control_events, stride) = if quick {
            (100_000u64, 10_000u64, 1_000u64)
        } else {
            // The control's per-event cost grows linearly with the
            // resident closure, so its runtime is quadratic: 20k events
            // already show the collapse unambiguously, 50k would burn
            // minutes confirming the same verdict.
            (1_000_000, 20_000, 10_000)
        };
        let bench = compaction_bench(4, events, control_events, stride, 0xC04AC7);
        let table = |label: &str, deciles: &[CompactionDecile]| {
            println!(
                "  {label}: {:>7} {:>12} {:>14} {:>14}",
                "decile", "events", "events/sec", "resident"
            );
            for row in deciles {
                println!(
                    "  {:>width$} {:>7} {:>12} {:>14.0} {:>14}",
                    "",
                    row.decile,
                    row.events,
                    row.events_per_sec,
                    row.resident_nodes,
                    width = label.len() + 1
                );
            }
        };
        table("compacted  ", &bench.compacted);
        table("uncompacted", &bench.control);
        println!(
            "  throughput ratio (last/first decile): compacted {:.2}x, uncompacted {:.2}x",
            bench.compacted_throughput_ratio(),
            bench.control_throughput_ratio()
        );
        println!(
            "  {} compactions reclaimed {} rows; resident after final compaction: {} nodes",
            bench.compactions, bench.reclaimed_rows, bench.resident_after_final_compaction
        );
        match write_json(&dir, "BENCH_compaction", &bench) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_compaction.json: {err}\n"),
        }
        if let Err(reason) = bench.gate() {
            eprintln!("  !! compaction gate FAIL: {reason}");
            return ExitCode::FAILURE;
        }
    }

    if which == "all" || which == "certify" {
        println!("== CERTIFY — exhaustive small-scope certification of every protocol ==");
        let scope = match &cli.scope {
            Some(text) => match text.parse::<rdt_verify::Scope>() {
                Ok(scope) => scope,
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            },
            None if quick => rdt_verify::Scope::tiny(),
            // The full default scope: every pattern over 3 processes with
            // up to 4 messages and 1 basic checkpoint.
            None => match rdt_verify::Scope::new(3, 4) {
                Ok(scope) => scope,
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            },
        };
        let certify_options = rdt_verify::CertifyOptions {
            threads: cli.threads.unwrap_or(0),
            ..rdt_verify::CertifyOptions::default()
        };
        let report = rdt_verify::certify(&scope, &certify_options);
        print!("{}", report.render());
        match write_json(&dir, "certify_report", &report) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write certify_report.json: {err}\n"),
        }
        if !report.certified_ok() {
            return ExitCode::FAILURE;
        }
    }

    if which == "all" || which == "certify-scale" {
        println!("== BENCH-CERTIFY — orbit-pruned certifier at scale ==");
        // Timed single-core: the numbers measure algorithmic pruning and
        // sharing, not parallel speedup.
        let scope = match rdt_verify::Scope::new(3, 4) {
            Ok(scope) => scope,
            Err(err) => {
                eprintln!("{err}");
                return ExitCode::FAILURE;
            }
        };
        let push_scopes: Vec<(rdt_verify::Scope, Option<f64>)> = if quick {
            Vec::new()
        } else {
            let full_3_5 = match rdt_verify::Scope::with_basics(3, 5, 1) {
                Ok(scope) => scope,
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            };
            let sampled_4_4 = match rdt_verify::Scope::with_basics(4, 4, 1) {
                Ok(scope) => scope,
                Err(err) => {
                    eprintln!("{err}");
                    return ExitCode::FAILURE;
                }
            };
            vec![(full_3_5, None), (sampled_4_4, Some(0.02))]
        };
        let bench = certify_scale(&scope, 1, &push_scopes);
        println!(
            "  scope {}: {} structures in {} canonical orbits ({} pruned by symmetry)",
            bench.scope, bench.structures, bench.canonical, bench.orbits_pruned
        );
        println!(
            "  {:.2}s, {:.0} structures/s, prefix reuse {:.1}%, {} verdicts shared",
            bench.orbit_ns as f64 / 1e9,
            bench.structures_per_sec,
            bench.prefix_reuse_ratio * 100.0,
            bench.dedup_hits
        );
        println!(
            "  {:>16} {:>12} {:>10}",
            "protocol", "replay ms", "patterns"
        );
        for row in &bench.replay {
            println!(
                "  {:>16} {:>12.1} {:>10}",
                row.protocol,
                row.ns as f64 / 1e6,
                row.patterns
            );
        }
        for run in &bench.scope_push {
            let mode = match run.sample {
                Some(frac) => format!("sampled {frac}"),
                None => "full".to_string(),
            };
            println!(
                "  push {} ({mode}): {} structures, {} replayed in {:.2}s, certified_ok={}",
                run.scope,
                run.structures,
                run.replayed,
                run.ns as f64 / 1e9,
                run.certified_ok
            );
        }
        match write_json(&dir, "BENCH_certify", &bench) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_certify.json: {err}\n"),
        }
        if let Err(reason) = bench.gate() {
            eprintln!("  !! certify-scale gate FAIL: {reason}");
            return ExitCode::FAILURE;
        }
    }

    if which == "all" || which == "ablation" {
        println!("== ABL-1 — piggyback size vs forced checkpoints (random environment) ==");
        let result = ablation(8, &scale.seeds, scale.messages);
        println!("  {:>16} {:>16} {:>10}", "protocol", "piggyback B/msg", "R");
        for (name, bytes, r) in &result.lattice {
            println!("  {name:>16} {bytes:>16.1} {r:>10.4}");
        }
        let _ = write_json(&dir, "ablation", &result);
        println!();
    }

    if which == "all" || which == "sensitivity" {
        println!("== ABL-2 — BHMR-vs-FDAS reduction vs reply density (groups, n=12) ==");
        let result = sensitivity(12, &scale.seeds, scale.messages);
        println!(
            "  {:>12} {:>10} {:>10} {:>11}",
            "reply prob", "R bhmr", "R fdas", "reduction"
        );
        for (prob, bhmr, fdas, reduction) in &result.rows {
            println!(
                "  {prob:>12.2} {bhmr:>10.4} {fdas:>10.4} {:>10.1}%",
                reduction * 100.0
            );
        }
        let _ = write_json(&dir, "sensitivity", &result);
        println!();
    }

    if which == "all" || which == "scaling" {
        println!("== SCALE-1 — R and piggyback cost vs number of processes (random env) ==");
        let result = scaling(&[4, 8, 16, 32], &scale.check_seeds, scale.messages);
        println!(
            "  {:>6} {:>10} {:>10} {:>16}",
            "n", "protocol", "R", "piggyback B/msg"
        );
        for (n, protocol, r, bytes) in &result.rows {
            println!("  {n:>6} {protocol:>10} {r:>10.4} {bytes:>16.1}");
        }
        let _ = write_json(&dir, "scaling", &result);
        println!();
    }

    if which == "all" || which == "coordinated" {
        println!("== COORD-1 — Chandy–Lamport snapshots vs CIC at matched checkpoint rates ==");
        let result = coordinated(8, &scale.check_seeds, 60 * 800);
        println!(
            "  {:>16} {:>12} {:>14} {:>16} {:>18}",
            "scheme", "checkpoints", "control msgs", "piggyback bytes", "rollback distance"
        );
        for (scheme, checkpoints, control, piggyback, distance) in &result.rows {
            println!(
                "  {scheme:>16} {checkpoints:>12} {control:>14} {piggyback:>16} {distance:>18.2}"
            );
        }
        let _ = write_json(&dir, "coordinated", &result);
        println!();
    }

    if which == "all" || which == "necessity" {
        println!("== NEC-1 — hindsight necessity of forced checkpoints (random env, n=4) ==");
        let result = necessity(4, &scale.check_seeds, scale.check_messages);
        println!(
            "  {:>10} {:>10} {:>11} {:>10} {:>22}",
            "protocol", "forced", "necessary", "ratio", "load-bearing basics"
        );
        for (protocol, examined, necessary, ratio, load_bearing, basics) in &result.rows {
            println!(
                "  {protocol:>10} {examined:>10} {necessary:>11} {:>9.1}% {:>15} / {:>4}",
                ratio * 100.0,
                load_bearing,
                basics
            );
        }
        let _ = write_json(&dir, "necessity", &result);
        println!();
    }

    if which == "all" || which == "recovery" {
        println!("== REC-1 — rollback damage after losing the latest checkpoint ==");
        let result = recovery_experiment(6, &scale.check_seeds, scale.check_messages);
        println!(
            "  {:>16} {:>22} {:>18} {:>14} {:>12}",
            "protocol", "mean ckpts discarded", "rolled-to-initial", "messages lost", "gc reclaim"
        );
        for (name, discarded, initial, lost, reclaim) in &result.rows {
            println!(
                "  {name:>16} {discarded:>22.2} {initial:>18.2} {lost:>14.2} {:>11.1}%",
                reclaim * 100.0
            );
        }
        let _ = write_json(&dir, "recovery", &result);
        println!();
    }

    if which == "all" || which == "recovery-exec" {
        // Crash runs carry the online analysis engine (the recovery line is
        // computed incrementally at crash time), whose append cost grows
        // with the checkpoint count — and both crashes fire within the
        // first few hundred ticks anyway, so longer runs only add
        // crash-free tail. Keep the runs short and spend the budget on
        // seeds instead.
        let messages = if quick { 400 } else { 800 };
        let result = recovery_exec(4, &scale.check_seeds, messages, 4.0, 2, options.threads);
        print!("{}", render_recovery_exec(&result));
        match write_json(&dir, "BENCH_recovery_exec", &result) {
            Ok(path) => println!("  -> {}\n", path.display()),
            Err(err) => eprintln!("  !! could not write BENCH_recovery_exec.json: {err}\n"),
        }
        // Regression gate: the point of RDT — on the domino workload the
        // uncoordinated baseline must collapse to the initial state while
        // every RDT protocol keeps its worst rollback strictly smaller.
        if let Err(reason) = result.rdt_bounds_domino() {
            eprintln!("  !! recovery-exec gate FAIL: {reason}");
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::KNOWN;

    #[test]
    fn usage_line_lists_every_known_experiment_in_order() {
        let source = include_str!("experiments.rs");
        let docs = &source[..source
            .find("\nuse ")
            .expect("module docs precede the imports")];
        let usage = docs
            .lines()
            .find(|line| line.contains("experiments ["))
            .expect("usage line in the module docs");
        let (_, list) = usage.split_once('[').expect("opening bracket");
        let (list, _) = list.split_once(']').expect("closing bracket");
        assert_eq!(list.split('|').collect::<Vec<_>>(), KNOWN);
    }
}
