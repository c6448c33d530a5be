//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation.
//!
//! `experiments --help` prints the usage: every experiment, one row of
//! [`EXPERIMENTS`], and the flags. `all`, the
//! default, runs every row in table order and stops at the first failure.
//! `--quick` shrinks message counts and seed sets for smoke runs.
//! `--threads N` sets the worker count of the figure sweeps, `certify` and
//! `recovery-exec` (default: one per CPU); results are bit-identical for
//! every `N`. `--scope` sets the `certify` scope and is refused by a
//! run that does not include `certify`. Artifacts go to `results/` (or
//! `$RDT_RESULTS_DIR`); a failed write fails the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;

use rdt_bench::{
    render_figure, render_recovery_exec, render_table1, run_sweep_with_metrics, write_json,
    CompactionDecile, Sweep, SweepOptions,
};
use rdt_json::ToJson;
use rdt_sim::{out, outln, Args, Arity::Switch, Arity::Value, Flag, Grammar};
use rdt_workloads::EnvironmentKind::{self, ClientServer, Groups, Random};

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

/// An experiment: prints its table, writes its artifacts through
/// [`Ctx::write`] and returns its gate's verdict.
type Experiment = fn(&Ctx) -> Result<(), String>;

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig7", |ctx| figure(ctx, "fig7", Random, 8)),
    ("fig8", |ctx| figure(ctx, "fig8", Groups, 12)),
    ("fig9", |ctx| figure(ctx, "fig9", ClientServer, 8)),
    ("table1", table1),
    ("cor45", cor45),
    ("rdtcheck", rdtcheck),
    ("sim-throughput", sim_throughput),
    ("incremental", incremental),
    ("compaction", compaction),
    ("certify", certify),
    ("certify-scale", certify_scale),
    ("ablation", ablation),
    ("sensitivity", sensitivity),
    ("scaling", scaling),
    ("coordinated", coordinated),
    ("necessity", necessity),
    ("recovery", recovery),
    ("recovery-exec", recovery_exec),
];

/// What the experiments read.
struct Ctx {
    quick: bool,
    scale: Scale,
    options: SweepOptions,
    /// `--scope`, read by `certify` only.
    scope: Option<rdt_verify::Scope>,
    dir: PathBuf,
}

impl Ctx {
    /// The one artifact writer: prints the path written, or returns an
    /// error naming the artifact.
    fn write<T: ToJson>(&self, name: &str, value: &T) -> Result<(), String> {
        let path = write_json(&self.dir, name, value)
            .map_err(|err| format!("could not write {name}.json: {err}"))?;
        outln!("  -> {}", path.display());
        Ok(())
    }
}

fn figure(ctx: &Ctx, name: &str, env: EnvironmentKind, n: usize) -> Result<(), String> {
    let scale = &ctx.scale;
    let multipliers = [1, 2, 4, 8, 16];
    let sweep = Sweep::figure(name, env, n, &multipliers, &scale.seeds, scale.messages);
    let (result, metrics) = run_sweep_with_metrics(&sweep, &ctx.options);
    out!("{}", render_figure(&result));
    outln!("  [{name}] {}", metrics.render());
    ctx.write(name, &result)
}

fn table1(ctx: &Ctx) -> Result<(), String> {
    let result = rdt_bench::table1(8, &ctx.scale.seeds, ctx.scale.messages);
    out!("{}", render_table1(&result));
    ctx.write("table1", &result)
}

fn cor45(ctx: &Ctx) -> Result<(), String> {
    outln!("== COR-4.5 — on-the-fly min consistent GC vs offline R-graph fixpoint ==");
    let scale = &ctx.scale;
    for env in [Random, ClientServer] {
        let name = env.name();
        let result = rdt_bench::corollary45(env, 4, &scale.check_seeds, scale.check_messages);
        outln!(
            "  {name:>14}: {} checkpoints checked, {} mismatches ({})",
            result.checked,
            result.mismatches,
            if result.mismatches == 0 { "OK" } else { "FAIL" }
        );
        ctx.write(&format!("cor45-{name}"), &result)?;
        if result.mismatches > 0 {
            return Err(format!("{} mismatches in {name}", result.mismatches));
        }
    }
    Ok(())
}

fn rdtcheck(ctx: &Ctx) -> Result<(), String> {
    outln!("== RDT-CHECK — offline verification of every protocol in every environment ==");
    let result = rdt_bench::rdt_check(4, &ctx.scale.check_seeds, ctx.scale.check_messages);
    let total = result.runs.len();
    outln!(
        "  {total} runs; unexpected RDT failures: {} ({}); uncoordinated runs that happened to satisfy RDT: {}",
        result.unexpected_failures,
        if result.unexpected_failures == 0 { "OK" } else { "FAIL" },
        result.uncoordinated_passes,
    );
    ctx.write("rdtcheck", &result)?;
    if result.unexpected_failures > 0 {
        return Err(format!(
            "{} unexpected RDT failures",
            result.unexpected_failures
        ));
    }
    outln!();

    outln!("== BENCH-RDTCHECK — word-parallel closure kernels vs naive reference ==");
    let sizes: &[u64] = if ctx.quick {
        &[100, 400]
    } else {
        &[400, 1_600]
    };
    let bench = rdt_bench::closure_bench(sizes, if ctx.quick { 3 } else { 5 });
    outln!(
        "  {:>10} {:>11} {:>14} {:>14} {:>9} {:>14}",
        "messages",
        "delivered",
        "naive (ns)",
        "optimized (ns)",
        "speedup",
        "check (ns)"
    );
    for &(messages, delivered, naive_ns, optimized_ns, speedup, check_ns) in &bench.rows {
        outln!(
            "  {messages:>10} {delivered:>11} {naive_ns:>14} {optimized_ns:>14} {speedup:>8.1}x {check_ns:>14}"
        );
    }
    ctx.write("BENCH_rdtcheck", &bench)
}

fn sim_throughput(ctx: &Ctx) -> Result<(), String> {
    outln!("== BENCH-SIM-THROUGHPUT — packed round-executor engine vs legacy protocols ==");
    let (messages, reps) = if ctx.quick { (800, 3) } else { (4_000, 5) };
    let bench = rdt_bench::sim_throughput(messages, reps);
    outln!(
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
        outln!(
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
    ctx.write("BENCH_sim_throughput", &bench)?;
    // Regression gate: the executor engine must actually pay for its
    // complexity on the headline configuration.
    bench.gate()
}

fn incremental(ctx: &Ctx) -> Result<(), String> {
    outln!("== BENCH-INCREMENTAL — append-only engine vs from-scratch rebuilds ==");
    let (sizes, reps, batch_samples): (&[u64], u32, u32) = if ctx.quick {
        (&[400, 1_600], 3, 8)
    } else {
        (&[400, 800, 1_600, 3_200, 6_400], 5, 16)
    };
    let bench = rdt_bench::incremental_vs_batch(sizes, reps, batch_samples);
    outln!(
        "  {:>8} {:>12} {:>16} {:>18} {:>9} {:>14}",
        "events",
        "checkpoints",
        "incremental (ns)",
        "batch est. (ns)",
        "speedup",
        "events/sec"
    );
    for row in &bench.rows {
        outln!(
            "  {:>8} {:>12} {:>16} {:>18} {:>8.1}x {:>14.0}",
            row.events,
            row.checkpoints,
            row.incremental_ns,
            row.batch_est_ns,
            row.speedup,
            row.events_per_sec
        );
    }
    ctx.write("BENCH_incremental", &bench)?;
    // Regression gate: once traces are non-trivial the engine must
    // beat rebuilding from scratch, at any scale.
    let floor = bench.min_speedup_at(1_600);
    if floor < 1.0 {
        return Err(format!(
            "incremental slower than batch at >=1600 events ({floor:.2}x)"
        ));
    }
    Ok(())
}

fn compaction(ctx: &Ctx) -> Result<(), String> {
    outln!("== BENCH-COMPACTION — recovery-line compaction vs unbounded engine growth ==");
    // The compacted engine streams the full event count; the
    // uncompacted control runs a prefix, long enough for its resident
    // closure to rise in every decile past the compacted engine's peak.
    let (events, control_events, stride) = if ctx.quick {
        (100_000u64, 10_000u64, 1_000u64)
    } else {
        (1_000_000, 20_000, 10_000)
    };
    let bench = rdt_bench::compaction_bench(4, events, control_events, stride, 0xC04AC7);
    let table = |label: &str, deciles: &[CompactionDecile]| {
        outln!(
            "  {label}: {:>7} {:>12} {:>14} {:>14}",
            "decile",
            "events",
            "events/sec",
            "resident"
        );
        for row in deciles {
            outln!(
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
    outln!(
        "  throughput ratio (last/first decile): compacted {:.2}x, uncompacted {:.2}x",
        bench.compacted_throughput_ratio(),
        bench.control_throughput_ratio()
    );
    outln!(
        "  {} compactions reclaimed {} rows; resident after final compaction: {} nodes",
        bench.compactions,
        bench.reclaimed_rows,
        bench.resident_after_final_compaction
    );
    ctx.write("BENCH_compaction", &bench)?;
    bench.gate()
}

fn certify(ctx: &Ctx) -> Result<(), String> {
    outln!("== CERTIFY — exhaustive small-scope certification of every protocol ==");
    let scope = match ctx.scope {
        Some(scope) => scope,
        None if ctx.quick => rdt_verify::Scope::tiny(),
        // The full default scope: every pattern over 3 processes with
        // up to 4 messages and 1 basic checkpoint.
        None => rdt_verify::Scope::new(3, 4)?,
    };
    let options = rdt_verify::CertifyOptions {
        threads: ctx.options.threads,
        ..rdt_verify::CertifyOptions::default()
    };
    let report = rdt_verify::certify(&scope, &options);
    out!("{}", report.render());
    ctx.write("certify_report", &report)?;
    if !report.certified_ok() {
        return Err("a protocol failed certification".to_string());
    }
    Ok(())
}

fn certify_scale(ctx: &Ctx) -> Result<(), String> {
    outln!("== BENCH-CERTIFY — orbit-pruned certifier at scale ==");
    // Timed single-core: the numbers measure algorithmic pruning and
    // sharing, not parallel speedup.
    let scope = rdt_verify::Scope::new(3, 4)?;
    let push_scopes = if ctx.quick {
        Vec::new()
    } else {
        let full_3_5 = rdt_verify::Scope::with_basics(3, 5, 1)?;
        let sampled_4_4 = rdt_verify::Scope::with_basics(4, 4, 1)?;
        vec![(full_3_5, None), (sampled_4_4, Some(0.02))]
    };
    let bench = rdt_bench::certify_scale(&scope, 1, &push_scopes);
    outln!(
        "  scope {}: {} structures in {} canonical orbits ({} pruned by symmetry)",
        bench.scope,
        bench.structures,
        bench.canonical,
        bench.orbits_pruned
    );
    outln!(
        "  {:.2}s, {:.0} structures/s, prefix reuse {:.1}%, {} verdicts shared",
        bench.orbit_ns as f64 / 1e9,
        bench.structures_per_sec,
        bench.prefix_reuse_ratio * 100.0,
        bench.dedup_hits
    );
    outln!(
        "  {:>16} {:>12} {:>10}",
        "protocol",
        "replay ms",
        "patterns"
    );
    for row in &bench.replay {
        outln!(
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
        outln!(
            "  push {} ({mode}): {} structures, {} replayed in {:.2}s, certified_ok={}",
            run.scope,
            run.structures,
            run.replayed,
            run.ns as f64 / 1e9,
            run.certified_ok
        );
    }
    ctx.write("BENCH_certify", &bench)?;
    bench.gate()
}

fn ablation(ctx: &Ctx) -> Result<(), String> {
    outln!("== ABL-1 — piggyback size vs forced checkpoints (random environment) ==");
    let result = rdt_bench::ablation(8, &ctx.scale.seeds, ctx.scale.messages);
    outln!("  {:>16} {:>16} {:>10}", "protocol", "piggyback B/msg", "R");
    for (name, bytes, r) in &result.lattice {
        outln!("  {name:>16} {bytes:>16.1} {r:>10.4}");
    }
    ctx.write("ablation", &result)
}

fn sensitivity(ctx: &Ctx) -> Result<(), String> {
    outln!("== ABL-2 — BHMR-vs-FDAS reduction vs reply density (groups, n=12) ==");
    let result = rdt_bench::sensitivity(12, &ctx.scale.seeds, ctx.scale.messages);
    outln!(
        "  {:>12} {:>10} {:>10} {:>11}",
        "reply prob",
        "R bhmr",
        "R fdas",
        "reduction"
    );
    for (prob, bhmr, fdas, reduction) in &result.rows {
        outln!(
            "  {prob:>12.2} {bhmr:>10.4} {fdas:>10.4} {:>10.1}%",
            reduction * 100.0
        );
    }
    ctx.write("sensitivity", &result)
}

fn scaling(ctx: &Ctx) -> Result<(), String> {
    outln!("== SCALE-1 — R and piggyback cost vs number of processes (random env) ==");
    let result = rdt_bench::scaling(&[4, 8, 16, 32], &ctx.scale.check_seeds, ctx.scale.messages);
    outln!(
        "  {:>6} {:>10} {:>10} {:>16}",
        "n",
        "protocol",
        "R",
        "piggyback B/msg"
    );
    for (n, protocol, r, bytes) in &result.rows {
        outln!("  {n:>6} {protocol:>10} {r:>10.4} {bytes:>16.1}");
    }
    ctx.write("scaling", &result)
}

fn coordinated(ctx: &Ctx) -> Result<(), String> {
    outln!("== COORD-1 — Chandy–Lamport snapshots vs CIC at matched checkpoint rates ==");
    let result = rdt_bench::coordinated(8, &ctx.scale.check_seeds, 60 * 800);
    outln!(
        "  {:>16} {:>12} {:>14} {:>16} {:>18}",
        "scheme",
        "checkpoints",
        "control msgs",
        "piggyback bytes",
        "rollback distance"
    );
    for (scheme, checkpoints, control, piggyback, distance) in &result.rows {
        outln!("  {scheme:>16} {checkpoints:>12} {control:>14} {piggyback:>16} {distance:>18.2}");
    }
    ctx.write("coordinated", &result)
}

fn necessity(ctx: &Ctx) -> Result<(), String> {
    outln!("== NEC-1 — hindsight necessity of forced checkpoints (random env, n=4) ==");
    let result = rdt_bench::necessity(4, &ctx.scale.check_seeds, ctx.scale.check_messages);
    outln!(
        "  {:>10} {:>10} {:>11} {:>10} {:>22}",
        "protocol",
        "forced",
        "necessary",
        "ratio",
        "load-bearing basics"
    );
    for (protocol, examined, necessary, ratio, load_bearing, basics) in &result.rows {
        outln!(
            "  {protocol:>10} {examined:>10} {necessary:>11} {:>9.1}% {:>15} / {:>4}",
            ratio * 100.0,
            load_bearing,
            basics
        );
    }
    ctx.write("necessity", &result)
}

fn recovery(ctx: &Ctx) -> Result<(), String> {
    outln!("== REC-1 — rollback damage after losing the latest checkpoint ==");
    let scale = &ctx.scale;
    let result = rdt_bench::recovery_experiment(6, &scale.check_seeds, scale.check_messages);
    outln!(
        "  {:>16} {:>22} {:>18} {:>14} {:>12}",
        "protocol",
        "mean ckpts discarded",
        "rolled-to-initial",
        "messages lost",
        "gc reclaim"
    );
    for (name, discarded, initial, lost, reclaim) in &result.rows {
        outln!(
            "  {name:>16} {discarded:>22.2} {initial:>18.2} {lost:>14.2} {:>11.1}%",
            reclaim * 100.0
        );
    }
    ctx.write("recovery", &result)
}

fn recovery_exec(ctx: &Ctx) -> Result<(), String> {
    // Crash runs carry the online analysis engine (the recovery line is
    // computed incrementally at crash time), whose append cost grows
    // with the checkpoint count — and both crashes fire within the
    // first few hundred ticks anyway, so longer runs only add
    // crash-free tail. Keep the runs short and spend the budget on
    // seeds instead.
    let messages = if ctx.quick { 400 } else { 800 };
    let threads = ctx.options.threads;
    let result = rdt_bench::recovery_exec(4, &ctx.scale.check_seeds, messages, 4.0, 2, threads);
    out!("{}", render_recovery_exec(&result));
    ctx.write("BENCH_recovery_exec", &result)?;
    // Regression gate: the point of RDT — on the domino workload the
    // uncoordinated baseline must collapse to the initial state while
    // every RDT protocol keeps its worst rollback strictly smaller.
    result.rdt_bounds_domino()
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[("quick", Switch), ("threads", Value("N")), ("scope", Value("n,m[,b]"))];

/// What the experiments read, from what the grammar read: `Err` refuses
/// the command line.
fn context(args: &Args) -> Result<Ctx, String> {
    let which = args.positional(0).unwrap_or("all");
    if which != "all" && !EXPERIMENTS.iter().any(|&(name, _)| name == which) {
        return Err(format!("unknown experiment {which:?}"));
    }
    let scope = args.get("scope")?;
    if scope.is_some() && which != "all" && which != "certify" {
        return Err(format!(
            "--scope is read by certify only, and {which:?} does not run it (run certify or all)"
        ));
    }
    let options = match args.get("threads")? {
        Some(0) => return Err("--threads must be at least 1".to_string()),
        Some(threads) => SweepOptions::with_threads(threads),
        None => SweepOptions::auto(),
    };
    let quick = args.switch("quick");
    Ok(Ctx {
        quick,
        scale: if quick { Scale::quick() } else { Scale::full() },
        options,
        scope,
        dir: std::env::var_os("RDT_RESULTS_DIR").map_or_else(|| "results".into(), PathBuf::from),
    })
}

fn main() -> ExitCode {
    rdt_bench::allocs::mark_installed();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    let operands = format!("[all|{}]", names.join("|"));
    let grammar = Grammar::new("experiments", &operands, 1, FLAGS);
    let read = grammar.read(std::env::args().skip(1), |args| Ok((context(&args)?, args)));
    let (ctx, args) = match read {
        Ok(read) => read,
        Err(code) => return code,
    };
    let which = args.positional(0).unwrap_or("all");
    for &(name, run) in EXPERIMENTS {
        if which != "all" && which != name {
            continue;
        }
        if let Err(message) = run(&ctx) {
            eprintln!("  !! {name} FAIL: {message}");
            return ExitCode::FAILURE;
        }
        outln!();
    }
    ExitCode::SUCCESS
}
