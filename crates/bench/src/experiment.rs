//! The experiments themselves.

use rdt_causality::ProcessId;
use rdt_core::ProtocolKind;
use rdt_json::{Json, ToJson};
use rdt_recovery::{analyze, Failure};
use rdt_rgraph::{min_max, RdtChecker};
use rdt_sim::{
    run_protocol_kind, run_protocol_kind_legacy, run_protocol_kind_with_scratch,
    BasicCheckpointModel, DelayModel, RunStats, SimConfig, SimRng, SimScratch, StopCondition,
};
use rdt_workloads::EnvironmentKind;

/// Mean interval between two sends of one process, in ticks (fixes the
/// time scale of every experiment).
pub const MEAN_SEND_INTERVAL: u64 = 20;

/// Mean channel delay, in ticks.
pub const MEAN_DELAY: u64 = 50;

/// The protocol series plotted in the figures, most to least
/// sophisticated.
pub fn protocol_set() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Bhmr,
        ProtocolKind::BhmrNoSimple,
        ProtocolKind::BhmrCausalOnly,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
        ProtocolKind::Nras,
        ProtocolKind::Cas,
        ProtocolKind::Cbr,
    ]
}

fn config(n: usize, seed: u64, ckpt_mean: u64, messages: u64) -> SimConfig {
    SimConfig::new(n)
        .with_seed(seed)
        .with_delay(DelayModel::Exponential { mean: MEAN_DELAY })
        .with_basic_checkpoints(BasicCheckpointModel::Exponential { mean: ckpt_mean })
        .with_stop(StopCondition::MessagesSent(messages))
}

/// One protocol's aggregate over the seeds of one sweep point.
#[derive(Debug, Clone)]
pub struct ProtocolPoint {
    /// Protocol name.
    pub protocol: String,
    /// Mean of `R = forced / basic` over the seeds.
    pub mean_r: f64,
    /// Sample standard deviation of `R`.
    pub std_r: f64,
    /// Mean forced checkpoints per run.
    pub mean_forced: f64,
    /// Mean basic checkpoints per run.
    pub mean_basic: f64,
    /// Mean piggyback size per message, bytes.
    pub piggyback_bytes_per_msg: f64,
}

/// One x-axis point of a figure: the basic-checkpoint interval as a
/// multiple of the mean send interval, with every protocol's numbers.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Basic-checkpoint mean interval = `multiplier × MEAN_SEND_INTERVAL`.
    pub multiplier: u64,
    /// Per-protocol aggregates.
    pub points: Vec<ProtocolPoint>,
}

impl SweepRow {
    /// `R` of one protocol at this row, if present.
    pub fn r_of(&self, protocol: ProtocolKind) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.protocol == protocol.name())
            .map(|p| p.mean_r)
    }

    /// Relative reduction of forced checkpoints of `protocol` vs FDAS at
    /// this row: `(R_fdas - R_p) / R_fdas`.
    pub fn reduction_vs_fdas(&self, protocol: ProtocolKind) -> Option<f64> {
        let fdas = self.r_of(ProtocolKind::Fdas)?;
        let p = self.r_of(protocol)?;
        (fdas > 0.0).then(|| (fdas - p) / fdas)
    }
}

/// A complete figure: `R` per protocol over the checkpoint-interval sweep.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Experiment id (`fig7`, `fig8`, `fig9`).
    pub name: String,
    /// Environment swept.
    pub environment: String,
    /// Number of processes.
    pub n: usize,
    /// Messages injected per run.
    pub messages: u64,
    /// Seeds averaged over.
    pub seeds: Vec<u64>,
    /// One row per checkpoint-interval multiplier.
    pub rows: Vec<SweepRow>,
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
    (mean, var.sqrt())
}

fn run_point(
    env: EnvironmentKind,
    n: usize,
    protocol: ProtocolKind,
    ckpt_mean: u64,
    seeds: &[u64],
    messages: u64,
) -> ProtocolPoint {
    let mut rs = Vec::new();
    let mut forced = Vec::new();
    let mut basics = Vec::new();
    let mut piggyback = Vec::new();
    for &seed in seeds {
        let mut app = env.build(n, MEAN_SEND_INTERVAL);
        let outcome = run_protocol_kind(
            protocol,
            &config(n, seed, ckpt_mean, messages),
            app.as_mut(),
        );
        rs.push(outcome.stats.total.forced_ratio());
        forced.push(outcome.stats.total.forced_checkpoints as f64);
        basics.push(outcome.stats.total.basic_checkpoints as f64);
        piggyback.push(outcome.stats.total.mean_piggyback_bytes());
    }
    let (mean_r, std_r) = mean_std(&rs);
    ProtocolPoint {
        protocol: protocol.name().to_string(),
        mean_r,
        std_r,
        mean_forced: mean_std(&forced).0,
        mean_basic: mean_std(&basics).0,
        piggyback_bytes_per_msg: mean_std(&piggyback).0,
    }
}

/// Runs one of the evaluation's figures: `R` per protocol while the basic
/// checkpoint interval sweeps over `multipliers × MEAN_SEND_INTERVAL`.
///
/// * `fig7` — [`EnvironmentKind::Random`]
/// * `fig8` — [`EnvironmentKind::Groups`]
/// * `fig9` — [`EnvironmentKind::ClientServer`]
///
/// This is the sequential execution of the corresponding [`Sweep`]; the
/// parallel engine ([`crate::parallel::run_sweep`]) produces bit-identical
/// results for the same grid.
pub fn figure(
    name: &str,
    env: EnvironmentKind,
    n: usize,
    multipliers: &[u64],
    seeds: &[u64],
    messages: u64,
) -> FigureResult {
    Sweep::figure(name, env, n, multipliers, seeds, messages).run_sequential()
}

/// A declarative (checkpoint-interval × protocol × seed) experiment grid.
///
/// The grid is enumerated up front into [`SweepPoint`]s: each point is one
/// independent simulator run whose RNG seed is derived *purely* from its
/// seed-list entry and its grid index ([`SimRng::derive_seed`]), never
/// from execution order. Any scheduler — the sequential loop in
/// [`Sweep::run_sequential`] or the work-stealing engine in
/// [`crate::parallel`] — therefore computes the same per-point outcomes,
/// and [`Sweep::merge`] folds them back in grid order so even the floating
/// point aggregation is bit-identical.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Experiment id (`fig7`, `fig8`, `fig9`, ...).
    pub name: String,
    /// Environment every point runs in.
    pub environment: EnvironmentKind,
    /// Number of processes.
    pub n: usize,
    /// Checkpoint-interval multipliers (the figure's x-axis).
    pub multipliers: Vec<u64>,
    /// Protocols compared (one figure series each).
    pub protocols: Vec<ProtocolKind>,
    /// Seed-list entries averaged over per cell.
    pub seeds: Vec<u64>,
    /// Messages injected per run.
    pub messages: u64,
}

/// One cell of a [`Sweep`] grid: a single simulator run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPoint {
    /// Position in the enumerated grid (multiplier-major, then protocol,
    /// then seed).
    pub index: usize,
    /// Checkpoint-interval multiplier of this cell.
    pub multiplier: u64,
    /// Protocol of this cell.
    pub protocol: ProtocolKind,
    /// Seed-list entry this run is averaged under.
    pub seed: u64,
    /// The run's actual simulator seed:
    /// `SimRng::derive_seed(seed, index)`.
    pub sim_seed: u64,
}

/// What one [`SweepPoint`]'s run produces — everything [`Sweep::merge`]
/// and the determinism tests need, without retaining the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Grid index of the point this outcome belongs to.
    pub index: usize,
    /// The run's aggregate statistics.
    pub stats: RunStats,
    /// Structural digest of the run's checkpoint-and-communication
    /// pattern ([`rdt_rgraph::Pattern::digest`]): two runs produced the
    /// same execution iff their digests (and stats) agree.
    pub pattern_digest: u64,
}

impl Sweep {
    /// The sweep behind [`figure`]: the standard protocol set over
    /// `multipliers × MEAN_SEND_INTERVAL` checkpoint intervals.
    pub fn figure(
        name: &str,
        env: EnvironmentKind,
        n: usize,
        multipliers: &[u64],
        seeds: &[u64],
        messages: u64,
    ) -> Sweep {
        Sweep {
            name: name.to_string(),
            environment: env,
            n,
            multipliers: multipliers.to_vec(),
            protocols: protocol_set(),
            seeds: seeds.to_vec(),
            messages,
        }
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.multipliers.len() * self.protocols.len() * self.seeds.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the full grid, multiplier-major, then protocol, then
    /// seed. Point `index` is the position in this enumeration, and fixes
    /// the point's derived simulator seed.
    pub fn grid(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        for &multiplier in &self.multipliers {
            for &protocol in &self.protocols {
                for &seed in &self.seeds {
                    let index = points.len();
                    points.push(SweepPoint {
                        index,
                        multiplier,
                        protocol,
                        seed,
                        sim_seed: SimRng::derive_seed(seed, index as u64),
                    });
                }
            }
        }
        points
    }

    /// Runs one grid point. A pure function of the sweep and the point —
    /// workers may run points in any order on any thread.
    pub fn run_point(&self, point: &SweepPoint, scratch: &mut SimScratch) -> PointOutcome {
        let mut app = self.environment.build(self.n, MEAN_SEND_INTERVAL);
        let config = config(
            self.n,
            point.sim_seed,
            point.multiplier * MEAN_SEND_INTERVAL,
            self.messages,
        );
        run_protocol_kind_with_scratch(point.protocol, &config, app.as_mut(), scratch, |outcome| {
            PointOutcome {
                index: point.index,
                stats: outcome.stats.clone(),
                pattern_digest: outcome.trace.to_pattern().digest(),
            }
        })
    }

    /// Folds per-point outcomes (sorted by grid index, one per point) back
    /// into the figure report.
    ///
    /// The fold visits outcomes strictly in grid order, so the floating
    /// point accumulation is independent of the execution schedule that
    /// produced them.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is not exactly the grid, in index order.
    pub fn merge(&self, outcomes: &[PointOutcome]) -> FigureResult {
        assert_eq!(outcomes.len(), self.len(), "merge needs every grid point");
        for (i, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i, "merge needs outcomes in grid order");
        }
        let per_cell = self.seeds.len();
        let mut cells = outcomes.chunks_exact(per_cell);
        let mut rows = Vec::with_capacity(self.multipliers.len());
        for &multiplier in &self.multipliers {
            let mut points = Vec::with_capacity(self.protocols.len());
            for &protocol in &self.protocols {
                let cell = cells.next().expect("length checked above");
                let rs: Vec<f64> = cell.iter().map(|o| o.stats.total.forced_ratio()).collect();
                let forced: Vec<f64> = cell
                    .iter()
                    .map(|o| o.stats.total.forced_checkpoints as f64)
                    .collect();
                let basics: Vec<f64> = cell
                    .iter()
                    .map(|o| o.stats.total.basic_checkpoints as f64)
                    .collect();
                let piggyback: Vec<f64> = cell
                    .iter()
                    .map(|o| o.stats.total.mean_piggyback_bytes())
                    .collect();
                let (mean_r, std_r) = mean_std(&rs);
                points.push(ProtocolPoint {
                    protocol: protocol.name().to_string(),
                    mean_r,
                    std_r,
                    mean_forced: mean_std(&forced).0,
                    mean_basic: mean_std(&basics).0,
                    piggyback_bytes_per_msg: mean_std(&piggyback).0,
                });
            }
            rows.push(SweepRow { multiplier, points });
        }
        FigureResult {
            name: self.name.clone(),
            environment: self.environment.name().to_string(),
            n: self.n,
            messages: self.messages,
            seeds: self.seeds.clone(),
            rows,
        }
    }

    /// Runs the whole grid on the calling thread, in grid order.
    pub fn run_sequential(&self) -> FigureResult {
        let mut scratch = SimScratch::new();
        let outcomes: Vec<PointOutcome> = self
            .grid()
            .iter()
            .map(|point| self.run_point(point, &mut scratch))
            .collect();
        self.merge(&outcomes)
    }
}

/// TAB-1: the cross-environment protocol comparison at a fixed mid-range
/// checkpoint interval.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One figure-style row per environment (single multiplier).
    pub environments: Vec<FigureResult>,
    /// Multiplier used.
    pub multiplier: u64,
}

/// Runs TAB-1.
pub fn table1(n: usize, seeds: &[u64], messages: u64) -> Table1Result {
    let multiplier = 4;
    let environments = [
        EnvironmentKind::Random,
        EnvironmentKind::Groups,
        EnvironmentKind::ClientServer,
        EnvironmentKind::Ring,
        EnvironmentKind::Pipeline,
    ]
    .iter()
    .map(|&env| {
        figure(
            &format!("table1-{}", env.name()),
            env,
            n,
            &[multiplier],
            seeds,
            messages,
        )
    })
    .collect();
    Table1Result {
        environments,
        multiplier,
    }
}

/// COR-4.5: cross-validation of the on-the-fly minimum consistent global
/// checkpoints against the offline R-graph fixpoint.
#[derive(Debug, Clone)]
pub struct Cor45Result {
    /// Checkpoints whose reported minimum was compared.
    pub checked: usize,
    /// Disagreements (must be 0 for RDT-ensuring protocols).
    pub mismatches: usize,
    /// Protocols included.
    pub protocols: Vec<String>,
}

/// Runs COR-4.5 over the dependency-tracking protocols.
pub fn corollary45(env: EnvironmentKind, n: usize, seeds: &[u64], messages: u64) -> Cor45Result {
    let protocols: Vec<ProtocolKind> = ProtocolKind::all()
        .iter()
        .copied()
        .filter(|k| k.tracks_dependencies())
        .collect();
    let mut checked = 0;
    let mut mismatches = 0;
    for &protocol in &protocols {
        for &seed in seeds {
            let mut app = env.build(n, MEAN_SEND_INTERVAL);
            let outcome = run_protocol_kind(
                protocol,
                &config(n, seed, 4 * MEAN_SEND_INTERVAL, messages),
                app.as_mut(),
            );
            let pattern = outcome.trace.to_pattern().to_closed();
            for records in &outcome.records {
                for record in records {
                    let Some(reported) = &record.min_consistent_gc else {
                        continue;
                    };
                    let offline = min_max::min_consistent_containing(&pattern, &[record.id]);
                    checked += 1;
                    match offline {
                        Some(gc) if gc.as_slice() == reported.as_slice() => {}
                        _ => mismatches += 1,
                    }
                }
            }
        }
    }
    Cor45Result {
        checked,
        mismatches,
        protocols: protocols.iter().map(|p| p.name().to_string()).collect(),
    }
}

/// RDT-CHECK: run every protocol in every environment and verify the
/// resulting pattern against the offline RDT checker.
#[derive(Debug, Clone)]
pub struct RdtCheckResult {
    /// `(protocol, environment, seed, holds)` for every run.
    pub runs: Vec<(String, String, u64, bool)>,
    /// Runs of RDT-ensuring protocols that failed the check (must be 0).
    pub unexpected_failures: usize,
    /// Runs of the uncoordinated control that *passed* (hidden
    /// dependencies simply did not arise on that seed).
    pub uncoordinated_passes: usize,
}

/// Runs RDT-CHECK.
pub fn rdt_check(n: usize, seeds: &[u64], messages: u64) -> RdtCheckResult {
    let mut runs = Vec::new();
    let mut unexpected_failures = 0;
    let mut uncoordinated_passes = 0;
    for &env in EnvironmentKind::all() {
        for &protocol in ProtocolKind::all() {
            for &seed in seeds {
                let mut app = env.build(n, MEAN_SEND_INTERVAL);
                let outcome = run_protocol_kind(
                    protocol,
                    &config(n, seed, 2 * MEAN_SEND_INTERVAL, messages),
                    app.as_mut(),
                );
                let holds = RdtChecker::new(&outcome.trace.to_pattern()).check().holds();
                if protocol.ensures_rdt() && !holds {
                    unexpected_failures += 1;
                }
                if protocol == ProtocolKind::Uncoordinated && holds {
                    uncoordinated_passes += 1;
                }
                runs.push((
                    protocol.name().to_string(),
                    env.name().to_string(),
                    seed,
                    holds,
                ));
            }
        }
    }
    RdtCheckResult {
        runs,
        unexpected_failures,
        uncoordinated_passes,
    }
}

/// BENCH-RDTCHECK: wall-clock comparison of the word-parallel closure
/// kernels against the naive per-bit reference, on the same
/// protocol-generated patterns the `rdtcheck` verification runs over,
/// beside the time of the whole batch RDT check.
#[derive(Debug, Clone)]
pub struct ClosureBenchResult {
    /// One row per pattern size: `(messages, delivered messages,
    /// naive nanoseconds, optimized nanoseconds, speedup, batch check
    /// nanoseconds)`.
    ///
    /// Each kernel timing covers one full closure pass — both
    /// message-chain closures plus the R-graph reachability (on the
    /// optimized side, a replay into the incremental core); the last
    /// cell times `RdtChecker::new(&pattern).check()`. Every timing is
    /// the minimum over the measurement repetitions (the statistic least
    /// disturbed by scheduling noise).
    pub rows: Vec<(u64, u64, u64, u64, f64, u64)>,
    /// Repetitions each timing is the minimum of.
    pub repetitions: u32,
}

impl ClosureBenchResult {
    /// Smallest speedup across the sizes (the headline regression metric).
    pub fn min_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(|&(_, _, _, _, s, _)| s)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs BENCH-RDTCHECK: for each size, generate a fig7-style pattern
/// (random environment, BHMR) and time the full closure pass — the naive
/// per-start DFS kernels versus the word-parallel SCC chain kernel plus
/// the R-graph closure of a replay into the incremental core — and the
/// batch [`RdtChecker`] verdict.
pub fn closure_bench(sizes: &[u64], repetitions: u32) -> ClosureBenchResult {
    use rdt_rgraph::{IncrementalAnalysis, RGraph, ZigzagReachability};
    use rdt_sim::Stopwatch;

    let mut rows = Vec::with_capacity(sizes.len());
    for &messages in sizes {
        let mut app = EnvironmentKind::Random.build(8, MEAN_SEND_INTERVAL);
        let outcome = run_protocol_kind(
            ProtocolKind::Bhmr,
            &config(8, 7, 3 * MEAN_SEND_INTERVAL, messages),
            app.as_mut(),
        );
        let pattern = outcome.trace.to_pattern().to_closed();
        let graph = RGraph::new(&pattern);
        let delivered = pattern.delivered_messages().count() as u64;

        let time_min = |f: &dyn Fn() -> usize| -> u64 {
            let mut best = u64::MAX;
            for _ in 0..repetitions.max(1) {
                let watch = Stopwatch::start();
                std::hint::black_box(f());
                best = best.min(watch.elapsed().as_nanos() as u64);
            }
            best
        };
        let naive_ns = time_min(&|| {
            let zz = ZigzagReachability::new_naive(&pattern);
            graph.reachability_naive().total_reachable_pairs() + zz.delivered_messages().len()
        });
        let optimized_ns = time_min(&|| {
            let zz = ZigzagReachability::new(&pattern);
            let core = IncrementalAnalysis::from_pattern(&pattern).expect("realizable");
            core.total_reachable_pairs() + zz.delivered_messages().len()
        });
        let speedup = naive_ns as f64 / optimized_ns.max(1) as f64;
        let check_ns = time_min(&|| usize::from(RdtChecker::new(&pattern).check().holds()));
        rows.push((
            messages,
            delivered,
            naive_ns,
            optimized_ns,
            speedup,
            check_ns,
        ));
    }
    ClosureBenchResult { rows, repetitions }
}

/// One protocol × environment cell of BENCH-SIM-THROUGHPUT.
#[derive(Debug, Clone)]
pub struct SimThroughputRow {
    /// Protocol name.
    pub protocol: String,
    /// Environment name.
    pub environment: String,
    /// Number of processes (the environment's figure scale).
    pub n: usize,
    /// Trace events per run (sends + deliveries + checkpoints + crashes).
    /// Identical across the two engines — the differential suite pins
    /// their schedules byte-for-byte.
    pub events: u64,
    /// Full-run wall time on the legacy per-message-allocating protocol
    /// implementations, nanoseconds (min over the repetitions).
    pub legacy_ns: u64,
    /// Full-run wall time on the packed round-executor engine.
    pub executor_ns: u64,
    /// Events per second through the legacy engine.
    pub legacy_events_per_sec: f64,
    /// Events per second through the executor engine.
    pub executor_events_per_sec: f64,
    /// `legacy_ns / executor_ns`.
    pub speedup: f64,
    /// Heap allocations in one full legacy run (zero unless the
    /// benchmark binary's counting allocator is installed).
    pub legacy_allocs: u64,
    /// Heap allocations in one full executor run.
    pub executor_allocs: u64,
}

/// BENCH-SIM-THROUGHPUT: end-to-end simulator throughput per protocol ×
/// environment, packed round-executor engine versus the legacy protocol
/// implementations on identical schedules.
#[derive(Debug, Clone)]
pub struct SimThroughputResult {
    /// Messages injected per run.
    pub messages: u64,
    /// Repetitions each timing is the minimum of.
    pub repetitions: u32,
    /// Whether a counting allocator was live, i.e. whether the
    /// allocation columns are measurements rather than zeros.
    pub alloc_counting: bool,
    /// One row per protocol × environment.
    pub rows: Vec<SimThroughputRow>,
}

impl SimThroughputResult {
    /// The row for `environment` × `protocol`, if present.
    pub fn row(&self, environment: &str, protocol: ProtocolKind) -> Option<&SimThroughputRow> {
        self.rows
            .iter()
            .find(|row| row.environment == environment && row.protocol == protocol.name())
    }

    /// The regression gate: on BHMR in the random environment (the
    /// paper's fig. 7 configuration) the executor engine must beat the
    /// legacy engine by at least 1.5×, and — when allocation counting is
    /// live — must allocate strictly less over the whole run.
    ///
    /// # Errors
    ///
    /// Returns the failed criterion as a human-readable message.
    pub fn gate(&self) -> Result<(), String> {
        let row = self
            .row("random", ProtocolKind::Bhmr)
            .ok_or("missing bhmr/random row")?;
        if row.speedup < 1.5 {
            return Err(format!(
                "executor speedup on bhmr/random is {:.2}x, need >= 1.5x",
                row.speedup
            ));
        }
        if self.alloc_counting && row.executor_allocs >= row.legacy_allocs {
            return Err(format!(
                "executor run allocated {} times vs legacy {} — the zero-copy path regressed",
                row.executor_allocs, row.legacy_allocs
            ));
        }
        Ok(())
    }
}

/// Runs BENCH-SIM-THROUGHPUT: for each dependency-tracking protocol in
/// the random (fig. 7, n=8) and groups (fig. 8, n=12) environments, time
/// one full simulation on the packed round-executor engine
/// ([`run_protocol_kind`]) against the same schedule on the legacy
/// implementations ([`run_protocol_kind_legacy`]). A pilot run per
/// engine also differences the process-wide allocation counter (live
/// only under the benchmark binary's counting allocator).
pub fn sim_throughput(messages: u64, repetitions: u32) -> SimThroughputResult {
    use rdt_sim::Stopwatch;

    let environments = [
        (EnvironmentKind::Random, 8usize),
        (EnvironmentKind::Groups, 12),
    ];
    let kinds = [
        ProtocolKind::Bhmr,
        ProtocolKind::BhmrNoSimple,
        ProtocolKind::BhmrCausalOnly,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
    ];
    let mut rows = Vec::with_capacity(environments.len() * kinds.len());
    for &(env, n) in &environments {
        for &kind in &kinds {
            let cfg = config(n, 7, 3 * MEAN_SEND_INTERVAL, messages);
            let run = |legacy: bool| {
                let mut app = env.build(n, MEAN_SEND_INTERVAL);
                if legacy {
                    run_protocol_kind_legacy(kind, &cfg, app.as_mut())
                } else {
                    run_protocol_kind(kind, &cfg, app.as_mut())
                }
            };
            // Pilot runs: allocation counts (deterministic — runs are
            // seed-pure) and the event total, plus cache warm-up.
            let count_allocs = |legacy: bool| {
                let before = crate::allocs::allocation_count();
                let outcome = std::hint::black_box(run(legacy));
                let allocs = crate::allocs::allocation_count() - before;
                (allocs, outcome.trace.events().len() as u64)
            };
            let (legacy_allocs, events) = count_allocs(true);
            let (executor_allocs, executor_events) = count_allocs(false);
            assert_eq!(events, executor_events, "engines diverged on {kind}");
            // Interleave the two engines rep by rep so a load or
            // frequency excursion on a shared machine hits both timing
            // windows alike instead of skewing the ratio; min-over-reps
            // then discards the disturbed reps of each.
            let time_once = |legacy: bool| {
                let watch = Stopwatch::start();
                std::hint::black_box(run(legacy));
                watch.elapsed().as_nanos() as u64
            };
            let (mut legacy_ns, mut executor_ns) = (u64::MAX, u64::MAX);
            for _ in 0..repetitions.max(1) {
                legacy_ns = legacy_ns.min(time_once(true));
                executor_ns = executor_ns.min(time_once(false));
            }
            let per_sec = |ns: u64| events as f64 / (ns.max(1) as f64 / 1e9);
            rows.push(SimThroughputRow {
                protocol: kind.name().to_string(),
                environment: env.name().to_string(),
                n,
                events,
                legacy_ns,
                executor_ns,
                legacy_events_per_sec: per_sec(legacy_ns),
                executor_events_per_sec: per_sec(executor_ns),
                speedup: legacy_ns as f64 / executor_ns.max(1) as f64,
                legacy_allocs,
                executor_allocs,
            });
        }
    }
    SimThroughputResult {
        messages,
        repetitions,
        alloc_counting: crate::allocs::enabled(),
        rows,
    }
}

/// One trace length of BENCH-INCREMENTAL.
#[derive(Debug, Clone)]
pub struct IncrementalBenchRow {
    /// Trace events processed (sends + deliveries + checkpoints).
    pub events: u64,
    /// Checkpoints among those events.
    pub checkpoints: u64,
    /// Nanoseconds for the append-only engine to ingest the whole trace,
    /// querying the violation count after every event (min over reps).
    pub incremental_ns: u64,
    /// Estimated nanoseconds for the from-scratch strategy: rebuild the
    /// batch analysis on the event prefix after every event. Extrapolated
    /// from evenly spaced sampled prefixes (a Riemann sum of the measured
    /// per-prefix rebuild cost), since running all `events` rebuilds is
    /// exactly the quadratic blow-up this benchmark demonstrates.
    pub batch_est_ns: u64,
    /// `batch_est_ns / incremental_ns`.
    pub speedup: f64,
    /// Incremental ingest throughput, events per second.
    pub events_per_sec: f64,
}

/// BENCH-INCREMENTAL: per-event analysis maintained by the append-only
/// [`IncrementalAnalysis`](rdt_rgraph::IncrementalAnalysis) engine versus
/// rebuilding the batch pipeline from scratch after every event.
#[derive(Debug, Clone)]
pub struct IncrementalBenchResult {
    /// One row per trace length.
    pub rows: Vec<IncrementalBenchRow>,
    /// Repetitions each timing is the minimum of.
    pub repetitions: u32,
    /// Evenly spaced prefixes the batch estimate is extrapolated from.
    pub batch_samples: u32,
}

impl IncrementalBenchResult {
    /// Smallest speedup among rows with at least `events` trace events —
    /// the regression gate: incremental must never lose to from-scratch
    /// rebuilds once traces are non-trivial.
    pub fn min_speedup_at(&self, events: u64) -> f64 {
        self.rows
            .iter()
            .filter(|row| row.events >= events)
            .map(|row| row.speedup)
            .fold(f64::INFINITY, f64::min)
    }
}

fn prefix_pattern(n: usize, events: &[rdt_sim::TraceEvent]) -> rdt_rgraph::Pattern {
    use rdt_rgraph::{PatternBuilder, PatternMessageId};
    let mut builder = PatternBuilder::new(n);
    let mut map: Vec<Option<PatternMessageId>> = Vec::new();
    for event in events {
        match *event {
            rdt_sim::TraceEvent::Send {
                from, to, message, ..
            } => {
                if map.len() <= message.0 {
                    map.resize(message.0 + 1, None);
                }
                map[message.0] = Some(builder.send(from, to));
            }
            rdt_sim::TraceEvent::Deliver { message, .. } => {
                let id = map[message.0].expect("delivery of an unsent message");
                builder.deliver(id).expect("double delivery in trace");
            }
            rdt_sim::TraceEvent::Checkpoint { id, .. } => {
                builder.checkpoint(id.process);
            }
            rdt_sim::TraceEvent::Crash { .. } => {}
        }
    }
    builder.build().expect("prefix of a valid trace")
}

/// Runs BENCH-INCREMENTAL: for each length, generate a fig7-style BHMR
/// trace, truncate it to exactly that many events, and time (a) one
/// engine ingesting the trace with a violation query after every event
/// against (b) the estimated cost of rebuilding the batch analysis
/// ([`RdtChecker`] on the event prefix) after every event.
pub fn incremental_vs_batch(
    sizes: &[u64],
    repetitions: u32,
    batch_samples: u32,
) -> IncrementalBenchResult {
    use rdt_sim::{OnlineRdtReport, Stopwatch, TraceEvent};

    let n = 8;
    let mut rows = Vec::with_capacity(sizes.len());
    for &size in sizes {
        let mut app = EnvironmentKind::Random.build(n, MEAN_SEND_INTERVAL);
        let outcome = run_protocol_kind(
            ProtocolKind::Bhmr,
            // Stopping after `size` messages yields at least 2×`size`
            // events (every message is sent and delivered), so the
            // truncation below always has enough to cut.
            &config(n, 11, 3 * MEAN_SEND_INTERVAL, size),
            app.as_mut(),
        );
        let mut events = outcome.trace.into_events();
        assert!(events.len() >= size as usize, "trace shorter than target");
        events.truncate(size as usize);
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Checkpoint { .. }))
            .count() as u64;

        // (a) One bare engine, every event appended once, violation count
        // read back after each append: the replay `rdt-cli run --stats`
        // reports.
        let mut incremental_ns = u64::MAX;
        for _ in 0..repetitions.max(1) {
            let watch = Stopwatch::start();
            let report = OnlineRdtReport::replay(n, &events).expect("a simulated trace replays");
            std::hint::black_box(report.untrackable_pairs);
            incremental_ns = incremental_ns.min(watch.elapsed().as_nanos() as u64);
        }

        // (b) From-scratch rebuilds at `batch_samples` evenly spaced
        // prefixes; summing `t(k·L/S) · L/S` estimates the cost of
        // rebuilding after every one of the L events.
        let samples = (batch_samples.max(1) as u64).min(size);
        let mut sampled_total_ns = 0u64;
        for sample in 1..=samples {
            let len = (size * sample / samples) as usize;
            let mut best = u64::MAX;
            for _ in 0..repetitions.max(1) {
                let watch = Stopwatch::start();
                let pattern = prefix_pattern(n, &events[..len]);
                let report = RdtChecker::new(&pattern).check();
                std::hint::black_box(report.holds());
                best = best.min(watch.elapsed().as_nanos() as u64);
            }
            sampled_total_ns += best;
        }
        let batch_est_ns = sampled_total_ns.saturating_mul(size / samples);

        let speedup = batch_est_ns as f64 / incremental_ns.max(1) as f64;
        let events_per_sec = size as f64 / (incremental_ns.max(1) as f64 / 1e9);
        rows.push(IncrementalBenchRow {
            events: size,
            checkpoints,
            incremental_ns,
            batch_est_ns,
            speedup,
            events_per_sec,
        });
    }
    IncrementalBenchResult {
        rows,
        repetitions,
        batch_samples,
    }
}

/// One deterministic operation of the BENCH-COMPACTION stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompactionOp {
    /// Checkpoint on a process.
    Checkpoint(u32),
    /// Send from → to.
    Send(u32, u32),
    /// Deliver the k-th send of the stream.
    Deliver(u64),
}

/// Minimal xorshift64 stream generator (the stream must be reproducible
/// from the seed alone, independent of any simulator state).
struct StreamRng(u64);

impl StreamRng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Generates the deterministic event stream both engines ingest: random
/// sends with FIFO deliveries (bounded in-flight window) and round-robin
/// checkpoints, so every process's interval count keeps advancing and the
/// recovery line tracks the frontier.
fn compaction_stream(n: usize, events: u64, seed: u64) -> Vec<CompactionOp> {
    let mut rng = StreamRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let mut ops = Vec::with_capacity(events as usize);
    let mut in_flight = std::collections::VecDeque::new();
    let mut sends = 0u64;
    let mut next_ckpt = 0u32;
    for _ in 0..events {
        let roll = rng.below(16);
        if roll < 2 {
            ops.push(CompactionOp::Checkpoint(next_ckpt));
            next_ckpt = (next_ckpt + 1) % n as u32;
        } else if (roll < 9 && !in_flight.is_empty()) || in_flight.len() > 64 {
            ops.push(CompactionOp::Deliver(
                in_flight.pop_front().expect("guarded non-empty"),
            ));
        } else {
            let from = rng.below(n as u64) as u32;
            let to = (from + 1 + rng.below(n as u64 - 1) as u32) % n as u32;
            ops.push(CompactionOp::Send(from, to));
            in_flight.push_back(sends);
            sends += 1;
        }
    }
    ops
}

fn apply_compaction_op(
    engine: &mut rdt_rgraph::IncrementalAnalysis,
    mids: &mut Vec<u32>,
    op: CompactionOp,
) {
    match op {
        CompactionOp::Checkpoint(p) => {
            engine.append_checkpoint(ProcessId::new(p as usize));
        }
        CompactionOp::Send(from, to) => {
            mids.push(
                engine.append_send(ProcessId::new(from as usize), ProcessId::new(to as usize)),
            );
        }
        CompactionOp::Deliver(k) => engine.append_deliver(mids[k as usize]),
    }
}

/// One tenth of a BENCH-COMPACTION ingest, with its throughput and the
/// engine's resident closure size at the decile boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionDecile {
    /// Decile index, 1-based.
    pub decile: u32,
    /// Events ingested in this decile.
    pub events: u64,
    /// Wall-clock nanoseconds for the decile (compaction time included).
    pub ns: u64,
    /// Ingest throughput over the decile, events per second.
    pub events_per_sec: f64,
    /// Resident closure nodes at the end of the decile.
    pub resident_nodes: usize,
}

/// BENCH-COMPACTION: the daemon's engine ingesting the stream with periodic
/// recovery-line compaction versus the same engine left to grow without
/// bound (run on a prefix of the stream: its resident closure grows with
/// every decile, which is what the control shows).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionBenchResult {
    /// Processes in the stream.
    pub n: usize,
    /// Events the compacted engine ingests.
    pub events: u64,
    /// Events the uncompacted control ingests (a prefix of the stream).
    pub control_events: u64,
    /// The compacted engine compacts every this many events.
    pub compact_stride: u64,
    /// Per-decile throughput of the compacted engine.
    pub compacted: Vec<CompactionDecile>,
    /// Per-decile throughput of the uncompacted control over its prefix.
    pub control: Vec<CompactionDecile>,
    /// Compactions that discarded state.
    pub compactions: u64,
    /// Closure/TDV rows reclaimed across those compactions.
    pub reclaimed_rows: u64,
    /// Largest resident closure seen at a compacted decile boundary.
    pub peak_resident_compacted: usize,
    /// Resident closure right after the final compaction.
    pub resident_after_final_compaction: usize,
    /// Resident closure of the control at the end of its prefix.
    pub control_final_resident: usize,
    /// Untrackable-pair count of the compacted engine at the control's
    /// truncation point (differential spot-check).
    pub untrackable_at_cap_compacted: u64,
    /// Untrackable-pair count of the control at the same point.
    pub untrackable_at_cap_control: u64,
    /// Untrackable-pair count of the compacted engine after the full
    /// stream.
    pub untrackable_final: u64,
}

fn decile_ratio(deciles: &[CompactionDecile]) -> f64 {
    match (deciles.first(), deciles.last()) {
        (Some(first), Some(last)) if first.events_per_sec > 0.0 => {
            last.events_per_sec / first.events_per_sec
        }
        _ => 0.0,
    }
}

impl CompactionBenchResult {
    /// Last-decile throughput over first-decile throughput, compacted.
    pub fn compacted_throughput_ratio(&self) -> f64 {
        decile_ratio(&self.compacted)
    }

    /// Last-decile throughput over first-decile throughput, control.
    pub fn control_throughput_ratio(&self) -> f64 {
        decile_ratio(&self.control)
    }

    /// The acceptance gates of the experiment: flat per-event cost under
    /// compaction (last decile at least half the first-decile throughput),
    /// unbounded growth without it (the control's resident closure rises in
    /// every decile and ends above the compacted peak), bounded resident
    /// closure, exact analysis results, and non-vacuous reclamation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation of the first violated gate.
    pub fn gate(&self) -> Result<(), String> {
        let compacted = self.compacted_throughput_ratio();
        if compacted < 0.5 {
            return Err(format!(
                "compacted last-decile throughput fell to {compacted:.2}x of the first decile \
                 (gate: >= 0.5x)"
            ));
        }
        // The control's resident closure, from the empty engine's `n`
        // initial checkpoints on, decile by decile.
        let mut resident = self.n;
        for row in &self.control {
            if row.resident_nodes <= resident {
                return Err(format!(
                    "uncompacted control's resident closure did not rise in decile {} \
                     ({resident} -> {} nodes) — the growth the compacted engine avoids is \
                     not visible",
                    row.decile, row.resident_nodes
                ));
            }
            resident = row.resident_nodes;
        }
        if resident <= self.peak_resident_compacted {
            return Err(format!(
                "uncompacted control ended at {resident} resident nodes, not above the \
                 compacted peak of {}",
                self.peak_resident_compacted
            ));
        }
        if self.untrackable_at_cap_compacted != self.untrackable_at_cap_control {
            return Err(format!(
                "differential spot-check failed at event {}: compacted counts {} untrackable \
                 pairs, control counts {}",
                self.control_events,
                self.untrackable_at_cap_compacted,
                self.untrackable_at_cap_control
            ));
        }
        let bound = (4 * self.compact_stride) as usize;
        if self.resident_after_final_compaction > bound {
            return Err(format!(
                "resident closure after the final compaction is {} nodes (gate: <= {bound}, \
                 4x the compaction stride)",
                self.resident_after_final_compaction
            ));
        }
        if self.compactions == 0 || self.reclaimed_rows == 0 {
            return Err("no compaction discarded state — the comparison is vacuous".to_string());
        }
        Ok(())
    }
}

/// Runs BENCH-COMPACTION: stream `events` deterministic events (a
/// fixed-seed mixture of sends, FIFO deliveries and round-robin
/// checkpoints over `n` processes) through (a) an engine compacted to its
/// recovery line every `compact_stride` events and (b) an uncompacted
/// control truncated to `control_events`, timing each tenth of either
/// ingest and querying the violation count after every event.
pub fn compaction_bench(
    n: usize,
    events: u64,
    control_events: u64,
    compact_stride: u64,
    seed: u64,
) -> CompactionBenchResult {
    // The daemon's engine, the R-graph core: the one engine that compacts.
    use rdt_rgraph::IncrementalAnalysis;
    use rdt_sim::Stopwatch;

    assert!(events >= 10, "need at least one event per decile");
    assert!(control_events <= events, "control runs a prefix");
    assert!(compact_stride > 0, "stride must be positive");
    let ops = compaction_stream(n, events, seed);

    let ingest = |total: u64, stride: Option<u64>| {
        let mut engine = IncrementalAnalysis::new(n);
        let mut mids: Vec<u32> = Vec::new();
        let mut deciles = Vec::with_capacity(10);
        let mut untrackable_at_cap = 0u64;
        let mut resident_after_compaction = 0usize;
        let mut done = 0u64;
        for decile in 1..=10u32 {
            let until = total * u64::from(decile) / 10;
            let watch = Stopwatch::start();
            while done < until {
                apply_compaction_op(&mut engine, &mut mids, ops[done as usize]);
                std::hint::black_box(engine.untrackable_pairs());
                done += 1;
                if done == control_events {
                    untrackable_at_cap = engine.untrackable_pairs();
                }
                if let Some(stride) = stride {
                    if done.is_multiple_of(stride) {
                        engine.compact_to_recovery_line();
                        resident_after_compaction = engine.resident_closure_nodes();
                    }
                }
            }
            let ns = watch.elapsed().as_nanos() as u64;
            let decile_events = until - (total * u64::from(decile - 1) / 10);
            deciles.push(CompactionDecile {
                decile,
                events: decile_events,
                ns,
                events_per_sec: decile_events as f64 / (ns.max(1) as f64 / 1e9),
                resident_nodes: engine.resident_closure_nodes(),
            });
        }
        (
            engine,
            deciles,
            untrackable_at_cap,
            resident_after_compaction,
        )
    };

    let (compacted_engine, compacted, untrackable_at_cap_compacted, resident_after_final) =
        ingest(events, Some(compact_stride));
    let (control_engine, control, untrackable_at_cap_control, _) = ingest(control_events, None);

    CompactionBenchResult {
        n,
        events,
        control_events,
        compact_stride,
        peak_resident_compacted: compacted
            .iter()
            .map(|d| d.resident_nodes)
            .max()
            .unwrap_or(0),
        resident_after_final_compaction: resident_after_final,
        control_final_resident: control_engine.resident_closure_nodes(),
        compactions: compacted_engine.compactions(),
        reclaimed_rows: compacted_engine.reclaimed_rows(),
        untrackable_at_cap_compacted,
        untrackable_at_cap_control,
        untrackable_final: compacted_engine.untrackable_pairs(),
        compacted,
        control,
    }
}

/// ABL-1: piggyback size versus forced-checkpoint count across the
/// protocol lattice.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// `(protocol, piggyback bytes/msg, mean R)` at the reference point.
    pub lattice: Vec<(String, f64, f64)>,
    /// Environment used.
    pub environment: String,
}

/// Runs ABL-1 in the random environment at the mid-range checkpoint
/// interval.
pub fn ablation(n: usize, seeds: &[u64], messages: u64) -> AblationResult {
    let env = EnvironmentKind::Random;
    let lattice = protocol_set()
        .into_iter()
        .map(|p| {
            let point = run_point(env, n, p, 4 * MEAN_SEND_INTERVAL, seeds, messages);
            (
                point.protocol.clone(),
                point.piggyback_bytes_per_msg,
                point.mean_r,
            )
        })
        .collect();
    AblationResult {
        lattice,
        environment: env.name().to_string(),
    }
}

/// ABL-2: sensitivity of the BHMR-vs-FDAS reduction to the request/reply
/// structure of the workload (group environment, acknowledgement
/// probability swept).
#[derive(Debug, Clone)]
pub struct SensitivityResult {
    /// `(reply probability, R_bhmr, R_fdas, reduction)` per sweep point.
    pub rows: Vec<(f64, f64, f64, f64)>,
    /// Processes and layout description.
    pub n: usize,
}

/// Runs ABL-2: the denser the request/reply echoes, the more causal
/// knowledge the piggybacked matrices certify, and the larger the BHMR
/// reduction over FDAS grows.
pub fn sensitivity(n: usize, seeds: &[u64], messages: u64) -> SensitivityResult {
    use rdt_workloads::{GroupEnvironment, GroupLayout};
    let mut rows = Vec::new();
    for &prob in &[0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let r = |protocol: ProtocolKind| -> f64 {
            let mut values = Vec::new();
            for &seed in seeds {
                let mut app =
                    GroupEnvironment::new(GroupLayout::overlapping(n, 4, 1), MEAN_SEND_INTERVAL)
                        .with_reply_probability(prob);
                let outcome = run_protocol_kind(
                    protocol,
                    &config(n, seed, 4 * MEAN_SEND_INTERVAL, messages),
                    &mut app,
                );
                values.push(outcome.stats.total.forced_ratio());
            }
            mean_std(&values).0
        };
        let bhmr = r(ProtocolKind::Bhmr);
        let fdas = r(ProtocolKind::Fdas);
        let reduction = if fdas > 0.0 {
            (fdas - bhmr) / fdas
        } else {
            0.0
        };
        rows.push((prob, bhmr, fdas, reduction));
    }
    SensitivityResult { rows, n }
}

/// NEC-1: *hindsight necessity* of forced checkpoints.
#[derive(Debug, Clone)]
pub struct NecessityResult {
    /// `(protocol, forced checkpoints examined, necessary in hindsight,
    /// necessity ratio, load-bearing basic checkpoints, basic checkpoints
    /// examined)`.
    ///
    /// A *basic* checkpoint is load-bearing when its removal breaks RDT —
    /// the protocol silently relied on it to break a chain it would
    /// otherwise have had to force on.
    pub rows: Vec<(String, u64, u64, f64, u64, u64)>,
    /// Environment used.
    pub environment: String,
}

/// Runs NEC-1: for every forced checkpoint of a run, remove it from the
/// pattern and re-check RDT. A forced checkpoint is *necessary in
/// hindsight* iff its removal breaks RDT; the ratio measures how much
/// conservativeness remains in each on-line predicate (the theme of the
/// "visible characterizations" line: with full hindsight, fewer breaks
/// suffice — an on-line protocol can only approximate).
///
/// Expectation: the BHMR predicate is sharper than FDAS, so a larger
/// fraction of its forced checkpoints is genuinely needed.
pub fn necessity(n: usize, seeds: &[u64], messages: u64) -> NecessityResult {
    let env = EnvironmentKind::Random;
    let mut rows = Vec::new();
    for protocol in [
        ProtocolKind::Bhmr,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
        ProtocolKind::Cbr,
    ] {
        let mut examined = 0u64;
        let mut necessary = 0u64;
        let mut basic_examined = 0u64;
        let mut basic_load_bearing = 0u64;
        for &seed in seeds {
            let mut app = env.build(n, MEAN_SEND_INTERVAL);
            let outcome = run_protocol_kind(
                protocol,
                &config(n, seed, 4 * MEAN_SEND_INTERVAL, messages),
                app.as_mut(),
            );
            let pattern = outcome.trace.to_pattern();
            debug_assert!(RdtChecker::new(&pattern).check().holds());
            for records in &outcome.records {
                for record in records {
                    let surgered = pattern.without_checkpoint(record.id);
                    let still_rdt = RdtChecker::new(&surgered).check().holds();
                    match record.kind {
                        rdt_core::CheckpointKind::Forced => {
                            examined += 1;
                            if !still_rdt {
                                necessary += 1;
                            }
                        }
                        rdt_core::CheckpointKind::Basic => {
                            basic_examined += 1;
                            if !still_rdt {
                                basic_load_bearing += 1;
                            }
                        }
                        rdt_core::CheckpointKind::Initial => {}
                    }
                }
            }
        }
        let ratio = if examined == 0 {
            0.0
        } else {
            necessary as f64 / examined as f64
        };
        rows.push((
            protocol.name().to_string(),
            examined,
            necessary,
            ratio,
            basic_load_bearing,
            basic_examined,
        ));
    }
    NecessityResult {
        rows,
        environment: env.name().to_string(),
    }
}

/// SCALE-1: how the protocols scale with the number of processes.
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// `(n, protocol, mean R, piggyback bytes/msg)` per sweep point.
    pub rows: Vec<(usize, String, f64, f64)>,
    /// Environment used.
    pub environment: String,
}

/// Runs SCALE-1 in the random environment: `R` and the per-message
/// piggyback cost as `n` grows, for the three piggyback classes (O(n²)
/// BHMR, O(n) FDAS, O(1) BCS).
pub fn scaling(sizes: &[usize], seeds: &[u64], messages: u64) -> ScalingResult {
    let env = EnvironmentKind::Random;
    let mut rows = Vec::new();
    for &n in sizes {
        for protocol in [ProtocolKind::Bhmr, ProtocolKind::Fdas, ProtocolKind::Bcs] {
            let point = run_point(env, n, protocol, 4 * MEAN_SEND_INTERVAL, seeds, messages);
            rows.push((
                n,
                protocol.name().to_string(),
                point.mean_r,
                point.piggyback_bytes_per_msg,
            ));
        }
    }
    ScalingResult {
        rows,
        environment: env.name().to_string(),
    }
}

/// COORD-1: coordinated (Chandy–Lamport) snapshots versus
/// communication-induced checkpointing, at matched checkpoint rates.
#[derive(Debug, Clone)]
pub struct CoordinatedResult {
    /// `(scheme, checkpoints, control messages, piggyback bytes,
    /// mean rollback distance after losing the newest checkpoint)`.
    pub rows: Vec<(String, u64, u64, u64, f64)>,
    /// Processes.
    pub n: usize,
}

/// Runs COORD-1: the same random workload either checkpoints through
/// Chandy–Lamport marker waves (control messages, zero piggyback) or
/// through CIC protocols (zero control messages, piggybacked vectors).
pub fn coordinated(n: usize, seeds: &[u64], sim_ticks: u64) -> CoordinatedResult {
    use rdt_sim::SimTime;
    use rdt_workloads::{ChandyLamport, RandomEnvironment};

    let snapshot_interval = 40 * MEAN_SEND_INTERVAL;
    let mut rows = Vec::new();

    let rollback = |pattern: &rdt_rgraph::Pattern| -> f64 {
        let mut total = 0.0;
        for i in 0..n {
            let process = ProcessId::new(i);
            let cap = pattern.last_checkpoint_index(process).saturating_sub(1);
            total += analyze(
                pattern,
                &[Failure {
                    process,
                    resume_cap: cap,
                }],
            )
            .mean_discarded();
        }
        total / n as f64
    };

    // Chandy–Lamport over an otherwise uncoordinated run.
    {
        let mut checkpoints = 0;
        let mut control = 0;
        let mut piggyback = 0;
        let mut distance = Vec::new();
        for &seed in seeds {
            let config = SimConfig::new(n)
                .with_seed(seed)
                .with_fifo(true)
                .with_delay(DelayModel::Exponential { mean: MEAN_DELAY })
                .with_basic_checkpoints(BasicCheckpointModel::Disabled)
                .with_stop(StopCondition::Time(SimTime::from_ticks(sim_ticks)));
            let mut app = ChandyLamport::new(
                RandomEnvironment::new(MEAN_SEND_INTERVAL),
                snapshot_interval,
            );
            let outcome = run_protocol_kind(ProtocolKind::Uncoordinated, &config, &mut app);
            checkpoints += outcome.stats.total.total_checkpoints();
            control += app.markers_sent();
            piggyback += outcome.stats.total.piggyback_bytes_sent;
            distance.push(rollback(&outcome.trace.to_pattern().to_closed()));
        }
        rows.push((
            "chandy-lamport".to_string(),
            checkpoints,
            control,
            piggyback,
            mean_std(&distance).0,
        ));
    }

    // CIC protocols with basic-checkpoint timers at the matched rate.
    for protocol in [ProtocolKind::Bhmr, ProtocolKind::Fdas, ProtocolKind::Bcs] {
        let mut checkpoints = 0;
        let mut piggyback = 0;
        let mut distance = Vec::new();
        for &seed in seeds {
            let config = SimConfig::new(n)
                .with_seed(seed)
                .with_fifo(true)
                .with_delay(DelayModel::Exponential { mean: MEAN_DELAY })
                .with_basic_checkpoints(BasicCheckpointModel::Exponential {
                    mean: snapshot_interval,
                })
                .with_stop(StopCondition::Time(SimTime::from_ticks(sim_ticks)));
            let mut app = RandomEnvironment::new(MEAN_SEND_INTERVAL);
            let outcome = run_protocol_kind(protocol, &config, &mut app);
            checkpoints += outcome.stats.total.total_checkpoints();
            piggyback += outcome.stats.total.piggyback_bytes_sent;
            distance.push(rollback(&outcome.trace.to_pattern().to_closed()));
        }
        rows.push((
            protocol.name().to_string(),
            checkpoints,
            0,
            piggyback,
            mean_std(&distance).0,
        ));
    }

    CoordinatedResult { rows, n }
}

/// REC-1: rollback damage after a failure, per protocol, plus the
/// checkpoint-storage picture (GC reclaim ratio).
#[derive(Debug, Clone)]
pub struct RecoveryResult {
    /// `(protocol, mean checkpoints discarded per process, mean processes
    /// rolled to initial, mean messages lost, mean GC reclaim ratio)`.
    pub rows: Vec<(String, f64, f64, f64, f64)>,
    /// Environment used.
    pub environment: String,
}

/// Runs REC-1: every process in turn loses its most recent checkpoint
/// (resume cap = last − 1); the rollback damage is averaged over failures
/// and seeds.
pub fn recovery_experiment(n: usize, seeds: &[u64], messages: u64) -> RecoveryResult {
    let env = EnvironmentKind::Random;
    let protocols = [
        ProtocolKind::Bhmr,
        ProtocolKind::Fdas,
        ProtocolKind::Cbr,
        ProtocolKind::Uncoordinated,
    ];
    let mut rows = Vec::new();
    for &protocol in &protocols {
        let mut discarded = Vec::new();
        let mut to_initial = Vec::new();
        let mut lost = Vec::new();
        let mut reclaim = Vec::new();
        for &seed in seeds {
            let mut app = env.build(n, MEAN_SEND_INTERVAL);
            let outcome = run_protocol_kind(
                protocol,
                &config(n, seed, 2 * MEAN_SEND_INTERVAL, messages),
                app.as_mut(),
            );
            let pattern = outcome.trace.to_pattern().to_closed();
            reclaim.push(rdt_recovery::gc::storage_report(&pattern).reclaim_ratio());
            for i in 0..n {
                let process = ProcessId::new(i);
                let cap = pattern.last_checkpoint_index(process).saturating_sub(1);
                let report = analyze(
                    &pattern,
                    &[Failure {
                        process,
                        resume_cap: cap,
                    }],
                );
                discarded.push(report.mean_discarded());
                to_initial.push(report.rolled_to_initial as f64);
                lost.push(report.lost_messages as f64);
            }
        }
        rows.push((
            protocol.name().to_string(),
            mean_std(&discarded).0,
            mean_std(&to_initial).0,
            mean_std(&lost).0,
            mean_std(&reclaim).0,
        ));
    }
    RecoveryResult {
        rows,
        environment: env.name().to_string(),
    }
}

/// One protocol × environment cell of BENCH-RECOVERY-EXEC, aggregated
/// over the seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryExecRow {
    /// Protocol name.
    pub protocol: String,
    /// Environment name.
    pub environment: String,
    /// Runs aggregated (one per seed).
    pub runs: u64,
    /// Crashes that actually fired across the runs.
    pub crashes: u64,
    /// Worst per-process rollback over every crash, in checkpoints.
    pub max_rollback_depth: u32,
    /// Mean (over crashes) of the per-crash worst rollback depth.
    pub mean_rollback_depth: f64,
    /// Mean (over crashes) of the number of processes rolled back.
    pub mean_domino_span: f64,
    /// Processes rolled to their initial checkpoint, total over crashes.
    pub rolled_to_initial: u64,
    /// Orphaned in-flight messages discarded, total.
    pub orphans_discarded: u64,
    /// Deliveries undone by rollbacks, total.
    pub deliveries_undone: u64,
    /// Lost messages replayed from the sender-side log, total.
    pub lost_replayed: u64,
    /// Mean simulated recovery latency (ticks rolled back), over crashes.
    pub mean_rollback_span_ticks: f64,
    /// Forced checkpoints taken, total — the price paid for bounded
    /// rollback.
    pub forced_checkpoints: u64,
}

/// BENCH-RECOVERY-EXEC: live crash injection during the run, recovery-line
/// rollback executed by the simulator, damage measured per protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryExecResult {
    /// Number of processes per run.
    pub n: usize,
    /// Messages injected per run.
    pub messages: u64,
    /// Expected crashes per 1000 ticks.
    pub crash_rate: f64,
    /// Crash budget per run.
    pub max_crashes: u32,
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// One row per environment × protocol, environment-major, in the
    /// order of [`recovery_exec_protocols`].
    pub rows: Vec<RecoveryExecRow>,
}

impl RecoveryExecResult {
    /// The row of `protocol` in `environment`, if present.
    pub fn row(&self, environment: &str, protocol: ProtocolKind) -> Option<&RecoveryExecRow> {
        self.rows
            .iter()
            .find(|row| row.environment == environment && row.protocol == protocol.name())
    }

    /// The acceptance gate of the experiment: on the domino environment,
    /// uncoordinated checkpointing must exhibit the unbounded collapse
    /// (some process rolled back to its initial state) while every
    /// RDT-ensuring protocol keeps its worst rollback strictly below the
    /// uncoordinated worst case.
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation of the first violated clause.
    pub fn rdt_bounds_domino(&self) -> Result<(), String> {
        let unc = self
            .row("domino", ProtocolKind::Uncoordinated)
            .ok_or("missing uncoordinated domino row")?;
        if unc.crashes == 0 {
            return Err("no crashes fired in the uncoordinated domino runs".to_string());
        }
        if unc.rolled_to_initial == 0 {
            return Err(
                "uncoordinated checkpointing never collapsed to the initial state on the domino \
                 workload"
                    .to_string(),
            );
        }
        for &protocol in recovery_exec_protocols() {
            if protocol == ProtocolKind::Uncoordinated {
                continue;
            }
            let row = self
                .row("domino", protocol)
                .ok_or_else(|| format!("missing domino row for {protocol}"))?;
            if row.max_rollback_depth >= unc.max_rollback_depth {
                return Err(format!(
                    "{} max rollback depth {} is not below uncoordinated's {} on domino",
                    protocol, row.max_rollback_depth, unc.max_rollback_depth
                ));
            }
        }
        Ok(())
    }
}

/// The protocol series of BENCH-RECOVERY-EXEC: the RDT family that should
/// bound rollback, plus the uncoordinated baseline that should not.
pub fn recovery_exec_protocols() -> &'static [ProtocolKind] {
    &[
        ProtocolKind::Bhmr,
        ProtocolKind::BhmrNoSimple,
        ProtocolKind::Fdas,
        ProtocolKind::Fdi,
        ProtocolKind::Uncoordinated,
    ]
}

/// Per-run summary shipped back from the worker pool (the full outcome,
/// trace included, would be needlessly heavy).
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryExecSample {
    crashes: u64,
    max_depth: u32,
    sum_max_depth: u64,
    sum_domino_span: u64,
    rolled_to_initial: u64,
    orphans_discarded: u64,
    deliveries_undone: u64,
    lost_replayed: u64,
    sum_rollback_span: u64,
    forced_checkpoints: u64,
}

/// Runs BENCH-RECOVERY-EXEC: every protocol of
/// [`recovery_exec_protocols`] under live crash injection on the domino
/// and random environments, fanned over `threads` workers. Per-point
/// seeds derive only from `(environment, seed)`, so every protocol faces
/// the same workload schedule *and* the same crash clock — the comparison
/// isolates what the checkpoints are worth when the crash actually comes.
///
/// Results are in grid order and bit-identical for every thread count.
pub fn recovery_exec(
    n: usize,
    seeds: &[u64],
    messages: u64,
    crash_rate: f64,
    max_crashes: u32,
    threads: usize,
) -> RecoveryExecResult {
    let environments = [EnvironmentKind::Domino, EnvironmentKind::Random];
    let protocols = recovery_exec_protocols();

    let mut items: Vec<(EnvironmentKind, ProtocolKind, u64)> = Vec::new();
    for (env_index, &env) in environments.iter().enumerate() {
        for &protocol in protocols {
            for &seed in seeds {
                items.push((env, protocol, SimRng::derive_seed(seed, env_index as u64)));
            }
        }
    }

    let samples = rdt_sim::parallel_map_indexed(
        &items,
        threads,
        SimScratch::new,
        |scratch, _, &(env, protocol, seed)| {
            let mut config = config(n, seed, 2 * MEAN_SEND_INTERVAL, messages)
                .with_crash_rate(crash_rate)
                .with_max_crashes(max_crashes);
            if env == EnvironmentKind::Domino {
                // The domino workload checkpoints itself (before every
                // reply); timer-driven basics would break the zigzag and
                // hand uncoordinated checkpointing a consistent line by
                // luck.
                config = config.with_basic_checkpoints(BasicCheckpointModel::Disabled);
            }
            let mut app = env.build(n, MEAN_SEND_INTERVAL);
            run_protocol_kind_with_scratch(protocol, &config, app.as_mut(), scratch, |outcome| {
                let report = outcome.recovery.as_ref().expect("crashes enabled");
                let mut sample = RecoveryExecSample {
                    crashes: report.crashes.len() as u64,
                    max_depth: report.max_rollback_depth(),
                    rolled_to_initial: report.total_rolled_to_initial() as u64,
                    orphans_discarded: report.total_orphans_discarded(),
                    deliveries_undone: report.total_deliveries_undone(),
                    lost_replayed: report.total_lost_replayed(),
                    forced_checkpoints: outcome.stats.total.forced_checkpoints,
                    ..RecoveryExecSample::default()
                };
                for crash in &report.crashes {
                    sample.sum_max_depth += u64::from(crash.max_depth());
                    sample.sum_domino_span += crash.domino_span as u64;
                    sample.sum_rollback_span += crash.rollback_span.ticks();
                }
                sample
            })
        },
        |_| {},
    );

    let mut rows = Vec::with_capacity(environments.len() * protocols.len());
    let mut cursor = samples.chunks_exact(seeds.len().max(1));
    for &env in &environments {
        for &protocol in protocols {
            let chunk = cursor.next().expect("grid covers every cell");
            let mut total = RecoveryExecSample::default();
            for sample in chunk {
                total.crashes += sample.crashes;
                total.max_depth = total.max_depth.max(sample.max_depth);
                total.sum_max_depth += sample.sum_max_depth;
                total.sum_domino_span += sample.sum_domino_span;
                total.rolled_to_initial += sample.rolled_to_initial;
                total.orphans_discarded += sample.orphans_discarded;
                total.deliveries_undone += sample.deliveries_undone;
                total.lost_replayed += sample.lost_replayed;
                total.sum_rollback_span += sample.sum_rollback_span;
                total.forced_checkpoints += sample.forced_checkpoints;
            }
            let per_crash = |sum: u64| {
                if total.crashes == 0 {
                    0.0
                } else {
                    sum as f64 / total.crashes as f64
                }
            };
            rows.push(RecoveryExecRow {
                protocol: protocol.name().to_string(),
                environment: env.name().to_string(),
                runs: chunk.len() as u64,
                crashes: total.crashes,
                max_rollback_depth: total.max_depth,
                mean_rollback_depth: per_crash(total.sum_max_depth),
                mean_domino_span: per_crash(total.sum_domino_span),
                rolled_to_initial: total.rolled_to_initial,
                orphans_discarded: total.orphans_discarded,
                deliveries_undone: total.deliveries_undone,
                lost_replayed: total.lost_replayed,
                mean_rollback_span_ticks: per_crash(total.sum_rollback_span),
                forced_checkpoints: total.forced_checkpoints,
            });
        }
    }

    RecoveryExecResult {
        n,
        messages,
        crash_rate,
        max_crashes,
        seeds: seeds.to_vec(),
        rows,
    }
}

impl ToJson for ProtocolPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("mean_r", self.mean_r.to_json()),
            ("std_r", self.std_r.to_json()),
            ("mean_forced", self.mean_forced.to_json()),
            ("mean_basic", self.mean_basic.to_json()),
            (
                "piggyback_bytes_per_msg",
                self.piggyback_bytes_per_msg.to_json(),
            ),
        ])
    }
}

impl ToJson for SweepRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("multiplier", self.multiplier.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

impl ToJson for FigureResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("environment", self.environment.to_json()),
            ("n", self.n.to_json()),
            ("messages", self.messages.to_json()),
            ("seeds", self.seeds.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for Table1Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("environments", self.environments.to_json()),
            ("multiplier", self.multiplier.to_json()),
        ])
    }
}

impl ToJson for Cor45Result {
    fn to_json(&self) -> Json {
        Json::obj([
            ("checked", self.checked.to_json()),
            ("mismatches", self.mismatches.to_json()),
            ("protocols", self.protocols.to_json()),
        ])
    }
}

impl ToJson for RdtCheckResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("runs", self.runs.to_json()),
            ("unexpected_failures", self.unexpected_failures.to_json()),
            ("uncoordinated_passes", self.uncoordinated_passes.to_json()),
        ])
    }
}

impl ToJson for ClosureBenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("repetitions", self.repetitions.to_json()),
            ("min_speedup", self.min_speedup().to_json()),
        ])
    }
}

impl ToJson for SimThroughputRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("environment", self.environment.to_json()),
            ("n", self.n.to_json()),
            ("events", self.events.to_json()),
            ("legacy_ns", self.legacy_ns.to_json()),
            ("executor_ns", self.executor_ns.to_json()),
            (
                "legacy_events_per_sec",
                self.legacy_events_per_sec.to_json(),
            ),
            (
                "executor_events_per_sec",
                self.executor_events_per_sec.to_json(),
            ),
            ("speedup", self.speedup.to_json()),
            ("legacy_allocs", self.legacy_allocs.to_json()),
            ("executor_allocs", self.executor_allocs.to_json()),
        ])
    }
}

impl ToJson for SimThroughputResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("messages", self.messages.to_json()),
            ("repetitions", self.repetitions.to_json()),
            ("alloc_counting", self.alloc_counting.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl ToJson for IncrementalBenchRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("events", self.events.to_json()),
            ("checkpoints", self.checkpoints.to_json()),
            ("incremental_ns", self.incremental_ns.to_json()),
            ("batch_est_ns", self.batch_est_ns.to_json()),
            ("speedup", self.speedup.to_json()),
            ("events_per_sec", self.events_per_sec.to_json()),
        ])
    }
}

impl ToJson for IncrementalBenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("repetitions", self.repetitions.to_json()),
            ("batch_samples", self.batch_samples.to_json()),
        ])
    }
}

impl ToJson for CompactionDecile {
    fn to_json(&self) -> Json {
        Json::obj([
            ("decile", self.decile.to_json()),
            ("events", self.events.to_json()),
            ("ns", self.ns.to_json()),
            ("events_per_sec", self.events_per_sec.to_json()),
            ("resident_nodes", self.resident_nodes.to_json()),
        ])
    }
}

impl ToJson for CompactionBenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", self.n.to_json()),
            ("events", self.events.to_json()),
            ("control_events", self.control_events.to_json()),
            ("compact_stride", self.compact_stride.to_json()),
            ("compacted", self.compacted.to_json()),
            ("control", self.control.to_json()),
            ("compactions", self.compactions.to_json()),
            ("reclaimed_rows", self.reclaimed_rows.to_json()),
            (
                "peak_resident_compacted",
                self.peak_resident_compacted.to_json(),
            ),
            (
                "resident_after_final_compaction",
                self.resident_after_final_compaction.to_json(),
            ),
            (
                "control_final_resident",
                self.control_final_resident.to_json(),
            ),
            (
                "untrackable_at_cap_compacted",
                self.untrackable_at_cap_compacted.to_json(),
            ),
            (
                "untrackable_at_cap_control",
                self.untrackable_at_cap_control.to_json(),
            ),
            ("untrackable_final", self.untrackable_final.to_json()),
            (
                "compacted_throughput_ratio",
                self.compacted_throughput_ratio().to_json(),
            ),
            (
                "control_throughput_ratio",
                self.control_throughput_ratio().to_json(),
            ),
        ])
    }
}

impl ToJson for AblationResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("lattice", self.lattice.to_json()),
            ("environment", self.environment.to_json()),
        ])
    }
}

impl ToJson for SensitivityResult {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json()), ("n", self.n.to_json())])
    }
}

impl ToJson for NecessityResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("environment", self.environment.to_json()),
        ])
    }
}

impl ToJson for ScalingResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("environment", self.environment.to_json()),
        ])
    }
}

impl ToJson for CoordinatedResult {
    fn to_json(&self) -> Json {
        Json::obj([("rows", self.rows.to_json()), ("n", self.n.to_json())])
    }
}

impl ToJson for RecoveryResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.to_json()),
            ("environment", self.environment.to_json()),
        ])
    }
}

impl ToJson for RecoveryExecRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", self.protocol.to_json()),
            ("environment", self.environment.to_json()),
            ("runs", self.runs.to_json()),
            ("crashes", self.crashes.to_json()),
            ("max_rollback_depth", self.max_rollback_depth.to_json()),
            ("mean_rollback_depth", self.mean_rollback_depth.to_json()),
            ("mean_domino_span", self.mean_domino_span.to_json()),
            ("rolled_to_initial", self.rolled_to_initial.to_json()),
            ("orphans_discarded", self.orphans_discarded.to_json()),
            ("deliveries_undone", self.deliveries_undone.to_json()),
            ("lost_replayed", self.lost_replayed.to_json()),
            (
                "mean_rollback_span_ticks",
                self.mean_rollback_span_ticks.to_json(),
            ),
            ("forced_checkpoints", self.forced_checkpoints.to_json()),
        ])
    }
}

impl ToJson for RecoveryExecResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("n", self.n.to_json()),
            ("messages", self.messages.to_json()),
            ("crash_rate", self.crash_rate.to_json()),
            ("max_crashes", self.max_crashes.to_json()),
            ("seeds", self.seeds.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

/// Per-protocol replay timing row of BENCH-CERTIFY: how long one
/// protocol takes to replay every canonical schedule of the scope
/// (replay only — engine checks excluded), from a dedicated pass so the
/// certification runs themselves stay timer-free.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyReplayRow {
    /// Protocol name.
    pub protocol: String,
    /// Wall-clock nanoseconds to replay every schedule.
    pub ns: u64,
    /// Schedules replayed.
    pub patterns: u64,
}

impl ToJson for CertifyReplayRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::Str(self.protocol.clone())),
            ("ns", self.ns.to_json()),
            ("patterns", self.patterns.to_json()),
        ])
    }
}

/// One scope-push certification run of BENCH-CERTIFY (the full `3,5`
/// sweep, the sampled `4,4` probe).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyScaleRun {
    /// The scope, rendered `n,m,b`.
    pub scope: String,
    /// Sampling fraction, when the run was sampled.
    pub sample: Option<f64>,
    /// Full-space structure count (exact even under sampling).
    pub structures: u64,
    /// Canonical realizable schedules of the scope.
    pub replayable: u64,
    /// Schedules actually replayed.
    pub replayed: u64,
    /// Wall-clock nanoseconds of the certification run.
    pub ns: u64,
    /// Whether the run certified clean.
    pub certified_ok: bool,
}

impl ToJson for CertifyScaleRun {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("scope", Json::Str(self.scope.clone())),
            ("structures", self.structures.to_json()),
            ("replayable", self.replayable.to_json()),
            ("replayed", self.replayed.to_json()),
            ("ns", self.ns.to_json()),
            ("certified_ok", Json::Bool(self.certified_ok)),
        ];
        if let Some(frac) = self.sample {
            pairs.insert(1, ("sample", Json::F64(frac)));
        }
        Json::obj(pairs)
    }
}

/// BENCH-CERTIFY: the orbit-pruned certifier at scale — wall clock,
/// throughput and the pruning/sharing accounting on the reference scope,
/// plus per-protocol replay timings and (full mode) the scope-push runs.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyScaleResult {
    /// Reference scope, rendered `n,m,b`.
    pub scope: String,
    /// Worker threads of the timed runs.
    pub threads: usize,
    /// Wall-clock nanoseconds of the certifier on the scope.
    pub orbit_ns: u64,
    /// Full-space structures covered.
    pub structures: u64,
    /// Canonical representatives retained.
    pub canonical: u64,
    /// Structures pruned as relabelings of a canonical representative
    /// (counted, never generated).
    pub orbits_pruned: u64,
    /// Canonical but unrealizable skeletons.
    pub unrealizable: u64,
    /// Schedules replayed per protocol.
    pub replayed: u64,
    /// Self-describing work units fanned across the pool.
    pub units: u64,
    /// Full layouts discarded whole by the masked relabeling compare.
    pub layouts_pruned: u64,
    /// Generation subtrees cut at interior line boundaries.
    pub subtree_cuts: u64,
    /// (schedule × protocol) replays that reused another protocol's
    /// engine verdict for the identical op stream.
    pub dedup_hits: u64,
    /// Fraction of the no-sharing replay volume avoided by prefix
    /// sharing + verdict dedup.
    pub prefix_reuse_ratio: f64,
    /// Structures covered per second.
    pub structures_per_sec: f64,
    /// Per-protocol replay timings (dedicated pass).
    pub replay: Vec<CertifyReplayRow>,
    /// Scope-push certification runs (full mode only).
    pub scope_push: Vec<CertifyScaleRun>,
}

impl CertifyScaleResult {
    /// The acceptance gates of the experiment: the numbers must come
    /// from non-vacuous pruning and verdict sharing, and every
    /// scope-push run must certify. (The report bytes are pinned by the
    /// `certify_report*` goldens, not here.)
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation of the first violated gate.
    pub fn gate(&self) -> Result<(), String> {
        if self.orbits_pruned == 0 || self.layouts_pruned + self.subtree_cuts == 0 {
            return Err("orbit pruning never fired — the measurement is vacuous".to_string());
        }
        if self.dedup_hits == 0 {
            return Err("verdict sharing never fired — the measurement is vacuous".to_string());
        }
        for run in &self.scope_push {
            if !run.certified_ok {
                return Err(format!("scope-push run {} did not certify", run.scope));
            }
        }
        Ok(())
    }
}

fn timed_certify(
    scope: &rdt_verify::Scope,
    options: &rdt_verify::CertifyOptions,
) -> (rdt_verify::CertifyReport, rdt_verify::CertifyStats, u64) {
    let watch = rdt_sim::Stopwatch::start();
    let (report, stats) = rdt_verify::certify_with_stats(scope, options);
    let ns = watch.elapsed().as_nanos() as u64;
    (report, stats, ns)
}

/// Runs BENCH-CERTIFY: the certifier over `scope` at `threads` workers
/// with the full protocol set, a dedicated per-protocol replay-timing
/// pass, and (when `push_scopes` is nonempty) the scope-push runs — e.g.
/// a full `3,5` and a sampled `4,4`.
pub fn certify_scale(
    scope: &rdt_verify::Scope,
    threads: usize,
    push_scopes: &[(rdt_verify::Scope, Option<f64>)],
) -> CertifyScaleResult {
    use rdt_verify::CertifyOptions;

    let options = CertifyOptions {
        threads,
        ..CertifyOptions::default()
    };
    // Best of two: the first run pays the page-fault/allocator warmup,
    // so a single shot understates the steady-state throughput.
    let (_, _, warm_ns) = timed_certify(scope, &options);
    let (report, stats, ns) = timed_certify(scope, &options);
    let orbit_ns = ns.min(warm_ns);

    // Per-protocol replay timing, as a dedicated pass: timing inside the
    // certification loop would put two clock reads on every one of the
    // hot path's millions of replays.
    let mut schedules = Vec::new();
    rdt_verify::enumerate_schedules_orbit(scope, |s| schedules.push(s.clone()));
    let mut replay = Vec::new();
    for protocol in rdt_verify::CertProtocol::default_set() {
        let mut out = rdt_verify::ReplayedOps::default();
        let watch = rdt_sim::Stopwatch::start();
        for schedule in &schedules {
            protocol.replay_ops(schedule, &mut out);
        }
        replay.push(CertifyReplayRow {
            protocol: protocol.name().to_string(),
            ns: watch.elapsed().as_nanos() as u64,
            patterns: schedules.len() as u64,
        });
    }

    let scope_push = push_scopes
        .iter()
        .map(|(push_scope, sample)| {
            let options = CertifyOptions {
                threads,
                sample: *sample,
                ..CertifyOptions::default()
            };
            let (report, _, ns) = timed_certify(push_scope, &options);
            CertifyScaleRun {
                scope: push_scope.to_string(),
                sample: *sample,
                structures: report.counts.structures,
                replayable: report.counts.replayable,
                replayed: report.sampled,
                ns,
                certified_ok: report.certified_ok(),
            }
        })
        .collect();

    let counts = &report.counts;
    CertifyScaleResult {
        scope: scope.to_string(),
        threads,
        orbit_ns,
        structures: counts.structures,
        canonical: counts.canonical,
        orbits_pruned: counts.pruned_symmetry,
        unrealizable: counts.unrealizable,
        replayed: counts.replayable,
        units: stats.orbit.units,
        layouts_pruned: stats.orbit.layouts_pruned,
        subtree_cuts: stats.orbit.subtree_cuts,
        dedup_hits: stats.dedup_hits,
        prefix_reuse_ratio: stats.prefix_reuse_ratio(),
        structures_per_sec: counts.structures as f64 / (orbit_ns.max(1) as f64 / 1_000_000_000.0),
        replay,
        scope_push,
    }
}

impl ToJson for CertifyScaleResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scope", Json::Str(self.scope.clone())),
            ("threads", self.threads.to_json()),
            ("orbit_ns", self.orbit_ns.to_json()),
            ("structures", self.structures.to_json()),
            ("canonical", self.canonical.to_json()),
            ("orbits_pruned", self.orbits_pruned.to_json()),
            ("unrealizable", self.unrealizable.to_json()),
            ("replayed", self.replayed.to_json()),
            ("units", self.units.to_json()),
            ("layouts_pruned", self.layouts_pruned.to_json()),
            ("subtree_cuts", self.subtree_cuts.to_json()),
            ("dedup_hits", self.dedup_hits.to_json()),
            ("prefix_reuse_ratio", self.prefix_reuse_ratio.to_json()),
            ("structures_per_sec", self.structures_per_sec.to_json()),
            ("replay", self.replay.to_json()),
            ("scope_push", self.scope_push.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_machinery_produces_full_grid() {
        let result = figure("fig7", EnvironmentKind::Random, 4, &[2, 8], &[1, 2], 150);
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert_eq!(row.points.len(), protocol_set().len());
            assert!(row.r_of(ProtocolKind::Bhmr).is_some());
            assert!(row.reduction_vs_fdas(ProtocolKind::Bhmr).is_some());
        }
    }

    #[test]
    fn corollary45_has_no_mismatches_on_small_runs() {
        let result = corollary45(EnvironmentKind::Random, 3, &[5], 60);
        assert!(result.checked > 0);
        assert_eq!(result.mismatches, 0);
    }

    #[test]
    fn rdt_check_small_grid() {
        let result = rdt_check(3, &[9], 40);
        assert_eq!(result.unexpected_failures, 0);
    }

    #[test]
    fn necessity_counts_are_sane() {
        let result = necessity(3, &[5], 60);
        for (protocol, examined, necessary, ratio, load_bearing, basics) in &result.rows {
            assert!(necessary <= examined, "{protocol}");
            assert!((0.0..=1.0).contains(ratio), "{protocol}");
            assert!(load_bearing <= basics, "{protocol}");
        }
    }

    #[test]
    fn recovery_rows_cover_protocols() {
        let result = recovery_experiment(3, &[3], 80);
        assert_eq!(result.rows.len(), 4);
        for (_, discarded, _, _, reclaim) in &result.rows {
            assert!(*discarded >= 0.0);
            assert!((0.0..=1.0).contains(reclaim));
        }
    }

    #[test]
    fn recovery_exec_gate_holds_and_is_thread_invariant() {
        let result = recovery_exec(4, &[1, 2], 200, 4.0, 2, 1);
        assert_eq!(result.rows.len(), 2 * recovery_exec_protocols().len());
        for row in &result.rows {
            assert_eq!(row.runs, 2);
            assert!(
                row.lost_replayed <= row.deliveries_undone,
                "{}",
                row.protocol
            );
        }
        result.rdt_bounds_domino().unwrap();
        // The fan-out is a pure map over the grid: any thread count yields
        // bit-identical rows.
        assert_eq!(result, recovery_exec(4, &[1, 2], 200, 4.0, 2, 4));
    }

    #[test]
    fn compaction_bench_spot_check_is_exact() {
        // Tiny scale: throughput gates are noise at this size, but the
        // differential spot-check and the reclamation counters must hold.
        let bench = compaction_bench(4, 4_000, 2_000, 250, 7);
        assert_eq!(bench.compacted.len(), 10);
        assert_eq!(bench.control.len(), 10);
        assert_eq!(
            bench.untrackable_at_cap_compacted,
            bench.untrackable_at_cap_control
        );
        assert!(bench.compactions > 0);
        assert!(bench.reclaimed_rows > 0);
        assert!(bench.peak_resident_compacted > 0);
        assert!(
            bench.resident_after_final_compaction < bench.control_final_resident,
            "compaction must actually shrink the resident closure"
        );
        // The gate's growth clause reads no clock, so it holds here too.
        let control = &bench.control;
        assert!(control
            .windows(2)
            .all(|w| w[0].resident_nodes < w[1].resident_nodes));
        assert!(bench.control_final_resident > bench.peak_resident_compacted);
    }

    #[test]
    fn sim_throughput_covers_the_dependency_lattice_in_both_environments() {
        let bench = sim_throughput(60, 1);
        assert_eq!(bench.rows.len(), 10);
        assert!(bench.row("random", ProtocolKind::Bhmr).is_some());
        assert!(bench.row("groups", ProtocolKind::Fdi).is_some());
        for row in &bench.rows {
            assert!(row.events > 0, "{}/{}", row.environment, row.protocol);
            assert!(row.legacy_ns > 0 && row.executor_ns > 0);
        }
        // No counting allocator in the test harness: the columns must
        // honestly read as disabled rather than fabricate counts.
        assert!(!bench.alloc_counting);
        assert_eq!(bench.row("random", ProtocolKind::Bhmr).unwrap().n, 8);
        assert_eq!(bench.row("groups", ProtocolKind::Bhmr).unwrap().n, 12);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - std::f64::consts::SQRT_2).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
    }

    #[test]
    fn certify_scale_spot_check_counts_and_shape() {
        // Tiny scale: the orbit accounting and the JSON shape must hold
        // exactly.
        let scope = rdt_verify::Scope::tiny();
        let sampled = rdt_verify::Scope::with_basics(2, 2, 0).expect("in range");
        let bench = certify_scale(&scope, 1, &[(sampled, Some(0.5))]);
        assert_eq!(bench.structures, 140);
        assert_eq!(bench.structures - bench.canonical, bench.orbits_pruned);
        assert_eq!(
            bench.replay.len(),
            rdt_verify::CertProtocol::default_set().len()
        );
        for row in &bench.replay {
            assert_eq!(row.patterns, bench.replayed);
        }
        assert_eq!(bench.scope_push.len(), 1);
        let push = &bench.scope_push[0];
        assert_eq!(push.sample, Some(0.5));
        assert!(push.certified_ok);
        assert!(push.replayed < push.replayable);
        let json = bench.to_json().pretty();
        for key in [
            "\"orbit_ns\"",
            "\"prefix_reuse_ratio\"",
            "\"structures_per_sec\"",
            "\"scope_push\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The head-to-head against the retired baseline pipeline is gone.
        for key in ["\"baseline_ns\"", "\"speedup\""] {
            assert!(!json.contains(key), "stale {key} in {json}");
        }
    }

    #[test]
    fn certify_scale_gate_rejects_vacuous_and_uncertified_runs() {
        let scope = rdt_verify::Scope::tiny();
        let bench = certify_scale(&scope, 1, &[(scope, None)]);
        assert_eq!(bench.gate(), Ok(()));

        let no_sharing = CertifyScaleResult {
            dedup_hits: 0,
            ..bench.clone()
        };
        assert!(no_sharing.gate().unwrap_err().contains("verdict sharing"));

        let no_pruning = CertifyScaleResult {
            orbits_pruned: 0,
            ..bench.clone()
        };
        assert!(no_pruning.gate().unwrap_err().contains("orbit pruning"));

        let mut uncertified = bench;
        uncertified.scope_push[0].certified_ok = false;
        assert!(uncertified.gate().unwrap_err().contains("did not certify"));
    }
}
