//! The certifier: replays every protocol over every enumerated pattern
//! and checks the outcomes against the offline theory.
//!
//! Per (canonical realizable schedule × protocol) the certifier checks:
//!
//! 1. **RDT conformance** — the three offline characterizations (R-path
//!    trackability, doubled message chains, doubled causal-message
//!    paths) are evaluated on the replayed pattern; they must agree with
//!    each other on *every* pattern, and must all hold for protocols
//!    that claim RDT. The third is the paper's visible form: every
//!    delivered message's sender `TDV` is at most its receiver's, lane
//!    by lane, at the checkpoints closing the two intervals.
//! 2. **Predicate conformance** — the protocol's forcing decisions match
//!    an independent re-evaluation of its predicate
//!    (see [`crate::replay`]).
//! 3. **Global-checkpoint oracles** — for every checkpoint the protocol
//!    took, the orphan-fixpoint minimum consistent global checkpoint
//!    equals the R-graph-reachability one; minimum and maximum agree on
//!    existence and are ordered; and for RDT dependency-tracking
//!    protocols the `TDV` saved with the checkpoint *is* that minimum
//!    (Corollary 4.5). A checkpoint that no consistent global checkpoint
//!    contains is on a Z-cycle: a counterexample for every protocol
//!    that claims Z-cycle freedom, BCS as well as the RDT protocols.
//!
//! Any failed check is a [`Counterexample`] carrying the schedule that
//! reproduces it. The deliberately weakened BHMR variant must produce
//! counterexamples — the report records that expectation separately so a
//! certifier that has gone blind fails loudly.
//!
//! One pipeline produces the report: self-describing work units stream
//! through the orbit-pruned enumerator (see [`crate::orbit`]), engine
//! verdicts are shared between protocols whose replay produced the
//! identical op stream, and progress can be reported on stderr. A run
//! replays every canonical realizable schedule of its scope, so a clean
//! report is a certificate for the whole scope.
//! The report bytes are pinned by the goldens
//! `tests/golden/certify_report{,_3_2_1}.json`; the second was captured
//! from the layout-fan-out pipeline this one replaced.

use std::collections::BTreeSet;

use rdt_json::{Json, ToJson};
use rdt_rgraph::{FullAnalysis, GlobalCheckpoint, Mark};
use rdt_sim::{parallel_map_indexed_observed, Stopwatch};

use crate::enumerate::{EnumerationCounts, Schedule};
use crate::orbit::{enumerate_units, OrbitContext, OrbitScratch, OrbitStats};
use crate::replay::{CertProtocol, PatternOp, ReplayedOps};
use crate::Scope;

/// One failed check, with everything needed to reproduce it by hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Protocol the check failed for.
    pub protocol: &'static str,
    /// Failed check, as a stable slug (e.g. `"rdt-violation"`).
    pub kind: &'static str,
    /// The schedule, rendered (see [`Schedule::render`]).
    pub schedule: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl ToJson for Counterexample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::Str(self.protocol.to_string())),
            ("kind", Json::Str(self.kind.to_string())),
            ("schedule", Json::Str(self.schedule.clone())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// Counterexamples *kept* per protocol (all are counted).
const MAX_KEPT: usize = 8;

/// Per-protocol tallies, merged across workers in deterministic order.
#[derive(Debug, Default, Clone)]
struct ProtocolTally {
    patterns: u64,
    rdt_violations: u64,
    predicate_mismatches: u64,
    gc_checks: u64,
    counterexample_total: u64,
    counterexamples: Vec<Counterexample>,
    failed_checks: BTreeSet<&'static str>,
}

impl ProtocolTally {
    fn note(
        &mut self,
        protocol: &CertProtocol,
        kind: &'static str,
        schedule: &Schedule,
        detail: String,
    ) {
        self.counterexample_total += 1;
        self.failed_checks.insert(kind);
        if self.counterexamples.len() < MAX_KEPT {
            self.counterexamples.push(Counterexample {
                protocol: protocol.name(),
                kind,
                schedule: schedule.render(),
                detail,
            });
        }
    }

    fn absorb(&mut self, other: ProtocolTally) {
        self.patterns += other.patterns;
        self.rdt_violations += other.rdt_violations;
        self.predicate_mismatches += other.predicate_mismatches;
        self.gc_checks += other.gc_checks;
        self.counterexample_total += other.counterexample_total;
        self.failed_checks.extend(other.failed_checks);
        for cex in other.counterexamples {
            if self.counterexamples.len() < MAX_KEPT {
                self.counterexamples.push(cex);
            }
        }
    }
}

/// Certification options. Neither option changes what a run covers:
/// every canonical realizable schedule of the scope is replayed for
/// every protocol.
///
/// ```
/// use rdt_verify::{certify, CertifyOptions, Scope};
///
/// let scope = Scope::with_basics(3, 2, 1).unwrap();
/// let options = CertifyOptions {
///     threads: 2,
///     ..CertifyOptions::default()
/// };
/// let report = certify(&scope, &options);
/// assert!(report.certified_ok());
/// for p in &report.protocols {
///     assert_eq!(p.patterns, report.counts.replayable);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CertifyOptions {
    /// Worker threads; `0` resolves to the machine's available
    /// parallelism. The report is byte-identical for every thread count.
    pub threads: usize,
    /// Emit periodic progress/ETA lines on stderr: structures/sec,
    /// orbits pruned, schedules replayed.
    pub progress: bool,
}

/// Per-protocol section of a [`CertifyReport`].
#[derive(Debug, Clone)]
pub struct ProtocolReport {
    /// Protocol name.
    pub name: &'static str,
    /// Whether the protocol claims RDT.
    pub claims_rdt: bool,
    /// Whether the protocol claims Z-cycle freedom (no useless checkpoint).
    pub claims_zcf: bool,
    /// Whether a clean report is expected (false only for the weakened
    /// control).
    pub expected_clean: bool,
    /// Patterns replayed.
    pub patterns: u64,
    /// Replayed patterns violating RDT (counterexamples iff claiming).
    pub rdt_violations: u64,
    /// Forcing-predicate disagreements with the independent oracle.
    pub predicate_mismatches: u64,
    /// Checkpoints put through the min/max consistent-GC oracles.
    pub gc_checks: u64,
    /// Total failed checks (also counts dropped counterexamples).
    pub counterexample_total: u64,
    /// Kept counterexamples, the first 8 in note order.
    pub counterexamples: Vec<Counterexample>,
    /// The [`Counterexample::kind`] of every failed check, kept or not,
    /// in slug order. Not in the JSON, whose counterexamples carry kinds.
    pub failed_checks: Vec<&'static str>,
}

impl ProtocolReport {
    /// What failed, for the protocol's report line: its claims by name
    /// (`RDT`, `Z-cycle freedom`), any other check by its kind.
    pub fn failed(&self) -> String {
        let name = |kind: &&'static str| match *kind {
            "rdt-violation" => "RDT",
            "useless-checkpoint" => "Z-cycle freedom",
            other => other,
        };
        let names: Vec<&str> = self.failed_checks.iter().map(name).collect();
        names.join(", ")
    }
}

impl ToJson for ProtocolReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("claims_rdt", Json::Bool(self.claims_rdt)),
            ("claims_zcf", Json::Bool(self.claims_zcf)),
            ("expected_clean", Json::Bool(self.expected_clean)),
            ("patterns", Json::U64(self.patterns)),
            ("rdt_violations", Json::U64(self.rdt_violations)),
            ("predicate_mismatches", Json::U64(self.predicate_mismatches)),
            ("gc_checks", Json::U64(self.gc_checks)),
            ("counterexample_total", Json::U64(self.counterexample_total)),
            ("counterexamples", self.counterexamples.to_json()),
        ])
    }
}

/// The certification verdict over one scope.
#[derive(Debug, Clone)]
pub struct CertifyReport {
    /// The exhaustively covered scope.
    pub scope: Scope,
    /// Enumeration tallies (shared by all protocols); every replayable
    /// schedule counted here was replayed for every protocol.
    pub counts: EnumerationCounts,
    /// Per-protocol results, in [`CertProtocol::default_set`] order.
    pub protocols: Vec<ProtocolReport>,
}

impl CertifyReport {
    /// `true` iff every protocol expected to be clean has zero failed
    /// checks **and** every protocol expected to be caught (the weakened
    /// control) produced at least one counterexample. Note the second
    /// half only binds at scopes large enough for `C1` to matter
    /// (`n >= 3`, `m >= 2`); below that the control is vacuously
    /// indistinguishable and exempt.
    pub fn certified_ok(&self) -> bool {
        let control_binds = self.scope.processes >= 3 && self.scope.messages >= 2;
        self.protocols.iter().all(|p| {
            if p.expected_clean {
                p.counterexample_total == 0
            } else {
                !control_binds || p.counterexample_total > 0
            }
        })
    }

    /// The per-protocol section for `name`, if certified.
    pub fn protocol(&self, name: &str) -> Option<&ProtocolReport> {
        self.protocols.iter().find(|p| p.name == name)
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let c = &self.counts;
        let mut out = format!(
            "scope {}: {} structures, {} canonical ({} pruned by symmetry), \
             {} unrealizable, {} patterns replayed\n",
            self.scope, c.structures, c.canonical, c.pruned_symmetry, c.unrealizable, c.replayable,
        );
        let control_binds = self.scope.processes >= 3 && self.scope.messages >= 2;
        for p in &self.protocols {
            let verdict = if p.counterexample_total == 0 {
                if p.expected_clean {
                    "ok".to_string()
                } else if control_binds {
                    "MISSED (control produced no counterexample)".to_string()
                } else {
                    "control not binding at this scope (needs n>=3, m>=2)".to_string()
                }
            } else {
                let (what, total) = (p.failed(), p.counterexample_total);
                let head = if p.expected_clean {
                    "FAILED"
                } else {
                    "caught as expected:"
                };
                format!("{head} {what} ({total} counterexamples)")
            };
            out.push_str(&format!(
                "  {:14} claims_rdt={:5} claims_zcf={:5} rdt_violations={:6} predicate_mismatches={} gc_checks={:6}  {}\n",
                p.name, p.claims_rdt, p.claims_zcf, p.rdt_violations, p.predicate_mismatches, p.gc_checks, verdict,
            ));
            for cex in &p.counterexamples {
                out.push_str(&format!(
                    "    [{}] {}: {}\n",
                    cex.kind, cex.schedule, cex.detail
                ));
            }
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.certified_ok() {
                "CERTIFIED"
            } else {
                "NOT CERTIFIED"
            }
        ));
        out
    }
}

impl ToJson for CertifyReport {
    fn to_json(&self) -> Json {
        let c = &self.counts;
        Json::obj([
            ("scope", Json::Str(self.scope.to_string())),
            ("processes", Json::U64(self.scope.processes as u64)),
            ("messages", Json::U64(self.scope.messages as u64)),
            ("basics", Json::U64(self.scope.basics as u64)),
            ("enumerated", Json::U64(c.structures)),
            ("canonical", Json::U64(c.canonical)),
            ("pruned_symmetry", Json::U64(c.pruned_symmetry)),
            ("unrealizable", Json::U64(c.unrealizable)),
            ("replayed", Json::U64(c.replayable)),
            ("certified_ok", Json::Bool(self.certified_ok())),
            ("protocols", self.protocols.to_json()),
        ])
    }
}

/// One protocol's prefix-sharing replay state, reused across schedules.
///
/// Consecutive enumerated schedules differ in a suffix, so consecutive
/// replays of the same protocol produce op streams sharing a prefix. The
/// session keeps one [`FullAnalysis`] loaded with the previous op
/// stream plus a [`Mark`] per op: loading the next stream rewinds to the
/// longest common prefix and appends only the differing suffix — the
/// replay trie is walked implicitly, one branch at a time.
struct CertSession {
    incr: FullAnalysis,
    ops: Vec<PatternOp>,
    /// `marks[i]` = engine state after `ops[..i]` (so `marks[0]` is the
    /// empty pattern).
    marks: Vec<Mark>,
    /// Reused replay output buffers.
    run: ReplayedOps,
    /// Reused global-checkpoint oracle buffers (min fixpoint, min via
    /// R-graph, max), each `n` entries.
    gc_bufs: [Vec<u32>; 3],
}

impl CertSession {
    fn new(n: usize) -> Self {
        let incr = FullAnalysis::layered(n);
        let start = incr.mark();
        CertSession {
            incr,
            ops: Vec::new(),
            marks: vec![start],
            run: ReplayedOps::default(),
            gc_bufs: [vec![0; n], vec![0; n], vec![0; n]],
        }
    }

    /// Rewinds to the longest prefix shared with the loaded stream, then
    /// appends the rest of `self.run.ops`. Returns how many ops were
    /// appended (the prefix-sharing savings are `ops.len() - appended`).
    fn load_run(&mut self) -> u64 {
        let ops = &self.run.ops;
        let shared = self
            .ops
            .iter()
            .zip(ops.iter())
            .take_while(|(a, b)| a == b)
            .count();
        // A `FullAnalysis` can neither compact nor be restored, so its
        // journal holds its whole history, and `marks` is cut back with
        // `ops`: every mark held is a position at or below the journal's end.
        self.incr.rewind(self.marks[shared]);
        self.ops.truncate(shared);
        self.marks.truncate(shared + 1);
        self.append_suffix(shared)
    }

    fn append_suffix(&mut self, shared: usize) -> u64 {
        let ops = &self.run.ops;
        let appended = (ops.len() - shared) as u64;
        for &op in &ops[shared..] {
            match op {
                PatternOp::Checkpoint(process) => {
                    self.incr.append_checkpoint(process);
                }
                PatternOp::Send { from, to } => {
                    self.incr.append_send(from, to);
                }
                PatternOp::Deliver(message) => self.incr.append_deliver(message),
            }
            self.ops.push(op);
            self.marks.push(self.incr.mark());
        }
        appended
    }
}

/// Deterministic work tallies of one certification run. Every field is a
/// pure function of the scope — identical for every thread count — so
/// stats can be pinned by goldens; wall time is measured by callers. The
/// schedules replayed are the report's `counts.replayable`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CertifyStats {
    /// Orbit enumeration tallies.
    pub orbit: OrbitStats,
    /// Σ op-stream lengths over every (schedule × protocol) replay — the
    /// volume a no-sharing engine would append.
    pub ops_total: u64,
    /// Ops actually appended to replay engines; prefix sharing and
    /// verdict dedup both show up as `ops_appended < ops_total`.
    pub ops_appended: u64,
    /// Engine load/rewind calls (one per *distinct* op stream under
    /// verdict sharing).
    pub engine_loads: u64,
    /// (schedule × protocol) replays whose op stream matched an earlier
    /// protocol's for the same schedule and reused its engine verdict.
    pub dedup_hits: u64,
}

impl CertifyStats {
    /// Fraction of the no-sharing replay volume that prefix sharing and
    /// verdict dedup avoided appending (`0.0` when nothing was replayed).
    pub fn prefix_reuse_ratio(&self) -> f64 {
        if self.ops_total == 0 {
            0.0
        } else {
            1.0 - self.ops_appended as f64 / self.ops_total as f64
        }
    }

    fn absorb(&mut self, other: &CertifyStats) {
        self.orbit.absorb(&other.orbit);
        self.ops_total += other.ops_total;
        self.ops_appended += other.ops_appended;
        self.engine_loads += other.engine_loads;
        self.dedup_hits += other.dedup_hits;
    }
}

/// The engine-side verdict of one replayed op stream: everything the
/// per-protocol bookkeeping needs, detached from any one protocol.
/// Protocols whose replay of a schedule produced the *identical*
/// [`ReplayedOps`] share one verdict — the theory checks are pure
/// functions of the stream, so computing them once is the same as
/// computing them per protocol. Note details are rendered here, once;
/// their wording is pinned by `tests/golden/certify_report_3_2_1.json`.
#[derive(Debug, Default, Clone)]
struct ScheduleVerdict {
    rpaths_ok: bool,
    /// `characterization-disagreement` detail, when the three offline
    /// characterizations disagreed.
    chars_note: Option<String>,
    /// `rdt-violation` detail (meaningful iff `!rpaths_ok`).
    rdt_note: String,
    records: Vec<RecordVerdict>,
}

/// Per-checkpoint-record slice of a [`ScheduleVerdict`].
#[derive(Debug, Clone)]
enum RecordVerdict {
    /// Record id beyond the pattern (`missing-checkpoint` detail); no GC
    /// check was run.
    Beyond(String),
    /// The two min oracles disagreed (`min-gc-oracle-disagreement`
    /// detail); remaining checks skipped.
    MinOracleDisagree(String),
    /// Oracles ran to completion.
    Checked {
        /// `min-above-max` or `min-max-existence-disagreement`.
        order_note: Option<(&'static str, String)>,
        /// `useless-checkpoint` detail — `Some` iff no consistent global
        /// checkpoint contains the record; noted for ZCF-claiming
        /// protocols.
        useless: Option<String>,
        /// `tdv-min-gc-mismatch` detail — `Some` iff the record carried
        /// a saved min and it mismatched; noted for TDV protocols.
        tdv_note: Option<String>,
    },
}

/// Loads the session's replayed stream into its engine and evaluates
/// every stream-level theory check into `verdict`. Returns the ops
/// appended to the engine.
///
/// All theory checks run on the session's incremental engine, on the
/// temporarily closed state, and read three independent sources: the RDT
/// verdict and untrackable count off the `reach` vectors, characterization
/// 2 off the chain closures, characterization 3 off the `TDV`s alone (no
/// message of it may have `TDV_k^s > TDV_j^y` in a lane), and the GC
/// oracles. Results are identical to a from-scratch batch analysis (held
/// to it by the differential suite in `rdt-rgraph`).
fn compute_verdict(session: &mut CertSession, verdict: &mut ScheduleVerdict) -> u64 {
    let appended = session.load_run();
    let CertSession {
        incr, run, gc_bufs, ..
    } = session;
    let records = &run.records;
    verdict.chars_note = None;
    verdict.rdt_note.clear();
    verdict.records.clear();
    incr.with_closed(|view| {
        let rpaths_ok = view.rdt_holds();
        let chains_ok = view.all_chains_doubled();
        let cm_ok = view.visible_holds();
        verdict.rpaths_ok = rpaths_ok;
        if rpaths_ok != chains_ok || rpaths_ok != cm_ok {
            verdict.chars_note = Some(format!(
                "r-paths={rpaths_ok} chains={chains_ok} cm-paths={cm_ok}"
            ));
        }
        if !rpaths_ok {
            verdict.rdt_note = format!("{} untrackable R-path(s)", view.violations_capped());
        }
        // Global-checkpoint oracles, per protocol-reported checkpoint, on
        // the closed pattern the view holds. The allocation-free `_into`
        // oracle forms share three buffers across all records; owned
        // `GlobalCheckpoint`s are only materialized on the (rare) note
        // paths.
        let [min_buf, via_buf, max_buf] = gc_bufs;
        let gc_of = |exists: bool, buf: &[u32]| exists.then(|| GlobalCheckpoint::new(buf.to_vec()));
        for record in records {
            if record.id.index > view.last_checkpoint_index(record.id.process) {
                verdict.records.push(RecordVerdict::Beyond(format!(
                    "protocol reported {} beyond the pattern",
                    record.id
                )));
                continue;
            }
            let members = [record.id];
            let min_ok = view.min_consistent_containing_into(&members, min_buf);
            let via_ok = view.min_consistent_via_rgraph_into(&members, via_buf);
            if min_ok != via_ok || (min_ok && min_buf != via_buf) {
                let fixpoint = gc_of(min_ok, min_buf);
                let via_rgraph = gc_of(via_ok, via_buf);
                verdict
                    .records
                    .push(RecordVerdict::MinOracleDisagree(format!(
                        "{}: fixpoint {fixpoint:?} != r-graph {via_rgraph:?}",
                        record.id
                    )));
                continue;
            }
            let max_ok = view.max_consistent_containing_into(&members, max_buf);
            let order_note = match (min_ok, max_ok) {
                (true, true) => {
                    if min_buf.iter().zip(max_buf.iter()).all(|(lo, hi)| lo <= hi) {
                        None
                    } else {
                        let (lo, hi) = (
                            GlobalCheckpoint::new(min_buf.clone()),
                            GlobalCheckpoint::new(max_buf.clone()),
                        );
                        Some((
                            "min-above-max",
                            format!("{}: min {lo} > max {hi}", record.id),
                        ))
                    }
                }
                (false, false) => None,
                _ => {
                    let (lo, hi) = (gc_of(min_ok, min_buf), gc_of(max_ok, max_buf));
                    Some((
                        "min-max-existence-disagreement",
                        format!("{}: min {lo:?}, max {hi:?}", record.id),
                    ))
                }
            };
            let useless = (!min_ok).then(|| format!("{} is on a Z-cycle", record.id));
            let tdv_note = match &record.min_consistent_gc {
                Some(reported) if !(min_ok && min_buf.as_slice() == reported.as_slice()) => {
                    Some(format!(
                        "{}: saved TDV {:?}, oracle min {:?} (Corollary 4.5)",
                        record.id,
                        reported,
                        min_ok.then_some(&min_buf[..])
                    ))
                }
                _ => None,
            };
            verdict.records.push(RecordVerdict::Checked {
                order_note,
                useless,
                tdv_note,
            });
        }
    });
    appended
}

/// Applies a shared [`ScheduleVerdict`] to one protocol's tally. The
/// note order decides which counterexamples are kept, so it is part of
/// the report bytes the goldens pin.
fn apply_verdict(
    protocol: &CertProtocol,
    schedule: &Schedule,
    run: &ReplayedOps,
    verdict: &ScheduleVerdict,
    tally: &mut ProtocolTally,
) {
    tally.patterns += 1;
    tally.predicate_mismatches += run.predicate_mismatches.len() as u64;
    for mismatch in &run.predicate_mismatches {
        tally.note(
            protocol,
            "predicate-mismatch",
            schedule,
            format!(
                "event {}: oracle says force={}, protocol forced={}",
                mismatch.event_index, mismatch.oracle_forces, mismatch.protocol_forced
            ),
        );
    }
    if let Some(detail) = &verdict.chars_note {
        tally.note(
            protocol,
            "characterization-disagreement",
            schedule,
            detail.clone(),
        );
    }
    if !verdict.rpaths_ok {
        tally.rdt_violations += 1;
        if protocol.claims_rdt() {
            tally.note(
                protocol,
                "rdt-violation",
                schedule,
                verdict.rdt_note.clone(),
            );
        }
    }
    for record in &verdict.records {
        match record {
            RecordVerdict::Beyond(detail) => {
                tally.note(protocol, "missing-checkpoint", schedule, detail.clone());
            }
            RecordVerdict::MinOracleDisagree(detail) => {
                tally.gc_checks += 1;
                tally.note(
                    protocol,
                    "min-gc-oracle-disagreement",
                    schedule,
                    detail.clone(),
                );
            }
            RecordVerdict::Checked {
                order_note,
                useless,
                tdv_note,
            } => {
                tally.gc_checks += 1;
                if let Some((kind, detail)) = order_note {
                    tally.note(protocol, kind, schedule, detail.clone());
                }
                if protocol.claims_zcf() {
                    if let Some(detail) = useless {
                        tally.note(protocol, "useless-checkpoint", schedule, detail.clone());
                    }
                }
                if protocol.check_reported_min_gc() {
                    if let Some(detail) = tdv_note {
                        tally.note(protocol, "tdv-min-gc-mismatch", schedule, detail.clone());
                    }
                }
            }
        }
    }
}

fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
}

/// Exhaustively certifies [`CertProtocol::default_set`] over `scope` (see
/// [`certify_with_stats`] for the work tallies).
pub fn certify(scope: &Scope, options: &CertifyOptions) -> CertifyReport {
    certify_with_stats(scope, options).0
}

/// Per-unit result (merged in unit order).
struct UnitOutcome {
    counts: EnumerationCounts,
    stats: CertifyStats,
    tallies: Vec<ProtocolTally>,
}

/// Worker-local state: enumeration scratch, one replay session per
/// protocol, and the reused verdict slots.
struct OrbitWorker {
    scratch: OrbitScratch,
    sessions: Vec<CertSession>,
    verdicts: Vec<ScheduleVerdict>,
    rep_of: Vec<usize>,
}

/// [`certify`] plus the run's deterministic work tallies.
///
/// Work units are the parallel items, fanned out over the work-stealing
/// engine; per-unit tallies are merged in unit order, so the report is
/// byte-identical for every thread count. Each worker owns one
/// prefix-sharing `CertSession` per protocol; the unit stream's prefix
/// ordering keeps consecutive op streams similar, which is what the
/// sessions' rewind-and-append feeds on.
pub fn certify_with_stats(
    scope: &Scope,
    options: &CertifyOptions,
) -> (CertifyReport, CertifyStats) {
    let threads = resolve_threads(options.threads);
    let protocols = &CertProtocol::default_set();
    let n = scope.processes;
    let ctx = OrbitContext::new(scope);
    let units = enumerate_units(scope);

    let progress = options.progress;
    let total_units = units.len();
    let watch = Stopwatch::start();
    let mut seen_structures = 0u64;
    let mut seen_pruned = 0u64;
    let mut seen_schedules = 0u64;
    let mut last_emit = 0.0f64;
    let outcomes = parallel_map_indexed_observed(
        &units,
        threads,
        || OrbitWorker {
            scratch: OrbitScratch::new(scope),
            sessions: protocols.iter().map(|_| CertSession::new(n)).collect(),
            verdicts: vec![ScheduleVerdict::default(); protocols.len()],
            rep_of: Vec::with_capacity(protocols.len()),
        },
        |worker, _, unit| {
            let mut counts = EnumerationCounts::default();
            let mut stats = CertifyStats::default();
            let mut tallies = vec![ProtocolTally::default(); protocols.len()];
            let OrbitWorker {
                scratch,
                sessions,
                verdicts,
                rep_of,
            } = worker;
            ctx.run_unit(
                unit,
                scratch,
                &mut counts,
                &mut stats.orbit,
                &mut |schedule, _| {
                    for (protocol, session) in protocols.iter().zip(sessions.iter_mut()) {
                        protocol.replay_ops(schedule, &mut session.run);
                    }
                    // Verdict sharing: the first protocol with a given
                    // replayed stream is its representative; the rest reuse
                    // its engine verdict without touching their engines.
                    rep_of.clear();
                    for i in 0..protocols.len() {
                        stats.ops_total += sessions[i].run.ops.len() as u64;
                        let rep = (0..i)
                            .find(|&j| sessions[j].run == sessions[i].run)
                            .unwrap_or(i);
                        rep_of.push(rep);
                        if rep == i {
                            stats.engine_loads += 1;
                        } else {
                            stats.dedup_hits += 1;
                        }
                    }
                    for i in 0..protocols.len() {
                        if rep_of[i] == i {
                            stats.ops_appended +=
                                compute_verdict(&mut sessions[i], &mut verdicts[i]);
                        }
                    }
                    for (i, protocol) in protocols.iter().enumerate() {
                        apply_verdict(
                            protocol,
                            schedule,
                            &sessions[i].run,
                            &verdicts[rep_of[i]],
                            &mut tallies[i],
                        );
                    }
                },
            );
            UnitOutcome {
                counts,
                stats,
                tallies,
            }
        },
        |done, outcome| {
            if !progress {
                return;
            }
            seen_structures += outcome.counts.structures;
            seen_pruned += outcome.counts.pruned_symmetry;
            seen_schedules += outcome.counts.replayable;
            let elapsed = watch.elapsed_secs();
            if elapsed - last_emit >= 1.0 || done == total_units {
                last_emit = elapsed;
                let frac = done as f64 / total_units.max(1) as f64;
                let eta = elapsed * (1.0 - frac) / frac.max(1e-9);
                eprintln!(
                    "certify: {done}/{total_units} units | {seen_structures} structures \
                     ({rate:.0}/s) | {seen_pruned} pruned by symmetry | {seen_schedules} \
                     schedules replayed | ETA {eta:.0}s",
                    rate = seen_structures as f64 / elapsed.max(1e-9),
                );
            }
        },
    );

    let mut counts = EnumerationCounts::default();
    let mut stats = CertifyStats::default();
    let mut merged = vec![ProtocolTally::default(); protocols.len()];
    for outcome in outcomes {
        counts.absorb(&outcome.counts);
        stats.absorb(&outcome.stats);
        for (into, tally) in merged.iter_mut().zip(outcome.tallies) {
            into.absorb(tally);
        }
    }
    let report = CertifyReport {
        scope: *scope,
        counts,
        protocols: protocols
            .iter()
            .zip(merged)
            .map(|(protocol, tally)| ProtocolReport {
                name: protocol.name(),
                claims_rdt: protocol.claims_rdt(),
                claims_zcf: protocol.claims_zcf(),
                expected_clean: protocol.expected_clean(),
                patterns: tally.patterns,
                rdt_violations: tally.rdt_violations,
                predicate_mismatches: tally.predicate_mismatches,
                gc_checks: tally.gc_checks,
                counterexample_total: tally.counterexample_total,
                counterexamples: tally.counterexamples,
                failed_checks: tally.failed_checks.into_iter().collect(),
            })
            .collect(),
    };
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(scope: Scope, threads: usize) -> CertifyReport {
        let options = CertifyOptions {
            threads,
            ..CertifyOptions::default()
        };
        certify(&scope, &options)
    }

    #[test]
    fn tiny_scope_certifies_cleanly() {
        let report = quick(Scope::tiny(), 1);
        for p in &report.protocols {
            assert_eq!(
                p.counterexample_total, 0,
                "{}: {:?}",
                p.name, p.counterexamples
            );
        }
        // n=2: the weakened control is exempt, so the verdict is clean.
        assert!(report.certified_ok(), "{}", report.render());
    }

    #[test]
    fn weakened_control_is_caught_at_three_processes() {
        let scope = Scope::with_basics(3, 2, 0).unwrap();
        let report = quick(scope, 2);
        let weak = report
            .protocol("bhmr-c2only")
            .expect("control in default set");
        assert!(weak.counterexample_total > 0, "{}", report.render());
        assert!(weak.rdt_violations > 0);
        assert!(weak
            .counterexamples
            .iter()
            .any(|cex| cex.kind == "rdt-violation"));
        let full = report.protocol("bhmr").expect("bhmr in default set");
        assert_eq!(full.counterexample_total, 0, "{:?}", full.counterexamples);
        assert!(report.certified_ok(), "{}", report.render());
    }

    #[test]
    fn non_claiming_protocols_violate_without_counterexamples() {
        let scope = Scope::with_basics(3, 2, 0).unwrap();
        let report = quick(scope, 2);
        let unco = report.protocol("uncoordinated").expect("in default set");
        assert!(unco.rdt_violations > 0, "{}", report.render());
        assert_eq!(unco.counterexample_total, 0);
    }

    /// A useless checkpoint is a counterexample for every protocol that
    /// claims Z-cycle freedom, BCS included, and for no other.
    #[test]
    fn useless_checkpoints_count_against_every_zcf_claim() {
        use crate::enumerate::DriverEvent;
        use rdt_core::ProtocolKind;
        let schedule = Schedule {
            n: 2,
            events: vec![DriverEvent::Basic { process: 0 }],
            messages: Vec::new(),
        };
        let verdict = ScheduleVerdict {
            rpaths_ok: true,
            records: vec![RecordVerdict::Checked {
                order_note: None,
                useless: Some("C(0,1) is on a Z-cycle".to_string()),
                tdv_note: None,
            }],
            ..ScheduleVerdict::default()
        };
        let useless_noted = |kind: ProtocolKind| {
            let mut tally = ProtocolTally::default();
            let run = ReplayedOps::default();
            let protocol = CertProtocol::Kind(kind);
            apply_verdict(&protocol, &schedule, &run, &verdict, &mut tally);
            tally
                .counterexamples
                .iter()
                .filter(|cex| cex.kind == "useless-checkpoint")
                .count()
        };
        assert_eq!(useless_noted(ProtocolKind::Bcs), 1);
        assert_eq!(useless_noted(ProtocolKind::Bhmr), 1);
        assert_eq!(useless_noted(ProtocolKind::Uncoordinated), 0);
    }

    #[test]
    fn report_is_identical_for_every_thread_count() {
        let scope = Scope::with_basics(3, 2, 1).unwrap();
        let options = CertifyOptions {
            threads: 1,
            ..CertifyOptions::default()
        };
        let one = certify(&scope, &options).to_json().pretty();
        for threads in [2, 5, 8] {
            let many = certify(
                &scope,
                &CertifyOptions {
                    threads,
                    ..options.clone()
                },
            )
            .to_json()
            .pretty();
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn gc_oracles_run_on_protocol_checkpoints() {
        let report = quick(Scope::tiny(), 1);
        let fdi = report.protocol("fdi").expect("fdi in default set");
        assert!(fdi.gc_checks > 0);
    }

    /// Verdict sharing fires (identical protocol streams are common) and
    /// prefix reuse is visible in the stats — while the report stays
    /// byte-identical across thread counts (covered above). Stats are
    /// themselves deterministic at a fixed thread count of 1.
    #[test]
    fn orbit_stats_are_deterministic_and_show_reuse() {
        let scope = Scope::with_basics(3, 2, 0).unwrap();
        let options = CertifyOptions {
            threads: 1,
            ..CertifyOptions::default()
        };
        let (report, one) = certify_with_stats(&scope, &options);
        let (_, two) = certify_with_stats(&scope, &options);
        assert_eq!(one, two);
        assert!(one.dedup_hits > 0, "{one:?}");
        assert!(one.ops_appended < one.ops_total, "{one:?}");
        assert!(one.prefix_reuse_ratio() > 0.0);
        assert!(one.orbit.layouts_pruned + one.orbit.subtree_cuts > 0);
        assert!(report.counts.replayable > 0 && one.orbit.units > 0);
    }

    /// A run is a certificate: the certifier's replay count is the serial
    /// orbit enumerator's schedule count, and every protocol replayed
    /// each of those schedules.
    #[test]
    fn every_protocol_replays_every_enumerated_schedule() {
        let scope = Scope::with_basics(3, 2, 1).unwrap();
        let mut emitted = 0u64;
        let counts = crate::enumerate_schedules_orbit(&scope, |_| emitted += 1);
        let report = quick(scope, 3);
        assert_eq!(report.counts, counts);
        assert_eq!(report.counts.replayable, emitted);
        for p in &report.protocols {
            assert_eq!(p.patterns, emitted, "{}", p.name);
        }
    }

    /// Every (schedule × protocol) replay either loads an engine or
    /// reuses an earlier protocol's verdict for the same schedule; none
    /// is skipped.
    #[test]
    fn every_replay_is_loaded_or_shares_a_verdict() {
        let scope = Scope::with_basics(3, 3, 0).unwrap();
        let options = CertifyOptions {
            threads: 2,
            ..CertifyOptions::default()
        };
        let (report, stats) = certify_with_stats(&scope, &options);
        let pairs = report.counts.replayable * report.protocols.len() as u64;
        assert!(pairs > 0);
        assert_eq!(stats.engine_loads + stats.dedup_hits, pairs, "{stats:?}");
    }
}
