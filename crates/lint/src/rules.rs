//! The rule catalog and the per-file analyses.
//!
//! Every rule here runs on the parsed [`SourceFile`] from
//! [`crate::syntax`] — token sequences with spans, function bodies with
//! scope structure, guard chains, and `let` dataflow — instead of the
//! byte-substring matching of the original lexical linter. The six
//! legacy rules keep their IDs and semantics; four syntax-aware rules
//! join them:
//!
//! * `index-underflow` — unguarded `expr - <const>` on index/interval
//!   expressions (guard dominance over the block chain),
//! * `seed-provenance` — RNG seed arguments must trace to
//!   `derive_seed`/config fields through `let`s and params,
//! * `panic-reachability` — whole-workspace call-graph search from the
//!   protocol entry points to panic sites (in [`crate::graph`]),
//! * `arena-slot-escape` — executor arena offsets/borrows stored into
//!   values that outlive the round.

use crate::syntax::{
    guard_chain, resolve_let, FnRef, Guard, Item, ItemKind, Scope, SourceFile, StmtKind, TokRange,
};
use crate::Diagnostic;

/// One catalog entry: id, one-line summary, and the long `--explain`
/// text.
pub struct RuleInfo {
    /// Stable rule id (used in diagnostics and `lint.allow`).
    pub id: &'static str,
    /// One-line summary for `--rules` and diagnostics.
    pub summary: &'static str,
    /// Multi-line explanation for `--explain <id>`.
    pub explain: &'static str,
}

/// The full rule catalog, in documentation order.
pub const CATALOG: &[RuleInfo] = &[
    RuleInfo {
        id: "hash-collections",
        summary: "hash-ordered collection in a deterministic result path; \
                  use BTreeMap/BTreeSet or a Vec",
        explain: "Result paths (crates/core, sim, bench, rgraph, verify) must \
produce bit-identical output for any thread count and platform. HashMap and \
HashSet iterate in randomized order, so any fold over them is \
nondeterministic. Use BTreeMap/BTreeSet, or a Vec indexed by the dense \
process/checkpoint ids the workspace already assigns.",
    },
    RuleInfo {
        id: "wall-clock",
        summary: "host clock read outside the metrics layer; route timing \
                  through rdt_sim::Stopwatch in a metrics.rs",
        explain: "Reading Instant or SystemTime anywhere but a designated \
metrics.rs lets wall-clock time leak into results, breaking replayability. \
Timing belongs behind rdt_sim::Stopwatch inside a metrics layer, where the \
golden-fixture scrubber already knows to erase it.",
    },
    RuleInfo {
        id: "protocol-unwrap",
        summary: "unwrap/expect in protocol or certifier state-machine \
                  code; propagate an error instead",
        explain: "A panic inside a protocol state machine or the certifier \
aborts an entire sweep or replay, losing every in-flight result. Return a \
Result and let the caller decide. This rule is the lexical ancestor of \
panic-reachability, kept for exact file-scoped coverage of crates/core, \
crates/verify and the rgraph replay shim.",
    },
    RuleInfo {
        id: "batch-in-loop",
        summary: "batch analysis constructor in per-event simulator or \
                  certifier code; maintain one rdt_rgraph::IncrementalAnalysis \
                  and append events instead",
        explain: "Constructing PatternAnalysis/ZigzagReachability \
inside per-event code rebuilds closures from scratch at every step — the \
exact O(n²) collapse PR 4 removed. Keep one IncrementalAnalysis alive and \
append. The bench crate is exempt: comparing batch against incremental is \
its job.",
    },
    RuleInfo {
        id: "sweep-seed",
        summary: "ad-hoc RNG seeding in sweep code; derive per-point seeds \
                  with SimRng::derive_seed",
        explain: "Sweep results are only reproducible if every grid point's \
seed is a pure function of the sweep's base seed and the point's index. \
SimRng::seed(<anything ad hoc>) in crates/bench breaks that contract; use \
SimRng::derive_seed(base, point_index). seed-provenance generalizes this \
check to dataflow; this rule keeps the hard bench-crate ban.",
    },
    RuleInfo {
        id: "alloc-in-step",
        summary: "heap allocation in an executor send/arrival step; write \
                  piggybacks into the recycled scratch arena instead",
        explain: "before_send and on_message_arrival are the zero-allocation \
hot path: BENCH-SIM-THROUGHPUT gates on allocation counts. Vec::new, \
.to_vec and .clone in those bodies allocate per message. Write into the \
recycled piggyback arena (ExecutorState slabs) instead.",
    },
    RuleInfo {
        id: "index-underflow",
        summary: "unguarded `- <const>` on an index/interval expression; \
                  guard with a positivity check or use checked_sub",
        explain: "Interval indices are 1-based (interval k sits between \
checkpoints k-1 and k), so `x.index - 1`, `x.interval - 1` and `*_iv - 1` \
underflow at the first interval — the exact PR 5 recovery-line bug. The \
rule flags subtraction of a constant from an index-shaped expression \
(.index / .interval fields, idents ending in _iv, loop variables over \
0-based ranges) unless a dominating guard proves positivity: an enclosing \
`if x > 0`-style condition, the negation of an `== 0` early exit, an \
assert!/debug_assert! on the value, or a loop range that starts above \
zero. checked_sub/saturating_sub/clamp never match the pattern and are \
always fine.",
    },
    RuleInfo {
        id: "seed-provenance",
        summary: "RNG seed does not trace to derive_seed or a config \
                  field; literals and entropy sources are forbidden",
        explain: "Every RNG in crates/sim, crates/bench and src must be \
seeded from the experiment configuration: SimRng::derive_seed(base, point) \
or a SimConfig field. The rule follows each seed argument \
(SimRng::seed / seed_from_u64 / from_seed) backwards through let-bindings \
and function parameters; an integer literal or an entropy source \
(thread_rng, SystemTime, ...) anywhere in that dataflow is a finding. \
Opaque values (params, struct fields) are trusted — their call sites are \
checked where the value is born.",
    },
    RuleInfo {
        id: "panic-reachability",
        summary: "panic site reachable from a protocol entry point; \
                  return an error or guard the site",
        explain: "A whole-workspace call graph (name resolution over the \
crate set, over-approximate on trait and method calls) is searched from \
the protocol entry points — ExecutorCell::before_send / \
on_message_arrival, the certifier replay functions, and the fallible \
recovery-line API — to any panic!/unreachable!/todo!/unwrap/expect, or a \
slice index whose index expression contains an unguarded subtraction \
(the underflow-to-out-of-bounds route). Each finding reports one \
call path. Strictly wider than protocol-unwrap: it crosses crate \
boundaries and includes panicking macros and underflow-prone indexing.",
    },
    RuleInfo {
        id: "arena-slot-escape",
        summary: "executor arena slot or row borrow stored beyond the \
                  round; copy the data out instead",
        explain: "PackedPiggyback slots and arena row borrows are only \
valid for the round that produced them — slots are recycled. Storing a \
.slot offset or an &-borrow of an arena row (pb_tdv / pb_bits / rows) \
into a struct literal or a collection (push/insert/extend) lets it \
outlive the round and alias a recycled slot. Constructing the \
PackedPiggyback itself is the sanctioned escape. Copy the packed data \
out (e.g. into an owned Vec via the cold path) if it must survive.",
    },
];

/// `(id, summary)` pairs for `rdt-lint --rules` and the docs test.
pub fn rule_catalog() -> Vec<(&'static str, &'static str)> {
    CATALOG.iter().map(|r| (r.id, r.summary)).collect()
}

/// The `--explain` text for `id`, when the rule exists.
pub fn explain(id: &str) -> Option<&'static str> {
    CATALOG.iter().find(|r| r.id == id).map(|r| r.explain)
}

// ---------------------------------------------------------------------
// Path scopes
// ---------------------------------------------------------------------

/// Deterministic *result path* sources: protocol state machines,
/// simulator, theory checkers, certifier, experiment harness.
pub fn in_result_path(path: &str) -> bool {
    [
        "crates/core/src/",
        "crates/sim/src/",
        "crates/bench/src/",
        "crates/rgraph/src/",
        "crates/verify/src/",
    ]
    .iter()
    .any(|prefix| path.starts_with(prefix))
}

/// Files that may *not* read the host clock (everything in a src tree
/// except the designated metrics layers).
pub fn wall_clock_scope(path: &str) -> bool {
    let in_src =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    // The lint CLI itself reports wall time (the `elapsed_ns` report
    // field backing the CI time budget) — measurement, not simulation
    // logic, so it is exempt like metrics.rs.
    in_src && !path.ends_with("/metrics.rs") && !path.starts_with("crates/lint/")
}

/// Protocol / certifier state-machine code, where a panic kills a replay.
pub fn protocol_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/verify/src/")
        || path == "crates/rgraph/src/replay.rs"
}

/// Per-event simulator / certifier code (batch constructors banned).
pub fn per_event_scope(path: &str) -> bool {
    path.starts_with("crates/sim/src/") || path.starts_with("crates/verify/src/")
}

/// The zero-allocation send/arrival hot path.
pub fn hot_step_scope(path: &str) -> bool {
    path == "crates/core/src/executor.rs" || path.starts_with("crates/sim/src/")
}

/// Production source in an analysis-bearing crate: everything under a
/// `src/` tree except the in-workspace tool crates.
pub fn analysis_scope(path: &str) -> bool {
    let in_src =
        path.starts_with("src/") || (path.starts_with("crates/") && path.contains("/src/"));
    in_src
        && !path.starts_with("crates/ptest/")
        && !path.starts_with("crates/json/")
        && !path.starts_with("crates/lint/")
}

/// Where RNGs are constructed: simulator, sweeps, and the binary crate.
pub fn seed_scope(path: &str) -> bool {
    (path.starts_with("crates/sim/src/")
        || path.starts_with("crates/bench/src/")
        || path.starts_with("src/"))
        && path != "crates/sim/src/rng.rs" // SimRng's own definition
}

// ---------------------------------------------------------------------
// Parsed file + token helpers
// ---------------------------------------------------------------------

/// A source file parsed once, shared by every rule.
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// The parsed file.
    pub file: SourceFile,
    /// Flat token ranges of `#[cfg(test)]` items and `#[test]` fns.
    test_ranges: Vec<TokRange>,
}

impl ParsedFile {
    /// Parses `src` under workspace-relative `path`.
    pub fn parse(path: &str, src: &str) -> ParsedFile {
        let file = SourceFile::parse(src);
        let mut test_ranges = Vec::new();
        collect_test_ranges(&file.items, false, &mut test_ranges);
        ParsedFile {
            path: path.to_string(),
            file,
            test_ranges,
        }
    }

    /// Whether token `i` lies inside test-gated code.
    pub fn in_test(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(lo, hi)| i >= lo && i < hi)
    }

    /// The trimmed source line of token `i`.
    pub fn snippet(&self, i: usize) -> String {
        let (line, _) = self.file.line_col(i);
        self.file
            .src
            .lines()
            .nth(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string())
    }

    /// Builds a diagnostic anchored at token `i`.
    pub fn diag(&self, rule: &'static str, i: usize, note: String) -> Diagnostic {
        let (line, col) = self.file.line_col(i);
        Diagnostic {
            rule,
            path: self.path.clone(),
            line: line as usize,
            col: col as usize,
            snippet: self.snippet(i),
            note,
        }
    }
}

fn collect_test_ranges(items: &[Item], parent_test: bool, out: &mut Vec<TokRange>) {
    for item in items {
        let test = parent_test || item.cfg_test;
        match &item.kind {
            ItemKind::Fn(f) => {
                if test || f.is_test {
                    out.push(item.range);
                }
            }
            ItemKind::Mod { items, .. } | ItemKind::Impl { items, .. } => {
                if test {
                    out.push(item.range);
                }
                collect_test_ranges(items, test, out);
            }
            ItemKind::Other => {
                if test {
                    out.push(item.range);
                }
            }
        }
    }
}

/// Whether tokens starting at `i` spell exactly `pats`.
fn seq(file: &SourceFile, i: usize, pats: &[&str]) -> bool {
    pats.iter().enumerate().all(|(k, p)| file.text(i + k) == *p)
}

/// Token index of the close matching the open delimiter at `open`
/// (returns `file.tokens.len()` when unbalanced).
fn matching_close(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0i64;
    let mut i = open;
    while i < file.tokens.len() {
        match file.text(i) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    file.tokens.len()
}

fn is_ident_start(text: &str) -> bool {
    text.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Whether `needle` occurs as a token subsequence anywhere in `range`.
fn range_has_seq(file: &SourceFile, range: TokRange, needle: &[&str]) -> bool {
    (range.0..range.1.saturating_sub(needle.len().saturating_sub(1))).any(|i| seq(file, i, needle))
}

/// Whether any token in `range` has text `t`.
fn range_has(file: &SourceFile, range: TokRange, t: &str) -> bool {
    (range.0..range.1).any(|i| file.text(i) == t)
}

// ---------------------------------------------------------------------
// Per-file rule driver
// ---------------------------------------------------------------------

/// Runs every per-file rule on `pf` (panic-reachability, which needs
/// the whole workspace, lives in [`crate::graph`]).
pub fn check_file(pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    let path = pf.path.as_str();
    if in_result_path(path) {
        ident_rule(pf, "hash-collections", &["HashMap", "HashSet"], diags);
    }
    if wall_clock_scope(path) {
        ident_rule(pf, "wall-clock", &["Instant", "SystemTime"], diags);
    }
    if protocol_scope(path) {
        seq_rule(pf, "protocol-unwrap", &[".", "unwrap", "("], diags);
        seq_rule(pf, "protocol-unwrap", &[".", "expect", "("], diags);
    }
    if per_event_scope(path) {
        for ty in ["PatternAnalysis", "ZigzagReachability"] {
            seq_rule(pf, "batch-in-loop", &[ty, ":", ":", "new", "("], diags);
        }
    }
    if path.starts_with("crates/bench/") {
        seq_rule(pf, "sweep-seed", &["SimRng", ":", ":", "seed", "("], diags);
    }
    if hot_step_scope(path) {
        alloc_in_step(pf, diags);
    }
    if analysis_scope(path) {
        index_underflow(pf, diags);
    }
    if seed_scope(path) {
        seed_provenance(pf, diags);
    }
    if path == "crates/core/src/executor.rs" || path.starts_with("crates/sim/src/") {
        arena_slot_escape(pf, diags);
    }
}

/// Flags standalone identifier tokens outside test code.
fn ident_rule(pf: &ParsedFile, rule: &'static str, idents: &[&str], diags: &mut Vec<Diagnostic>) {
    for (i, tok) in pf.file.tokens.iter().enumerate() {
        let text = tok.text(&pf.file.src);
        if idents.contains(&text) && !pf.in_test(i) {
            diags.push(pf.diag(rule, i, String::new()));
        }
    }
}

/// Flags token sequences outside test code.
fn seq_rule(pf: &ParsedFile, rule: &'static str, pats: &[&str], diags: &mut Vec<Diagnostic>) {
    for i in 0..pf.file.tokens.len() {
        if seq(&pf.file, i, pats) && !pf.in_test(i) {
            diags.push(pf.diag(rule, i, String::new()));
        }
    }
}

/// `alloc-in-step`: allocation token sequences inside the bodies of
/// `before_send` / `on_message_arrival` only.
fn alloc_in_step(pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    for fr in pf.file.functions() {
        if fr.in_test || !matches!(fr.f.name.as_str(), "before_send" | "on_message_arrival") {
            continue;
        }
        let Some(body) = &fr.f.body else { continue };
        for i in body.range.0..body.range.1 {
            if seq(&pf.file, i, &["Vec", ":", ":", "new", "("])
                || seq(&pf.file, i, &[".", "to_vec", "("])
                || seq(&pf.file, i, &[".", "clone", "("])
            {
                diags.push(pf.diag("alloc-in-step", i, String::new()));
            }
        }
    }
}

// ---------------------------------------------------------------------
// index-underflow
// ---------------------------------------------------------------------

/// The index-shaped subject of a `- <const>`, for guard matching.
enum Subject {
    /// `base.field - c` where field is `index`/`interval`.
    Field { base: String, field: String },
    /// `name - c` where `name` ends in `_iv` or is a loop binder.
    Ident(String),
}

/// Whether the subtraction at token `minus` (already known to be
/// `subject - <int>`) is dominated by a positivity guard.
fn underflow_guarded(pf: &ParsedFile, body: &Scope, minus: usize, subject: &Subject) -> bool {
    let file = &pf.file;
    let mentions = |range: TokRange| -> bool {
        match subject {
            Subject::Field { base, field } => {
                range_has_seq(file, range, &[base, ".", field])
                    // `self.index` guards often restate just the field
                    // through an accessor; accept a bare field mention.
                    || (base == "self" && range_has(file, range, field))
            }
            Subject::Ident(name) => range_has(file, range, name),
        }
    };
    // `>=`/`>`/`!=` as token runs: `>` or `!` followed by `=` or a bare
    // `>`; lower-bound proofs from negated conditions use `==`/`<`/`<=`.
    let positive_cmp =
        |range: TokRange| range_has(file, range, ">") || range_has_seq(file, range, &["!", "="]);
    let negative_cmp =
        |range: TokRange| range_has_seq(file, range, &["=", "="]) || range_has(file, range, "<");
    for guard in guard_chain(file, body, minus) {
        match guard {
            Guard::True(cond) | Guard::Assert(cond) => {
                if mentions(cond) && positive_cmp(cond) {
                    return true;
                }
            }
            Guard::False(cond) => {
                if mentions(cond) && (negative_cmp(cond) || positive_cmp(cond)) {
                    // `if x == 0 { continue }` → x != 0 here; `if x < 1
                    // { return }` → x >= 1 here. A negated `!=`/`>` is
                    // accepted too (e.g. inverted sentinel checks).
                    return true;
                }
            }
            Guard::ForBinder { binders, iter } => {
                if let Subject::Ident(name) = subject {
                    if binders.iter().any(|b| b == name) {
                        // Bound by the loop range: guarded unless the
                        // range starts at literal 0.
                        let starts_at_zero = file.text(iter.0) == "0";
                        if !starts_at_zero {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// Whether token `i` sits inside an `assert!`-family invocation (the
/// assertion *is* the guard; flagging its own arithmetic is noise).
fn inside_assert(pf: &ParsedFile, i: usize) -> bool {
    let file = &pf.file;
    let mut j = i;
    let mut steps = 0;
    while j > 0 && steps < 48 {
        j -= 1;
        steps += 1;
        match file.text(j) {
            ";" | "{" | "}" => return false,
            "assert" | "debug_assert" | "assert_eq" | "debug_assert_eq" | "assert_ne"
            | "debug_assert_ne" => return file.text(j + 1) == "!",
            _ => {}
        }
    }
    false
}

/// `index-underflow`: `expr - <int const>` on an index/interval-shaped
/// expression without a dominating positivity guard.
fn index_underflow(pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    let file = &pf.file;
    for fr in pf.file.functions() {
        if fr.in_test {
            continue;
        }
        let Some(body) = &fr.f.body else { continue };
        for i in body.range.0..body.range.1 {
            if file.text(i) != "-" {
                continue;
            }
            let next = file.tokens.get(i + 1);
            let is_int = next.is_some_and(|t| t.kind == crate::lex::TokKind::Int);
            if !is_int || pf.in_test(i) {
                continue;
            }
            // Identify the subject immediately before the `-`.
            let subject = if i >= 3
                && file.text(i - 2) == "."
                && matches!(file.text(i - 1), "index" | "interval")
                && is_ident_start(file.text(i - 3))
            {
                Subject::Field {
                    base: file.text(i - 3).to_string(),
                    field: file.text(i - 1).to_string(),
                }
            } else if i >= 1 && is_ident_start(file.text(i - 1)) && file.text(i - 2) != "." {
                let name = file.text(i - 1).to_string();
                let is_loop_var = guard_chain(file, body, i).iter().any(
                    |g| matches!(g, Guard::ForBinder { binders, .. } if binders.contains(&name)),
                );
                if name.ends_with("_iv") || is_loop_var {
                    Subject::Ident(name)
                } else {
                    continue;
                }
            } else {
                continue;
            };
            if inside_assert(pf, i) || underflow_guarded(pf, body, i, &subject) {
                continue;
            }
            let what = match &subject {
                Subject::Field { base, field } => format!("{base}.{field}"),
                Subject::Ident(name) => name.clone(),
            };
            diags.push(pf.diag(
                "index-underflow",
                i,
                format!("`{what}` may be 0 here; 1-based interval indices underflow"),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// seed-provenance
// ---------------------------------------------------------------------

const ENTROPY: &[&str] = &[
    "thread_rng",
    "entropy",
    "getrandom",
    "random",
    "SystemTime",
    "Instant",
    "now",
];

/// Checks one seed-argument token range; returns the offending token
/// and reason when provenance fails.
fn seed_violation(
    pf: &ParsedFile,
    fr: &FnRef<'_>,
    body: &Scope,
    range: TokRange,
    depth: usize,
) -> Option<(usize, String)> {
    let file = &pf.file;
    // Anything routed through derive_seed is sanctioned wholesale.
    if range_has(file, range, "derive_seed") {
        return None;
    }
    let mut j = range.0;
    while j < range.1 {
        let text = file.text(j);
        let kind = file.tokens.get(j).map(|t| t.kind);
        if kind == Some(crate::lex::TokKind::Int) {
            return Some((j, format!("literal seed `{text}`")));
        }
        if ENTROPY.contains(&text) {
            return Some((j, format!("entropy source `{text}`")));
        }
        if is_ident_start(text)
            && file.text(j + 1) != "("
            && file.text(j + 1) != ":"
            && file.text(j.wrapping_sub(1)) != "."
            && file.text(j.wrapping_sub(1)) != ":"
        {
            // A plain local: params are trusted (their call sites are
            // checked where the value originates); lets are followed.
            if !fr.f.params.iter().any(|p| p == text) && depth < 6 {
                if let Some(init) = resolve_let(body, j, text) {
                    if let Some(v) = seed_violation(pf, fr, body, init, depth + 1) {
                        return Some(v);
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// `seed-provenance`: every RNG seed argument must trace to
/// `derive_seed` or an opaque config value, never a literal or entropy.
fn seed_provenance(pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    let file = &pf.file;
    for fr in pf.file.functions() {
        if fr.in_test || fr.self_ty == Some("SimRng") {
            continue;
        }
        let Some(body) = &fr.f.body else { continue };
        for i in body.range.0..body.range.1 {
            let call_open = if seq(file, i, &["SimRng", ":", ":", "seed", "("]) {
                Some(i + 4)
            } else if (file.text(i) == "seed_from_u64" || file.text(i) == "from_seed")
                && file.text(i + 1) == "("
            {
                Some(i + 1)
            } else {
                None
            };
            let Some(open) = call_open else { continue };
            if pf.in_test(i) {
                continue;
            }
            let close = matching_close(file, open);
            if let Some((tok, reason)) = seed_violation(pf, &fr, body, (open + 1, close), 0) {
                let _ = tok;
                diags.push(pf.diag(
                    "seed-provenance",
                    i,
                    format!("{reason}; derive seeds with SimRng::derive_seed or a config field"),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// arena-slot-escape
// ---------------------------------------------------------------------

/// Whether the token at `i` spells an arena source: a `.slot` offset
/// read or an `&`-borrow of an arena row.
fn arena_source_at(file: &SourceFile, i: usize) -> bool {
    // `.slot` field read (not a method call).
    if file.text(i) == "." && file.text(i + 1) == "slot" && file.text(i + 2) != "(" {
        return true;
    }
    // `&` borrow whose immediate chain names an arena slab.
    if file.text(i) == "&" {
        for k in i + 1..(i + 6).min(file.tokens.len()) {
            let t = file.text(k);
            if t == "pb_tdv" || t == "pb_bits" || t == "arena" || t == "rows" {
                return true;
            }
            if matches!(t, ";" | "," | ")" | "(" | "[") {
                break;
            }
        }
    }
    false
}

/// Walks outward from token `i` looking for a storing context: a
/// struct literal (`Name { … }`, capitalized, not `PackedPiggyback`)
/// or a collection insertion (`.push(…)`, `.insert(…)`, `.extend(…)`).
fn store_context(file: &SourceFile, i: usize, lo: usize) -> Option<String> {
    let mut paren = 0i64;
    let mut brace = 0i64;
    let mut bracket = 0i64;
    let mut j = i;
    while j > lo {
        j -= 1;
        match file.text(j) {
            ")" => paren += 1,
            "]" => bracket += 1,
            "}" => brace += 1,
            "(" => {
                if paren > 0 {
                    paren -= 1;
                    continue;
                }
                // Unmatched `(` — a call whose arguments hold `i`.
                if file.text(j.wrapping_sub(2)) == "."
                    && matches!(file.text(j.wrapping_sub(1)), "push" | "insert" | "extend")
                {
                    // Pushing a slot back onto the free list *ends* its
                    // life — that is the recycler, not an escape.
                    if file.text(j.wrapping_sub(3)) == "free" {
                        return None;
                    }
                    return Some(format!("stored via .{}(..)", file.text(j.wrapping_sub(1))));
                }
            }
            "[" if bracket > 0 => bracket -= 1,
            "{" => {
                if brace > 0 {
                    brace -= 1;
                    continue;
                }
                // Unmatched `{` — struct literal when a capitalized
                // ident precedes (conditions cannot hold bare struct
                // literals, so `if x {` never matches this shape).
                let name = file.text(j.wrapping_sub(1));
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    if name == "PackedPiggyback" {
                        return None; // the sanctioned escape
                    }
                    // `-> path::Ty {` is a fn body, not a literal: walk
                    // the type path back to an arrow. The signature lies
                    // before `lo` (the body start), so bound by 0, not lo.
                    let mut k = j.wrapping_sub(1);
                    while k > 0 && (is_ident_start(file.text(k)) || file.text(k) == ":") {
                        k -= 1;
                    }
                    if file.text(k) == ">" && file.text(k.wrapping_sub(1)) == "-" {
                        return None;
                    }
                    return Some(format!("stored into struct literal `{name}`"));
                }
                return None; // a plain block: statement boundary
            }
            ";" if paren == 0 && brace == 0 && bracket == 0 => return None,
            _ => {}
        }
    }
    None
}

/// `arena-slot-escape`: `.slot` offsets or arena-row borrows stored
/// into structs/collections that outlive the round, directly or through
/// one `let`.
fn arena_slot_escape(pf: &ParsedFile, diags: &mut Vec<Diagnostic>) {
    let file = &pf.file;
    for fr in pf.file.functions() {
        if fr.in_test {
            continue;
        }
        let Some(body) = &fr.f.body else { continue };
        // Names bound from arena sources in this fn (one taint hop).
        let mut tainted: Vec<(String, usize)> = Vec::new();
        collect_taints(file, body, &mut tainted);
        for i in body.range.0..body.range.1 {
            let direct = arena_source_at(file, i);
            let via_taint = is_ident_start(file.text(i))
                && file.text(i.wrapping_sub(1)) != "."
                && tainted
                    .iter()
                    .any(|(name, bound_at)| name == file.text(i) && i > *bound_at);
            if !direct && !via_taint {
                continue;
            }
            if pf.in_test(i) {
                continue;
            }
            if let Some(how) = store_context(file, i, body.range.0) {
                let what = if direct {
                    "arena slot/row borrow"
                } else {
                    "value derived from an arena slot"
                };
                diags.push(pf.diag(
                    "arena-slot-escape",
                    i,
                    format!("{what} {how}; slots are recycled next round"),
                ));
            }
        }
    }
}

fn collect_taints(file: &SourceFile, scope: &Scope, out: &mut Vec<(String, usize)>) {
    for stmt in &scope.stmts {
        if let StmtKind::Let {
            names,
            init: Some(init),
        } = &stmt.kind
        {
            if (init.0..init.1).any(|i| arena_source_at(file, i)) {
                for name in names {
                    out.push((name.clone(), stmt.range.1));
                }
            }
        }
        for sub in &stmt.subs {
            collect_taints(file, sub, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let pf = ParsedFile::parse(path, src);
        let mut diags = Vec::new();
        check_file(&pf, &mut diags);
        diags
    }

    #[test]
    fn underflow_fires_without_guard_and_not_with() {
        let bad = "fn f(d: IntervalId) -> u32 { d.index - 1 }";
        let diags = run("crates/recovery/src/line.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "index-underflow");

        let guarded = "fn f(d: IntervalId) -> u32 { if d.index > 0 { d.index - 1 } else { 0 } }";
        assert!(run("crates/recovery/src/line.rs", guarded).is_empty());

        let asserted = "fn f(d: IntervalId) -> u32 { debug_assert!(d.index >= 1); d.index - 1 }";
        assert!(run("crates/recovery/src/line.rs", asserted).is_empty());

        let early = "fn f(d: IntervalId) -> u32 { if d.index == 0 { return 0; } d.index - 1 }";
        assert!(run("crates/recovery/src/line.rs", early).is_empty());
    }

    #[test]
    fn underflow_sees_iv_suffix_and_loop_vars() {
        let iv = "fn f(deliver_iv: u32) -> u32 { deliver_iv - 1 }";
        assert_eq!(run("crates/rgraph/src/incremental.rs", iv).len(), 1);

        let loop0 = "fn f(v: &[u32]) { for i in 0..v.len() { let _ = v[i - 1]; } }";
        let diags = run("crates/core/src/x.rs", loop0);
        assert_eq!(diags.len(), 1, "{diags:?}");

        let loop1 = "fn f(v: &[u32]) { for i in 1..v.len() { let _ = v[i - 1]; } }";
        assert!(run("crates/core/src/x.rs", loop1).is_empty());
    }

    #[test]
    fn seed_provenance_follows_lets() {
        let bad = "fn f() { let rng = SimRng::seed(42); }";
        let diags = run("crates/sim/src/runner.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "seed-provenance");

        let bad_via_let = "fn f() { let s = 1234; let rng = SimRng::seed(s); }";
        assert_eq!(run("crates/sim/src/runner.rs", bad_via_let).len(), 1);

        let good = "fn f(config: &SimConfig) { let rng = SimRng::seed(config.seed); }";
        assert!(run("crates/sim/src/runner.rs", good).is_empty());

        let derived =
            "fn f(base: u64, i: u64) { let rng = SimRng::seed(SimRng::derive_seed(base, i)); }";
        assert!(run("crates/sim/src/runner.rs", derived).is_empty());
    }

    #[test]
    fn arena_escape_flags_stores_not_packedpiggyback() {
        let bad = "fn f(&mut self, pb: &PackedPiggyback) { self.kept.push(pb.slot); }";
        let diags = run("crates/core/src/executor.rs", bad);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "arena-slot-escape");

        let sanctioned =
            "fn before_send(&mut self) -> PackedPiggyback { PackedPiggyback { shared: s, slot, bytes } }";
        assert!(run("crates/core/src/executor.rs", sanctioned).is_empty());

        let via_let =
            "fn f(&mut self, pb: &PackedPiggyback) { let off = pb.slot; self.saved.push(off); }";
        assert_eq!(run("crates/core/src/executor.rs", via_let).len(), 1);
    }

    #[test]
    fn legacy_rules_still_fire_on_the_ast_engine() {
        assert_eq!(
            run("crates/core/src/x.rs", "use std::collections::HashMap;").len(),
            1
        );
        assert_eq!(
            run(
                "crates/sim/src/engine.rs",
                "fn f() { let t = Instant::now(); }"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "crates/core/src/bhmr.rs",
                "fn f(x: Option<u32>) { x.unwrap(); }"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "crates/sim/src/runner.rs",
                "fn f(p: &Pattern) { let a = PatternAnalysis::new(p); }"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "crates/bench/src/sweep.rs",
                "fn f() { let r = SimRng::seed(7); }"
            )
            .iter()
            .filter(|d| d.rule == "sweep-seed")
            .count(),
            1
        );
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)] mod tests { use std::collections::HashMap; fn f(x: Option<u32>) { x.unwrap(); } }";
        assert!(run("crates/core/src/x.rs", src).is_empty());
    }
}
