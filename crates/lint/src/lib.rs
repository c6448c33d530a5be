//! Determinism and robustness lint over the workspace's own sources.
//!
//! The experiment harness stakes its reproducibility claims on a handful
//! of source-level invariants that the compiler cannot enforce:
//!
//! * result paths never iterate hash-ordered collections,
//! * nothing outside the metrics layer reads the host clock,
//! * protocol state machines and the certifier never panic — not via
//!   `unwrap`/`expect` in their own files (`protocol-unwrap`) and not
//!   via any call path from a protocol entry point
//!   (`panic-reachability`),
//! * sweep code derives every RNG seed from the grid position, and every
//!   seed anywhere traces to `derive_seed` or a config field
//!   (`sweep-seed`, `seed-provenance`),
//! * 1-based interval indices are never decremented without a
//!   positivity guard (`index-underflow` — the PR 5 bug class),
//! * executor arena slots never escape the round that produced them
//!   (`arena-slot-escape`).
//!
//! `rdt-lint` enforces these as deny-by-default diagnostics. Since v2 it
//! is a *syntax-aware* linter: a dependency-free lexer ([`lex`]) feeds
//! token trees and a lightweight AST ([`syntax`]) — items, functions,
//! blocks and expressions with spans, guard-dominance chains and local
//! `let` dataflow — on which the rules ([`rules`]) and the workspace
//! call graph ([`graph`]) run. No macro expansion: the workspace is
//! macro-light by construction. The whole pipeline still runs in well
//! under the 2 s CI budget. Intentional exceptions go in the
//! workspace-root `lint.allow` file, one justified entry per line; stale
//! entries fail the run so the allowlist cannot rot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lex;
pub mod rules;
pub mod syntax;

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rdt_json::Json;

pub use rules::{explain, rule_catalog, ParsedFile};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column of the anchoring token.
    pub col: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Rule-specific detail (guard analysis, call path, provenance).
    pub note: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.snippet
        )?;
        if !self.note.is_empty() {
            write!(f, " — {}", self.note)?;
        }
        Ok(())
    }
}

impl Diagnostic {
    /// JSON value for `rdt-lint --json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::Str(self.rule.to_string())),
            ("path", Json::Str(self.path.clone())),
            ("line", Json::U64(self.line as u64)),
            ("col", Json::U64(self.col as u64)),
            ("snippet", Json::Str(self.snippet.clone())),
            ("note", Json::Str(self.note.clone())),
        ])
    }
}

/// Outcome of one lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings not covered by the allowlist (must be empty to pass).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by an allowlist entry.
    pub allowed: Vec<Diagnostic>,
    /// Allowlist entries that matched nothing (also fail the run).
    pub stale_allows: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// `true` iff the run passes: no diagnostics, no stale entries.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty() && self.stale_allows.is_empty()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for diag in &self.diagnostics {
            out.push_str(&format!("{diag}\n"));
        }
        for stale in &self.stale_allows {
            out.push_str(&format!(
                "lint.allow: stale entry (matched nothing): {stale}\n"
            ));
        }
        out.push_str(&format!(
            "rdt-lint: {} file(s), {} finding(s), {} allowed, {} stale allow(s): {}\n",
            self.files_scanned,
            self.diagnostics.len(),
            self.allowed.len(),
            self.stale_allows.len(),
            if self.clean() { "clean" } else { "FAILED" },
        ));
        out
    }

    /// Machine-readable report for `--json`. `elapsed_ns` is the wall
    /// time of the run (scrubbed by the golden-fixture layer).
    pub fn to_json(&self, elapsed_ns: u64) -> Json {
        Json::obj([
            ("tool", Json::Str("rdt-lint".to_string())),
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            ("clean", Json::Bool(self.clean())),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
            ("allowed", Json::U64(self.allowed.len() as u64)),
            (
                "stale_allows",
                Json::Arr(
                    self.stale_allows
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("elapsed_ns", Json::U64(elapsed_ns)),
        ])
    }

    /// SARIF 2.1.0 report for GitHub code scanning.
    pub fn to_sarif(&self) -> Json {
        let rules: Vec<Json> = rules::CATALOG
            .iter()
            .map(|r| {
                Json::obj([
                    ("id", Json::Str(r.id.to_string())),
                    (
                        "shortDescription",
                        Json::obj([(
                            "text",
                            Json::Str(r.summary.split_whitespace().collect::<Vec<_>>().join(" ")),
                        )]),
                    ),
                    (
                        "fullDescription",
                        Json::obj([("text", Json::Str(r.explain.to_string()))]),
                    ),
                ])
            })
            .collect();
        let results: Vec<Json> = self
            .diagnostics
            .iter()
            .map(|d| {
                let message = if d.note.is_empty() {
                    d.snippet.clone()
                } else {
                    format!("{} — {}", d.snippet, d.note)
                };
                Json::obj([
                    ("ruleId", Json::Str(d.rule.to_string())),
                    ("level", Json::Str("error".to_string())),
                    ("message", Json::obj([("text", Json::Str(message))])),
                    (
                        "locations",
                        Json::Arr(vec![Json::obj([(
                            "physicalLocation",
                            Json::obj([
                                (
                                    "artifactLocation",
                                    Json::obj([("uri", Json::Str(d.path.clone()))]),
                                ),
                                (
                                    "region",
                                    Json::obj([
                                        ("startLine", Json::U64(d.line as u64)),
                                        ("startColumn", Json::U64(d.col as u64)),
                                    ]),
                                ),
                            ]),
                        )])]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            (
                "$schema",
                Json::Str("https://json.schemastore.org/sarif-2.1.0.json".to_string()),
            ),
            ("version", Json::Str("2.1.0".to_string())),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    (
                        "tool",
                        Json::obj([(
                            "driver",
                            Json::obj([
                                ("name", Json::Str("rdt-lint".to_string())),
                                ("rules", Json::Arr(rules)),
                            ]),
                        )]),
                    ),
                    ("results", Json::Arr(results)),
                ])]),
            ),
        ])
    }
}

/// Collects every `.rs` file under `root`, skipping `target`,
/// dot-directories and `fixtures` corpora (known-bad lint inputs), in
/// sorted (deterministic) order.
fn collect_sources(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{e}"))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "fixtures" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Parses `lint.allow`: one `rule-id path` pair per line, `#` comments.
fn parse_allowlist(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), None) => out.push((rule.to_string(), path.to_string())),
            _ => {
                return Err(format!(
                    "lint.allow:{}: expected \"rule-id path\", got {raw:?}",
                    lineno + 1
                ))
            }
        }
    }
    Ok(out)
}

/// Canonicalizes `root` and checks it is a Cargo workspace root.
///
/// # Errors
///
/// Returns a message naming the path when it does not exist or does not
/// hold a `Cargo.toml` with a `[workspace]` table — a wrong `--root`
/// must fail loudly instead of linting zero files and exiting green.
pub fn validate_root(root: &Path) -> Result<PathBuf, String> {
    let canonical = root
        .canonicalize()
        .map_err(|e| format!("--root {}: {e}", root.display()))?;
    let manifest = canonical.join("Cargo.toml");
    let text = fs::read_to_string(&manifest).map_err(|e| {
        format!(
            "--root {} is not a workspace root: {e}",
            canonical.display()
        )
    })?;
    if !text.contains("[workspace]") {
        return Err(format!(
            "--root {}: Cargo.toml has no [workspace] table",
            canonical.display()
        ));
    }
    Ok(canonical)
}

/// Runs the lint over the workspace rooted at `root`: per-file rules on
/// every source, then the whole-workspace call-graph analysis, then the
/// allowlist.
///
/// # Errors
///
/// Returns a message if `root` is not a workspace root or sources or
/// the allowlist cannot be read.
pub fn run_lint(root: &Path) -> Result<LintReport, String> {
    let root = validate_root(root)?;
    let mut report = LintReport::default();
    let mut parsed = Vec::new();
    for path in collect_sources(&root)? {
        let rel = path
            .strip_prefix(&root)
            .map_err(|_| format!("{} escapes the root", path.display()))?
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        report.files_scanned += 1;
        parsed.push(ParsedFile::parse(&rel, &source));
    }
    let mut diagnostics = Vec::new();
    for pf in &parsed {
        rules::check_file(pf, &mut diagnostics);
    }
    graph::panic_reachability(&parsed, &mut diagnostics);
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let allow_path = root.join("lint.allow");
    let allows = if allow_path.exists() {
        let text = fs::read_to_string(&allow_path).map_err(|e| format!("lint.allow: {e}"))?;
        parse_allowlist(&text)?
    } else {
        Vec::new()
    };
    let mut allow_hits: BTreeMap<usize, usize> = BTreeMap::new();
    for diag in diagnostics {
        let hit = allows
            .iter()
            .position(|(rule, path)| *rule == diag.rule && *path == diag.path);
        match hit {
            Some(index) => {
                *allow_hits.entry(index).or_insert(0) += 1;
                report.allowed.push(diag);
            }
            None => report.diagnostics.push(diag),
        }
    }
    for (index, (rule, path)) in allows.iter().enumerate() {
        if !allow_hits.contains_key(&index) {
            report.stale_allows.push(format!("{rule} {path}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_file(path: &str, source: &str, diags: &mut Vec<Diagnostic>) {
        rules::check_file(&ParsedFile::parse(path, source), diags);
    }

    #[test]
    fn ident_needles_respect_token_boundaries() {
        let mut diags = Vec::new();
        scan_file(
            "crates/core/src/x.rs",
            "type MyHashMapLike = (); use std::collections::HashMap;",
            &mut diags,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "hash-collections");
    }

    #[test]
    fn rules_scope_by_path() {
        let mut diags = Vec::new();
        // workloads is not a result path: HashMap allowed there.
        scan_file("crates/workloads/src/x.rs", "HashMap", &mut diags);
        assert!(diags.is_empty());
        // metrics.rs may read the clock; its siblings may not.
        scan_file("crates/sim/src/metrics.rs", "Instant::now()", &mut diags);
        assert!(diags.is_empty());
        scan_file("crates/sim/src/engine.rs", "Instant::now()", &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "wall-clock");
    }

    #[test]
    fn unwrap_rule_hits_protocol_code_only() {
        let mut diags = Vec::new();
        scan_file("crates/core/src/bhmr.rs", "x.unwrap();", &mut diags);
        scan_file("crates/bench/src/parallel.rs", "x.unwrap();", &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].path, "crates/core/src/bhmr.rs");
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let allows = parse_allowlist("# comment\nwall-clock src/x.rs # reason\n\n").unwrap();
        assert_eq!(allows, vec![("wall-clock".into(), "src/x.rs".into())]);
        assert!(parse_allowlist("too many fields here").is_err());
    }

    #[test]
    fn catalog_is_nonempty_and_unique() {
        let catalog = rule_catalog();
        assert_eq!(catalog.len(), 10);
        let mut ids: Vec<_> = catalog.iter().map(|(id, _)| id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        assert!(explain("index-underflow").is_some());
        assert!(explain("no-such-rule").is_none());
    }

    #[test]
    fn root_validation_rejects_non_workspace_paths() {
        assert!(validate_root(Path::new("/definitely/not/here")).is_err());
        // /tmp exists but has no workspace manifest.
        let err = validate_root(Path::new("/tmp")).unwrap_err();
        assert!(err.contains("workspace"), "{err}");
    }

    #[test]
    fn alloc_rule_fires_only_inside_step_bodies() {
        // Allocation is fine in setup code (constructors, Drop, tests);
        // the rule bites only inside before_send / on_message_arrival.
        let source = "\
impl ExecutorState {
    fn new(n: usize) -> Self { let v = Vec::new(); Self { v } }
    fn before_send(&mut self, dest: ProcessId) -> SendOutcome<P> {
        let copy = self.tdv.to_vec();
        SendOutcome { piggyback: copy.clone() }
    }
    fn on_message_arrival(&mut self, s: ProcessId, p: &P) -> ArrivalOutcome {
        if p.fresh { self.scratch = Vec::new(); }
        ArrivalOutcome::None
    }
    fn before_send_raw(&mut self) { let _ = Vec::new(); }
}
";
        let mut diags = Vec::new();
        scan_file("crates/core/src/executor.rs", source, &mut diags);
        let alloc: Vec<_> = diags.iter().filter(|d| d.rule == "alloc-in-step").collect();
        assert_eq!(alloc.len(), 3, "{alloc:?}");
        assert!(alloc.iter().all(|d| (4..=9).contains(&d.line)), "{alloc:?}");
        // The legacy oracle implementations stay out of scope.
        diags.clear();
        scan_file("crates/core/src/bhmr.rs", source, &mut diags);
        assert!(!diags.iter().any(|d| d.rule == "alloc-in-step"));
    }

    #[test]
    fn batch_constructor_rule_hits_per_event_code_only() {
        let mut diags = Vec::new();
        // The bench crate compares batch vs incremental on purpose.
        scan_file(
            "crates/bench/src/experiment.rs",
            "PatternAnalysis::new(&pattern).rdt_report();",
            &mut diags,
        );
        assert!(diags.is_empty());
        scan_file(
            "crates/sim/src/runner.rs",
            "let a = ZigzagReachability::new(&pattern); let b = PatternAnalysis::new(&p);",
            &mut diags,
        );
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "batch-in-loop"));
        diags.clear();
        scan_file(
            "crates/verify/src/certify.rs",
            "ZigzagReachability::new(&pattern)",
            &mut diags,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "batch-in-loop");
    }

    #[test]
    fn json_and_sarif_render() {
        let report = LintReport {
            diagnostics: vec![Diagnostic {
                rule: "index-underflow",
                path: "crates/x/src/a.rs".into(),
                line: 3,
                col: 7,
                snippet: "line.set(p, deliver.index - 1);".into(),
                note: "`deliver.index` may be 0 here".into(),
            }],
            allowed: vec![],
            stale_allows: vec![],
            files_scanned: 1,
        };
        let json = report.to_json(12345);
        assert_eq!(json.get("clean").and_then(Json::as_bool), Some(false));
        assert_eq!(
            json.get("diagnostics")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(1)
        );
        let sarif = report.to_sarif();
        assert_eq!(sarif.get("version").and_then(Json::as_str), Some("2.1.0"));
        let text = sarif.pretty();
        assert!(text.contains("index-underflow"));
        assert!(text.contains("startLine"));
        // Round-trips through the in-workspace parser.
        assert!(Json::parse(&text).is_ok());
    }
}
