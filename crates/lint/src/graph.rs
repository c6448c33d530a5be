//! Workspace call graph and the `panic-reachability` analysis.
//!
//! Nodes are the non-test functions of every parsed file, keyed by bare
//! name and, when known, the `impl` self type. Edges come from
//! `name(`-shaped call tokens in function bodies: a `Qual::name(` call
//! with a known `Qual` resolves to that type's methods only, everything
//! else over-approximates to every function with the bare name (trait
//! and method calls included). The search starts from the protocol
//! entry points — the executor's send/arrival steps, the certifier
//! replay functions, and the fallible recovery-line API — and reports
//! every reachable *panic site*:
//!
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! * `.unwrap(` / `.expect(`,
//! * slice indexing whose index expression contains an unguarded
//!   subtraction (the underflow-to-out-of-bounds route; ordinary
//!   bounded indexing — loop binders, masked/guarded offsets — is the
//!   workspace's arena idiom and is screened out).
//!
//! Each finding carries one witness call path from an entry point.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::rules::ParsedFile;
use crate::syntax::{guard_chain, FnRef, Guard, Scope};
use crate::Diagnostic;

/// The protocol entry points: (required self type, fn name, required
/// path prefix).
const ENTRY_POINTS: &[(Option<&str>, &str, &str)] = &[
    (Some("ExecutorCell"), "before_send", "crates/core/src/"),
    (
        Some("ExecutorCell"),
        "on_message_arrival",
        "crates/core/src/",
    ),
    (Some("ExecutorCell"), "on_checkpoint", "crates/core/src/"),
    (None, "replay_protocol_ops", "crates/verify/src/"),
    (None, "replay_ops", "crates/verify/src/"),
    (None, "build_pattern", "crates/verify/src/"),
    // The orbit-pruned enumeration pipeline: work units are produced by
    // `enumerate_units` and consumed on worker threads by `run_unit`, so
    // a panic anywhere below either one takes down a certification run.
    (Some("OrbitContext"), "run_unit", "crates/verify/src/"),
    (None, "enumerate_units", "crates/verify/src/"),
    (None, "try_recovery_line", "crates/recovery/src/"),
    (None, "try_lost_messages", "crates/recovery/src/"),
    (None, "try_analyze", "crates/recovery/src/"),
    (None, "max_consistent_dominated_into", "crates/rgraph/src/"),
    // The streaming daemon's ingest path: every client byte flows
    // through `parse_request` (or the scanner beside it) and every
    // stream-scoped op through the stripe door `run_op`, which
    // `handle_request` and `PoolHandle::request` also reach, so a
    // reachable panic below any of them is a remote denial-of-service.
    // Requests run on the connection thread (`serve_connection` →
    // `PoolHandle::answer_frame`), so a panic there takes a tenant's
    // connection down and poisons its stripe.
    // Snapshot restore additionally consumes on-disk state that may be
    // corrupt: `restore_text` is what `Server::bind` hands the file's
    // bytes to (reader, then validation and build), `from_snapshot_text`
    // the reader-driven engine restore below it, `from_stream_snapshot`
    // the wrapper that renders a tree and takes the same path.
    (None, "parse_request", "crates/serve/src/"),
    (None, "run_op", "crates/serve/src/"),
    (None, "handle_request", "crates/serve/src/"),
    (Some("PoolHandle"), "request", "crates/serve/src/"),
    (None, "serve_connection", "crates/serve/src/"),
    (
        Some("StreamEngine"),
        "from_stream_snapshot",
        "crates/serve/src/",
    ),
    (Some("PoolHandle"), "restore_text", "crates/serve/src/"),
    (None, "from_snapshot_text", "crates/rgraph/src/"),
];

/// Keywords and builtins that look like calls but never are.
fn is_call_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "fn"
            | "let"
            | "move"
            | "in"
            | "as"
            | "ref"
            | "mut"
            | "else"
            | "unsafe"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "dyn"
            | "Some"
            | "Ok"
            | "Err"
            | "None"
    )
}

/// Method names shared with the standard library's collections and
/// traits. An unqualified `.name(` call with one of these names almost
/// always targets a `Vec`/`BTreeMap`/iterator, so edging to every
/// workspace method of the same name would wire unrelated subsystems
/// together (e.g. `line.get(p)` → an analysis cache's `get`). Qualified
/// calls (`Type::name(`) still resolve precisely.
const AMBIENT_METHODS: &[&str] = &[
    "new", "get", "get_mut", "insert", "push", "pop", "extend", "last", "first", "len", "is_empty",
    "clear", "clone", "iter", "iter_mut", "next", "contains", "remove", "entry", "keys", "values",
    "fmt", "eq", "cmp", "hash", "default", "drop", "from", "into", "build", "min", "max",
];

struct Node<'a> {
    file: &'a ParsedFile,
    fr: FnRef<'a>,
}

/// Runs `panic-reachability` over the whole parsed workspace.
pub fn panic_reachability(files: &[ParsedFile], diags: &mut Vec<Diagnostic>) {
    // --- nodes --------------------------------------------------------
    let mut nodes: Vec<Node<'_>> = Vec::new();
    for pf in files {
        if !crate::rules::analysis_scope(&pf.path) {
            continue;
        }
        for fr in pf.file.functions() {
            if fr.in_test || fr.f.body.is_none() {
                continue;
            }
            nodes.push(Node { file: pf, fr });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut self_tys: BTreeSet<&str> = BTreeSet::new();
    for (id, node) in nodes.iter().enumerate() {
        by_name.entry(node.fr.f.name.as_str()).or_default().push(id);
        if let Some(ty) = node.fr.self_ty {
            self_tys.insert(ty);
        }
    }

    // --- edges --------------------------------------------------------
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        let file = &node.file.file;
        let body = node.fr.f.body.as_ref().expect("body checked above");
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for i in body.range.0..body.range.1 {
            if file.text(i + 1) != "(" {
                continue;
            }
            let name = file.text(i);
            if !name
                .chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                || is_call_keyword(name)
            {
                continue;
            }
            let Some(candidates) = by_name.get(name) else {
                continue;
            };
            let is_method = i >= 1 && file.text(i - 1) == ".";
            if is_method && AMBIENT_METHODS.contains(&name) {
                continue;
            }
            // A bare `name(` where `name` is a parameter of this function
            // calls the closure the caller passed (a parameter shadows any
            // function of that name): the closure's body belongs to the
            // caller, which is where its calls are found.
            let is_path = i >= 1 && file.text(i - 1) == ":";
            if !is_method && !is_path && node.fr.f.params.iter().any(|p| p == name) {
                continue;
            }
            // `Qual::name(`: a known impl type narrows the target; a
            // foreign (capitalized, unknown) type is std or another
            // crate and contributes no workspace edge; a lowercase
            // qualifier is a module path and stays name-resolved.
            let mut qual = None;
            // `self.name(`: the receiver type is the enclosing impl's —
            // resolve to that type's own method when it defines one.
            if is_method && i >= 2 && file.text(i - 2) == "self" {
                if let Some(ty) = node.fr.self_ty {
                    if candidates.iter().any(|&t| nodes[t].fr.self_ty == Some(ty)) {
                        qual = Some(ty);
                    }
                }
            }
            if i >= 3 && file.text(i - 1) == ":" && file.text(i - 2) == ":" {
                let q = file.text(i - 3);
                if self_tys.contains(q) {
                    qual = Some(q);
                } else if q.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    continue;
                }
            }
            for &target in candidates {
                if target == id {
                    continue;
                }
                if let Some(qual) = qual {
                    if nodes[target].fr.self_ty != Some(qual) {
                        continue;
                    }
                }
                out.insert(target);
            }
        }
        edges[id] = out.into_iter().collect();
    }

    // --- entry points + BFS ------------------------------------------
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut pred: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut seen: Vec<bool> = vec![false; nodes.len()];
    for (id, node) in nodes.iter().enumerate() {
        let is_entry = ENTRY_POINTS.iter().any(|(ty, name, prefix)| {
            node.fr.f.name == *name
                && node.file.path.starts_with(prefix)
                && ty.is_none_or(|ty| node.fr.self_ty == Some(ty))
        });
        if is_entry {
            seen[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &next in &edges[id] {
            if !seen[next] {
                seen[next] = true;
                pred[next] = Some(id);
                queue.push_back(next);
            }
        }
    }

    // --- panic sites in reachable fns --------------------------------
    for (id, node) in nodes.iter().enumerate() {
        if !seen[id] {
            continue;
        }
        let body = node.fr.f.body.as_ref().expect("body checked above");
        let mut sites = Vec::new();
        collect_sites(node.file, body, &mut sites);
        if sites.is_empty() {
            continue;
        }
        // Witness path entry → … → this fn.
        let mut path = vec![id];
        while let Some(p) = pred[*path.last().expect("nonempty")] {
            path.push(p);
            if path.len() > 64 {
                break;
            }
        }
        let trail: Vec<&str> = path
            .iter()
            .rev()
            .map(|&n| nodes[n].fr.f.name.as_str())
            .collect();
        for (tok, what) in sites {
            diags.push(node.file.diag(
                "panic-reachability",
                tok,
                format!("{what} reachable via {}", trail.join(" → ")),
            ));
        }
    }
}

/// Panic sites inside one fn body: `(token, description)`.
fn collect_sites(pf: &ParsedFile, body: &Scope, out: &mut Vec<(usize, String)>) {
    let file = &pf.file;
    for i in body.range.0..body.range.1 {
        let text = file.text(i);
        if matches!(text, "panic" | "unreachable" | "todo" | "unimplemented")
            && file.text(i + 1) == "!"
        {
            out.push((i, format!("{text}! ")));
            continue;
        }
        if text == "." && matches!(file.text(i + 1), "unwrap" | "expect") && file.text(i + 2) == "("
        {
            out.push((i, format!(".{}()", file.text(i + 1))));
            continue;
        }
        // Indexing whose index expression subtracts without a guard.
        if text == "[" {
            let prev = file.text(i.wrapping_sub(1));
            let postfix = prev == ")"
                || prev == "]"
                || (prev
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
                    && !matches!(prev, "as" | "in" | "return" | "break"));
            if !postfix {
                continue;
            }
            // Find the matching `]` by depth.
            let mut depth = 0i64;
            let mut close = i;
            while close < body.range.1 {
                match file.text(close) {
                    "[" | "(" | "{" => depth += 1,
                    "]" | ")" | "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            let idx = (i + 1, close);
            if idx.0 >= idx.1 {
                continue;
            }
            if index_expr_is_hazardous(pf, body, idx) {
                out.push((
                    i,
                    format!(
                        "indexing `[{}]` with unguarded subtraction",
                        file.render(idx)
                    ),
                ));
            }
        }
    }
}

/// Whether an index expression contains a subtraction not screened by
/// any dominating guard, loop binder, range, or mask.
fn index_expr_is_hazardous(pf: &ParsedFile, body: &Scope, idx: (usize, usize)) -> bool {
    let file = &pf.file;
    let has_minus = (idx.0..idx.1).any(|i| {
        file.text(i) == "-"
            // prefix minus on a literal (`arr[-1]` is not valid Rust for
            // arrays, but keep the check shaped for subtraction only)
            && i > idx.0
    });
    if !has_minus {
        return false;
    }
    // Ranges/slicing, masking and modulo are the bounded-arena idiom.
    if (idx.0..idx.1.saturating_sub(1)).any(|i| file.text(i) == "." && file.text(i + 1) == ".") {
        return false;
    }
    if (idx.0..idx.1)
        .any(|i| matches!(file.text(i), "%" | "min" | "saturating_sub" | "checked_sub"))
    {
        return false;
    }
    // Any ident of the expression bound by a loop or mentioned in a
    // dominating guard/assert screens the site.
    let guards = guard_chain(file, body, idx.0);
    for i in idx.0..idx.1 {
        let name = file.text(i);
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue;
        }
        for g in &guards {
            match g {
                Guard::ForBinder { binders, .. } if binders.iter().any(|b| b == name) => {
                    return false
                }
                Guard::True(c) | Guard::False(c) | Guard::Assert(c)
                    if (c.0..c.1).any(|k| file.text(k) == name) =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}
