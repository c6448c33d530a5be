//! Token trees and the lightweight AST the rules run on.
//!
//! Stage two and three of the pipeline: the flat token stream from
//! [`crate::lex`] is nested by delimiter into token *trees*, then parsed
//! into a deliberately small AST — items (functions, impls, mods,
//! structs) and, inside function bodies, *scopes* (brace blocks tagged
//! with the control header that introduced them) and *statements*
//! (`let` bindings with their initialiser span, expression statements,
//! nested items). Expressions themselves stay flat token ranges: every
//! group's tokens are contiguous in the flat stream, so a `(lo, hi)`
//! token-index range plus the scope tree is enough for the analyses the
//! rules need:
//!
//! * **guard chains** — the conditions dominating a token position
//!   (enclosing `if`/`while` conditions, `else` negations, `for` range
//!   binders, earlier `assert!`/`debug_assert!` statements, and earlier
//!   early-exit `if cond { return/continue/break }` statements with the
//!   condition negated);
//! * **local dataflow** — resolving an identifier at a position to the
//!   initialiser of the nearest dominating `let`, or to a function
//!   parameter.
//!
//! No macro expansion: the workspace is macro-light by construction, and
//! macro *invocations* are still lexed, so rules see their argument
//! tokens. The parser is total — any token soup yields an AST without
//! panicking (pinned by a proptest in the fixtures corpus test).

use crate::lex::{TokKind, Token};

/// A token index range `[lo, hi)` into the flat token vector.
pub type TokRange = (usize, usize);

/// One node of the token tree: a leaf token index or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// Index of a non-delimiter token.
    Leaf(usize),
    /// A `(…)`, `[…]` or `{…}` group.
    Group {
        /// Opening delimiter byte: `(`, `[` or `{`.
        delim: u8,
        /// Token index of the opening delimiter.
        open: usize,
        /// Token index one past the closing delimiter (== `open + 1 +
        /// children tokens + 1` when balanced; tokens of the group are
        /// flat-contiguous in `[open, close)`).
        close: usize,
        /// Nested trees between the delimiters.
        children: Vec<Tree>,
    },
}

impl Tree {
    /// Flat token range covered by this tree.
    pub fn range(&self) -> TokRange {
        match *self {
            Tree::Leaf(i) => (i, i + 1),
            Tree::Group { open, close, .. } => (open, close),
        }
    }
}

fn close_of(delim: u8) -> u8 {
    match delim {
        b'(' => b')',
        b'[' => b']',
        _ => b'}',
    }
}

/// Builds token trees from the flat stream. Unbalanced input never
/// panics: a stray closer is kept as a leaf, an unclosed group runs to
/// the end of input.
pub fn build_trees(src: &str, tokens: &[Token]) -> Vec<Tree> {
    fn build(src: &str, tokens: &[Token], i: &mut usize, until: Option<u8>) -> Vec<Tree> {
        let mut out = Vec::new();
        while *i < tokens.len() {
            let tok = &tokens[*i];
            let text = tok.text(src);
            if tok.kind == TokKind::Punct {
                let b = text.as_bytes().first().copied().unwrap_or(0);
                if matches!(b, b'(' | b'[' | b'{') {
                    let open = *i;
                    *i += 1;
                    let children = build(src, tokens, i, Some(close_of(b)));
                    out.push(Tree::Group {
                        delim: b,
                        open,
                        close: *i,
                        children,
                    });
                    continue;
                }
                if matches!(b, b')' | b']' | b'}') {
                    if until == Some(b) {
                        *i += 1; // consume the closer for the caller
                        return out;
                    }
                    // Stray closer: drop it so parsing continues.
                    *i += 1;
                    continue;
                }
            }
            out.push(Tree::Leaf(*i));
            *i += 1;
        }
        out
    }
    let mut i = 0;
    build(src, tokens, &mut i, None)
}

/// What introduced a scope (brace block) inside a function body.
#[derive(Debug, Clone)]
pub enum ScopeKind {
    /// `if cond { … }` then-branch.
    IfThen {
        /// Token range of the condition.
        cond: TokRange,
    },
    /// `else { … }` (or the final `else` of an `else if` chain);
    /// `cond` is the condition of the matching `if`, which is *false*
    /// inside this scope.
    Else {
        /// Token range of the matching `if` condition.
        cond: Option<TokRange>,
    },
    /// `while cond { … }`.
    While {
        /// Token range of the condition.
        cond: TokRange,
    },
    /// `for binders in iter { … }`.
    For {
        /// Names bound by the loop pattern.
        binders: Vec<String>,
        /// Token range of the iterated expression.
        iter: TokRange,
    },
    /// Any other brace block: `loop`, `match` bodies, bare blocks,
    /// struct literals, closure bodies. No guard information.
    Plain,
}

/// A parsed brace block: its kind plus statements, in order.
#[derive(Debug, Clone)]
pub struct Scope {
    /// What introduced the scope.
    pub kind: ScopeKind,
    /// Flat token range of the block (including the braces).
    pub range: TokRange,
    /// The statements, in source order.
    pub stmts: Vec<Stmt>,
}

/// A nested scope inside a statement, in source order.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Flat token range of the whole statement.
    pub range: TokRange,
    /// Statement form.
    pub kind: StmtKind,
    /// Scopes nested anywhere in this statement (control-structure
    /// bodies, bare blocks), in source order.
    pub subs: Vec<Scope>,
}

/// Statement forms the rules distinguish.
#[derive(Debug, Clone)]
pub enum StmtKind {
    /// `let names = init;`
    Let {
        /// Names bound by the pattern (flattened; `mut`/`ref` stripped).
        names: Vec<String>,
        /// Token range of the initialiser (after `=`), when present.
        init: Option<TokRange>,
    },
    /// Anything else at statement position.
    Expr,
    /// A nested item (fn, struct, …) — parsed into [`Item`].
    Item(Box<Item>),
}

/// A top-level or nested item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Item form.
    pub kind: ItemKind,
    /// Whether a `#[cfg(test)]` attribute gates this item (rules skip
    /// the whole subtree).
    pub cfg_test: bool,
    /// Flat token range of the item, attributes included.
    pub range: TokRange,
}

/// Item forms.
#[derive(Debug, Clone)]
pub enum ItemKind {
    /// A function with its parsed body.
    Fn(FnItem),
    /// `mod name { items }` (inline only; `mod name;` is `Other`).
    Mod {
        /// Module name.
        name: String,
        /// Items inside the module.
        items: Vec<Item>,
    },
    /// `impl [Trait for] SelfTy { items }`.
    Impl {
        /// Rendered self type (e.g. `ExecutorState`).
        self_ty: String,
        /// Trait name when this is a trait impl.
        trait_name: Option<String>,
        /// Associated items.
        items: Vec<Item>,
    },
    /// Anything else (structs, enums, uses, consts, traits are parsed
    /// as `Other` unless they carry bodies the rules need).
    Other,
}

/// A function item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Parameter binder names (`self` included when present).
    pub params: Vec<String>,
    /// Parsed body; `None` for trait method declarations.
    pub body: Option<Scope>,
    /// Token index of the `fn` keyword (for spans).
    pub fn_tok: usize,
    /// Whether any attribute on the fn is `#[test]`.
    pub is_test: bool,
}

/// A parsed source file: flat tokens plus the item tree.
pub struct SourceFile {
    /// The source text.
    pub src: String,
    /// Flat tokens.
    pub tokens: Vec<Token>,
    /// Top-level items.
    pub items: Vec<Item>,
}

impl SourceFile {
    /// Lexes and parses `src`.
    pub fn parse(src: &str) -> SourceFile {
        let tokens = crate::lex::lex(src);
        let trees = build_trees(src, &tokens);
        let items = parse_items(src, &tokens, &trees);
        SourceFile {
            src: src.to_string(),
            tokens,
            items,
        }
    }

    /// Text of token `i` (empty when out of range).
    pub fn text(&self, i: usize) -> &str {
        self.tokens.get(i).map_or("", |t| t.text(&self.src))
    }

    /// Renders a token range with single spaces (for messages).
    pub fn render(&self, range: TokRange) -> String {
        let mut out = String::new();
        for i in range.0..range.1.min(self.tokens.len()) {
            if !out.is_empty() {
                out.push(' ');
            }
            out.push_str(self.text(i));
        }
        out
    }

    /// 1-based (line, col) of token `i`.
    pub fn line_col(&self, i: usize) -> (u32, u32) {
        self.tokens.get(i).map_or((1, 1), |t| (t.line, t.col))
    }

    /// Every non-test function in the file, with its impl context,
    /// depth-first.
    pub fn functions(&self) -> Vec<FnRef<'_>> {
        let mut out = Vec::new();
        collect_fns(&self.items, None, false, &mut out);
        out
    }
}

/// A function together with its enclosing impl's self type.
pub struct FnRef<'a> {
    /// The function item.
    pub f: &'a FnItem,
    /// Enclosing `impl` self type, when inside one.
    pub self_ty: Option<&'a str>,
    /// Whether the fn (or an enclosing item) is `#[cfg(test)]`/`#[test]`.
    pub in_test: bool,
}

fn collect_fns<'a>(
    items: &'a [Item],
    self_ty: Option<&'a str>,
    in_test: bool,
    out: &mut Vec<FnRef<'a>>,
) {
    for item in items {
        let test = in_test || item.cfg_test;
        match &item.kind {
            ItemKind::Fn(f) => {
                out.push(FnRef {
                    f,
                    self_ty,
                    in_test: test || f.is_test,
                });
                // Nested fns inside the body.
                if let Some(body) = &f.body {
                    collect_scope_fns(body, self_ty, test || f.is_test, out);
                }
            }
            ItemKind::Mod { items, .. } => collect_fns(items, self_ty, test, out),
            ItemKind::Impl {
                self_ty: ty, items, ..
            } => collect_fns(items, Some(ty.as_str()), test, out),
            ItemKind::Other => {}
        }
    }
}

fn collect_scope_fns<'a>(
    scope: &'a Scope,
    self_ty: Option<&'a str>,
    in_test: bool,
    out: &mut Vec<FnRef<'a>>,
) {
    for stmt in &scope.stmts {
        if let StmtKind::Item(item) = &stmt.kind {
            collect_fns(std::slice::from_ref(item), self_ty, in_test, out);
        }
        for sub in &stmt.subs {
            collect_scope_fns(sub, self_ty, in_test, out);
        }
    }
}

// ---------------------------------------------------------------------
// Item parsing
// ---------------------------------------------------------------------

/// Whether the attribute tokens in `range` spell `cfg(test)`.
fn attr_is_cfg_test(src: &str, tokens: &[Token], children: &[Tree]) -> bool {
    // children are the trees inside the `[...]` attribute group:
    // `cfg ( test )` possibly with more.
    let mut saw_cfg = false;
    for tree in children {
        match tree {
            Tree::Leaf(i) if tokens[*i].is_ident(src, "cfg") => saw_cfg = true,
            Tree::Group {
                delim: b'(',
                children,
                ..
            } if saw_cfg => {
                return children.iter().any(|t| match t {
                    Tree::Leaf(i) => tokens[*i].is_ident(src, "test"),
                    _ => false,
                });
            }
            _ => {}
        }
    }
    false
}

struct ItemParser<'s> {
    src: &'s str,
    tokens: &'s [Token],
}

impl<'s> ItemParser<'s> {
    fn leaf_text(&self, tree: &Tree) -> Option<&'s str> {
        match tree {
            Tree::Leaf(i) => Some(self.tokens[*i].text(self.src)),
            Tree::Group { .. } => None,
        }
    }

    /// Parses a sibling list of trees into items.
    fn items(&self, trees: &[Tree]) -> Vec<Item> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            let item_start = trees[i].range().0;
            let mut cfg_test = false;
            let mut is_test = false;
            // Attributes: `#` `[ … ]` (possibly several).
            while i + 1 < trees.len() && self.leaf_text(&trees[i]) == Some("#") {
                if let Tree::Group {
                    delim: b'[',
                    children,
                    ..
                } = &trees[i + 1]
                {
                    if attr_is_cfg_test(self.src, self.tokens, children) {
                        cfg_test = true;
                    }
                    let rendered: Vec<_> =
                        children.iter().filter_map(|t| self.leaf_text(t)).collect();
                    if rendered == ["test"] {
                        is_test = true;
                    }
                    i += 2;
                } else {
                    break;
                }
            }
            let Some((item, consumed)) = self.item_at(trees, i, is_test) else {
                i += 1;
                continue;
            };
            let item_end = if consumed > 0 && consumed <= trees.len() {
                trees[consumed - 1].range().1
            } else {
                trees[i.min(trees.len() - 1)].range().1
            };
            out.push(Item {
                kind: item,
                cfg_test,
                range: (item_start, item_end),
            });
            i = consumed;
        }
        out
    }

    /// Tries to parse one item starting at `trees[i]`; returns the item
    /// kind and the index just past it.
    fn item_at(&self, trees: &[Tree], mut i: usize, is_test: bool) -> Option<(ItemKind, usize)> {
        // Skip visibility and qualifiers. A trailing attribute can leave
        // `i` at (or past) the end — every access must stay checked.
        while matches!(
            self.leaf_text(trees.get(i)?),
            Some("pub" | "const" | "async" | "unsafe" | "extern" | "default")
        ) {
            // `pub ( crate )` — skip the paren group too.
            if self.leaf_text(&trees[i]) == Some("pub")
                && matches!(trees.get(i + 1), Some(Tree::Group { delim: b'(', .. }))
            {
                i += 1;
            }
            i += 1;
        }
        match self.leaf_text(trees.get(i)?) {
            Some("fn") => {
                let (f, next) = self.fn_item(trees, i, is_test)?;
                Some((ItemKind::Fn(f), next))
            }
            Some("mod") => {
                let name = self.leaf_text(trees.get(i + 1)?)?.to_string();
                match trees.get(i + 2) {
                    Some(Tree::Group {
                        delim: b'{',
                        children,
                        ..
                    }) => Some((
                        ItemKind::Mod {
                            name,
                            items: self.items(children),
                        },
                        i + 3,
                    )),
                    _ => Some((ItemKind::Other, i + 2)),
                }
            }
            Some("impl") => {
                // impl [<…>] Ty { … } | impl Trait for Ty { … }
                let mut j = i + 1;
                let mut names: Vec<String> = Vec::new();
                let mut trait_name = None;
                let mut depth = 0i32; // generics <…> depth
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group {
                            delim: b'{',
                            children,
                            ..
                        } => {
                            let self_ty = names.last().cloned().unwrap_or_default();
                            return Some((
                                ItemKind::Impl {
                                    self_ty,
                                    trait_name,
                                    items: self.items(children),
                                },
                                j + 1,
                            ));
                        }
                        tree => {
                            if let Some(text) = self.leaf_text(tree) {
                                match text {
                                    "<" => depth += 1,
                                    ">" => depth -= 1,
                                    "for" if depth == 0 => {
                                        trait_name = names.last().cloned();
                                        names.clear();
                                    }
                                    "where" if depth == 0 => {}
                                    _ if depth == 0
                                        && text
                                            .chars()
                                            .next()
                                            .is_some_and(|c| c.is_alphabetic() || c == '_') =>
                                    {
                                        names.push(text.to_string())
                                    }
                                    _ => {}
                                }
                            }
                            j += 1;
                        }
                    }
                }
                Some((ItemKind::Other, j))
            }
            Some("struct" | "enum" | "trait" | "union") => {
                let is_trait = self.leaf_text(&trees[i]) == Some("trait");
                // Skip to the body or terminating `;`.
                let mut j = i + 1;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group {
                            delim: b'{',
                            children,
                            ..
                        } => {
                            if is_trait {
                                // Default method bodies live here.
                                let name = self
                                    .leaf_text(trees.get(i + 1).unwrap_or(&trees[i]))
                                    .unwrap_or("")
                                    .to_string();
                                return Some((
                                    ItemKind::Impl {
                                        self_ty: name,
                                        trait_name: None,
                                        items: self.items(children),
                                    },
                                    j + 1,
                                ));
                            }
                            return Some((ItemKind::Other, j + 1));
                        }
                        tree if self.leaf_text(tree) == Some(";") => {
                            return Some((ItemKind::Other, j + 1))
                        }
                        _ => j += 1,
                    }
                }
                Some((ItemKind::Other, j))
            }
            Some("use" | "mod;" | "static" | "type" | "macro_rules") | Some(_) => {
                // Consume to the next top-level `;` or brace group.
                let mut j = i;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group { delim: b'{', .. } => return Some((ItemKind::Other, j + 1)),
                        tree if self.leaf_text(tree) == Some(";") => {
                            return Some((ItemKind::Other, j + 1))
                        }
                        _ => j += 1,
                    }
                }
                Some((ItemKind::Other, j))
            }
            None => Some((ItemKind::Other, i + 1)),
        }
    }

    /// Parses `fn name (params) [-> ty] { body }` starting at the `fn`
    /// leaf.
    fn fn_item(&self, trees: &[Tree], i: usize, is_test: bool) -> Option<(FnItem, usize)> {
        let fn_tok = match &trees[i] {
            Tree::Leaf(t) => *t,
            Tree::Group { .. } => return None,
        };
        let name = self.leaf_text(trees.get(i + 1)?)?.to_string();
        let mut j = i + 2;
        let mut params = Vec::new();
        // Skip generics, find the parameter parens.
        while j < trees.len() {
            match &trees[j] {
                Tree::Group {
                    delim: b'(',
                    children,
                    ..
                } => {
                    params = self.param_names(children);
                    j += 1;
                    break;
                }
                Tree::Group { delim: b'{', .. } => return None, // no params: not a fn
                _ => j += 1,
            }
        }
        // Skip the return type / where clause to the body.
        while j < trees.len() {
            match &trees[j] {
                Tree::Group {
                    delim: b'{',
                    children,
                    open,
                    close,
                } => {
                    let body = parse_scope(
                        self.src,
                        self.tokens,
                        children,
                        ScopeKind::Plain,
                        (*open, *close),
                    );
                    return Some((
                        FnItem {
                            name,
                            params,
                            body: Some(body),
                            fn_tok,
                            is_test,
                        },
                        j + 1,
                    ));
                }
                tree if self.leaf_text(tree) == Some(";") => {
                    return Some((
                        FnItem {
                            name,
                            params,
                            body: None,
                            fn_tok,
                            is_test,
                        },
                        j + 1,
                    ));
                }
                _ => j += 1,
            }
        }
        Some((
            FnItem {
                name,
                params,
                body: None,
                fn_tok,
                is_test,
            },
            j,
        ))
    }

    /// Binder names from a parameter list: idents directly before a
    /// top-level `:`, plus bare `self`.
    fn param_names(&self, children: &[Tree]) -> Vec<String> {
        let mut out = Vec::new();
        let mut prev: Option<&str> = None;
        let mut depth = 0i32;
        for tree in children {
            match self.leaf_text(tree) {
                Some("<") => depth += 1,
                // The `>` of a `->` (a closure parameter's return type)
                // closes no bracket.
                Some(">") if prev != Some("-") => depth -= 1,
                Some(":") if depth == 0 => {
                    if let Some(name) = prev {
                        if name != "mut" && name != "ref" {
                            out.push(name.to_string());
                        }
                    }
                    prev = None;
                }
                Some("self") => {
                    out.push("self".to_string());
                    prev = Some("self");
                }
                Some(text) => prev = Some(text),
                None => prev = None,
            }
        }
        out
    }
}

/// Parses top-level trees into items.
pub fn parse_items(src: &str, tokens: &[Token], trees: &[Tree]) -> Vec<Item> {
    ItemParser { src, tokens }.items(trees)
}

// ---------------------------------------------------------------------
// Scope / statement parsing
// ---------------------------------------------------------------------

/// Keywords that open a control construct with a brace body.
fn is_block_keyword(text: &str) -> bool {
    matches!(text, "if" | "while" | "for" | "match" | "loop" | "unsafe")
}

fn parse_scope(
    src: &str,
    tokens: &[Token],
    children: &[Tree],
    kind: ScopeKind,
    range: TokRange,
) -> Scope {
    let parser = ItemParser { src, tokens };
    let mut stmts = Vec::new();
    let mut i = 0;
    while i < children.len() {
        let start_range = children[i].range();
        // Nested items.
        if let Some(text) = parser.leaf_text(&children[i]) {
            if matches!(text, "fn" | "struct" | "impl" | "mod" | "trait" | "enum")
                // `struct` in expr position doesn't exist; `match x {}`
                // handled below, so this is safe.
                && !matches!(kind, ScopeKind::Plain if false)
            {
                if let Some((item_kind, next)) = parser.item_at(children, i, false) {
                    let end = if next > 0 && next <= children.len() {
                        children[next - 1].range().1
                    } else {
                        start_range.1
                    };
                    stmts.push(Stmt {
                        range: (start_range.0, end),
                        kind: StmtKind::Item(Box::new(Item {
                            kind: item_kind,
                            cfg_test: false,
                            range: (start_range.0, end),
                        })),
                        subs: Vec::new(),
                    });
                    i = next;
                    continue;
                }
            }
        }
        // `let` statement.
        if parser.leaf_text(&children[i]) == Some("let") {
            let stmt_start = i;
            let mut j = i + 1;
            let mut eq_at = None;
            let mut depth = 0i32;
            while j < children.len() {
                match parser.leaf_text(&children[j]) {
                    Some(";") => break,
                    Some("<") => depth += 1,
                    Some(">") => depth -= 1,
                    Some("=") if depth <= 0 && eq_at.is_none() => {
                        // `=` but not `==`/`=>`/`<=` … single Punct
                        // tokens, so `==` is two adjacent `=` leaves;
                        // treat the first standalone `=` as the binder.
                        let next_is_eq = parser
                            .leaf_text(children.get(j + 1).unwrap_or(&children[j]))
                            == Some("=")
                            && j + 1 < children.len();
                        let prev_text = if j > 0 {
                            parser.leaf_text(&children[j - 1])
                        } else {
                            None
                        };
                        if !next_is_eq
                            && !matches!(prev_text, Some("!" | "<" | ">" | "=" | "+" | "-"))
                        {
                            eq_at = Some(j);
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            let stmt_end_tree = j.min(children.len().saturating_sub(1));
            let end = children
                .get(j)
                .map_or_else(|| children[stmt_end_tree].range().1, |t| t.range().1);
            // Pattern names: idents between `let` and (`:` or `=`).
            let mut names = Vec::new();
            let name_end = eq_at.unwrap_or(j);
            let mut colon_seen = false;
            for tree in &children[i + 1..name_end.min(children.len())] {
                match parser.leaf_text(tree) {
                    Some(":") => colon_seen = true,
                    Some(text)
                        if !colon_seen
                            && text
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                            && !matches!(text, "mut" | "ref" | "Some" | "Ok" | "Err") =>
                    {
                        names.push(text.to_string());
                    }
                    _ => {
                        if let Tree::Group {
                            children: inner, ..
                        } = tree
                        {
                            if !colon_seen {
                                // Tuple / struct patterns: take idents.
                                for t in inner {
                                    if let Some(text) = parser.leaf_text(t) {
                                        if text
                                            .chars()
                                            .next()
                                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                                            && !matches!(text, "mut" | "ref")
                                        {
                                            names.push(text.to_string());
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let init = eq_at.map(|eq| {
                let lo = children[eq + 1..j]
                    .first()
                    .map_or(children[eq].range().1, |t| t.range().0);
                let hi = children[eq + 1..j].last().map_or(lo, |t| t.range().1);
                (lo, hi)
            });
            let subs = collect_subs(src, tokens, &children[stmt_start..j.min(children.len())]);
            stmts.push(Stmt {
                range: (start_range.0, end),
                kind: StmtKind::Let { names, init },
                subs,
            });
            i = (j + 1).min(children.len());
            continue;
        }
        // Control construct or expression statement: consume to the
        // statement boundary — a top-level `;`, or the end of a
        // control construct's block chain.
        let stmt_start = i;
        let mut j = i;
        let mut saw_block_chain = false;
        while j < children.len() {
            if parser.leaf_text(&children[j]) == Some(";") {
                j += 1;
                break;
            }
            if let Some(text) = parser.leaf_text(&children[j]) {
                if is_block_keyword(text) && j == stmt_start {
                    // Control construct at statement start: consume its
                    // header, block, and any else-chain, then stop.
                    j = skip_construct(&parser, children, j);
                    saw_block_chain = true;
                    break;
                }
            }
            if let Tree::Group { delim: b'{', .. } = &children[j] {
                // A block ends an expression statement when it is the
                // statement itself (bare block) — otherwise (struct
                // literal, closure body mid-expression) keep going; we
                // approximate by stopping only when the next tree does
                // not continue an expression.
                let continues = matches!(
                    children.get(j + 1).and_then(|t| parser.leaf_text(t)),
                    Some("." | "?" | ";" | "else")
                );
                if !continues && j == stmt_start {
                    j += 1;
                    saw_block_chain = true;
                    break;
                }
            }
            j += 1;
        }
        if j == stmt_start {
            j = stmt_start + 1;
        }
        let _ = saw_block_chain;
        let end = children[(j - 1).min(children.len() - 1)].range().1;
        let subs = collect_subs(src, tokens, &children[stmt_start..j.min(children.len())]);
        stmts.push(Stmt {
            range: (start_range.0, end),
            kind: StmtKind::Expr,
            subs,
        });
        i = j;
    }
    Scope { kind, range, stmts }
}

/// Consumes one control construct starting at `children[i]` (an
/// `if`/`while`/`for`/`match`/`loop`/`unsafe` keyword): header trees,
/// body group, and any `else`/`else if` chain. Returns the index past
/// it.
fn skip_construct(parser: &ItemParser<'_>, children: &[Tree], i: usize) -> usize {
    let mut j = i + 1;
    // Header up to the first top-level brace group.
    while j < children.len() {
        if let Tree::Group { delim: b'{', .. } = &children[j] {
            j += 1;
            break;
        }
        j += 1;
    }
    // else / else if chains.
    while parser.leaf_text(children.get(j).unwrap_or(&children[0])) == Some("else")
        && j < children.len()
    {
        j += 1;
        if parser.leaf_text(children.get(j).unwrap_or(&children[0])) == Some("if") {
            j += 1;
        }
        while j < children.len() {
            if let Tree::Group { delim: b'{', .. } = &children[j] {
                j += 1;
                break;
            }
            j += 1;
        }
    }
    j
}

/// Finds every brace group nested in `trees` and parses it into a
/// [`Scope`], attaching the control header that introduced it. Walks
/// paren/bracket groups too (conditions with nested closures etc.).
fn collect_subs(src: &str, tokens: &[Token], trees: &[Tree]) -> Vec<Scope> {
    let parser = ItemParser { src, tokens };
    let mut out = Vec::new();
    let mut pending_if_cond: Option<TokRange> = None;
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Leaf(t) => {
                let text = tokens[*t].text(src);
                match text {
                    "if" | "while" => {
                        // Condition runs to the first top-level brace.
                        let is_if = text == "if";
                        let mut j = i + 1;
                        // `else if` shares the pending slot.
                        while j < trees.len() {
                            if let Tree::Group { delim: b'{', .. } = &trees[j] {
                                break;
                            }
                            j += 1;
                        }
                        let cond = if j > i + 1 {
                            (trees[i + 1].range().0, trees[j - 1].range().1)
                        } else {
                            (trees[i].range().1, trees[i].range().1)
                        };
                        if let Some(Tree::Group {
                            children,
                            open,
                            close,
                            ..
                        }) = trees.get(j)
                        {
                            let kind = if is_if {
                                ScopeKind::IfThen { cond }
                            } else {
                                ScopeKind::While { cond }
                            };
                            out.push(parse_scope(src, tokens, children, kind, (*open, *close)));
                            pending_if_cond = is_if.then_some(cond);
                            i = j + 1;
                            continue;
                        }
                        i = j;
                    }
                    "else" => {
                        let cond = pending_if_cond;
                        // `else if …` is handled by the `if` arm on the
                        // next iteration (its own cond); a bare `else {`
                        // gets the negated condition.
                        if let Some(Tree::Group {
                            children,
                            open,
                            close,
                            ..
                        }) = trees.get(i + 1)
                        {
                            out.push(parse_scope(
                                src,
                                tokens,
                                children,
                                ScopeKind::Else { cond },
                                (*open, *close),
                            ));
                            pending_if_cond = None;
                            i += 2;
                            continue;
                        }
                        i += 1;
                    }
                    "for" => {
                        // for BINDERS in ITER { … }
                        let mut in_at = None;
                        let mut j = i + 1;
                        while j < trees.len() {
                            if let Tree::Group { delim: b'{', .. } = &trees[j] {
                                break;
                            }
                            if parser.leaf_text(&trees[j]) == Some("in") && in_at.is_none() {
                                in_at = Some(j);
                            }
                            j += 1;
                        }
                        let mut binders = Vec::new();
                        if let Some(in_at) = in_at {
                            for tree in &trees[i + 1..in_at] {
                                match tree {
                                    Tree::Leaf(t) => {
                                        let text = tokens[*t].text(src);
                                        if text
                                            .chars()
                                            .next()
                                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                                            && !matches!(text, "mut" | "ref")
                                        {
                                            binders.push(text.to_string());
                                        }
                                    }
                                    Tree::Group { children, .. } => {
                                        for t in children {
                                            if let Tree::Leaf(t) = t {
                                                let text = tokens[*t].text(src);
                                                if text
                                                    .chars()
                                                    .next()
                                                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                                                    && !matches!(text, "mut" | "ref")
                                                {
                                                    binders.push(text.to_string());
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        let iter = match in_at {
                            Some(in_at) if j > in_at + 1 => {
                                (trees[in_at + 1].range().0, trees[j - 1].range().1)
                            }
                            _ => (trees[i].range().1, trees[i].range().1),
                        };
                        if let Some(Tree::Group {
                            children,
                            open,
                            close,
                            ..
                        }) = trees.get(j)
                        {
                            out.push(parse_scope(
                                src,
                                tokens,
                                children,
                                ScopeKind::For { binders, iter },
                                (*open, *close),
                            ));
                            i = j + 1;
                            continue;
                        }
                        i = j;
                    }
                    _ => i += 1,
                }
            }
            Tree::Group {
                delim,
                children,
                open,
                close,
            } => {
                if *delim == b'{' {
                    out.push(parse_scope(
                        src,
                        tokens,
                        children,
                        ScopeKind::Plain,
                        (*open, *close),
                    ));
                } else {
                    // Parens/brackets can hide closures with brace
                    // bodies; recurse for their scopes.
                    out.extend(collect_subs(src, tokens, children));
                }
                i += 1;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Guard chains and local dataflow
// ---------------------------------------------------------------------

/// One guard dominating a position.
#[derive(Debug, Clone)]
pub enum Guard {
    /// This condition is *true* at the position.
    True(TokRange),
    /// This condition is *false* at the position (else branch, or an
    /// earlier `if cond { return/continue/break; }`).
    False(TokRange),
    /// The position is inside `for binders in iter { … }`.
    ForBinder {
        /// Loop pattern names.
        binders: Vec<String>,
        /// The iterated expression.
        iter: TokRange,
    },
    /// An earlier `assert!(…)`/`debug_assert!(…)` in the block chain;
    /// the range covers the asserted condition (first macro argument).
    Assert(TokRange),
}

/// Collects the guards dominating flat token position `pos` within a
/// function body.
pub fn guard_chain(file: &SourceFile, body: &Scope, pos: usize) -> Vec<Guard> {
    let mut out = Vec::new();
    descend(file, body, pos, &mut out);
    out
}

fn descend(file: &SourceFile, scope: &Scope, pos: usize, out: &mut Vec<Guard>) {
    for (idx, stmt) in scope.stmts.iter().enumerate() {
        if pos >= stmt.range.0 && pos < stmt.range.1 {
            // Earlier sibling statements contribute asserts and
            // early-exit guards.
            for prior in &scope.stmts[..idx] {
                if let Some(range) = assert_cond(file, prior) {
                    out.push(Guard::Assert(range));
                }
                if let Some(cond) = early_exit_cond(file, prior) {
                    out.push(Guard::False(cond));
                }
            }
            for sub in &stmt.subs {
                if pos >= sub.range.0 && pos < sub.range.1 {
                    match &sub.kind {
                        ScopeKind::IfThen { cond } => out.push(Guard::True(*cond)),
                        ScopeKind::Else { cond: Some(cond) } => out.push(Guard::False(*cond)),
                        ScopeKind::Else { cond: None } => {}
                        ScopeKind::While { cond } => out.push(Guard::True(*cond)),
                        ScopeKind::For { binders, iter } => out.push(Guard::ForBinder {
                            binders: binders.clone(),
                            iter: *iter,
                        }),
                        ScopeKind::Plain => {}
                    }
                    descend(file, sub, pos, out);
                    return;
                }
            }
            return; // in the stmt's own tokens (cond, init, …)
        }
    }
}

/// When `stmt` is `assert!(cond, …)` / `debug_assert!(cond, …)` /
/// `assert_ne!(a, b)`-style, the token range of the condition (first
/// argument, up to a top-level `,` — for `assert_ne`/`assert_eq` the
/// whole argument list).
fn assert_cond(file: &SourceFile, stmt: &Stmt) -> Option<TokRange> {
    let (lo, hi) = stmt.range;
    let first = file.text(lo);
    if !matches!(
        first,
        "assert"
            | "debug_assert"
            | "assert_ne"
            | "debug_assert_ne"
            | "assert_eq"
            | "debug_assert_eq"
    ) {
        return None;
    }
    if file.text(lo + 1) != "!" {
        return None;
    }
    // Tokens of the argument group: `( … )` at lo+2.
    if !matches!(file.text(lo + 2), "(" | "[" | "{") {
        return None;
    }
    let args_lo = lo + 3;
    // First top-level argument: scan to `,` at depth 0 or the closing
    // delimiter.
    let mut depth = 0i32;
    let mut j = args_lo;
    while j < hi {
        match file.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            "," if depth == 0 => break,
            _ => {}
        }
        j += 1;
    }
    if matches!(
        first,
        "assert_ne" | "debug_assert_ne" | "assert_eq" | "debug_assert_eq"
    ) {
        // Keep both arguments: `assert_ne!(x, 0)` is a guard on x.
        let mut end = args_lo;
        let mut depth = 0i32;
        while end < hi {
            match file.text(end) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
            end += 1;
        }
        return Some((args_lo, end));
    }
    Some((args_lo, j))
}

/// When `stmt` is `if cond { …; return/continue/break …; }` with no
/// `else`, the condition (false after the statement).
fn early_exit_cond(file: &SourceFile, stmt: &Stmt) -> Option<TokRange> {
    if file.text(stmt.range.0) != "if" {
        return None;
    }
    let sub = stmt.subs.first()?;
    let ScopeKind::IfThen { cond } = sub.kind else {
        return None;
    };
    // No else branch.
    if stmt
        .subs
        .iter()
        .any(|s| matches!(s.kind, ScopeKind::Else { .. }))
    {
        return None;
    }
    // The block must end in an exit.
    let exits = sub.stmts.last().is_some_and(|last| {
        (last.range.0..last.range.1)
            .any(|i| matches!(file.text(i), "return" | "continue" | "break"))
    }) || sub.stmts.iter().all(|s| {
        (s.range.0..s.range.1).any(|i| matches!(file.text(i), "return" | "continue" | "break"))
    });
    exits.then_some(cond)
}

/// Resolves `name` at `pos` to the initialiser range of the nearest
/// dominating `let`, searching the scope chain.
pub fn resolve_let(scope: &Scope, pos: usize, name: &str) -> Option<TokRange> {
    let mut found = None;
    resolve_in(scope, pos, name, &mut found);
    found
}

fn resolve_in(scope: &Scope, pos: usize, name: &str, found: &mut Option<TokRange>) {
    for stmt in &scope.stmts {
        if stmt.range.0 >= pos {
            break;
        }
        if let StmtKind::Let { names, init } = &stmt.kind {
            if names.iter().any(|n| n == name) {
                if let Some(init) = init {
                    if pos >= stmt.range.1 || pos > init.1 {
                        *found = Some(*init);
                    }
                }
            }
        }
        for sub in &stmt.subs {
            if pos >= sub.range.0 && pos < sub.range.1 {
                resolve_in(sub, pos, name, found);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(src)
    }

    fn first_fn(file: &SourceFile) -> &FnItem {
        fn find(items: &[Item]) -> Option<&FnItem> {
            for item in items {
                match &item.kind {
                    ItemKind::Fn(f) => return Some(f),
                    ItemKind::Mod { items, .. } | ItemKind::Impl { items, .. } => {
                        if let Some(f) = find(items) {
                            return Some(f);
                        }
                    }
                    ItemKind::Other => {}
                }
            }
            None
        }
        find(&file.items).expect("a fn")
    }

    #[test]
    fn parses_fn_with_params_and_body() {
        let file = parse("pub fn f(a: u32, mut b: usize) -> u32 { let c = a + 1; c }");
        let f = first_fn(&file);
        assert_eq!(f.name, "f");
        assert_eq!(f.params, vec!["a", "b"]);
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(&body.stmts[0].kind, StmtKind::Let { names, .. } if names == &["c"]));
    }

    /// A closure parameter's type has a `->` in it, whose `>` closes no
    /// generic bracket: the parameters after it are still parameters.
    #[test]
    fn closure_typed_params_are_all_named() {
        let file = parse(
            "fn map<T, R>(items: &[T], init: impl Fn() -> R + Sync, \
             run: impl Fn(&mut Vec<T>, usize) -> R, mut observe: impl FnMut(usize)) {}",
        );
        assert_eq!(
            first_fn(&file).params,
            vec!["items", "init", "run", "observe"]
        );
    }

    #[test]
    fn impl_blocks_carry_self_type() {
        let file =
            parse("impl<T> Foo<T> { fn g(&self) {} } impl Drop for Bar { fn drop(&mut self) {} }");
        let fns = file.functions();
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].self_ty, Some("Foo"));
        assert_eq!(fns[1].self_ty, Some("Bar"));
        assert_eq!(fns[1].f.name, "drop");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let file = parse("#[cfg(test)] mod tests { fn helper() { x.unwrap(); } } fn live() {}");
        let fns = file.functions();
        let helper = fns.iter().find(|f| f.f.name == "helper").unwrap();
        assert!(helper.in_test);
        let live = fns.iter().find(|f| f.f.name == "live").unwrap();
        assert!(!live.in_test);
    }

    #[test]
    fn guard_chain_sees_if_else_and_early_exit() {
        let src = "fn f(x: u32) -> u32 {\n\
                   if x == 0 { return 0; }\n\
                   if x > 10 { x - 1 } else { x + 1 }\n\
                   }";
        let file = parse(src);
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        // Position of the `-` in `x - 1` (the first `-` is in `->`).
        let minus = file
            .tokens
            .iter()
            .rposition(|t| t.text(&file.src) == "-")
            .unwrap();
        let guards = guard_chain(&file, body, minus);
        assert!(
            guards.iter().any(|g| matches!(g, Guard::False(_))),
            "early exit recorded: {guards:?}"
        );
        assert!(
            guards
                .iter()
                .any(|g| matches!(g, Guard::True(c) if file.render(*c).contains('>'))),
            "if condition recorded: {guards:?}"
        );
    }

    #[test]
    fn else_branch_negates_the_condition() {
        let src = "fn f(x: u32) -> u32 { if x > 0 { 1 } else { x + 7 } }";
        let file = parse(src);
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        let seven = file
            .tokens
            .iter()
            .position(|t| t.text(&file.src) == "7")
            .unwrap();
        let guards = guard_chain(&file, body, seven);
        assert!(
            guards
                .iter()
                .any(|g| matches!(g, Guard::False(c) if file.render(*c) == "x > 0")),
            "{guards:?}"
        );
    }

    #[test]
    fn for_binders_and_assert_guards() {
        let src =
            "fn f(v: &[u32]) { debug_assert!(v.len() > 0); for i in 0..v.len() { let _ = v[i]; } }";
        let file = parse(src);
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        let idx = file
            .tokens
            .iter()
            .rposition(|t| t.text(&file.src) == "i")
            .unwrap();
        let guards = guard_chain(&file, body, idx);
        assert!(
            guards.iter().any(|g| matches!(g, Guard::Assert(_))),
            "{guards:?}"
        );
        assert!(
            guards
                .iter()
                .any(|g| matches!(g, Guard::ForBinder { binders, .. } if binders.contains(&"i".to_string()))),
            "{guards:?}"
        );
    }

    #[test]
    fn let_resolution_walks_the_scope_chain() {
        let src = "fn f(cfg: &Cfg) { let seed = cfg.seed; { let rng = SimRng::seed(seed); } }";
        let file = parse(src);
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        // Resolve `seed` at its use inside SimRng::seed(…).
        let use_at = file
            .tokens
            .iter()
            .rposition(|t| t.text(&file.src) == "seed")
            .unwrap();
        let init = resolve_let(body, use_at, "seed").expect("resolved");
        assert_eq!(file.render(init), "cfg . seed");
    }

    #[test]
    fn parser_is_total_on_unbalanced_garbage() {
        for src in ["fn f( {", "}}}", "impl {{{", "let = = =", "fn", "match {"] {
            let _ = SourceFile::parse(src);
        }
    }
}
