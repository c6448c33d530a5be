//! A dependency-free Rust lexer producing spanned tokens.
//!
//! This is the first stage of the `rdt-lint` pipeline (lexer → token
//! tree → lightweight AST → rules). It recognises every literal form the
//! workspace uses — plain, raw (`r#"…"#` at any hash depth), byte
//! (`b"…"`) and raw-byte (`br#"…"#`) strings, char and byte literals,
//! lifetimes, nested block comments, raw identifiers — so the later
//! stages see *tokens*, never bytes that might be inside a string.
//!
//! The lexer is total: any byte sequence produces a token stream without
//! panicking (unterminated literals run to end of input, stray bytes
//! become `Unknown` tokens). A proptest in `tests/fixtures_corpus.rs`
//! pins this.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#match`).
    Ident,
    /// Lifetime, e.g. `'a` (the tick is included in the span).
    Lifetime,
    /// Integer literal (any base, with suffix).
    Int,
    /// Float literal.
    Float,
    /// String-ish literal: `"…"`, `r"…"`, `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte literal: `'x'`, `b'\n'`.
    Char,
    /// One punctuation byte (`.`, `:`, `-`, `&`, `[`, `{`, …).
    Punct,
    /// A byte the lexer could not classify (kept so spans stay exact).
    Unknown,
}

/// One token: kind plus byte span and 1-based line/column of its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
    /// 1-based line of `lo`.
    pub line: u32,
    /// 1-based column (in bytes) of `lo`.
    pub col: u32,
}

impl Token {
    /// The token's text within `src`.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.lo..self.hi).unwrap_or("")
    }

    /// Whether this is an ident token with exactly this text.
    pub fn is_ident(&self, src: &str, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == text
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphabetic() || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80
}

/// Internal cursor over the source bytes with line/column tracking.
struct Cursor<'s> {
    bytes: &'s [u8],
    i: usize,
    line: u32,
    col: u32,
}

impl<'s> Cursor<'s> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.i + ahead).copied()
    }

    fn bump(&mut self) {
        if let Some(&b) = self.bytes.get(self.i) {
            self.i += 1;
            if b == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    /// Consumes a `"`-delimited body honouring `\` escapes; the opening
    /// quote must already be consumed. Stops after the closing quote or
    /// at end of input.
    fn quoted_body(&mut self) {
        while let Some(b) = self.peek(0) {
            match b {
                b'\\' => self.bump_n(2),
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw-string body: the cursor sits on the first `#` or
    /// the opening quote. Returns `true` if this really was a raw string
    /// (otherwise the cursor is unmoved).
    fn raw_body(&mut self) -> bool {
        let mut hashes = 0;
        while self.peek(hashes) == Some(b'#') {
            hashes += 1;
        }
        if self.peek(hashes) != Some(b'"') {
            return false;
        }
        self.bump_n(hashes + 1);
        while let Some(b) = self.peek(0) {
            if b == b'"' {
                let mut k = 0;
                while k < hashes && self.peek(1 + k) == Some(b'#') {
                    k += 1;
                }
                if k == hashes {
                    self.bump_n(1 + hashes);
                    return true;
                }
            }
            self.bump();
        }
        true // unterminated: ran to end of input
    }
}

/// Lexes `src` into tokens. Comments and whitespace are dropped; every
/// other byte lands in exactly one token. Never panics.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut cur = Cursor {
        bytes,
        i: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = cur.peek(0) {
        let (lo, line, col) = (cur.i, cur.line, cur.col);
        let mut push = |cur: &Cursor, kind: TokKind| {
            debug_assert!(cur.i > lo, "lexer must always make progress");
            out.push(Token {
                kind,
                lo,
                hi: cur.i,
                line,
                col,
            });
        };
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => cur.bump(),
            b'/' if cur.peek(1) == Some(b'/') => {
                while cur.peek(0).is_some_and(|b| b != b'\n') {
                    cur.bump();
                }
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                // Block comment, nesting honoured.
                cur.bump_n(2);
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(0), cur.peek(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump_n(2);
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump_n(2);
                        }
                        (Some(_), _) => cur.bump(),
                        (None, _) => break,
                    }
                }
            }
            b'"' => {
                cur.bump();
                cur.quoted_body();
                push(&cur, TokKind::Str);
            }
            b'\'' => {
                // Char literal vs lifetime. `'\…'` or `'x'` is a char;
                // `'ident` without a closing quote is a lifetime.
                if cur.peek(1) == Some(b'\\') {
                    cur.bump_n(2); // ' and backslash
                    cur.bump(); // the escaped byte (handles \' and \\)
                    while cur.peek(0).is_some_and(|b| b != b'\'' && b != b'\n') {
                        cur.bump(); // \u{…} and friends
                    }
                    cur.bump(); // closing quote (or newline/EOF)
                    push(&cur, TokKind::Char);
                } else if cur.peek(2) == Some(b'\'')
                    && cur.peek(1).is_some_and(|c| c != b'\'' && c != b'\n')
                {
                    cur.bump_n(3);
                    push(&cur, TokKind::Char);
                } else if cur.peek(1).is_some_and(is_ident_start) {
                    cur.bump();
                    while cur.peek(0).is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    push(&cur, TokKind::Lifetime);
                } else {
                    cur.bump();
                    push(&cur, TokKind::Unknown);
                }
            }
            b'r' | b'b' if starts_prefixed_literal(bytes, cur.i) => {
                // r"…", r#"…"#, b"…", br"…", rb is not Rust but treated
                // as raw too (never panics), b'…'.
                let mut j = cur.i;
                while matches!(bytes.get(j), Some(b'r' | b'b')) {
                    j += 1;
                }
                let prefix = &bytes[cur.i..j];
                if bytes.get(j) == Some(&b'\'') {
                    // b'…' byte literal: reuse the char scanner by
                    // consuming the prefix first.
                    cur.bump_n(j - cur.i);
                    if cur.peek(1) == Some(b'\\') {
                        cur.bump_n(2);
                        cur.bump();
                        while cur.peek(0).is_some_and(|b| b != b'\'' && b != b'\n') {
                            cur.bump();
                        }
                        cur.bump();
                    } else {
                        cur.bump_n(3.min(bytes.len() - cur.i));
                    }
                    push(&cur, TokKind::Char);
                } else if prefix.contains(&b'r') {
                    cur.bump_n(j - cur.i);
                    if cur.raw_body() {
                        push(&cur, TokKind::Str);
                    } else {
                        // `r#ident` raw identifier or plain ident start.
                        while cur.peek(0) == Some(b'#') {
                            cur.bump();
                        }
                        while cur.peek(0).is_some_and(is_ident_continue) {
                            cur.bump();
                        }
                        push(&cur, TokKind::Ident);
                    }
                } else {
                    // b"…" byte string.
                    cur.bump_n(j - cur.i + 1);
                    cur.quoted_body();
                    push(&cur, TokKind::Str);
                }
            }
            _ if is_ident_start(b) => {
                cur.bump();
                while cur.peek(0).is_some_and(is_ident_continue) {
                    cur.bump();
                }
                push(&cur, TokKind::Ident);
            }
            _ if b.is_ascii_digit() => {
                cur.bump();
                let mut kind = TokKind::Int;
                while let Some(c) = cur.peek(0) {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        cur.bump();
                    } else if c == b'.'
                        && kind == TokKind::Int
                        && cur.peek(1).is_some_and(|d| d.is_ascii_digit())
                    {
                        // `1.5` is a float; `1..n` and `x.0` are not.
                        kind = TokKind::Float;
                        cur.bump();
                    } else {
                        break;
                    }
                }
                push(&cur, kind);
            }
            b'!' | b'#' | b'$' | b'%' | b'&' | b'(' | b')' | b'*' | b'+' | b',' | b'-' | b'.'
            | b'/' | b':' | b';' | b'<' | b'=' | b'>' | b'?' | b'@' | b'[' | b']' | b'^' | b'_'
            | b'{' | b'|' | b'}' | b'~' => {
                cur.bump();
                push(&cur, TokKind::Punct);
            }
            _ => {
                cur.bump();
                push(&cur, TokKind::Unknown);
            }
        }
    }
    out
}

/// Whether position `i` (an `r` or `b`) starts a prefixed literal
/// (`r"`, `r#"`, `b"`, `b'`, `br"`, `br#"`, `rb…`) rather than a plain
/// identifier. Also true for raw identifiers `r#ident`, which the caller
/// disambiguates via [`Cursor::raw_body`].
fn starts_prefixed_literal(bytes: &[u8], i: usize) -> bool {
    if i > 0 && is_ident_continue(bytes[i - 1]) {
        return false; // mid-identifier, e.g. the `r` in `four"…"` split
    }
    let mut j = i;
    while matches!(bytes.get(j), Some(b'r' | b'b')) && j - i < 2 {
        j += 1;
    }
    match bytes.get(j) {
        Some(b'"') => true,
        Some(b'\'') => bytes[i..j] == [b'b'], // only b'…' is a literal
        Some(b'#') => {
            // r#"…"# (raw string) or r#ident (raw identifier): both are
            // handled by the literal arm; anything else (`match!#`…) no.
            bytes[i..j].contains(&b'r')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    #[test]
    fn raw_strings_every_hash_depth() {
        for src in [
            "r\"HashMap\"",
            "r#\"HashMap\"#",
            "r##\"quote \"# inside\"##",
        ] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src}: {toks:?}");
            assert_eq!(toks[0].0, TokKind::Str);
            assert_eq!(toks[0].1, src);
        }
    }

    #[test]
    fn byte_strings_and_byte_literals() {
        assert_eq!(kinds("b\"Instant\""), vec![(TokKind::Str, "b\"Instant\"")]);
        assert_eq!(
            kinds("br#\"SystemTime\"#"),
            vec![(TokKind::Str, "br#\"SystemTime\"#")]
        );
        assert_eq!(kinds("b'x'"), vec![(TokKind::Char, "b'x'")]);
        assert_eq!(kinds("b'\\''"), vec![(TokKind::Char, "b'\\''")]);
    }

    #[test]
    fn nested_block_comments_are_skipped() {
        let src = "a /* outer /* inner */ still comment */ z";
        assert_eq!(
            kinds(src),
            vec![(TokKind::Ident, "a"), (TokKind::Ident, "z")]
        );
    }

    #[test]
    fn escaped_backslash_does_not_eat_the_closing_quote() {
        let src = r#"let s = "a\\"; x"#;
        let toks = kinds(src);
        assert!(
            toks.contains(&(TokKind::Ident, "x")),
            "token after the string survives: {toks:?}"
        );
    }

    #[test]
    fn char_escapes_and_lifetimes() {
        assert_eq!(kinds("'\\''"), vec![(TokKind::Char, "'\\''")]);
        assert_eq!(kinds("'\\u{1F600}'"), vec![(TokKind::Char, "'\\u{1F600}'")]);
        assert_eq!(kinds("&'a str")[1], (TokKind::Lifetime, "'a"));
    }

    #[test]
    fn raw_identifiers_are_idents() {
        assert_eq!(kinds("r#match"), vec![(TokKind::Ident, "r#match")]);
    }

    #[test]
    fn identifier_ending_in_r_before_string_is_not_raw() {
        let toks = kinds("writer \"s\"");
        assert_eq!(toks[0], (TokKind::Ident, "writer"));
        assert_eq!(toks[1].0, TokKind::Str);
    }

    #[test]
    fn numbers_ranges_and_tuple_fields() {
        assert_eq!(kinds("1..n")[0], (TokKind::Int, "1"));
        assert_eq!(kinds("x.0")[2], (TokKind::Int, "0"));
        assert_eq!(kinds("1.5e3")[0], (TokKind::Float, "1.5e3"));
        assert_eq!(kinds("0xFF_u32")[0], (TokKind::Int, "0xFF_u32"));
    }

    #[test]
    fn line_and_column_tracking() {
        let src = "a\n  bb";
        let toks = lex(src);
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn lexer_is_total_on_garbage() {
        for src in [
            "\"unterminated",
            "r#\"open",
            "'\\",
            "b'",
            "\u{7f}\\💥",
            "/*",
        ] {
            let _ = lex(src); // must not panic
        }
    }
}
