//! The lexer, parser and rule engine are *total*: no input —
//! however malformed, unbalanced, or mid-UTF-8-exotic — may panic them.
//! Random token soup (with raw-string openers, stray delimiters and
//! multi-byte characters deliberately over-represented) exercises that.

use proptest::prelude::*;

/// Alphabet skewed toward the constructs the lexer finds hardest:
/// unterminated raw strings, nested comment openers, byte-string
/// prefixes, lone quotes, unbalanced delimiters, multi-byte characters.
const ALPHABET: &[&str] = &[
    "fn",
    "impl",
    "let",
    "if",
    "else",
    "while",
    "for",
    "in",
    "match",
    "return",
    "self",
    "x",
    "deliver",
    "index",
    "_iv",
    "seed",
    "SimRng",
    "unwrap",
    "assert",
    "0",
    "1",
    "42",
    "0x_f",
    "1.5e3",
    "1..",
    "'a",
    "'a'",
    "'\\''",
    "b'x'",
    "\"",
    "\"str\"",
    "r\"",
    "r#\"",
    "r##\"raw\"##",
    "\"#",
    "b\"bytes\"",
    "br#\"",
    "xr",
    "//",
    "/*",
    "*/",
    "/* /* */",
    "#[cfg(test)]",
    "#[test]",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "::",
    ".",
    ",",
    ";",
    "->",
    "=>",
    "=",
    "==",
    "-",
    "!",
    "é",
    "λ",
    "🦀",
    "привет",
    "\u{2028}",
    "\\",
    "\0",
    " ",
    "\n",
    "\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn token_soup_never_panics_the_pipeline(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..120),
        glue in proptest::collection::vec(any::<bool>(), 0..120),
    ) {
        let mut src = String::new();
        for (k, &p) in picks.iter().enumerate() {
            src.push_str(ALPHABET[p]);
            if glue.get(k).copied().unwrap_or(true) {
                src.push(' ');
            }
        }
        // Lex → parse must be total…
        let toks = rdt_lint::lex::lex(&src);
        for t in &toks {
            prop_assert!(src.is_char_boundary(t.lo) && src.is_char_boundary(t.hi));
        }
        // …and so must every rule, under the hottest scan paths.
        let mut diags = Vec::new();
        for path in [
            "crates/core/src/executor.rs",
            "crates/sim/src/fixture.rs",
            "crates/bench/src/fixture.rs",
            "crates/recovery/src/fixture.rs",
        ] {
            rdt_lint::rules::check_file(&rdt_lint::ParsedFile::parse(path, &src), &mut diags);
        }
    }
}
