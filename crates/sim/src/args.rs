//! One command-line grammar for the workspace's binaries (DESIGN.md
//! decision 27). A binary declares its flags as a table of
//! `(name, Arity)`, and [`Grammar::read`] hands the [`Args`] read off argv
//! to the binary's own typed reads and checks. The rules have no knobs:
//!
//! * a switch never takes the next argument, and `--switch=x` is refused;
//! * a value flag takes the next argument or `--name=value`; a missing or
//!   empty value, or a `--` flag in its place, is refused;
//! * an unlisted flag, a flag given twice, and a positional beyond the
//!   binary's count are refused, the last naming the switch it follows;
//! * `--help` and `-h` print the usage, rendered from the table, to stdout
//!   and exit 0; a refusal prints its reason and the usage to stderr and
//!   exits 1.

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

/// What a flag takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// Present or absent; never takes a value.
    Switch,
    /// One value, shown in the usage under this name (`--n N`).
    Value(&'static str),
}

/// A flag's name without the leading `--`, and what it takes.
pub type Flag = (&'static str, Arity);

/// A binary's command line: its flags, how many positionals it takes and
/// its usage text.
#[derive(Debug)]
pub struct Grammar {
    program: &'static str,
    flags: Vec<Flag>,
    positionals: usize,
    /// What `--help` and every refusal print.
    pub usage: String,
}

/// What the grammar read: the flags given, in argv order, and positionals.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Each flag given and its value; a switch has none.
    pub flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

/// The usage form of `flags`: `[--name VALUE] [--switch] ...`.
pub fn synopsis(flags: &[Flag]) -> String {
    let shown = flags.iter().map(|&(name, arity)| match arity {
        Arity::Switch => format!("[--{name}]"),
        Arity::Value(value) => format!("[--{name} {value}]"),
    });
    shown.collect::<Vec<_>>().join(" ")
}

impl Grammar {
    /// `program`'s grammar: `flags`, and at most `positionals`
    /// positionals, shown in the usage line as `operands`.
    pub fn new(program: &'static str, operands: &str, positionals: usize, flags: &[Flag]) -> Self {
        let usage = format!("usage: {program} {operands} {}", synopsis(flags));
        let usage = usage.replace("  ", " ").trim_end().to_string();
        Grammar {
            program,
            flags: flags.to_vec(),
            positionals,
            usage,
        }
    }

    /// Reads `argv` (without the program name) by the rules above;
    /// `Ok(None)` asks for the usage.
    pub fn parse(&self, argv: &[String]) -> Result<Option<Args>, String> {
        let (mut args, mut switch) = (Args::default(), None);
        let mut argv = argv.iter().peekable();
        while let Some(arg) = argv.next() {
            let after_switch = switch.take();
            if arg == "--help" || arg == "-h" {
                return Ok(None);
            }
            let Some(body) = arg.strip_prefix("--") else {
                if args.positionals.len() < self.positionals {
                    args.positionals.push(arg.clone());
                    continue;
                }
                return Err(match after_switch {
                    Some(name) => format!("--{name} takes no value ({arg:?})"),
                    None => format!("unexpected argument {arg:?}"),
                });
            };
            let (name, inline) = body
                .split_once('=')
                .map_or((body, None), |(n, v)| (n, Some(v)));
            let Some(&(name, arity)) = self.flags.iter().find(|flag| flag.0 == name) else {
                return Err(format!("{} reads no --{name}", self.program));
            };
            if args.switch(name) {
                return Err(format!("--{name} is given twice"));
            }
            let value = match (arity, inline) {
                (Arity::Switch, None) => None,
                (Arity::Switch, Some(_)) => return Err(format!("--{name} takes no value")),
                (Arity::Value(_), inline) => {
                    let next = argv.next_if(|next| inline.is_none() && !next.starts_with("--"));
                    let value = inline
                        .or(next.map(String::as_str))
                        .filter(|v| !v.is_empty());
                    Some(value.ok_or(format!("--{name} needs a value"))?.to_string())
                }
            };
            switch = value.is_none().then_some(name);
            args.flags.push((name, value));
        }
        Ok(Some(args))
    }

    /// Reads `argv` and hands the [`Args`] to `then`, the binary's own
    /// typed reads and checks. `--help` prints the usage to stdout and
    /// gives exit code 0; a refusal by the grammar or by `then` prints its
    /// reason and the usage to stderr and gives 1.
    pub fn read<T>(
        &self,
        argv: impl IntoIterator<Item = String>,
        then: impl FnOnce(Args) -> Result<T, String>,
    ) -> Result<T, ExitCode> {
        let parsed = self.parse(&argv.into_iter().collect::<Vec<_>>());
        match parsed.and_then(|args| args.map(then).transpose()) {
            Ok(Some(value)) => Ok(value),
            Ok(None) => {
                println!("{}", self.usage);
                Err(ExitCode::SUCCESS)
            }
            Err(reason) => {
                eprintln!("{reason}\n{}", self.usage);
                Err(ExitCode::FAILURE)
            }
        }
    }
}

impl Args {
    /// Whether `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|given| given.0 == name)
    }

    /// The value `--name` was given, if it was.
    pub fn value(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().find(|given| given.0 == name);
        given.and_then(|given| given.1.as_deref())
    }

    /// `--name`'s value parsed, `None` when absent; an error naming the
    /// flag when the value does not parse.
    pub fn get<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| v.parse().map_err(|err| format!("--{name} {v:?}: {err}"));
        self.value(name).map(parse).transpose()
    }

    /// The `index`-th positional, if given.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        ("quick", Arity::Switch),
        ("verify", Arity::Switch),
        ("n", Arity::Value("N")),
        ("dot", Arity::Value("PATH")),
    ];

    type Parsed = Result<Option<Args>, String>;

    fn parse(argv: &[&str]) -> Parsed {
        let argv: Vec<String> = argv.iter().map(|arg| arg.to_string()).collect();
        Grammar::new("prog", "[CMD]", 1, FLAGS).parse(&argv)
    }

    fn args(flags: &[(&'static str, Option<&str>)], positionals: &[&str]) -> Option<Args> {
        Some(Args {
            flags: flags
                .iter()
                .map(|&(n, v)| (n, v.map(str::to_string)))
                .collect(),
            positionals: positionals.iter().map(|p| p.to_string()).collect(),
        })
    }

    /// One case per rule: what each argv reads as, or how it is refused.
    #[test]
    fn every_rule_on_one_table() {
        let read = |flags, positionals| Ok(args(flags, positionals));
        let refused = |reason: &str| Err(reason.to_string());
        let cases: Vec<(&[&str], Parsed)> = vec![
            // A switch never takes the next argument.
            (&["--quick", "run"], read(&[("quick", None)], &["run"])),
            (&["run", "--quick"], read(&[("quick", None)], &["run"])),
            (&["--quick=yes"], refused("--quick takes no value")),
            // A value flag takes the next argument or `--name=value`.
            (&["--n", "3", "run"], read(&[("n", Some("3"))], &["run"])),
            (&["--n=3"], read(&[("n", Some("3"))], &[])),
            (&["--n", "-3"], read(&[("n", Some("-3"))], &[])),
            (&["--n=a=b"], read(&[("n", Some("a=b"))], &[])),
            // A missing value is refused.
            (&["--n"], refused("--n needs a value")),
            (&["--n="], refused("--n needs a value")),
            (&["--n", ""], refused("--n needs a value")),
            (&["--dot", "--n", "3"], refused("--dot needs a value")),
            // A flag given twice, or one the table lacks, is refused.
            (&["--n", "3", "--n", "4"], refused("--n is given twice")),
            (&["--n=3", "--n", "3"], refused("--n is given twice")),
            (&["--quick", "--quick"], refused("--quick is given twice")),
            (&["--nn", "3"], refused("prog reads no --nn")),
            (&["--"], refused("prog reads no --")),
            // Extra positionals are refused, naming a switch just before.
            (&["run", "extra"], refused("unexpected argument \"extra\"")),
            (
                &["run", "--verify", "yes"],
                refused("--verify takes no value (\"yes\")"),
            ),
            (
                &["--verify", "run", "yes"],
                refused("unexpected argument \"yes\""),
            ),
            // Help, wherever it stands as a flag.
            (&["--help"], Ok(None)),
            (&["run", "--n", "3", "-h"], Ok(None)),
            (&["--dot", "-h"], read(&[("dot", Some("-h"))], &[])),
            (&[], read(&[], &[])),
        ];
        for (argv, expected) in cases {
            assert_eq!(parse(argv), expected, "{argv:?}");
        }
    }

    #[test]
    fn typed_reads_name_the_flag() {
        let args = parse(&["--n", "junk", "--quick"]).unwrap().unwrap();
        assert!(args.switch("quick") && !args.switch("verify"));
        assert_eq!(args.get::<u64>("dot"), Ok(None));
        let err = args.get::<u64>("n").expect_err("junk is no number");
        assert!(err.starts_with("--n \"junk\": "), "{err}");
        let names: Vec<&str> = args.flags.iter().map(|given| given.0).collect();
        assert_eq!(names, ["n", "quick"]);
        let args = parse(&["run", "--n=12"]).unwrap().unwrap();
        assert_eq!(
            (args.get::<u64>("n"), args.positional(0)),
            (Ok(Some(12)), Some("run"))
        );
        assert_eq!(args.positional(1), None);
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let usage = Grammar::new("prog", "[CMD]", 1, FLAGS).usage;
        assert_eq!(
            usage,
            "usage: prog [CMD] [--quick] [--verify] [--n N] [--dot PATH]"
        );
        assert_eq!(Grammar::new("prog", "", 0, &[]).usage, "usage: prog");
        let grammar = Grammar::new("prog", "", 0, FLAGS);
        let read =
            |arg: &str, check: Result<(), String>| grammar.read([arg.to_string()], |_| check);
        assert_eq!(read("-h", Ok(())), Err(ExitCode::SUCCESS));
        assert_eq!(read("x", Ok(())), Err(ExitCode::FAILURE));
        assert_eq!(
            read("--quick", Err("no".to_string())),
            Err(ExitCode::FAILURE)
        );
        assert_eq!(read("--quick", Ok(())), Ok(()));
    }
}
