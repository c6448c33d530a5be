//! The `rdt-serve` daemon binary: `rdt-serve --help` lists its flags.
//!
//! Defaults: `--listen 127.0.0.1:7878`, `--workers 4` (lock stripes of the
//! engine pool), no persistence; `--listen` and `--unix` are exclusive.
//! The daemon prints one status line once it is accepting connections,
//! then serves until a `{"op":"shutdown"}` frame arrives.

use std::path::PathBuf;
use std::process::ExitCode;

use rdt_serve::{Endpoint, Server, ServerConfig};
use rdt_sim::{Args, Arity::Value, Flag, Grammar};

#[rustfmt::skip]
const FLAGS: &[Flag] =
    &[("listen", Value("ADDR")), ("unix", Value("PATH")), ("workers", Value("N")), ("snapshot", Value("PATH"))];

fn grammar() -> Grammar {
    Grammar::new("rdt-serve", "", 0, FLAGS)
}

/// The daemon's configuration from what the grammar read.
fn config(args: &Args) -> Result<ServerConfig, String> {
    let endpoint = match (args.value("listen"), args.value("unix")) {
        (Some(_), Some(_)) => return Err("--listen and --unix are exclusive".to_string()),
        (None, Some(path)) => Endpoint::Unix(PathBuf::from(path)),
        (addr, None) => Endpoint::Tcp(addr.unwrap_or("127.0.0.1:7878").to_string()),
    };
    let workers = args.get("workers")?.unwrap_or(4);
    if workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    let snapshot_path = args.value("snapshot").map(PathBuf::from);
    Ok(ServerConfig {
        endpoint,
        workers,
        snapshot_path,
    })
}

fn main() -> ExitCode {
    let config = match grammar().read(std::env::args().skip(1), |args| config(&args)) {
        Ok(config) => config,
        Err(code) => return code,
    };
    let described = match &config.endpoint {
        Endpoint::Tcp(addr) => format!("tcp {addr}"),
        Endpoint::Unix(path) => format!("unix {}", path.display()),
    };
    let served = Server::bind(config).and_then(|server| {
        let bound = server
            .local_addr()
            .map_or(described, |addr| format!("tcp {addr}"));
        let restored = server.restored_streams();
        println!("rdt-serve: listening on {bound} ({restored} streams restored)");
        server.run()
    });
    served.map_or_else(
        |e| {
            eprintln!("rdt-serve: {e}");
            ExitCode::FAILURE
        },
        |()| ExitCode::SUCCESS,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Option<ServerConfig>, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        grammar()
            .parse(&argv)?
            .map(|args| config(&args))
            .transpose()
    }

    fn refused(argv: &[&str]) -> String {
        parse(argv)
            .err()
            .unwrap_or_else(|| panic!("{argv:?} was accepted"))
    }

    #[test]
    fn flags_keep_their_defaults_and_meanings() {
        let config = parse(&[]).unwrap().unwrap();
        assert!(matches!(&config.endpoint, Endpoint::Tcp(addr) if addr == "127.0.0.1:7878"));
        assert_eq!((config.workers, config.snapshot_path), (4, None));
        let argv = ["--unix", "d.sock", "--workers=2", "--snapshot", "s.json"];
        let config = parse(&argv).unwrap().unwrap();
        assert!(
            matches!(&config.endpoint, Endpoint::Unix(path) if path == &PathBuf::from("d.sock"))
        );
        assert_eq!(config.workers, 2);
        assert_eq!(config.snapshot_path, Some(PathBuf::from("s.json")));
    }

    #[test]
    fn the_grammar_and_the_daemon_refuse() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["-h"]).unwrap().is_none());
        for (argv, reason) in [
            (
                &["--workers", "2", "--workers", "3"][..],
                "--workers is given twice",
            ),
            (&["--workers", "0"], "--workers must be at least 1"),
            (&["--workers", "many"], "--workers \"many\": "),
            (
                &["--listen", "a:1", "--unix", "b"],
                "--listen and --unix are exclusive",
            ),
            (&["--snapshot"], "--snapshot needs a value"),
            (&["--listen", "--workers", "2"], "--listen needs a value"),
            (&["--threads", "2"], "rdt-serve reads no --threads"),
            (&["serve"], "unexpected argument \"serve\""),
        ] {
            let err = refused(argv);
            assert!(err.starts_with(reason), "{argv:?}: {err}");
        }
    }

    #[test]
    fn help_exits_zero_and_a_refusal_one() {
        let grammar = grammar();
        assert!(grammar
            .usage
            .starts_with("usage: rdt-serve [--listen ADDR]"));
        let read = |argv: &[&str]| {
            let argv = argv.iter().map(|s| s.to_string());
            grammar.read(argv, |args| config(&args).map(drop)).err()
        };
        assert_eq!(read(&["--help"]), Some(ExitCode::SUCCESS));
        assert_eq!(
            read(&["--workers", "2", "--workers", "3"]),
            Some(ExitCode::FAILURE)
        );
        assert_eq!(read(&["--workers", "0"]), Some(ExitCode::FAILURE));
        assert_eq!(read(&["--workers", "3"]), None);
    }
}
