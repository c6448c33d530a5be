//! The `rdt-serve` daemon binary.
//!
//! ```text
//! rdt-serve [--listen ADDR | --unix PATH] [--workers N] [--snapshot PATH]
//! ```
//!
//! Defaults: `--listen 127.0.0.1:7878`, `--workers 4` (lock stripes of the
//! engine pool), no persistence.
//! The daemon prints one status line once it is accepting connections,
//! then serves until a `{"op":"shutdown"}` frame arrives.

use std::path::PathBuf;
use std::process::ExitCode;

use rdt_serve::{Endpoint, Server, ServerConfig};

const USAGE: &str =
    "usage: rdt-serve [--listen ADDR | --unix PATH] [--workers N] [--snapshot PATH]";

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut workers = 4usize;
    let mut snapshot_path: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[i]))
        };
        match args[i].as_str() {
            "--listen" => {
                if endpoint.is_some() {
                    return Err(format!("--listen and --unix are exclusive\n{USAGE}"));
                }
                endpoint = Some(Endpoint::Tcp(value(i)?.clone()));
                i += 2;
            }
            "--unix" => {
                if endpoint.is_some() {
                    return Err(format!("--listen and --unix are exclusive\n{USAGE}"));
                }
                endpoint = Some(Endpoint::Unix(PathBuf::from(value(i)?)));
                i += 2;
            }
            "--workers" => {
                workers = value(i)?
                    .parse()
                    .map_err(|_| format!("--workers needs a positive integer\n{USAGE}"))?;
                if workers == 0 {
                    return Err(format!("--workers needs a positive integer\n{USAGE}"));
                }
                i += 2;
            }
            "--snapshot" => {
                snapshot_path = Some(PathBuf::from(value(i)?));
                i += 2;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }

    Ok(ServerConfig {
        endpoint: endpoint.unwrap_or_else(|| Endpoint::Tcp("127.0.0.1:7878".to_string())),
        workers,
        snapshot_path,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };

    let described = match &config.endpoint {
        Endpoint::Tcp(addr) => format!("tcp {addr}"),
        Endpoint::Unix(path) => format!("unix {}", path.display()),
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("rdt-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server
        .local_addr()
        .map_or(described, |addr| format!("tcp {addr}"));
    println!(
        "rdt-serve: listening on {bound} ({} streams restored)",
        server.restored_streams()
    );
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rdt-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
