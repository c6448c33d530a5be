//! The daemon child process, connections to it, and its `/proc` counters.
//!
//! The child is this same executable run with the `daemon` subcommand,
//! which makes the two calls `rdt-serve`'s `main` makes
//! (`Server::bind`, `Server::run`). It is killed when its [`Daemon`]
//! handle drops, and it exits on its own when its stdin closes, so it
//! cannot outlive a generator that was itself killed.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rdt_serve::{Endpoint, Server, ServerConfig};

use crate::gen::Transport;

/// Longest wait for any single reply, status line or child exit.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Shard threads of every daemon the benchmark starts.
pub const WORKERS: usize = 2;

/// `serve-bench daemon (--listen ADDR | --unix PATH) --snapshot PATH`.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let mut endpoint = None;
    let mut snapshot_path = None;
    for pair in args.chunks(2) {
        match (pair[0].as_str(), pair.get(1)) {
            ("--listen", Some(addr)) => endpoint = Some(Endpoint::Tcp(addr.clone())),
            ("--unix", Some(path)) => endpoint = Some(Endpoint::Unix(PathBuf::from(path))),
            ("--snapshot", Some(path)) => snapshot_path = Some(PathBuf::from(path)),
            _ => {
                eprintln!("serve-bench daemon: bad arguments {args:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(endpoint) = endpoint else {
        eprintln!("serve-bench daemon: needs --listen or --unix");
        return ExitCode::FAILURE;
    };
    let described = match &endpoint {
        Endpoint::Tcp(_) => None,
        Endpoint::Unix(path) => Some(format!("unix {}", path.display())),
    };
    // The parent holds the write end of stdin and never writes: EOF means
    // the parent is gone.
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(3);
    });
    let server = match Server::bind(ServerConfig {
        endpoint,
        workers: WORKERS,
        snapshot_path,
    }) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve-bench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = match (server.local_addr(), described) {
        (Some(addr), _) => format!("tcp {addr}"),
        (None, Some(unix)) => unix,
        (None, None) => unreachable!("a TCP listener has a local address"),
    };
    println!("listening {bound}");
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-bench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pins this process, and with it every child it starts from now on (a
/// child inherits the affinity mask), to the last CPU, using `taskset`:
/// generator, daemon and calibration child all run on one core.
///
/// On the 2-vCPU VM this was sized on, a wake-up that crosses CPUs is an
/// inter-processor interrupt, which a guest pays for with exits to the
/// hypervisor, and what those cost follows the load of the *host*: with
/// the daemon on one CPU and the generator on the other, the daemon's
/// system time on identical frames went from 7 s to 34 s from one run to
/// the next and the depth-1 round trip from 90 µs to 1.5 ms. On one core
/// every hop — generator to connection thread to shard thread and back —
/// is a local context switch, the same run takes 3 s of system time every
/// time, and the round trip is 45 µs. The last CPU, because device
/// interrupts land on CPU 0 and whatever else runs in the guest is free to
/// use the others. The price: nothing runs in parallel, neither inside the
/// daemon nor between daemon and client, so a round trip is the sum of
/// both sides' work and nothing here measures parallel speed-up. Without
/// `taskset` nothing is pinned.
pub fn pin_to_last_cpu() -> bool {
    let Some(cpu) = last_allowed_cpu(&fs::read_to_string("/proc/self/status").unwrap_or_default())
    else {
        return false;
    };
    Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// The highest CPU in the `Cpus_allowed_list` of a `/proc/PID/status`
/// (`0-1`, `0,2-3`, `5`).
fn last_allowed_cpu(status: &str) -> Option<usize> {
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

/// This executable, for the `daemon` and `calibrate` children.
pub fn this_executable() -> Result<Command, String> {
    std::env::current_exe()
        .map(Command::new)
        .map_err(|e| format!("locating this executable: {e}"))
}

enum Addr {
    Tcp(String),
    Unix(PathBuf),
}

/// A child that is killed and reaped when dropped, whichever path —
/// return, error or panic — drops it.
pub struct KillOnDrop(pub Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

pub struct Daemon {
    child: KillOnDrop,
    addr: Addr,
}

impl Daemon {
    /// Starts a daemon that keeps its socket (Unix) and its snapshot in
    /// `dir`, and waits for its status line. An existing snapshot in
    /// `dir` is restored, which is how the persistence cycles restart.
    pub fn spawn(transport: Transport, dir: &Path) -> Result<Daemon, String> {
        let mut command = this_executable()?;
        command.arg("daemon");
        match transport {
            Transport::Tcp => command.args(["--listen", "127.0.0.1:0"]),
            Transport::Unix => command.arg("--unix").arg(dir.join("d.sock")),
        };
        command.arg("--snapshot").arg(snapshot_path(dir));
        let spawned = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut child = KillOnDrop(spawned);
        let stdout = child.0.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut line = String::new();
            let _ = BufReader::new(stdout).read_line(&mut line);
            let _ = tx.send(line);
        });
        let addr = match rx.recv_timeout(REPLY_TIMEOUT) {
            Err(_) => Err("daemon printed no status line within 30 s".to_string()),
            // "listening tcp ADDR" or "listening unix PATH".
            Ok(line) => match line.trim_end().splitn(3, ' ').collect::<Vec<_>>()[..] {
                ["listening", "tcp", addr] => Ok(Addr::Tcp(addr.to_string())),
                ["listening", "unix", path] => Ok(Addr::Unix(PathBuf::from(path))),
                _ => Err(format!(
                    "daemon died or printed a bad status line: {line:?}"
                )),
            },
        };
        Ok(Daemon { child, addr: addr? })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        // `TcpStream` and `UnixStream` share these methods by name only.
        macro_rules! conn {
            ($connected:expr) => {{
                let stream = $connected.map_err(|e| format!("connecting to the daemon: {e}"))?;
                let configured = stream
                    .set_read_timeout(Some(REPLY_TIMEOUT))
                    .and_then(|()| stream.set_write_timeout(Some(REPLY_TIMEOUT)))
                    .and_then(|()| stream.try_clone());
                let reader = configured.map_err(|e| format!("configuring the socket: {e}"))?;
                Ok(Conn {
                    reader: BufReader::new(Box::new(reader)),
                    writer: Box::new(stream),
                    framed: Vec::new(),
                })
            }};
        }
        match &self.addr {
            Addr::Tcp(addr) => conn!(TcpStream::connect(addr)),
            Addr::Unix(path) => conn!(UnixStream::connect(path)),
        }
    }

    /// Waits for the child to exit after a `shutdown` op was answered.
    pub fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.0.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("daemon did not exit within 30 s of shutdown".to_string())
                }
                Ok(None) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }

    fn proc_file(&self, name: &str) -> String {
        fs::read_to_string(format!("/proc/{}/{name}", self.child.0.id())).unwrap_or_default()
    }

    /// `(utime, stime)` of the whole process in seconds. `/proc` counts
    /// in clock ticks, 100 per second on every Linux this runs on.
    pub fn cpu_seconds(&self) -> (f64, f64) {
        stat_cpu_seconds(&self.proc_file("stat"), false)
    }

    /// `utime + stime` since the process started, in seconds.
    pub fn cpu_total(&self) -> f64 {
        let (user, sys) = self.cpu_seconds();
        user + sys
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn rss_peak_mib(&self) -> f64 {
        status_field(&self.proc_file("status"), "VmHWM:") / 1024.0
    }

    /// Live threads and their summed voluntary + involuntary context
    /// switches.
    pub fn threads_and_switches(&self) -> (u64, u64) {
        let mut threads = 0;
        let mut switches = 0.0;
        let tasks = fs::read_dir(format!("/proc/{}/task", self.child.0.id()));
        for task in tasks.into_iter().flatten().flatten() {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            threads += 1;
            switches += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
        (threads, switches as u64)
    }
}

fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .unwrap_or(0.0)
}

pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

/// `(utime, stime)` in seconds from the text of a `/proc/PID/stat`, or
/// with `children` `(cutime, cstime)`: the whole lives of the children
/// the process has reaped.
fn stat_cpu_seconds(stat: &str, children: bool) -> (f64, f64) {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, where field 3 follows; utime is
    // field 14 and cutime field 16.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = rest.split_whitespace().skip(if children { 13 } else { 11 });
    let mut seconds = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (seconds(), seconds())
}

/// `utime + stime` of this process in seconds (the generator's own cost).
pub fn self_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let (user, sys) = stat_cpu_seconds(&stat, false);
    user + sys
}

/// `utime + stime`, from start to exit, of every child this process has
/// reaped so far. A daemon that was shut down adds its whole life here
/// when it is waited for, its exit included, which `/proc/PID/stat` can
/// no longer tell once the process is gone.
pub fn reaped_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let (user, sys) = stat_cpu_seconds(&stat, true);
    user + sys
}

/// A per-run scratch directory under `results/benchmark/`, removed on
/// drop. The path stays relative so a Unix socket inside it fits
/// `sun_path` wherever the checkout lives.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let path = Path::new(RESULTS_DIR).join(format!("run-{}-{tag}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Where traces and per-run scratch directories go (git-ignored).
pub const RESULTS_DIR: &str = "results/benchmark";

fn read_reply(reader: &mut impl BufRead, reply: &mut Vec<u8>) -> Result<(), String> {
    reply.clear();
    match reader.read_until(b'\n', reply) {
        Ok(0) => Err("daemon closed the connection".to_string()),
        Ok(_) => {
            if reply.last() == Some(&b'\n') {
                reply.pop();
            }
            Ok(())
        }
        Err(e) => Err(format!("no reply within 30 s or read failed: {e}")),
    }
}

/// One client connection: newline-delimited frames out, reply lines in.
pub struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    framed: Vec<u8>,
}

impl Conn {
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("writing to the daemon: {e}"))
    }

    /// Reads one reply line into `reply` (newline stripped).
    pub fn recv(&mut self, reply: &mut Vec<u8>) -> Result<(), String> {
        read_reply(&mut self.reader, reply)
    }

    /// Writes `bytes` from a second thread while reading `replies` reply
    /// lines here, so a batch of any size can neither deadlock on full
    /// socket buffers nor pay one Nagle stall per window. Set-up only: the
    /// timed phases use [`Conn::send`] / [`Conn::recv`] from one thread.
    pub fn stream_all(
        &mut self,
        bytes: &[u8],
        replies: usize,
        mut on_reply: impl FnMut(usize, &[u8]),
    ) -> Result<(), String> {
        let writer = &mut self.writer;
        let reader = &mut self.reader;
        std::thread::scope(|scope| {
            let writing = scope.spawn(move || writer.write_all(bytes));
            let mut reply = Vec::new();
            for i in 0..replies {
                read_reply(reader, &mut reply)?;
                on_reply(i, &reply);
            }
            match writing.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("writing to the daemon: {e}")),
                Err(_) => Err("the writer thread panicked".to_string()),
            }
        })
    }

    /// One depth-1 round trip.
    pub fn roundtrip(&mut self, line: &str, reply: &mut Vec<u8>) -> Result<(), String> {
        self.framed.clear();
        self.framed.extend_from_slice(line.as_bytes());
        self.framed.push(b'\n');
        self.writer
            .write_all(&self.framed)
            .map_err(|e| format!("writing to the daemon: {e}"))?;
        self.recv(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_allowed_cpu_is_read_from_the_status_file() {
        let status =
            |list: &str| format!("Name:\tx\nCpus_allowed:\t3\nCpus_allowed_list:\t{list}\n");
        assert_eq!(last_allowed_cpu(&status("0-1")), Some(1));
        assert_eq!(last_allowed_cpu(&status("0,2-3")), Some(3));
        assert_eq!(last_allowed_cpu(&status("5")), Some(5));
        assert_eq!(last_allowed_cpu("Name:\tx\n"), None);
    }
}
