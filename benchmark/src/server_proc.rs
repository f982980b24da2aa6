//! The server under test: a real `sltxml serve` child process.
//!
//! Readiness is the server's own `listening` stdout line, not polling;
//! stopping is `SIGKILL` + `wait`, which is also the crash the durability
//! check needs (the server never gets to checkpoint or flush on the way
//! out).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use grammar_repair::Client;

/// A running `sltxml serve --wal <dir> --sock <sock>`.
pub struct ServerProc {
    child: Child,
    /// Held open: EOF on stdin is the server's shutdown signal.
    _stdin: ChildStdin,
    /// Held open so the server's later prints never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    sock: PathBuf,
    /// When the `listening` line was read.
    pub listening_at: Instant,
}

/// The `sltxml` binary built next to this benchmark binary.
fn sltxml_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let bin = me.with_file_name("sltxml");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "`{}` is missing; build this package with `cargo build --release`",
            bin.display()
        ))
    }
}

impl ServerProc {
    /// Spawns the server on `dir` (created or recovered by the server)
    /// and returns once it printed its `listening` line.
    pub fn spawn(dir: &Path, sock: &Path) -> Result<ServerProc, String> {
        // A stale socket file from a killed predecessor would fail the bind.
        let _ = std::fs::remove_file(sock);
        let mut child = Command::new(sltxml_binary()?)
            .arg("serve")
            .arg("--wal")
            .arg(dir)
            .arg("--sock")
            .arg(sock)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning sltxml serve: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("sltxml serve exited before it was listening".into());
                }
                Ok(_) if line.starts_with("listening") => break,
                Ok(_) => {}
            }
        }
        Ok(ServerProc {
            child,
            _stdin: stdin,
            _stdout: stdout,
            sock: sock.to_path_buf(),
            listening_at: Instant::now(),
        })
    }

    /// A fresh client connection to this server.
    pub fn client(&self) -> Client {
        Client::connect_unix(&self.sock)
    }

    /// Peak resident set size (`VmHWM`) of the server process in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM line in {path}"))
    }

    /// `SIGKILL`s the server and reaps it (what dropping does).
    pub fn kill(self) {}
}

impl Drop for ServerProc {
    /// `SIGKILL` + reap; error paths must not leave a server behind either.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
