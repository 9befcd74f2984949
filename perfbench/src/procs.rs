//! The processes under test: one-shot CLI runs and `serve` servers.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;

/// Worker threads every process under test is started with.
pub const THREADS: usize = 2;

/// One finished CLI process.
#[derive(Debug)]
pub struct CliRun {
    /// Spawn until stdout reached end of file.
    pub wall: Duration,
    /// Everything written to stdout.
    pub stdout: Vec<u8>,
    /// Exit code (128 + signal when killed by a signal).
    pub code: i32,
    /// Peak resident set of the process, kB.
    pub max_rss_kb: u64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen
/// `long`s of which `ru_maxrss` (kB) is the first.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    max_rss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` and returns its exit code and peak RSS (kB). `wait4`
/// reports a finished child's peak RSS, which `std::process` does not.
fn reap(child: Child) -> Result<(i32, u64), String> {
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        max_rss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable locals of the
        // types wait4(2) writes; `pid` is our own unreaped child, and
        // `child` is consumed so std never waits on the pid again.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4: {err}"));
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok((code, u64::try_from(usage.max_rss).unwrap_or(0)))
}

/// Runs `bin args…` to completion, timing spawn → stdout EOF.
pub fn run_cli(bin: &str, args: &[&str]) -> Result<CliRun, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {bin}: {e}"))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let wall = started.elapsed();
    let (code, max_rss_kb) = reap(child)?;
    read.map_err(|e| format!("read stdout: {e}"))?;
    Ok(CliRun {
        wall,
        stdout,
        code,
        max_rss_kb,
    })
}

/// A `thirstyflops serve` process on an ephemeral loopback port. Dropping
/// it kills the process and waits for it.
pub struct Server {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// `127.0.0.1:<port>`.
    pub addr: String,
}

impl Server {
    /// Spawns the server and returns once its listening line is read.
    pub fn spawn(bin: &str, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--threads", &THREADS.to_string(), "serve"])
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            // stdin EOF starts a bounded graceful drain.
            .args(["--drain-timeout", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {bin} serve: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child: Some(child),
            stdin,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read listening line: {e}"))?;
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("no listening address in {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// Connects and polls `GET /readyz` until it answers 200.
    pub fn ready(&self) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let attempt = Conn::connect(&self.addr).and_then(|mut conn| {
                let status = conn.exchange(&crate::client::get("/readyz"))?.0;
                Ok((status, conn))
            });
            match attempt {
                Ok((200, conn)) => return Ok(conn),
                Ok(_) | Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok((status, _)) => return Err(format!("/readyz answered {status}")),
                Err(e) => return Err(e),
            }
        }
    }

    /// The server's peak resident set so far, kB (`VmHWM`).
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM line".to_string())
    }

    /// Closes stdin (the drain trigger) and waits up to 5 s for a clean
    /// exit before killing the process.
    pub fn stop(mut self) {
        self.stdin.take();
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Body-cache `(hits, misses)` from `GET /v1/cache/stats`.
pub fn body_cache(conn: &mut Conn) -> Result<(u64, u64), String> {
    let (status, body) = conn.exchange(&crate::client::get("/v1/cache/stats"))?;
    if status != 200 {
        return Err(format!("/v1/cache/stats answered {status}"));
    }
    let value: serde::Value = serde_json::from_str(&String::from_utf8_lossy(body))
        .map_err(|e| format!("cache stats: {e}"))?;
    let field = |name: &str| {
        value
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "body"))
            .and_then(|(_, b)| b.as_object())
            .and_then(|b| b.iter().find(|(k, _)| k == name))
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| format!("cache stats lack body.{name}"))
    };
    Ok((field("hits")?, field("misses")?))
}
