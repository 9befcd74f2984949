//! A minimal HTTP/1.1 keep-alive client and the closed-loop replay.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::verify::{Expected, Tally};
use crate::workloads::Inputs;

/// Wire bytes of a body-less `GET`.
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// Wire bytes of a JSON `POST`.
pub fn post(target: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Receive buffer, allocated once; `filled` bytes are valid.
    buf: Vec<u8>,
    filled: usize,
}

impl Conn {
    /// Connects with Nagle off (small exchanges on a persistent
    /// connection) and a 60 s read timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
            .map_err(|e| format!("socket options: {e}"))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 * 1024],
            filled: 0,
        })
    }

    /// Sends one request and reads its `Content-Length`-framed response:
    /// `(status, body)`.
    pub fn exchange(&mut self, wire: &[u8]) -> Result<(u16, &[u8]), String> {
        self.stream
            .write_all(wire)
            .map_err(|e| format!("write: {e}"))?;
        self.filled = 0;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = self.buf[scanned..self.filled]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break scanned + pos;
            }
            scanned = self.filled.saturating_sub(3);
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "non-UTF-8 response head".to_string())?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "malformed status line".to_string())?;
        let length: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| "missing Content-Length".to_string())?;
        let start = head_end + 4;
        while self.filled < start + length {
            self.fill()?;
        }
        Ok((status, &self.buf[start..start + length]))
    }

    /// Reads more bytes into the buffer, growing it when full.
    fn fill(&mut self) -> Result<(), String> {
        if self.filled == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        match self.stream.read(&mut self.buf[self.filled..]) {
            Ok(0) => Err("connection closed mid-response".into()),
            Ok(n) => {
                self.filled += n;
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// One timed pass over a plan.
#[derive(Debug, Default)]
pub struct Replay {
    /// First send to last response.
    pub elapsed: Duration,
    /// Per-request round trips, ns, each connection's in send order.
    pub latencies_ns: Vec<u64>,
    /// Per-request completion times, ns since the replay started, in the
    /// order of `latencies_ns`.
    pub ends_ns: Vec<u64>,
    /// Verification outcome of every request.
    pub tally: Tally,
}

/// Replays `inputs.plan` (indices into `inputs.wires` and `expected`) over `connections`
/// keep-alive connections, each a closed loop taking the next plan entry
/// as soon as its previous response is verified.
pub fn replay(addr: &str, connections: usize, inputs: &Inputs, expected: &[Expected]) -> Replay {
    let (wires, plan) = (&inputs.wires, &inputs.plan);
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let parts: Vec<Replay> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| client_loop(addr, wires, expected, plan, &next, started)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("replay client thread panicked"))
            .collect()
    });
    let mut out = Replay {
        elapsed: started.elapsed(),
        ..Replay::default()
    };
    for part in parts {
        out.latencies_ns.extend(part.latencies_ns);
        out.ends_ns.extend(part.ends_ns);
        out.tally.absorb(part.tally);
    }
    out
}

fn client_loop(
    addr: &str,
    wires: &[Vec<u8>],
    expected: &[Expected],
    plan: &[usize],
    next: &AtomicUsize,
    started: Instant,
) -> Replay {
    let mut out = Replay::default();
    let mut conn = Conn::connect(addr);
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&t) = plan.get(i) else {
            return out;
        };
        let c = match &mut conn {
            Ok(c) => c,
            Err(e) => {
                out.tally.record(Err(e.clone()));
                continue;
            }
        };
        let t0 = Instant::now();
        let result = c.exchange(&wires[t]);
        let t1 = Instant::now();
        out.latencies_ns.push(nanos(t1 - t0));
        out.ends_ns.push(nanos(t1 - started));
        match result {
            Ok((status, body)) => out.tally.record(expected[t].check(status, body)),
            Err(e) => {
                out.tally.record(Err(e));
                conn = Conn::connect(addr);
            }
        }
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
