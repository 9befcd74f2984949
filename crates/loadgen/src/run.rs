//! Plan building and load execution.
//!
//! A run has three deterministic inputs — the mix, the request count,
//! and the connection count — and one deterministic output: the bytes
//! of every response, which must equal the handler-computed expectation
//! regardless of pacing, worker count, or connection discipline. Only
//! the *latencies* vary run to run; the plan (request `i` uses template
//! `plan[i]` and rides connection `i % connections`, in order) never
//! does.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thirstyflops_obs::LatencyHistogram;
use thirstyflops_serve::handlers::{self, AppState};
use thirstyflops_serve::http::{percent_decode, Request};
use thirstyflops_serve::router::{self, Endpoint, ENDPOINTS};
use thirstyflops_serve::{Limits, Server, ServerConfig};

use crate::{LoadError, MixSpec};

/// How to execute a load run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Total requests to replay (the plan length).
    pub requests: usize,
    /// Concurrent client connections (clamped to `1..=requests`).
    pub connections: usize,
    /// Target request rate in requests/second across all connections;
    /// `0.0` = unpaced (each connection sends as fast as it can).
    pub rate: f64,
    /// `true` = keep-alive connections (the default discipline);
    /// `false` = a fresh connection with `Connection: close` per
    /// request (the pre-keep-alive baseline).
    pub keep_alive: bool,
    /// Worker threads for the in-process server (ignored with `addr`).
    pub workers: usize,
    /// Remote target `HOST:PORT`; `None` spawns an in-process server on
    /// an ephemeral port.
    pub addr: Option<String>,
    /// Client-side retry budget per request (`loadgen --retries N`,
    /// default 0 = off). With a budget, transport failures and
    /// well-formed JSON 500/503/504 responses are retried with capped
    /// exponential backoff, seeded jitter, and `Retry-After` honored —
    /// see `docs/ROBUSTNESS.md`.
    pub retries: u32,
    /// Chaos replay mode (`loadgen --chaos plan.json`): a 5xx that is
    /// well-formed JSON counts as an injected fault (not a mismatch),
    /// and the run reports [`ChaosStats`] alongside the load report.
    pub chaos: bool,
    /// Per-request deadline for the in-process server
    /// (`loadgen --request-timeout MS`; ignored with `addr`).
    pub request_timeout: Option<Duration>,
}

impl Default for RunConfig {
    /// 1000 unpaced requests over 4 keep-alive connections against an
    /// in-process 2-worker server; no retries, no chaos, no deadline.
    fn default() -> RunConfig {
        RunConfig {
            requests: 1000,
            connections: 4,
            rate: 0.0,
            keep_alive: true,
            workers: 2,
            addr: None,
            retries: 0,
            chaos: false,
            request_timeout: None,
        }
    }
}

/// One endpoint family's client-side measurements.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EndpointLoad {
    /// Endpoint family label (`serve::router::Endpoint::label`).
    pub endpoint: String,
    /// Requests replayed against this family.
    pub requests: u64,
    /// Client-side median round-trip, microseconds (log-bucket upper
    /// bound, same edges as the server's histograms).
    pub p50_micros: u64,
    /// Client-side 90th-percentile round-trip, microseconds.
    pub p90_micros: u64,
    /// Client-side 99th-percentile round-trip, microseconds.
    pub p99_micros: u64,
}

/// The outcome of one load run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadReport {
    /// Mix name.
    pub mix: String,
    /// Plan seed.
    pub seed: u64,
    /// `"keep-alive"` or `"one-shot"`.
    pub discipline: String,
    /// Requests replayed.
    pub requests: u64,
    /// Client connections used.
    pub connections: u64,
    /// In-process server workers (0 for a remote target).
    pub workers: u64,
    /// Target pacing rate (0 = unpaced).
    pub rate: f64,
    /// Wall-clock for the whole replay, microseconds.
    pub elapsed_micros: u64,
    /// Achieved throughput.
    pub requests_per_sec: f64,
    /// Responses whose status or body differed from the
    /// handler-computed expectation. Must be 0 on a healthy run — this
    /// is the determinism contract measured on the wire.
    pub mismatches: u64,
    /// Requests that failed at the transport level (connect/read).
    pub errors: u64,
    /// Per-endpoint measurements (families with traffic only).
    pub endpoints: Vec<EndpointLoad>,
    /// Up to [`MAX_SAMPLES`] human-readable mismatch/error descriptions.
    pub mismatch_samples: Vec<String>,
}

/// Cap on retained mismatch/error sample messages.
pub const MAX_SAMPLES: usize = 5;

/// One fault site's injection count, as reported by the installed
/// [`thirstyflops_faults`] plan.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct FaultSiteCount {
    /// Site name (`thirstyflops_faults::SITE_NAMES`).
    pub site: String,
    /// Times the site fired during the run.
    pub injected: u64,
}

/// Error/retry/recovery accounting for a chaos replay. Every field
/// except the timings is a pure function of the fault plan and the
/// request plan — bit-identical across worker counts and same-seed
/// replays (`./ci.sh chaos-smoke` diffs them, `docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChaosStats {
    /// Request attempts sent on the wire (requests + retries).
    pub attempts: u64,
    /// Attempts that were retried (after backoff).
    pub retried: u64,
    /// Responses classified as injected faults: well-formed JSON
    /// 500/503/504.
    pub faulted: u64,
    /// Faulted responses with status 500 (injected handler panics).
    pub status_500: u64,
    /// Faulted responses with status 503 (sheds / draining).
    pub status_503: u64,
    /// Faulted responses with status 504 (deadline exceeded).
    pub status_504: u64,
    /// Attempts that failed at the transport level (injected accept
    /// drops, truncated writes, resets).
    pub transport_errors: u64,
    /// Requests that exhausted the retry budget without a verifiable
    /// response. Must be 0 for a chaos replay to pass.
    pub unrecovered: u64,
    /// Per-site injection counts from the installed fault plan (empty
    /// when no plan is installed).
    pub fault_sites: Vec<FaultSiteCount>,
}

/// A template compiled for the wire: prerendered request head/body plus
/// the expected response, computed by the server's own pure handler.
/// The head stops before the terminating blank line so each send can
/// append its per-request `X-Request-Id: lg-{i}` header — the id the
/// server must echo back (`docs/SERVING.md`).
#[derive(Debug)]
struct Prepared {
    head: String,
    body: Vec<u8>,
    method: String,
    target: String,
    expected_status: u16,
    expected_body: Arc<str>,
    endpoint: Endpoint,
    verify: bool,
}

impl Prepared {
    /// Renders the wire bytes for plan entry `i`, injecting its trace id.
    fn wire(&self, i: usize) -> Vec<u8> {
        let mut wire = Vec::with_capacity(self.head.len() + 40 + self.body.len());
        wire.extend_from_slice(self.head.as_bytes());
        wire.extend_from_slice(format!("X-Request-Id: lg-{i}\r\n\r\n").as_bytes());
        wire.extend_from_slice(&self.body);
        wire
    }
}

/// Everything the client threads share.
struct Shared {
    plan: Vec<usize>,
    templates: Vec<Prepared>,
    connections: usize,
    rate: f64,
    keep_alive: bool,
    addr: String,
    start: Instant,
    hist: [LatencyHistogram; ENDPOINTS.len()],
    mismatches: AtomicU64,
    errors: AtomicU64,
    samples: Mutex<Vec<String>>,
    retries: u32,
    chaos: bool,
    /// Base for each thread's jitter RNG (`seed ^ thread_id`).
    jitter_seed: u64,
    attempts: AtomicU64,
    retried: AtomicU64,
    faulted: AtomicU64,
    status_500: AtomicU64,
    status_503: AtomicU64,
    status_504: AtomicU64,
    transport_errors: AtomicU64,
    unrecovered: AtomicU64,
}

/// One parsed response off the wire.
struct WireResponse {
    status: u16,
    body: String,
    /// The server sent `Connection: close` — honor it by reconnecting
    /// before the next request instead of racing a resend into a
    /// half-closed socket.
    close: bool,
    /// `Retry-After` header value in seconds, if present.
    retry_after: Option<u64>,
    /// The echoed `X-Request-Id`, if present. Must equal the id the
    /// request carried — a missing or wrong echo is a mismatch.
    request_id: Option<String>,
}

/// Builds the deterministic request plan: `requests` template indices
/// drawn by weight from the mix's seeded `StdRng`. Same mix + count ⇒
/// same plan, every run, every machine (the RNG shim is bit-stable).
pub fn build_plan(mix: &MixSpec, requests: usize) -> Vec<usize> {
    let total = mix.total_weight();
    let mut rng = StdRng::seed_from_u64(mix.seed);
    (0..requests)
        .map(|_| {
            let mut draw = rng.random_range(0..total);
            for (idx, t) in mix.templates.iter().enumerate() {
                if draw < t.weight {
                    return idx;
                }
                draw -= t.weight;
            }
            mix.templates.len() - 1 // unreachable: draw < total
        })
        .collect()
}

/// Compiles each template: request bytes for the chosen discipline plus
/// the expected response from an in-process call to the pure handler.
fn prepare(mix: &MixSpec, keep_alive: bool) -> Result<Vec<Prepared>, LoadError> {
    // A private state just for computing expectations — its caches never
    // touch the target server's.
    let verify_state = AppState::default();
    mix.templates
        .iter()
        .map(|t| {
            let (path_raw, query) = match t.target.split_once('?') {
                Some((p, q)) => (p, q),
                None => (t.target.as_str(), ""),
            };
            let path = percent_decode(path_raw).ok_or_else(|| {
                LoadError::Mix(format!("target {:?}: invalid percent-encoding", t.target))
            })?;
            let request = Request {
                method: t.method.clone(),
                path: path.clone(),
                query: query.to_string(),
                body: t.body.clone(),
                close: false,
                request_id: None,
            };
            let expected = handlers::handle(&request, &verify_state);
            let endpoint = router::route(&path).map_or(Endpoint::Other, |r| r.endpoint());

            let mut head = format!("{} {} HTTP/1.1\r\nHost: loadgen\r\n", t.method, t.target);
            if !t.body.is_empty() {
                head.push_str(&format!("Content-Length: {}\r\n", t.body.len()));
            }
            if !keep_alive {
                head.push_str("Connection: close\r\n");
            }
            // The blank line is appended per send, after the
            // per-request `X-Request-Id` header (`Prepared::wire`).

            Ok(Prepared {
                head,
                body: t.body.clone().into_bytes(),
                method: t.method.clone(),
                target: t.target.clone(),
                expected_status: expected.status,
                expected_body: expected.body,
                endpoint,
                verify: t.verify,
            })
        })
        .collect()
}

/// Executes a load run and reports throughput, tail latencies, and —
/// the part that must never be nonzero — body mismatches.
pub fn run(mix: &MixSpec, config: &RunConfig) -> Result<LoadReport, LoadError> {
    run_with_stats(mix, config).map(|(report, _)| report)
}

/// [`run`], also returning the chaos error/retry/recovery accounting
/// (all zeros on a fault-free, retry-free run).
pub fn run_with_stats(
    mix: &MixSpec,
    config: &RunConfig,
) -> Result<(LoadReport, ChaosStats), LoadError> {
    if config.requests == 0 {
        return Err(LoadError::Mix("requests must be ≥ 1".into()));
    }
    let templates = prepare(mix, config.keep_alive)?;
    let plan = build_plan(mix, config.requests);

    // In-process target unless an address was given. No connection
    // limit: the harness controls its own concurrency, and a shed 503
    // would count as a mismatch rather than measuring anything.
    let server = match &config.addr {
        Some(_) => None,
        None => Some(
            Server::bind(&ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: config.workers,
                max_connections: 0,
                limits: Limits {
                    request_timeout: config.request_timeout,
                    ..Limits::default()
                },
                ..ServerConfig::default()
            })
            .map_err(|e| LoadError::Io(format!("cannot start in-process server: {e}")))?,
        ),
    };
    let addr = match &config.addr {
        Some(a) => a.clone(),
        None => server
            .as_ref()
            .expect("in-process server")
            .local_addr()
            .to_string(),
    };

    let connections = config.connections.clamp(1, plan.len());
    let shared = Arc::new(Shared {
        plan,
        templates,
        connections,
        rate: config.rate,
        keep_alive: config.keep_alive,
        addr,
        start: Instant::now(),
        hist: std::array::from_fn(|_| LatencyHistogram::default()),
        mismatches: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        samples: Mutex::new(Vec::new()),
        retries: config.retries,
        chaos: config.chaos,
        jitter_seed: mix.seed,
        attempts: AtomicU64::new(0),
        retried: AtomicU64::new(0),
        faulted: AtomicU64::new(0),
        status_500: AtomicU64::new(0),
        status_503: AtomicU64::new(0),
        status_504: AtomicU64::new(0),
        transport_errors: AtomicU64::new(0),
        unrecovered: AtomicU64::new(0),
    });
    let threads: Vec<_> = (0..connections)
        .map(|t| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("loadgen-conn-{t}"))
                .spawn(move || client_thread(&shared, t))
                .expect("spawning a client thread")
        })
        .collect();
    for handle in threads {
        let _ = handle.join();
    }
    let elapsed = shared.start.elapsed();
    if let Some(server) = server {
        server.shutdown();
    }

    let endpoints = ENDPOINTS
        .iter()
        .zip(&shared.hist)
        .filter(|(_, h)| h.count() > 0)
        .map(|(endpoint, h)| EndpointLoad {
            endpoint: (*endpoint).to_string(),
            requests: h.count(),
            p50_micros: h.quantile(0.50),
            p90_micros: h.quantile(0.90),
            p99_micros: h.quantile(0.99),
        })
        .collect();
    let elapsed_micros = elapsed.as_micros().max(1) as u64;
    let mismatch_samples = shared.samples.lock().expect("samples lock").clone();
    let fault_sites = thirstyflops_faults::global()
        .map(|injector| {
            injector
                .injected_snapshot()
                .iter()
                .map(|(site, injected)| FaultSiteCount {
                    site: (*site).to_string(),
                    injected: *injected,
                })
                .collect()
        })
        .unwrap_or_default();
    let stats = ChaosStats {
        attempts: shared.attempts.load(Ordering::Relaxed),
        retried: shared.retried.load(Ordering::Relaxed),
        faulted: shared.faulted.load(Ordering::Relaxed),
        status_500: shared.status_500.load(Ordering::Relaxed),
        status_503: shared.status_503.load(Ordering::Relaxed),
        status_504: shared.status_504.load(Ordering::Relaxed),
        transport_errors: shared.transport_errors.load(Ordering::Relaxed),
        unrecovered: shared.unrecovered.load(Ordering::Relaxed),
        fault_sites,
    };
    let report = LoadReport {
        mix: mix.name.clone(),
        seed: mix.seed,
        discipline: if config.keep_alive {
            "keep-alive"
        } else {
            "one-shot"
        }
        .to_string(),
        requests: config.requests as u64,
        connections: connections as u64,
        workers: if config.addr.is_some() {
            0
        } else {
            config.workers as u64
        },
        rate: config.rate,
        elapsed_micros,
        requests_per_sec: config.requests as f64 / (elapsed_micros as f64 / 1e6),
        mismatches: shared.mismatches.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        endpoints,
        mismatch_samples,
    };
    Ok((report, stats))
}

/// One connection's worth of the plan: indices `t, t + C, t + 2C, …`,
/// in order, down one socket (keep-alive) or one socket each
/// (one-shot).
fn client_thread(shared: &Shared, thread_id: usize) {
    let mut conn: Option<TcpStream> = None;
    let mut i = thread_id;
    // Backoff jitter: per-thread, derived from the mix seed, so two
    // same-seed replays sleep identically (and so threads don't retry
    // in lockstep).
    let retrying = shared.chaos || shared.retries > 0;
    let mut rng = StdRng::seed_from_u64(shared.jitter_seed ^ (thread_id as u64));
    while i < shared.plan.len() {
        let tmpl = &shared.templates[shared.plan[i]];
        if shared.rate > 0.0 {
            // Global pacing: request i is due at start + i/rate, so the
            // aggregate rate holds no matter how requests landed on
            // connections.
            let due = shared.start + Duration::from_secs_f64(i as f64 / shared.rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let started = Instant::now();
        if retrying {
            if let Some(resp) = perform_with_retries(&mut conn, shared, tmpl, i, &mut rng) {
                shared.hist[tmpl.endpoint as usize].record(started.elapsed().as_micros() as u64);
                verify_response(shared, tmpl, i, &resp);
            }
        } else {
            match exchange(&mut conn, shared, tmpl, i) {
                Ok(resp) => {
                    shared.hist[tmpl.endpoint as usize]
                        .record(started.elapsed().as_micros() as u64);
                    verify_response(shared, tmpl, i, &resp);
                }
                Err(e) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    push_sample(
                        shared,
                        format!("request #{i} {} {}: {e}", tmpl.method, tmpl.target),
                    );
                    conn = None;
                }
            }
        }
        if !shared.keep_alive {
            conn = None;
        }
        i += shared.connections;
    }
}

/// Compares one replayed response against the handler-computed
/// expectation, counting and sampling a mismatch. The `X-Request-Id`
/// echo is checked on every response — verified template or not — since
/// the echo is a transport-level contract, independent of whether the
/// body is deterministic. Samples name the trace id so a wire mismatch
/// can be joined against `/v1/trace` spans and `--log-json` lines.
fn verify_response(shared: &Shared, tmpl: &Prepared, i: usize, resp: &WireResponse) {
    let trace_id = format!("lg-{i}");
    if resp.request_id.as_deref() != Some(trace_id.as_str()) {
        shared.mismatches.fetch_add(1, Ordering::Relaxed);
        push_sample(
            shared,
            format!(
                "request #{i} {} {} trace={trace_id}: X-Request-Id echo {:?}, expected {trace_id:?}",
                tmpl.method, tmpl.target, resp.request_id,
            ),
        );
    }
    if tmpl.verify && (resp.status != tmpl.expected_status || resp.body != *tmpl.expected_body) {
        shared.mismatches.fetch_add(1, Ordering::Relaxed);
        push_sample(
            shared,
            format!(
                "request #{i} {} {} trace={trace_id}: status {} (expected {}), body {} bytes \
                 (expected {}), first difference at byte {}",
                tmpl.method,
                tmpl.target,
                resp.status,
                tmpl.expected_status,
                resp.body.len(),
                tmpl.expected_body.len(),
                resp.body
                    .bytes()
                    .zip(tmpl.expected_body.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| resp.body.len().min(tmpl.expected_body.len())),
            ),
        );
    }
}

/// Drives one plan entry to a verifiable response under the retry
/// policy: transport failures and injected-fault responses (well-formed
/// JSON 500/503/504) are retried with capped exponential backoff,
/// seeded jitter, and `Retry-After` honored. Returns `None` when the
/// retry budget is exhausted (already counted as unrecovered) — the
/// fail-closed invariant means everything the caller verifies is either
/// a byte-identical 200 or a deliberate, well-formed error.
fn perform_with_retries(
    conn: &mut Option<TcpStream>,
    shared: &Shared,
    tmpl: &Prepared,
    i: usize,
    rng: &mut StdRng,
) -> Option<WireResponse> {
    let mut attempt: u32 = 0;
    loop {
        shared.attempts.fetch_add(1, Ordering::Relaxed);
        match try_exchange(conn, shared, tmpl, i) {
            Ok(resp) => {
                if resp.close {
                    // The server asked for close (drain, deadline, or
                    // post-panic): reconnect before the next send
                    // rather than racing bytes into a dying socket.
                    *conn = None;
                }
                let injected_fault = matches!(resp.status, 500 | 503 | 504)
                    && serde_json::from_str::<serde::Value>(&resp.body).is_ok();
                if injected_fault {
                    shared.faulted.fetch_add(1, Ordering::Relaxed);
                    match resp.status {
                        500 => &shared.status_500,
                        503 => &shared.status_503,
                        _ => &shared.status_504,
                    }
                    .fetch_add(1, Ordering::Relaxed);
                    if attempt < shared.retries {
                        attempt += 1;
                        shared.retried.fetch_add(1, Ordering::Relaxed);
                        backoff_sleep(rng, attempt, resp.retry_after);
                        continue;
                    }
                    shared.unrecovered.fetch_add(1, Ordering::Relaxed);
                    push_sample(
                        shared,
                        format!(
                            "request #{i} {} {}: still {} after {} retries",
                            tmpl.method, tmpl.target, resp.status, shared.retries
                        ),
                    );
                    return None;
                }
                return Some(resp);
            }
            Err(e) => {
                *conn = None;
                shared.transport_errors.fetch_add(1, Ordering::Relaxed);
                if attempt < shared.retries {
                    attempt += 1;
                    shared.retried.fetch_add(1, Ordering::Relaxed);
                    backoff_sleep(rng, attempt, None);
                    continue;
                }
                shared.errors.fetch_add(1, Ordering::Relaxed);
                shared.unrecovered.fetch_add(1, Ordering::Relaxed);
                push_sample(
                    shared,
                    format!(
                        "request #{i} {} {}: {e} (after {} retries)",
                        tmpl.method, tmpl.target, shared.retries
                    ),
                );
                return None;
            }
        }
    }
}

/// Sleeps before a retry: `10ms · 2^(attempt-1)` capped at 640 ms,
/// scaled by a seeded jitter factor in `[0.5, 1.0)`, raised to the
/// server's `Retry-After` if it asked for longer.
fn backoff_sleep(rng: &mut StdRng, attempt: u32, retry_after: Option<u64>) {
    let exp = attempt.saturating_sub(1).min(6);
    let base = Duration::from_millis(10 << exp);
    let mut delay = base.mul_f64(0.5 + 0.5 * rng.random::<f64>());
    if let Some(seconds) = retry_after {
        let asked = Duration::from_secs(seconds);
        if asked > delay {
            delay = asked;
        }
    }
    std::thread::sleep(delay);
}

fn push_sample(shared: &Shared, msg: String) {
    let mut samples = shared.samples.lock().expect("samples lock");
    if samples.len() < MAX_SAMPLES {
        samples.push(msg);
    }
}

/// Sends one request and reads its response (the legacy, retry-free
/// path). A failure on a *reused* keep-alive socket retries once on a
/// fresh one — the server may have idle-closed it during a pacing gap,
/// which is protocol-legal and not an error. The retry policy
/// ([`perform_with_retries`]) replaces this silent resend with explicit
/// accounting plus `Connection: close` honoring.
fn exchange(
    conn: &mut Option<TcpStream>,
    shared: &Shared,
    tmpl: &Prepared,
    i: usize,
) -> Result<WireResponse, LoadError> {
    let reused = conn.is_some();
    match try_exchange(conn, shared, tmpl, i) {
        Err(_) if reused => {
            *conn = None;
            try_exchange(conn, shared, tmpl, i)
        }
        other => other,
    }
}

fn try_exchange(
    conn: &mut Option<TcpStream>,
    shared: &Shared,
    tmpl: &Prepared,
    i: usize,
) -> Result<WireResponse, LoadError> {
    if conn.is_none() {
        let stream = TcpStream::connect(&shared.addr)
            .map_err(|e| LoadError::Io(format!("connect {}: {e}", shared.addr)))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| LoadError::Io(format!("set_read_timeout: {e}")))?;
        // Latency measurement must not include Nagle / delayed-ACK
        // stalls on the request side of a persistent connection.
        let _ = stream.set_nodelay(true);
        *conn = Some(stream);
    }
    let stream = conn.as_mut().expect("connection just ensured");
    stream
        .write_all(&tmpl.wire(i))
        .map_err(|e| LoadError::Io(format!("write: {e}")))?;
    read_response(stream)
}

/// Reads one `Content-Length`-framed response off the stream (the only
/// framing this API emits), including the connection disposition and
/// any `Retry-After` advice.
fn read_response(stream: &mut TcpStream) -> Result<WireResponse, LoadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(LoadError::Protocol("response head over 64 KiB".into()));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| LoadError::Io(format!("read head: {e}")))?;
        if n == 0 {
            return Err(LoadError::Protocol("connection closed mid-response".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| LoadError::Protocol("non-UTF-8 response head".into()))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| LoadError::Protocol("malformed status line".into()))?;
    let mut length: Option<usize> = None;
    let mut close = false;
    let mut retry_after = None;
    let mut request_id = None;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("x-request-id") {
            request_id = Some(value.to_string());
        }
    }
    let length = length.ok_or_else(|| LoadError::Protocol("missing Content-Length".into()))?;
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| LoadError::Io(format!("read body: {e}")))?;
        if n == 0 {
            return Err(LoadError::Protocol("connection closed mid-body".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + length].to_vec())
        .map_err(|_| LoadError::Protocol("non-UTF-8 response body".into()))?;
    Ok(WireResponse {
        status,
        body,
        close,
        retry_after,
        request_id,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> MixSpec {
        MixSpec::from_json(
            r#"{"name": "t", "seed": 42, "templates": [
                {"target": "/healthz", "weight": 2, "verify": false},
                {"target": "/v1/systems", "weight": 1},
                {"target": "/v1/footprint/polaris?seed=7", "weight": 1}
            ]}"#,
        )
        .expect("test mix parses")
    }

    #[test]
    fn plan_is_deterministic_and_weighted() {
        let m = mix();
        let a = build_plan(&m, 400);
        let b = build_plan(&m, 400);
        assert_eq!(a, b, "same seed, same plan");
        assert!(a.iter().all(|&i| i < 3));
        // Weight 2 of 4 ⇒ roughly half the draws hit template 0.
        let zeros = a.iter().filter(|&&i| i == 0).count();
        assert!(
            (120..=280).contains(&zeros),
            "got {zeros}/400 for weight 2/4"
        );
    }

    #[test]
    fn keep_alive_run_replays_without_mismatches() {
        let report = run(
            &mix(),
            &RunConfig {
                requests: 60,
                connections: 3,
                workers: 2,
                ..RunConfig::default()
            },
        )
        .expect("run succeeds");
        assert_eq!(
            (report.mismatches, report.errors),
            (0, 0),
            "{:?}",
            report.mismatch_samples
        );
        assert_eq!(report.requests, 60);
        assert_eq!(report.discipline, "keep-alive");
        let total: u64 = report.endpoints.iter().map(|e| e.requests).sum();
        assert_eq!(total, 60, "every request lands in an endpoint family");
        assert!(report.requests_per_sec > 0.0);
    }

    #[test]
    fn one_shot_run_matches_the_same_expectations() {
        let report = run(
            &mix(),
            &RunConfig {
                requests: 30,
                connections: 2,
                keep_alive: false,
                workers: 1,
                ..RunConfig::default()
            },
        )
        .expect("run succeeds");
        assert_eq!(
            (report.mismatches, report.errors),
            (0, 0),
            "{:?}",
            report.mismatch_samples
        );
        assert_eq!(report.discipline, "one-shot");
    }

    #[test]
    fn a_tampered_expectation_is_counted_as_mismatch() {
        // Point a verified template at a body the replay itself moves:
        // the server's `thirstyflops_http_requests_total` counts every
        // replayed request, while the expectation snapshot saw none, so
        // the comparison must fail — proving the comparator actually
        // compares, whatever sibling tests do to the global counters.
        let m = MixSpec::from_json(r#"{"name": "t", "templates": [{"target": "/v1/metrics"}]}"#)
            .unwrap();
        let report = run(
            &m,
            &RunConfig {
                requests: 4,
                connections: 1,
                workers: 1,
                ..RunConfig::default()
            },
        )
        .expect("run completes");
        assert!(
            report.mismatches > 0,
            "metrics bodies drift and must be caught"
        );
        assert!(!report.mismatch_samples.is_empty());
    }

    #[test]
    fn unroutable_targets_replay_their_404s() {
        let m = MixSpec::from_json(r#"{"name": "t", "templates": [{"target": "/nope"}]}"#).unwrap();
        let report = run(
            &m,
            &RunConfig {
                requests: 6,
                connections: 2,
                workers: 1,
                ..RunConfig::default()
            },
        )
        .expect("run completes");
        // The expected response is the handler's own 404 — replaying it
        // byte-identically is still a pass.
        assert_eq!((report.mismatches, report.errors), (0, 0));
        assert_eq!(report.endpoints.len(), 1);
        assert_eq!(report.endpoints[0].endpoint, "other");
    }
}
