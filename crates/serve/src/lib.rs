//! `thirstyflops_serve` — a std-only HTTP/JSON serving layer with a
//! deterministic result cache.
//!
//! It exposes the footprint/rank/scenario/experiment queries as a JSON
//! API without pulling in any async runtime or HTTP dependency. The
//! stack is five small layers:
//!
//! * [`http`] — minimal HTTP/1.1 request parsing and response writing;
//! * [`router`] — path → endpoint resolution and query parsing;
//! * [`api`] — the typed payloads, shared with the CLI's `--json` flags
//!   so server and CLI output are byte-identical;
//! * [`cache`] — a sharded, bounded (LRU + optional TTL)
//!   `(canonical request) → (rendered body)` cache that lets repeated
//!   queries skip `SystemYear::simulate` entirely (cold queries still
//!   reuse sub-simulations via `core::simcache`);
//! * [`pool`] — a fixed worker pool in the spirit of the workspace's
//!   rayon shim executor.
//!
//! Each server's [`AppState`] owns a `thirstyflops_obs::Registry` with
//! its per-endpoint request, cache-hit, latency and shed families;
//! `GET /v1/metrics` renders the process-wide registry, then that one.
//!
//! Connections are HTTP/1.1 keep-alive: each worker runs a
//! per-connection request loop (`handlers::serve_connection`) until the
//! client sends `Connection: close`, goes idle past the limit, or the
//! server shuts down. A keep-alive connection pins its worker for its
//! lifetime, so the accept loop enforces [`ServerConfig::max_connections`]
//! and sheds anything beyond it with a well-formed JSON 503 instead of
//! letting it queue unanswered.
//!
//! Determinism contract (see `docs/SERVING.md` and `docs/CONCURRENCY.md`):
//! handlers are pure functions of the canonical request, so identical
//! requests produce byte-identical bodies at any worker count and over
//! any connection discipline (keep-alive, pipelined, or one-shot),
//! cached or not. That property — not latency — is what the test suite
//! checks.
//!
//! ```no_run
//! use thirstyflops_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(&ServerConfig {
//!     addr: "127.0.0.1:0".to_string(), // port 0: ephemeral, for tests
//!     workers: 4,
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! println!("listening on http://{}", server.local_addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod error;
pub mod handlers;
pub mod http;
pub mod pool;
pub mod router;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;

pub use cache::{CacheStats, ResultCache};
pub use error::ServeError;
pub use handlers::{AppState, Limits};

/// How to run the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address, `HOST:PORT`. Port 0 asks the OS for an ephemeral
    /// port (read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads answering requests (clamped to ≥ 1).
    pub workers: usize,
    /// Body-cache entry bound (`serve --cache-entries N`; `0` =
    /// unbounded). Overflow evicts least-recently-used bodies.
    pub cache_entries: usize,
    /// Optional body-cache TTL (`serve --cache-ttl SECS`; `None` =
    /// entries never expire).
    pub cache_ttl: Option<std::time::Duration>,
    /// `serve --log-json`: one structured JSON access-log object per
    /// request on stderr (trace id, endpoint family, status, bytes, µs,
    /// cache verdict, shed reason, injected-fault sites — see
    /// [`handlers::access_log_line`]).
    pub log_json: bool,
    /// Concurrent-connection limit (`serve --max-connections N`; `0` =
    /// unlimited). Connections beyond it are shed with a JSON 503 at
    /// accept time instead of queueing unanswered behind pinned workers.
    pub max_connections: usize,
    /// Idle/read timeouts applied to every connection.
    pub limits: Limits,
}

impl Default for ServerConfig {
    /// Loopback on the project's default port with one worker per
    /// available CPU, a 4096-entry, never-expiring body cache, request
    /// logging off, a 256-connection limit, and the default 5 s idle /
    /// 10 s read timeouts.
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7979".to_string(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            cache_entries: 4096,
            cache_ttl: None,
            log_json: false,
            max_connections: 256,
            limits: Limits::default(),
        }
    }
}

/// A running server: an accept thread feeding a fixed worker pool.
///
/// Shutdown semantics: [`shutdown`](Server::shutdown) flips a flag,
/// nudges the blocking `accept` with a loopback connection, stops
/// accepting, lets the workers drain every already-accepted connection,
/// and joins all threads — no connection is abandoned mid-response.
/// [`drain`](Server::drain) is the bounded variant (the SIGTERM-style
/// lifecycle, `docs/ROBUSTNESS.md`): same sequence, but gives up after
/// a timeout instead of waiting forever. Dropping a `Server` without
/// calling either leaves the threads serving until the process exits
/// (what the CLI's `serve` command wants).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    state: Arc<AppState>,
    active: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
    pool: Option<pool::WorkerPool>,
}

/// Decrements the live-connection counter when the connection's job is
/// dropped — including when the handler panics, since the job is moved
/// into the worker's `catch_unwind` scope.
#[derive(Debug)]
struct ConnPermit(Arc<AtomicUsize>);

impl Drop for ConnPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One accepted connection queued for a worker: the stream plus the
/// permit that holds its slot under the connection limit.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    _permit: ConnPermit,
}

impl Server {
    /// Binds the listener, spawns the worker pool and the accept thread,
    /// and starts serving immediately. Equivalent to
    /// [`bind_with_faults`](Server::bind_with_faults) with the
    /// process-globally installed fault injector (if any) — a server
    /// bound with no plan installed pays nothing at the fault sites.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        Server::bind_with_faults(config, thirstyflops_faults::global())
    }

    /// [`bind`](Server::bind), with an explicit per-instance fault
    /// injector (tests use this to chaos one server without touching
    /// the process-global slot).
    pub fn bind_with_faults(
        config: &ServerConfig,
        faults: Option<Arc<thirstyflops_faults::FaultInjector>>,
    ) -> std::io::Result<Server> {
        if let Some(injector) = &faults {
            if injector.plan().rates[thirstyflops_faults::SITE_HANDLER_PANIC] > 0.0 {
                thirstyflops_faults::silence_injected_panics();
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(AppState::new(
            cache::ResultCache::with_limits(8, config.cache_entries, config.cache_ttl),
            config.log_json,
            config.limits,
            faults,
        ));
        let active = Arc::new(AtomicUsize::new(0));
        let worker_state = Arc::clone(&state);
        let (pool, sender) = pool::WorkerPool::spawn(config.workers, move |conn: Conn| {
            handlers::serve_connection(conn.stream, &worker_state);
        });
        let accept_state = Arc::clone(&state);
        let accept_active = Arc::clone(&active);
        let max_connections = config.max_connections;
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &sender,
                    &accept_state,
                    &accept_active,
                    max_connections,
                )
            })?;
        Ok(Server {
            addr,
            state,
            active,
            accept_thread: Some(accept_thread),
            pool: Some(pool),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(0, pool::WorkerPool::len)
    }

    /// Snapshot of the result-cache counters (also served at
    /// `GET /v1/cache/stats`).
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// Stops accepting, drains in-flight connections (each keep-alive
    /// loop answers its request in flight with `Connection: close` and
    /// exits; idle connections close within one ~100 ms poll slice),
    /// joins all threads.
    pub fn shutdown(mut self) {
        self.begin_stop();
        // The accept thread owned the queue sender; with it gone the
        // workers drain the queue and exit.
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }

    /// Graceful drain, bounded: stops accepting (late connects are
    /// refused — the listener is closed, not left queueing), answers
    /// every in-flight request with `Connection: close`, and waits up to
    /// `timeout` for the live-connection count to hit zero. Returns
    /// `true` when everything drained in time (all threads joined) and
    /// `false` on timeout (worker threads are detached and die with the
    /// process; their responses may still complete). This is the
    /// SIGTERM-style lifecycle — see `docs/ROBUSTNESS.md`.
    pub fn drain(mut self, timeout: std::time::Duration) -> bool {
        self.begin_stop();
        let deadline = std::time::Instant::now() + timeout;
        while self.active.load(Ordering::SeqCst) > 0 {
            if std::time::Instant::now() >= deadline {
                // Detach: dropping the pool abandons the join handles
                // without blocking on stuck connections.
                self.pool.take();
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        true
    }

    /// Flips the stop flag, unblocks `accept`, and joins the accept
    /// thread — after this returns, the listener is closed and late
    /// connects get a clean refusal.
    fn begin_stop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the accept loop sees the flag before
        // queueing this nudge connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks forever serving requests (the CLI foreground mode).
    pub fn wait(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    sender: &Sender<Conn>,
    state: &AppState,
    active: &Arc<AtomicUsize>,
    max_connections: usize,
) {
    // The 503 body is constant; render it once and share the Arc.
    let shed_response = http::Response::json(
        503,
        api::to_json(&error::ErrorBody {
            status: 503,
            error: format!(
                "server is at its connection limit ({max_connections}); retry shortly \
                 or raise serve --max-connections"
            ),
        }),
    )
    .with_retry_after(1);
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if state.stop.load(Ordering::SeqCst) {
                    // The shutdown nudge (or a late client): drop it and
                    // stop accepting.
                    drop(stream);
                    return;
                }
                if let Some(faults) = &state.faults {
                    if faults.decide_accept_drop() {
                        // Injected accept-time drop: the client sees a
                        // connection reset with zero response bytes.
                        drop(stream);
                        continue;
                    }
                }
                // Small request/response exchanges must not sit behind
                // Nagle's algorithm on a persistent connection.
                let _ = stream.set_nodelay(true);
                if max_connections > 0 && active.load(Ordering::SeqCst) >= max_connections {
                    // Shed responses never reach a worker's connection
                    // loop, so count them here or load-shedding stays
                    // invisible in `/v1/metrics`.
                    let started = std::time::Instant::now();
                    shed(stream, &shed_response);
                    let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                    state.record(router::Endpoint::Shed, false, micros);
                    state.record_shed(router::ShedReason::ConnectionLimit);
                    continue;
                }
                active.fetch_add(1, Ordering::SeqCst);
                let conn = Conn {
                    stream,
                    _permit: ConnPermit(Arc::clone(active)),
                };
                if sender.send(conn).is_err() {
                    return; // workers are gone; nothing can be served
                }
            }
            Err(_) => {
                if state.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept errors (EMFILE, aborted handshake):
                // keep serving.
            }
        }
    }
}

/// Answers an over-limit connection with the prebuilt JSON 503 and
/// closes it. Runs on the accept thread, so the write gets a short
/// timeout — a slow or hostile client must not stall accepting.
fn shed(stream: TcpStream, response: &http::Response) {
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(1)));
    let _ = response.write_to(&mut (&stream), true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        // One-shot client: ask for close so read_to_string terminates.
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn binds_port_zero_serves_and_shuts_down() {
        let server = Server::bind(&ServerConfig {
            workers: 2,
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert_eq!(server.workers(), 2);
        let response = get(server.local_addr(), "/healthz");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("\"status\": \"ok\""));
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown nothing is listening any more.
        assert!(TcpStream::connect(addr).is_err() || get_is_dead(addr));
    }

    fn get_is_dead(addr: SocketAddr) -> bool {
        // A connect may still succeed briefly on some kernels (backlog),
        // but no response bytes can ever arrive.
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => return true,
        };
        let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
        let mut buf = [0u8; 1];
        !matches!(stream.read(&mut buf), Ok(n) if n > 0)
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert!(config.addr.starts_with("127.0.0.1:"));
    }

    #[test]
    fn cache_stats_visible_in_process() {
        let server = Server::bind(&ServerConfig {
            workers: 1,
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        assert_eq!(server.cache_stats().misses, 0);
        get(server.local_addr(), "/v1/systems");
        get(server.local_addr(), "/v1/systems");
        let stats = server.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        server.shutdown();
    }
}
