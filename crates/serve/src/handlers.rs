//! Request handlers: route dispatch, cache lookups, and payload builds.
//!
//! Every cacheable endpoint follows the same shape: normalize the
//! request into a canonical cache key (defaults filled in, aliases
//! collapsed, parameters in fixed order — for the scenario POSTs the key
//! is the spec's canonical rendering), then `get_or_compute` the
//! rendered body. The compute closures call the same [`api`] builders
//! the CLI's `--json` flags use, which is what makes cached, uncached,
//! and CLI output byte-identical.

use std::sync::Arc;

use thirstyflops_catalog::SystemId;
use thirstyflops_obs::{Counter, LatencyHistogram, Registry};

use crate::api;
use crate::cache::ResultCache;
use crate::error::ServeError;
use crate::http::{Request, Response};
use crate::router::{route, Endpoint, Query, Route, ShedReason, ENDPOINTS, SHED_REASONS};

/// Per-connection time limits (see `docs/SERVING.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it (and frees its worker).
    pub idle_timeout: std::time::Duration,
    /// How long a started request may take to arrive in full (slowloris
    /// guard; exceeding it answers 408 and closes).
    pub read_timeout: std::time::Duration,
    /// Optional per-request deadline (`serve --request-timeout MS`),
    /// measured from the first request byte through the handler.
    /// Exceeding it replaces the response with a JSON 504 (+
    /// `Retry-After`) and closes the connection; `None` disables the
    /// check entirely.
    pub request_timeout: Option<std::time::Duration>,
}

impl Default for Limits {
    /// 5 s idle, 10 s read — generous for an internal API, tight enough
    /// that stuck clients cannot pin workers for long. No per-request
    /// deadline by default (handlers are compute-bound and bounded).
    fn default() -> Limits {
        Limits {
            idle_timeout: std::time::Duration::from_secs(5),
            read_timeout: std::time::Duration::from_secs(10),
            request_timeout: None,
        }
    }
}

/// Shared state behind all workers: the result cache, this server's
/// metrics registry, the logging switch, the connection limits, and the
/// shutdown flag the connection loops poll.
#[derive(Debug)]
pub struct AppState {
    /// The sharded body cache (see `docs/SERVING.md` for the key scheme).
    pub cache: ResultCache,
    /// This server's HTTP metric families, rendered by `/v1/metrics`
    /// after the global registry. Per state, so two servers in one
    /// process keep separate counts.
    pub(crate) registry: Registry,
    /// Handles into `registry`, indexed by [`Endpoint`] and
    /// [`ShedReason`], so recording a request is a few atomic adds.
    requests: [Counter; ENDPOINTS.len()],
    cache_hits: [Counter; ENDPOINTS.len()],
    latency: [Arc<LatencyHistogram>; ENDPOINTS.len()],
    shed: [Counter; SHED_REASONS.len()],
    /// `serve --log-json`: one structured JSON object per request on
    /// stderr (see [`access_log_line`] for the stable key order).
    pub log_json: bool,
    /// Deterministic request ordinal, incremented once per parsed (or
    /// answerable-parse-error) request across the whole server. It is
    /// the trace id for requests that do not supply `X-Request-Id`, and
    /// the value `--trace-sample 1/N` keys off — never wall-clock.
    pub ordinal: std::sync::atomic::AtomicU64,
    /// Idle/read timeouts applied to every connection.
    pub limits: Limits,
    /// Set by `Server::shutdown` / `Server::drain`: keep-alive loops
    /// finish the request in flight, answer it with `Connection: close`,
    /// and exit; `/readyz` flips to 503.
    pub stop: std::sync::atomic::AtomicBool,
    /// When this state was built (`/healthz`'s `uptime_seconds`).
    pub started: std::time::Instant,
    /// Fault injector driving this server's instrumented sites
    /// (`docs/ROBUSTNESS.md`). `None` — the default — means every site
    /// short-circuits on this one check.
    pub faults: Option<Arc<thirstyflops_faults::FaultInjector>>,
}

impl Default for AppState {
    fn default() -> AppState {
        AppState::new(ResultCache::default(), false, Limits::default(), None)
    }
}

impl AppState {
    /// A fresh state around `cache`, with every HTTP family registered
    /// at zero in its own registry.
    pub(crate) fn new(
        cache: ResultCache,
        log_json: bool,
        limits: Limits,
        faults: Option<Arc<thirstyflops_faults::FaultInjector>>,
    ) -> AppState {
        let registry = Registry::default();
        let per_endpoint = |name, help| {
            std::array::from_fn(|i| {
                registry.counter_labeled(name, &[("endpoint", ENDPOINTS[i])], help)
            })
        };
        AppState {
            requests: per_endpoint(
                "thirstyflops_http_requests_total",
                "requests answered per endpoint family (any status)",
            ),
            cache_hits: per_endpoint(
                "thirstyflops_http_cache_hits_total",
                "requests answered from the body cache per endpoint family",
            ),
            latency: std::array::from_fn(|i| {
                registry.histogram_labeled(
                    "thirstyflops_http_request_duration_micros",
                    &[("endpoint", ENDPOINTS[i])],
                    "request wall-clock per endpoint family, microseconds",
                )
            }),
            shed: std::array::from_fn(|i| {
                registry.counter_labeled(
                    "thirstyflops_shed_total",
                    &[("reason", SHED_REASONS[i])],
                    "requests shed by reason (connection limit, over-cap, deadline)",
                )
            }),
            registry,
            cache,
            log_json,
            ordinal: std::sync::atomic::AtomicU64::new(0),
            limits,
            stop: std::sync::atomic::AtomicBool::new(false),
            started: std::time::Instant::now(),
            faults,
        }
    }

    /// Records one answered request into its endpoint family.
    pub(crate) fn record(&self, endpoint: Endpoint, cache_hit: bool, micros: u64) {
        let i = endpoint as usize;
        self.requests[i].inc();
        if cache_hit {
            self.cache_hits[i].inc();
        }
        self.latency[i].record(micros);
    }

    /// Records one shed request by reason (on top of its `shed`-family
    /// [`record`](AppState::record)).
    pub(crate) fn record_shed(&self, reason: ShedReason) {
        self.shed[reason as usize].inc();
    }

    /// Requests answered so far across every endpoint family
    /// (`/healthz`'s `requests_total`).
    pub(crate) fn total_requests(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }
}

/// What one dispatch did, for metrics and the `--log-json` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trace {
    /// The metrics family that absorbed the request.
    pub endpoint: Endpoint,
    /// True when the body came from the result cache.
    pub cache_hit: bool,
}

/// Dispatches one parsed request to its handler. Never panics; every
/// failure becomes a JSON error response.
pub fn handle(req: &Request, state: &AppState) -> Response {
    handle_traced(req, state).0
}

/// Dispatch plus the trace the connection loop feeds into metrics and
/// logging.
pub fn handle_traced(req: &Request, state: &AppState) -> (Response, Trace) {
    let mut trace = Trace {
        endpoint: Endpoint::Other,
        cache_hit: false,
    };
    let response = match try_handle(req, state, &mut trace) {
        Ok(resp) => resp,
        Err(e) => e.to_response(),
    };
    (response, trace)
}

/// `get_or_compute` that also reports whether the body was a cache hit.
fn cached(
    state: &AppState,
    trace: &mut Trace,
    key: &str,
    compute: impl FnOnce() -> String,
) -> std::sync::Arc<str> {
    let mut computed = false;
    let body = state.cache.get_or_compute(key, || {
        computed = true;
        compute()
    });
    trace.cache_hit = !computed;
    body
}

fn try_handle(req: &Request, state: &AppState, trace: &mut Trace) -> Result<Response, ServeError> {
    let resolved = route(&req.path)?;
    trace.endpoint = resolved.endpoint();
    if resolved.takes_body() {
        if req.method != "POST" {
            return Err(ServeError::MethodNotAllowed(format!(
                "{} not supported here — POST a scenario spec (docs/SCENARIOS.md)",
                req.method
            )));
        }
    } else if req.method != "GET" {
        return Err(ServeError::MethodNotAllowed(format!(
            "{} not supported — this endpoint is read-only, use GET",
            req.method
        )));
    }
    let query = Query::parse(&req.query)?;
    match resolved {
        Route::Healthz => {
            query.expect_only(&[])?;
            Ok(Response::json(
                200,
                api::to_json(&HealthBody::snapshot(state)),
            ))
        }
        Route::Readyz => {
            query.expect_only(&[])?;
            if state.stop.load(std::sync::atomic::Ordering::SeqCst) {
                Ok(Response::json(
                    503,
                    api::to_json(&crate::error::ErrorBody {
                        status: 503,
                        error: "server is draining; retry against another instance".into(),
                    }),
                )
                .with_retry_after(1))
            } else {
                Ok(Response::json(
                    200,
                    api::to_json(&ReadyBody { ready: true }),
                ))
            }
        }
        Route::CacheStats => {
            query.expect_only(&[])?;
            Ok(Response::json(
                200,
                api::to_json(&api::cache_stats_payload(state.cache.stats())),
            ))
        }
        Route::Systems => {
            query.expect_only(&[])?;
            let body = cached(state, trace, "systems", || {
                api::to_json(&api::systems_payload())
            });
            Ok(Response::json(200, body))
        }
        Route::Footprint(system) => {
            query.expect_only(&["seed"])?;
            let id = parse_system(&system)?;
            let seed = query.seed()?;
            let key = format!("footprint/{}?seed={seed}", id.slug());
            let body = cached(state, trace, &key, || {
                api::to_json(&api::footprint_payload(id, seed))
            });
            Ok(Response::json(200, body))
        }
        Route::Compare => {
            query.expect_only(&["a", "b", "seed"])?;
            let a = parse_system(query.required("a")?)?;
            let b = parse_system(query.required("b")?)?;
            let seed = query.seed()?;
            // Aliases collapse via the slugs, so ?a=Marconi100 and
            // ?a=marconi share one entry; a/b order is preserved (the
            // payload is ordered).
            let key = format!("compare/{}/{}?seed={seed}", a.slug(), b.slug());
            let body = cached(state, trace, &key, || {
                api::to_json(&api::compare_payload(a, b, seed))
            });
            Ok(Response::json(200, body))
        }
        Route::Rank => {
            query.expect_only(&["seed", "adjusted"])?;
            let seed = query.seed()?;
            let adjusted = query.flag("adjusted")?;
            let key = format!("rank?adjusted={adjusted}&seed={seed}");
            let body = cached(state, trace, &key, || {
                api::to_json(&api::rank_payload(adjusted, seed))
            });
            Ok(Response::json(200, body))
        }
        Route::Scenario(system) => {
            query.expect_only(&["seed"])?;
            let id = parse_system(&system)?;
            let seed = query.seed()?;
            let key = format!("scenario/{}?seed={seed}", id.slug());
            let body = cached(state, trace, &key, || {
                api::to_json(&api::scenario_payload(id, seed))
            });
            Ok(Response::json(200, body))
        }
        Route::ScenarioRun => {
            query.expect_only(&[])?;
            let spec = parse_spec_body(&req.body, thirstyflops_scenario::ScenarioSpec::from_json)?;
            // The canonical rendering *is* the cache key: two spec files
            // that mean the same thing (aliases, defaults, whitespace,
            // key order) share one entry.
            let key = format!("scenarios/run:{}", spec.canonical_json());
            let body = cached(state, trace, &key, || {
                api::to_json(&api::scenario_run_payload(&spec).expect("spec was validated"))
            });
            Ok(Response::json(200, body))
        }
        Route::ScenarioSweep => {
            query.expect_only(&[])?;
            let sweep = parse_spec_body(&req.body, thirstyflops_scenario::SweepSpec::from_json)?;
            let key = format!("scenarios/sweep:{}", sweep.canonical_json());
            let body = cached(state, trace, &key, || {
                api::to_json(&api::scenario_sweep_payload(&sweep).expect("sweep was validated"))
            });
            Ok(Response::json(200, body))
        }
        Route::ExperimentIndex => {
            query.expect_only(&[])?;
            let body = cached(state, trace, "experiments", || {
                api::to_json(&api::experiment_index_payload())
            });
            Ok(Response::json(200, body))
        }
        Route::Experiment(id) => {
            query.expect_only(&[])?;
            if !thirstyflops_experiments::ids().contains(&id.as_str()) {
                return Err(ServeError::NotFound(format!(
                    "no experiment {id:?} — GET /v1/experiments lists the known ids"
                )));
            }
            let key = format!("experiments/{id}");
            let body = cached(state, trace, &key, || {
                api::to_json(&thirstyflops_experiments::select(&[id.as_str()]))
            });
            Ok(Response::json(200, body))
        }
        Route::Metrics => {
            query.expect_only(&[])?;
            // Touch the lazily-registered core families so a fresh
            // process still exposes them (with zero values) before the
            // first simulation runs.
            let _ = thirstyflops_core::simcache::stats();
            let _ = thirstyflops_core::batch::stats();
            // Chaos runs additionally force-register the injected-fault
            // family: a plan that has not fired yet still exposes its
            // zeroed per-site counters, so dashboards can tell "plan
            // installed, quiet" from "no plan at all".
            if state.faults.is_some() || thirstyflops_faults::global().is_some() {
                thirstyflops_faults::register_injected_family();
            }
            // Never cached: the body is the live counter state. The
            // global registry renders first, then this server's own;
            // each is sorted by family name.
            let mut body = thirstyflops_obs::registry::global().render_prometheus();
            body.push_str(&state.registry.render_prometheus());
            Ok(Response::text(200, body))
        }
        Route::Trace => {
            query.expect_only(&["last"])?;
            let last = match query.get("last") {
                None => 256,
                Some(raw) => raw.parse::<usize>().map_err(|_| {
                    ServeError::BadRequest(format!(
                        "last must be a non-negative integer, got {raw:?}"
                    ))
                })?,
            };
            // Never cached: the body is the live recorder ring. `last`
            // bounds the payload (default 256 events) so a polling
            // client cannot pull the full 65k-event ring by accident.
            Ok(Response::json(
                200,
                thirstyflops_obs::trace::chrome_trace_json(Some(last)),
            ))
        }
    }
}

fn parse_system(name: &str) -> Result<SystemId, ServeError> {
    name.parse::<SystemId>().map_err(|e| {
        ServeError::NotFound(format!("{e} — GET /v1/systems lists the cataloged systems"))
    })
}

/// Parses a POSTed spec body, mapping empty bodies and spec errors onto
/// 400s with the parser's message.
fn parse_spec_body<T>(
    body: &str,
    parse: impl FnOnce(&str) -> Result<T, thirstyflops_scenario::ScenarioError>,
) -> Result<T, ServeError> {
    if body.trim().is_empty() {
        return Err(ServeError::BadRequest(
            "request body must be a scenario spec (JSON; see docs/SCENARIOS.md)".into(),
        ));
    }
    parse(body).map_err(|e| ServeError::BadRequest(e.to_string()))
}

/// `GET /readyz` body while the server is accepting traffic. During a
/// drain the endpoint answers a JSON 503 with `Retry-After` instead —
/// liveness (`/healthz`) and readiness are distinct signals, so a
/// process manager can pull a draining instance out of rotation without
/// restarting it (`docs/ROBUSTNESS.md`).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ReadyBody {
    /// Always `true` in a 200 (draining readiness is a 503).
    pub ready: bool,
}

/// `GET /healthz` body (documented in `docs/SERVING.md`).
///
/// `uptime_seconds` and `requests_total` let loadgen and external
/// probes detect silent restarts: a restarted process reports a lower
/// uptime and a reset request count than the previous poll saw.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HealthBody {
    /// Always `"ok"` while the process is serving.
    pub status: String,
    /// Whole seconds since the server state was built.
    pub uptime_seconds: u64,
    /// Requests answered so far across every endpoint family.
    pub requests_total: u64,
}

impl HealthBody {
    /// The healthy answer for the current server state.
    pub fn snapshot(state: &AppState) -> HealthBody {
        HealthBody {
            status: "ok".to_string(),
            uptime_seconds: state.started.elapsed().as_secs(),
            requests_total: state.total_requests(),
        }
    }
}

/// Serves one connection end-to-end as a keep-alive loop: wait for
/// bytes (polling the shutdown flag), parse, dispatch, record, write —
/// and repeat until the client asks to close, goes idle past the limit,
/// errors, or the server shuts down. I/O errors mid-write are swallowed
/// — there is nobody left to answer — but every parse failure that can
/// still be answered gets its 400/408/413/431 before the close, and a
/// panicking handler gets a structured JSON 500 instead of a silently
/// dropped connection. When `state.faults` carries a plan, the
/// handler-panic and response-write fault sites fire here
/// (`docs/ROBUSTNESS.md`); write faults only ever target 200 responses,
/// so error responses stay well-formed — the fail-closed invariant.
pub fn serve_connection(stream: std::net::TcpStream, state: &AppState) {
    use std::sync::atomic::Ordering;
    // `&TcpStream: Read`, so the reader borrows while the owned stream
    // keeps `set_read_timeout` and the write half.
    let mut reader = crate::http::RequestReader::new(&stream);
    loop {
        if !wait_for_request(&stream, &mut reader, state) {
            return; // idle timeout, clean close, shutdown, or error
        }
        let _ = stream.set_read_timeout(Some(state.limits.read_timeout));
        let started = std::time::Instant::now();
        let mut shed_reason: Option<ShedReason> = None;
        // The request-scoped trace context: every span the handler opens
        // (directly or on re-attached sweep workers) and every fault that
        // fires below parents under this request's trace id. Created for
        // every answerable request; whether span events actually land in
        // the ring is the recorder's `enabled && sampled` decision, keyed
        // off the deterministic ordinal so sampling never consults a
        // clock or RNG (`docs/OBSERVABILITY.md`).
        let mut trace_ctx: Option<thirstyflops_obs::trace::TraceGuard> = None;
        let (mut response, mut trace, mut close, request_id) = match reader.read_request() {
            Ok(req) => {
                let ordinal = state.ordinal.fetch_add(1, Ordering::Relaxed);
                let request_id = req
                    .request_id
                    .clone()
                    .unwrap_or_else(|| format!("tf-{ordinal:016x}"));
                trace_ctx = Some(thirstyflops_obs::trace::begin(
                    ordinal,
                    thirstyflops_obs::trace::enabled() && thirstyflops_obs::trace::sampled(ordinal),
                ));
                // Shutdown mid-connection: answer the request in flight,
                // then close instead of waiting for another.
                let close = req.close || state.stop.load(Ordering::SeqCst);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if let Some(faults) = &state.faults {
                        if faults.decide_handler_panic() {
                            panic!("{}", thirstyflops_faults::PANIC_MARKER);
                        }
                    }
                    handle_traced(&req, state)
                }));
                match outcome {
                    Ok((response, trace)) => (response, trace, close, request_id),
                    Err(_) => {
                        // The handler (or the injector) panicked: the
                        // client still gets a well-formed JSON 500, and
                        // the connection closes cleanly afterwards —
                        // never a silent drop that stalls a pipelined
                        // peer until its read timeout.
                        let trace = Trace {
                            endpoint: route(&req.path).map_or(Endpoint::Other, |r| r.endpoint()),
                            cache_hit: false,
                        };
                        let response = Response::json(
                            500,
                            api::to_json(&crate::error::ErrorBody {
                                status: 500,
                                error: "internal error: the request handler panicked; \
                                        the connection closes after this response"
                                    .into(),
                            }),
                        );
                        (response, trace, true, request_id)
                    }
                }
            }
            Err(e) => match parse_error_response(e) {
                // Parse failures poison the framing: always close after.
                // Over-cap rejections (oversized head or body) count
                // into the `shed` family with the connection sheds so
                // capacity pressure is visible in `/v1/metrics`.
                Some(resp) => {
                    let endpoint = match resp.status {
                        431 => {
                            shed_reason = Some(ShedReason::HeadTooLarge);
                            Endpoint::Shed
                        }
                        413 => {
                            shed_reason = Some(ShedReason::BodyTooLarge);
                            Endpoint::Shed
                        }
                        _ => Endpoint::Other,
                    };
                    let trace = Trace {
                        endpoint,
                        cache_hit: false,
                    };
                    // Unparsable requests cannot carry a usable
                    // `X-Request-Id`, so they get a server-assigned one;
                    // the ordinal still advances so ids stay unique.
                    let ordinal = state.ordinal.fetch_add(1, Ordering::Relaxed);
                    let request_id = format!("tf-{ordinal:016x}");
                    (resp, trace, true, request_id)
                }
                None => return, // nothing arrived; likely a probe
            },
        };
        // The response-write fault site: one draw per 200 response
        // decides latency / truncate / stall (mutually exclusive).
        // Error responses never enter the site, so injected faults can
        // corrupt data-path bytes but never the error contract.
        let mut write_fault = None;
        if response.status == 200 {
            if let Some(faults) = &state.faults {
                write_fault = faults.decide_write();
            }
        }
        if let Some(thirstyflops_faults::WriteFault::Latency(delay)) = write_fault {
            std::thread::sleep(delay);
            write_fault = None;
        }
        // The per-request deadline, checked after the handler (and any
        // injected latency): a 200 that took too long becomes a JSON
        // 504 with retry guidance; the client never sees a stale body
        // dribble out long after it gave up.
        if let Some(limit) = state.limits.request_timeout {
            if response.status == 200 && started.elapsed() >= limit {
                response = Response::json(
                    504,
                    api::to_json(&crate::error::ErrorBody {
                        status: 504,
                        error: format!(
                            "request exceeded the {} ms deadline (serve --request-timeout)",
                            limit.as_millis()
                        ),
                    }),
                )
                .with_retry_after(1);
                close = true;
                shed_reason = Some(ShedReason::Deadline);
                trace = Trace {
                    endpoint: Endpoint::Shed,
                    cache_hit: false,
                };
                write_fault = None;
            }
        }
        // Every response — including error and shed responses — echoes
        // the trace id so clients can correlate wire exchanges with
        // `/v1/trace` spans and `--log-json` lines.
        response.request_id = Some(request_id.clone());
        let wrote = write_response(&stream, &response, close, write_fault);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        state.record(trace.endpoint, trace.cache_hit, micros);
        if let Some(reason) = shed_reason {
            state.record_shed(reason);
        }
        if state.log_json {
            let faults = trace_ctx
                .as_ref()
                .map(|t| t.fault_marks())
                .unwrap_or_default();
            eprintln!(
                "{}",
                access_log_line(
                    &request_id,
                    trace.endpoint.label(),
                    response.status,
                    response.body.len(),
                    micros,
                    trace.cache_hit,
                    shed_reason.map(ShedReason::label),
                    &faults,
                )
            );
        }
        drop(trace_ctx);
        if close || !wrote {
            return;
        }
    }
}

/// Formats one `serve --log-json` access-log line: a single strict-JSON
/// object per request with a stable key order — `trace`, `endpoint`,
/// `status`, `bytes`, `micros`, `cache`, `shed`, `faults` — so log
/// pipelines can parse every line with one schema. `trace` is the
/// echoed `X-Request-Id`; `shed` is `null` unless the request was shed;
/// `faults` lists the injected-fault sites that fired inside this
/// request (empty outside chaos runs).
#[allow(clippy::too_many_arguments)]
pub fn access_log_line(
    trace_id: &str,
    endpoint: &str,
    status: u16,
    bytes: usize,
    micros: u64,
    cache_hit: bool,
    shed: Option<&str>,
    faults: &[&'static str],
) -> String {
    fn push_json_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    let mut out = String::with_capacity(160);
    out.push_str("{\"trace\":");
    push_json_str(&mut out, trace_id);
    out.push_str(",\"endpoint\":");
    push_json_str(&mut out, endpoint);
    out.push_str(&format!(
        ",\"status\":{status},\"bytes\":{bytes},\"micros\":{micros},\"cache\":"
    ));
    push_json_str(&mut out, if cache_hit { "hit" } else { "miss" });
    out.push_str(",\"shed\":");
    match shed {
        None => out.push_str("null"),
        Some(reason) => push_json_str(&mut out, reason),
    }
    out.push_str(",\"faults\":[");
    for (i, site) in faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, site);
    }
    out.push_str("]}");
    out
}

/// Writes one response, applying an injected truncate/stall fault when
/// one fired. Returns `false` when the connection must close (write
/// error or deliberate truncation).
fn write_response(
    stream: &std::net::TcpStream,
    response: &Response,
    close: bool,
    fault: Option<thirstyflops_faults::WriteFault>,
) -> bool {
    use std::io::Write;
    match fault {
        None => response.write_to(&mut (&*stream), close).is_ok(),
        Some(thirstyflops_faults::WriteFault::Truncate) => {
            // Half the wire image, then close: the client sees a framing
            // violation (truncated body), never silently-wrong bytes.
            let bytes = response.to_bytes(close);
            let half = bytes.len() / 2;
            let _ = (&*stream).write_all(&bytes[..half]);
            let _ = (&*stream).flush();
            false
        }
        Some(thirstyflops_faults::WriteFault::Stall(delay)) => {
            // Same bytes, split around a stall: slow but byte-correct.
            let bytes = response.to_bytes(close);
            let half = (bytes.len() / 2).max(1);
            (&*stream).write_all(&bytes[..half]).is_ok() && {
                std::thread::sleep(delay);
                (&*stream).write_all(&bytes[half..]).is_ok() && (&*stream).flush().is_ok()
            }
        }
        Some(thirstyflops_faults::WriteFault::Latency(_)) => {
            unreachable!("latency faults are consumed before the write")
        }
    }
}

/// The idle phase between requests: waits up to `idle_timeout` for the
/// connection's next bytes, in short read slices so the shutdown flag is
/// observed within ~100 ms even on an idle connection. Returns `true`
/// when a request is ready to parse (bytes buffered or just arrived),
/// `false` when the connection should close (peer EOF, idle timeout,
/// shutdown, or socket error).
///
/// Drain semantics: when the stop flag is set, one last short read
/// drains any request the client already sent — a connection that was
/// queued behind a pinned worker when the drain began still gets its
/// in-flight request answered (with `Connection: close`) instead of a
/// silent disconnect. Only then does the loop refuse further requests.
fn wait_for_request(
    stream: &std::net::TcpStream,
    reader: &mut crate::http::RequestReader<&std::net::TcpStream>,
    state: &AppState,
) -> bool {
    use std::sync::atomic::Ordering;
    if reader.buffered() > 0 {
        return true; // pipelined request already in hand
    }
    let deadline = std::time::Instant::now() + state.limits.idle_timeout;
    loop {
        let stopping = state.stop.load(Ordering::SeqCst);
        let now = std::time::Instant::now();
        if now >= deadline {
            return false;
        }
        let slice = if stopping {
            // The final drain slice: long enough for bytes already in
            // the socket buffer, short enough not to hold the drain.
            std::time::Duration::from_millis(20)
        } else {
            (deadline - now).min(std::time::Duration::from_millis(100))
        };
        let _ = stream.set_read_timeout(Some(slice));
        match reader.fill_once() {
            Ok(0) => return false, // peer closed between requests
            Ok(_) => return true,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stopping {
                    return false; // draining and nothing pending: close
                }
                continue;
            }
            Err(_) => return false,
        }
    }
}

/// Maps a request-parse failure to its response; `None` when the socket
/// died (or went idle) before a request arrived — there is nobody left
/// to answer.
pub fn parse_error_response(e: crate::http::ParseError) -> Option<Response> {
    match e {
        crate::http::ParseError::Idle | crate::http::ParseError::Io(_) => None,
        crate::http::ParseError::UnexpectedEof => {
            Some(ServeError::BadRequest("connection closed mid-request".into()).to_response())
        }
        crate::http::ParseError::Timeout => Some(Response::json(
            408,
            api::to_json(&crate::error::ErrorBody {
                status: 408,
                error: "request did not arrive in full within the read timeout".into(),
            }),
        )),
        // Over-cap rejections carry Retry-After like the accept-time
        // shed 503: a within-cap retry is welcome immediately.
        crate::http::ParseError::TooLarge => Some(
            Response::json(
                431,
                api::to_json(&crate::error::ErrorBody {
                    status: 431,
                    error: format!("request head exceeds {} bytes", crate::http::MAX_HEAD_BYTES),
                }),
            )
            .with_retry_after(1),
        ),
        crate::http::ParseError::BodyTooLarge => Some(
            Response::json(
                413,
                api::to_json(&crate::error::ErrorBody {
                    status: 413,
                    error: format!("request body exceeds {} bytes", crate::http::MAX_BODY_BYTES),
                }),
            )
            .with_retry_after(1),
        ),
        crate::http::ParseError::Malformed(m) => Some(ServeError::BadRequest(m).to_response()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path_and_query: &str, body: &str) -> Request {
        let (path, query) = path_and_query
            .split_once('?')
            .unwrap_or((path_and_query, ""));
        Request {
            method: method.into(),
            path: path.into(),
            query: query.into(),
            body: body.into(),
            close: false,
            request_id: None,
        }
    }

    fn get(path_and_query: &str, state: &AppState) -> Response {
        handle(&request("GET", path_and_query, ""), state)
    }

    fn post(path: &str, body: &str, state: &AppState) -> Response {
        handle(&request("POST", path, body), state)
    }

    #[test]
    fn readyz_flips_to_503_when_draining() {
        let state = AppState::default();
        let ready = get("/readyz", &state);
        assert_eq!(ready.status, 200);
        assert_eq!(&*ready.body, "{\n  \"ready\": true\n}\n");
        assert_eq!(ready.retry_after, None);
        // Readiness and liveness diverge during a drain: /healthz keeps
        // answering 200 while /readyz pulls the instance from rotation.
        state.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let draining = get("/readyz", &state);
        assert_eq!(draining.status, 503);
        assert_eq!(draining.retry_after, Some(1));
        assert!(
            draining.body.contains("\"status\": 503"),
            "{}",
            draining.body
        );
        assert_eq!(get("/healthz", &state).status, 200);
        // Unknown query parameters still fail loudly.
        assert_eq!(get("/readyz?x=1", &state).status, 400);
    }

    #[test]
    fn healthz_answers_ok() {
        let resp = get("/healthz", &AppState::default());
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"status\": \"ok\""));
        assert!(resp.body.contains("\"uptime_seconds\""));
        assert!(resp.body.contains("\"requests_total\": 0"));
    }

    #[test]
    fn healthz_reports_requests_answered_so_far() {
        let state = AppState::default();
        // The connection loop records into metrics after each response;
        // simulate two answered requests.
        state.record(Endpoint::Rank, false, 10);
        state.record(Endpoint::Shed, false, 5);
        let resp = get("/healthz", &state);
        assert!(resp.body.contains("\"requests_total\": 2"), "{}", resp.body);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let state = AppState::default();
        state.record(Endpoint::Rank, false, 10);
        let resp = get("/v1/metrics", &state);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        // The server's own families...
        assert!(resp
            .body
            .contains("thirstyflops_http_requests_total{endpoint=\"rank\"} 1\n"));
        // ...and the global registry's core families, even before any
        // simulation ran in this process.
        assert!(resp.body.contains("thirstyflops_simcache_hits_total"));
        assert!(resp.body.contains("thirstyflops_batch_lanes_total"));
        // Unknown query parameters still fail loudly.
        assert_eq!(get("/v1/metrics?x=1", &state).status, 400);
    }

    /// Asserts that `/v1/metrics` carries each of `lines` verbatim.
    fn assert_exposes(state: &AppState, lines: &[&str]) {
        let text = get("/v1/metrics", state).body;
        for line in lines {
            assert!(text.lines().any(|l| l == *line), "{line} missing:\n{text}");
        }
    }

    #[test]
    fn records_into_the_right_family() {
        let state = AppState::default();
        // Dispatch and record the way the connection loop does.
        for (path, micros) in [("/v1/systems", 120), ("/v1/systems", 80), ("/nope", 5)] {
            let (_, trace) = handle_traced(&request("GET", path, ""), &state);
            state.record(trace.endpoint, trace.cache_hit, micros);
        }
        assert_exposes(
            &state,
            &[
                "thirstyflops_http_requests_total{endpoint=\"systems\"} 2",
                "thirstyflops_http_cache_hits_total{endpoint=\"systems\"} 1",
                "thirstyflops_http_request_duration_micros_sum{endpoint=\"systems\"} 200",
                // Unroutable paths land in `other`.
                "thirstyflops_http_requests_total{endpoint=\"other\"} 1",
                // Untouched families are present with zero counts.
                "thirstyflops_http_requests_total{endpoint=\"rank\"} 0",
                "thirstyflops_http_request_duration_micros_count{endpoint=\"rank\"} 0",
            ],
        );
        assert_eq!(state.total_requests(), 3);
    }

    #[test]
    fn shed_is_its_own_family() {
        let state = AppState::default();
        state.record(Endpoint::Shed, false, 40);
        assert_exposes(
            &state,
            &[
                "thirstyflops_http_requests_total{endpoint=\"shed\"} 1",
                // Sheds must not be lumped into `other`.
                "thirstyflops_http_requests_total{endpoint=\"other\"} 0",
            ],
        );
    }

    #[test]
    fn shed_reasons_count_and_render() {
        let state = AppState::default();
        state.record_shed(ShedReason::ConnectionLimit);
        state.record_shed(ShedReason::ConnectionLimit);
        state.record_shed(ShedReason::Deadline);
        // Every reason renders, zeros too.
        assert_exposes(
            &state,
            &[
                "# TYPE thirstyflops_shed_total counter",
                "thirstyflops_shed_total{reason=\"connection_limit\"} 2",
                "thirstyflops_shed_total{reason=\"head_too_large\"} 0",
                "thirstyflops_shed_total{reason=\"body_too_large\"} 0",
                "thirstyflops_shed_total{reason=\"deadline\"} 1",
            ],
        );
    }

    #[test]
    fn latency_sum_and_count_render_per_family() {
        // Quantile edges are pinned by `obs::hist`'s own tests; this
        // checks what reaches the exposition.
        let state = AppState::default();
        for _ in 0..99 {
            state.record(Endpoint::Rank, false, 10);
        }
        state.record(Endpoint::Rank, false, 1_000_000);
        assert_exposes(
            &state,
            &[
                "thirstyflops_http_request_duration_micros_bucket{endpoint=\"rank\",le=\"15\"} 99",
                "thirstyflops_http_request_duration_micros_bucket{endpoint=\"rank\",le=\"+Inf\"} 100",
                "thirstyflops_http_request_duration_micros_count{endpoint=\"rank\"} 100",
                "thirstyflops_http_request_duration_micros_sum{endpoint=\"rank\"} 1000990",
            ],
        );
    }

    #[test]
    fn prometheus_rendering_covers_every_family() {
        let state = AppState::default();
        state.record(Endpoint::Rank, true, 100);
        assert_exposes(
            &state,
            &[
                "# TYPE thirstyflops_http_requests_total counter",
                "# TYPE thirstyflops_http_cache_hits_total counter",
                "# TYPE thirstyflops_http_request_duration_micros histogram",
                "thirstyflops_http_requests_total{endpoint=\"rank\"} 1",
                "thirstyflops_http_cache_hits_total{endpoint=\"rank\"} 1",
                "thirstyflops_http_request_duration_micros_count{endpoint=\"rank\"} 1",
                "thirstyflops_http_request_duration_micros_sum{endpoint=\"rank\"} 100",
            ],
        );
        let text = state.registry.render_prometheus();
        for endpoint in ENDPOINTS {
            let series = format!("thirstyflops_http_requests_total{{endpoint=\"{endpoint}\"}} ");
            assert!(text.contains(&series), "{series} missing from exposition");
        }
        // Rendering is stable: two snapshots of the same state match.
        assert_eq!(text, state.registry.render_prometheus());
    }

    #[test]
    fn footprint_caches_by_normalized_key() {
        let state = AppState::default();
        let first = get("/v1/footprint/polaris?seed=2023", &state);
        assert_eq!(first.status, 200);
        // Defaulted seed normalizes onto the same key ⇒ cache hit.
        let second = get("/v1/footprint/polaris", &state);
        assert_eq!(first.body, second.body);
        let stats = state.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn compare_normalizes_aliases_onto_one_entry() {
        let state = AppState::default();
        let canonical = get("/v1/compare?a=polaris&b=frontier&seed=7", &state);
        assert_eq!(canonical.status, 200);
        let aliased = get("/v1/compare?a=Polaris&b=Frontier&seed=7", &state);
        assert_eq!(canonical.body, aliased.body);
        let stats = state.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "one entry, one hit");
        // Body matches the shared api builder byte for byte.
        assert_eq!(
            &*canonical.body,
            api::to_json(&api::compare_payload(
                thirstyflops_catalog::SystemId::Polaris,
                thirstyflops_catalog::SystemId::Frontier,
                7
            ))
        );
    }

    #[test]
    fn compare_requires_both_systems() {
        let state = AppState::default();
        assert_eq!(get("/v1/compare?a=polaris", &state).status, 400);
        assert_eq!(get("/v1/compare", &state).status, 400);
        assert_eq!(get("/v1/compare?a=polaris&b=colossus", &state).status, 404);
    }

    #[test]
    fn scenario_run_posts_evaluate_and_cache_by_canonical_spec() {
        let state = AppState::default();
        let spec = r#"{"name": "dry", "base": "polaris",
                       "overrides": {"climate": {"wue_scale": 0.5}}}"#;
        let first = post("/v1/scenarios/run", spec, &state);
        assert_eq!(first.status, 200, "{}", first.body);
        assert!(first.body.contains("\"deltas\""));
        // Same meaning, different spelling (whitespace, explicit
        // defaults) ⇒ same cache entry.
        let respelled = r#"{
            "name": "dry", "seed": 2023, "base": "Polaris",
            "overrides": {"climate": {"wue_scale": 0.5, "preset": null}}
        }"#;
        let second = post("/v1/scenarios/run", respelled, &state);
        assert_eq!(first.body, second.body);
        let stats = state.cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn scenario_post_rejects_bad_bodies_and_wrong_methods() {
        let state = AppState::default();
        assert_eq!(post("/v1/scenarios/run", "", &state).status, 400);
        assert_eq!(post("/v1/scenarios/run", "{not json", &state).status, 400);
        let unknown_key = post(
            "/v1/scenarios/run",
            r#"{"name": "x", "base": "polaris", "pue": 2}"#,
            &state,
        );
        assert_eq!(unknown_key.status, 400);
        assert!(unknown_key.body.contains("pue"));
        // Case-variant duplicate mix sources are a 400 at parse time —
        // they must never reach the post-validation evaluate.
        let dup_mix = post(
            "/v1/scenarios/run",
            r#"{"name": "x", "base": "fugaku",
                "overrides": {"grid": {"mix": {"Coal": 0.5, "coal": 0.5}}}}"#,
            &state,
        );
        assert_eq!(dup_mix.status, 400);
        assert!(dup_mix.body.contains("duplicate source"));
        // GET on a POST route is 405; POST on a GET route is 405.
        assert_eq!(get("/v1/scenarios/run", &state).status, 405);
        assert_eq!(post("/v1/rank", "{}", &state).status, 405);
    }

    #[test]
    fn scenario_sweep_posts_expand_and_evaluate() {
        let state = AppState::default();
        let sweep = r#"{"name": "s", "base": "polaris",
                        "axes": {"pue": [1.1, 1.3]}}"#;
        let resp = post("/v1/scenarios/sweep", sweep, &state);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"scenario_count\": 2"));
        // A run spec posted to the sweep route fails loudly.
        let run_spec = r#"{"name": "x", "base": "polaris"}"#;
        assert_eq!(post("/v1/scenarios/sweep", run_spec, &state).status, 400);
        // And vice versa.
        assert_eq!(post("/v1/scenarios/run", sweep, &state).status, 400);
    }

    #[test]
    fn unknown_system_and_experiment_are_404() {
        let state = AppState::default();
        assert_eq!(get("/v1/footprint/colossus", &state).status, 404);
        assert_eq!(get("/v1/scenario/colossus", &state).status, 404);
        assert_eq!(get("/v1/experiments/fig99", &state).status, 404);
        assert_eq!(get("/nope", &state).status, 404);
    }

    #[test]
    fn parameter_typos_are_400_not_silent_defaults() {
        let state = AppState::default();
        assert_eq!(get("/v1/footprint/polaris?sed=7", &state).status, 400);
        assert_eq!(get("/v1/rank?seed=abc", &state).status, 400);
        assert_eq!(get("/v1/rank?adjusted=maybe", &state).status, 400);
        assert_eq!(get("/healthz?x=1", &state).status, 400);
        assert_eq!(
            get("/v1/compare?a=polaris&b=frontier&sed=7", &state).status,
            400
        );
    }

    #[test]
    fn non_get_is_405() {
        let resp = post("/healthz", "", &AppState::default());
        assert_eq!(resp.status, 405);
    }

    #[test]
    fn rank_body_matches_api_builder_bytes() {
        let state = AppState::default();
        let resp = get("/v1/rank?seed=7&adjusted=true", &state);
        assert_eq!(&*resp.body, api::to_json(&api::rank_payload(true, 7)));
    }

    #[test]
    fn experiment_index_lists_ids() {
        let resp = get("/v1/experiments", &AppState::default());
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"fig01\""));
        assert!(resp.body.contains("\"table03\""));
    }

    #[test]
    fn parse_errors_map_to_their_statuses() {
        use crate::http::ParseError;
        assert!(parse_error_response(ParseError::Io("reset".into())).is_none());
        assert!(parse_error_response(ParseError::Idle).is_none());
        let eof = parse_error_response(ParseError::UnexpectedEof).unwrap();
        assert_eq!(eof.status, 400);
        let timeout = parse_error_response(ParseError::Timeout).unwrap();
        assert_eq!(timeout.status, 408);
        assert!(timeout.body.contains("\"status\": 408"));
        let too_large = parse_error_response(ParseError::TooLarge).unwrap();
        assert_eq!(too_large.status, 431);
        assert!(too_large.body.contains("\"status\": 431"));
        let body_too_large = parse_error_response(ParseError::BodyTooLarge).unwrap();
        assert_eq!(body_too_large.status, 413);
        let malformed = parse_error_response(ParseError::Malformed("bad line".into())).unwrap();
        assert_eq!(malformed.status, 400);
        assert!(malformed.body.contains("bad line"));
    }

    #[test]
    fn cache_stats_endpoint_is_not_itself_cached() {
        let state = AppState::default();
        let before = get("/v1/cache/stats", &state);
        get("/v1/systems", &state);
        let after = get("/v1/cache/stats", &state);
        assert_ne!(before.body, after.body, "stats must reflect the new miss");
    }

    #[test]
    fn traces_name_the_endpoint_and_cache_verdict() {
        let state = AppState::default();
        let req = request("GET", "/v1/rank", "");
        let (_, cold) = handle_traced(&req, &state);
        assert_eq!(
            cold,
            Trace {
                endpoint: Endpoint::Rank,
                cache_hit: false
            }
        );
        let (_, warm) = handle_traced(&req, &state);
        assert_eq!(
            warm,
            Trace {
                endpoint: Endpoint::Rank,
                cache_hit: true
            }
        );
    }

    #[test]
    fn trace_endpoint_serves_chrome_json() {
        let state = AppState::default();
        let resp = get("/v1/trace", &state);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.body.contains("\"traceEvents\""), "{}", resp.body);
        assert!(resp.body.contains("\"displayTimeUnit\":\"ms\""));
        // Bounded payload: `last` must parse; typos fail loudly.
        assert_eq!(get("/v1/trace?last=8", &state).status, 200);
        assert_eq!(get("/v1/trace?last=abc", &state).status, 400);
        assert_eq!(get("/v1/trace?lsat=8", &state).status, 400);
    }

    #[test]
    fn access_log_lines_are_strict_json_with_stable_keys() {
        let line = access_log_line(
            "tf-0000000000000007",
            "rank",
            200,
            123,
            456,
            true,
            None,
            &[],
        );
        assert_eq!(
            line,
            "{\"trace\":\"tf-0000000000000007\",\"endpoint\":\"rank\",\
             \"status\":200,\"bytes\":123,\"micros\":456,\"cache\":\"hit\",\
             \"shed\":null,\"faults\":[]}"
        );
        // Every line parses as strict JSON, whatever the fields hold —
        // including a hostile client-supplied trace id.
        let hostile = access_log_line(
            "x\"\\\u{1}",
            "shed",
            504,
            0,
            9,
            false,
            Some("deadline"),
            &["response_latency", "write_stall"],
        );
        let parsed: serde::Value = serde_json::from_str(&hostile).expect("strict JSON");
        let obj = match parsed {
            serde::Value::Object(pairs) => pairs,
            other => panic!("expected object, got {other:?}"),
        };
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["trace", "endpoint", "status", "bytes", "micros", "cache", "shed", "faults"]
        );
        assert_eq!(obj[0].1, serde::Value::Str("x\"\\\u{1}".into()));
        assert_eq!(obj[6].1, serde::Value::Str("deadline".into()));
    }
}
