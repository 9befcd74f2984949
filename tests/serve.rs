//! Integration tests of the HTTP serving layer: real TCP sockets against
//! an in-process server on an ephemeral port.
//!
//! The contract under test (docs/SERVING.md):
//! * every endpoint family answers with JSON byte-identical to the
//!   corresponding CLI `--json` invocation;
//! * identical requests return byte-identical bodies at any worker
//!   count, from any mix of concurrent clients, cached or uncached;
//! * a repeated query is answered from the cache (visible in
//!   `/v1/cache/stats`) — the 8760-hour simulation never re-runs.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;

use thirstyflops::serve::{Server, ServerConfig};

fn start(workers: usize) -> Server {
    Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds")
}

/// Issues one GET over a real socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None)
}

/// Issues one POST with a body; returns (status, body).
fn http_post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    http_request(addr, "POST", path, Some(body))
}

fn http_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    // One-shot client: `Connection: close` keeps read_to_string finite
    // now that the server defaults to keep-alive.
    match body {
        None => write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        ),
        Some(b) => write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{b}",
            b.len()
        ),
    }
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line has a code");
    // Content-Length must frame the body exactly.
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header present");
    assert_eq!(declared, body.len(), "Content-Length frames the body");
    (status, body.to_string())
}

fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(args)
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "CLI {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("CLI emits UTF-8")
}

/// The value of one sample (`name{labels}`) in a `/v1/metrics` body.
fn metric_sample(metrics: &str, series: &str) -> u64 {
    let prefix = format!("{series} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("{series} missing from /v1/metrics:\n{metrics}"))
        .parse()
        .expect("integer sample")
}

/// The `shed` family's request count in a `/v1/metrics` body.
fn shed_requests(metrics: &str) -> u64 {
    metric_sample(
        metrics,
        "thirstyflops_http_requests_total{endpoint=\"shed\"}",
    )
}

#[test]
fn healthz_and_404_shapes() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""));
    assert!(body.contains("\"uptime_seconds\""), "{body}");
    assert!(body.contains("\"requests_total\""), "{body}");
    let (status, body) = http_get(addr, "/v2/nothing");
    assert_eq!(status, 404);
    assert!(body.contains("\"status\": 404"));
    let (status, _) = http_get(addr, "/v1/footprint/polaris?seed=abc");
    assert_eq!(status, 400);
    server.shutdown();
}

/// Satellite: `/healthz` reports the request total so external probes
/// can detect a silent restart (the count resets with the process).
#[test]
fn healthz_request_total_grows_between_polls() {
    let server = start(1);
    let addr = server.local_addr();
    let (_, first) = http_get(addr, "/healthz");
    let (_, _) = http_get(addr, "/v1/systems");
    let (_, second) = http_get(addr, "/healthz");
    let health: thirstyflops::serve::handlers::HealthBody =
        serde_json::from_str(&second).expect("healthz parses");
    assert_eq!(health.status, "ok");
    // The second poll has seen at least the first poll + the systems
    // request (recording happens after each response is written, so the
    // in-flight request itself may not be counted yet).
    assert!(health.requests_total >= 2, "{second}");
    let first: thirstyflops::serve::handlers::HealthBody =
        serde_json::from_str(&first).expect("healthz parses");
    assert!(health.requests_total > first.requests_total);
    server.shutdown();
}

/// Tentpole: `GET /v1/metrics` serves Prometheus text exposition over
/// real TCP — the server's own registry plus the global registry's
/// simcache and batch families, with the right Content-Type.
#[test]
fn metrics_endpoint_serves_prometheus_text_over_tcp() {
    let server = start(1);
    let addr = server.local_addr();
    let (_, _) = http_get(addr, "/v1/rank?seed=9");
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    write!(
        stream,
        "GET /v1/metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw.split_once("\r\n\r\n").expect("framed response");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "{head}"
    );
    // Per-endpoint table: the rank request above is visible.
    assert!(body.contains("# TYPE thirstyflops_http_requests_total counter"));
    assert!(body.contains("thirstyflops_http_requests_total{endpoint=\"rank\"} 1\n"));
    assert!(body.contains("# TYPE thirstyflops_http_request_duration_micros histogram"));
    assert!(body.contains(
        "thirstyflops_http_request_duration_micros_bucket{endpoint=\"rank\",le=\"+Inf\"} 1\n"
    ));
    // Global registry families, exposed even in a fresh process.
    assert!(body.contains("# TYPE thirstyflops_simcache_hits_total counter"));
    assert!(body.contains("thirstyflops_simcache_hits_total{cache=\"system_years\"}"));
    assert!(body.contains("# TYPE thirstyflops_batch_lanes_total counter"));
    // One surface: no family is registered in both the global and the
    // server's registry, so every `# TYPE` line appears exactly once.
    let types: Vec<&str> = body.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let distinct: std::collections::BTreeSet<&str> = types.iter().copied().collect();
    assert_eq!(
        types.len(),
        distinct.len(),
        "a family is declared twice: {types:?}"
    );
    // Well-formed exposition: every non-comment line is `name[{labels}] value`.
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(!series.is_empty(), "{line}");
        assert!(
            value.parse::<f64>().is_ok(),
            "sample value parses as a number: {line}"
        );
    }
    server.shutdown();
}

/// Each server keeps its HTTP families in its own registry: traffic to
/// one never shows in the other's `/v1/metrics`, while both render the
/// process-wide simcache families.
#[test]
fn servers_in_one_process_keep_separate_http_counters() {
    let (busy, quiet) = (start(1), start(1));
    assert_eq!(http_get(busy.local_addr(), "/v1/rank?seed=9").0, 200);
    let rank = "thirstyflops_http_requests_total{endpoint=\"rank\"}";
    for (server, requests) in [(&busy, 1), (&quiet, 0)] {
        let (_, metrics) = http_get(server.local_addr(), "/v1/metrics");
        assert_eq!(metric_sample(&metrics, rank), requests);
        assert!(metrics.contains("# TYPE thirstyflops_simcache_hits_total counter\n"));
    }
    busy.shutdown();
    quiet.shutdown();
}

/// The endpoint families vs their CLI `--json` twins, byte for byte
/// (including the `/v1/compare` route over `api::compare_payload`).
#[test]
fn endpoint_bodies_match_cli_json_bytes() {
    let server = start(2);
    let addr = server.local_addr();
    let cases: [(&str, &[&str]); 7] = [
        ("/v1/systems", &["systems", "--json"]),
        (
            "/v1/footprint/polaris?seed=7",
            &["footprint", "polaris", "--seed", "7", "--json"],
        ),
        (
            "/v1/compare?a=polaris&b=frontier&seed=7",
            &["compare", "polaris", "frontier", "--seed", "7", "--json"],
        ),
        ("/v1/rank?seed=7", &["rank", "--seed", "7", "--json"]),
        (
            "/v1/rank?adjusted=true&seed=7",
            &["rank", "--adjusted", "--seed", "7", "--json"],
        ),
        (
            "/v1/scenario/fugaku?seed=7",
            &["scenario", "fugaku", "--seed", "7", "--json"],
        ),
        ("/v1/experiments/fig05", &["experiments", "fig05", "--json"]),
    ];
    for (path, cli_args) in cases {
        let (status, body) = http_get(addr, path);
        assert_eq!(status, 200, "{path}");
        let cli = cli_stdout(cli_args);
        assert_eq!(body, cli, "{path} vs thirstyflops {cli_args:?}");
        assert!(body.ends_with('\n'), "{path} body keeps the CLI newline");
    }
    server.shutdown();
}

/// `/v1/compare` canonicalizes its cache key through `SystemId::from_str`:
/// aliases and a defaulted seed land on one entry.
#[test]
fn compare_aliases_share_one_cache_entry() {
    let server = start(2);
    let addr = server.local_addr();
    let (status, canonical) = http_get(addr, "/v1/compare?a=polaris&b=elcapitan&seed=2023");
    assert_eq!(status, 200);
    let (_, aliased) = http_get(addr, "/v1/compare?a=Polaris&b=el-capitan");
    assert_eq!(canonical, aliased, "alias + defaulted seed hit the cache");
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    // Order matters: b-vs-a is a different (valid) comparison.
    let (status, swapped) = http_get(addr, "/v1/compare?a=elcapitan&b=polaris");
    assert_eq!(status, 200);
    assert_ne!(canonical, swapped);
    server.shutdown();
}

/// Eight client threads hammering a mixed path set: within one server
/// every path's responses agree, and a 1-worker server serves the exact
/// same bytes as an 8-worker server.
#[test]
fn concurrent_bodies_identical_across_worker_counts() {
    let paths = [
        "/v1/footprint/marconi?seed=11",
        "/v1/rank?seed=11",
        "/v1/scenario/polaris?seed=11",
        "/v1/systems",
    ];

    // path → the one body every request of that path produced.
    let mut per_worker_count: Vec<BTreeMap<String, String>> = Vec::new();
    for workers in [1usize, 8] {
        let server = start(workers);
        assert_eq!(server.workers(), workers);
        let addr = server.local_addr();
        let responses: Vec<(String, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|client| {
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        // Stagger which path each client starts with so
                        // cold-cache computes genuinely race.
                        for turn in 0..paths.len() {
                            let path = paths[(client + turn) % paths.len()];
                            let (status, body) = http_get(addr, path);
                            assert_eq!(status, 200, "{path}");
                            seen.push((path.to_string(), body));
                        }
                        seen
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut agreed: BTreeMap<String, String> = BTreeMap::new();
        for (path, body) in responses {
            match agreed.get(&path) {
                None => {
                    agreed.insert(path, body);
                }
                Some(first) => assert_eq!(
                    first, &body,
                    "{path} answered differently across concurrent clients ({workers} workers)"
                ),
            }
        }
        assert_eq!(agreed.len(), paths.len());
        server.shutdown();
        per_worker_count.push(agreed);
    }
    assert_eq!(
        per_worker_count[0], per_worker_count[1],
        "bodies must not depend on the worker count"
    );
}

/// A repeated footprint query must be a cache hit — the second request
/// skips SystemYear::simulate, observable through /v1/cache/stats.
#[test]
fn repeated_query_hits_the_cache() {
    let server = start(2);
    let addr = server.local_addr();
    let (_, first) = http_get(addr, "/v1/footprint/frontier?seed=3");
    let (_, second) = http_get(addr, "/v1/footprint/frontier?seed=3");
    assert_eq!(first, second, "cached body is byte-identical");

    let (status, stats_body) = http_get(addr, "/v1/cache/stats");
    assert_eq!(status, 200);
    let stats: thirstyflops::serve::api::CacheStatsPayload =
        serde_json::from_str(&stats_body).expect("stats parse");
    assert_eq!(stats.body.misses, 1, "one cold compute");
    assert_eq!(stats.body.hits, 1, "one cache hit — simulate was skipped");
    assert_eq!(stats.body.entries, 1);
    assert_eq!(stats.body.capacity, 4096, "default bound is in place");
    assert_eq!(stats.body.evictions, 0);
    // The simulation cache is observable through the same endpoint: the
    // one cold body computed exactly one system year, and its grid/WUE
    // sub-simulations ran at most once each.
    assert!(stats.simulation.system_years.misses >= 1);
    assert!(stats.simulation.grid_years.entries >= 1);
    assert!(stats.simulation.wue_series.entries >= 1);
    // The in-process view agrees with the endpoint.
    assert_eq!(server.cache_stats(), stats.body);
    server.shutdown();
}

/// Distinct parameters must never share a cache entry.
#[test]
fn different_params_get_different_bodies() {
    let server = start(2);
    let addr = server.local_addr();
    let (_, seed3) = http_get(addr, "/v1/footprint/aurora?seed=3");
    let (_, seed4) = http_get(addr, "/v1/footprint/aurora?seed=4");
    assert_ne!(seed3, seed4, "seeds decorrelate years");
    let (_, plain) = http_get(addr, "/v1/rank");
    let (_, adjusted) = http_get(addr, "/v1/rank?adjusted=true");
    assert_ne!(plain, adjusted);
    assert_eq!(server.cache_stats().entries, 4);
    server.shutdown();
}

/// The acceptance-criteria POST path: a scenario spec uploaded to
/// `/v1/scenarios/run` is answered, byte-identical to the CLI, and a
/// repeat is served from the body cache — observable in
/// `/v1/cache/stats` and in `/v1/metrics`' per-endpoint counters.
#[test]
fn repeated_scenario_post_is_answered_from_the_body_cache() {
    let spec_path = format!(
        "{}/examples/scenarios/drought_grid.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let spec = std::fs::read_to_string(&spec_path).expect("spec ships");
    let server = start(2);
    let addr = server.local_addr();
    let (status, first) = http_post(addr, "/v1/scenarios/run", &spec);
    assert_eq!(status, 200, "{first}");
    let (_, second) = http_post(addr, "/v1/scenarios/run", &spec);
    assert_eq!(first, second, "cached body is byte-identical");
    // Byte-identical to the CLI twin.
    let cli = cli_stdout(&["scenario", "run", &spec_path, "--json"]);
    assert_eq!(first, cli, "POST /v1/scenarios/run vs scenario run --json");

    let (status, stats_body) = http_get(addr, "/v1/cache/stats");
    assert_eq!(status, 200);
    let stats: thirstyflops::serve::api::CacheStatsPayload =
        serde_json::from_str(&stats_body).expect("stats parse");
    assert_eq!(stats.body.misses, 1, "one cold evaluation");
    assert_eq!(stats.body.hits, 1, "the repeat skipped the engine");
    let (status, metrics) = http_get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    let run_series =
        |family: &str| metric_sample(&metrics, &format!("{family}{{endpoint=\"scenarios_run\"}}"));
    assert_eq!(run_series("thirstyflops_http_requests_total"), 2);
    assert_eq!(run_series("thirstyflops_http_cache_hits_total"), 1);
    server.shutdown();
}

/// A reformatted but semantically identical spec shares the cache entry
/// (the key is the canonical spec, not the body bytes), while a changed
/// spec gets its own.
#[test]
fn scenario_cache_keys_are_canonical_not_textual() {
    let server = start(2);
    let addr = server.local_addr();
    let original = r#"{"name": "dry", "base": "polaris",
                       "overrides": {"climate": {"wue_scale": 0.5}}}"#;
    let respelled = r#"{
        "seed": 2023,
        "name": "dry",
        "base": "Polaris",
        "overrides": {"climate": {"preset": null, "wue_scale": 0.5}}
    }"#;
    let changed = r#"{"name": "dry", "base": "polaris",
                      "overrides": {"climate": {"wue_scale": 0.6}}}"#;
    let (_, a) = http_post(addr, "/v1/scenarios/run", original);
    let (_, b) = http_post(addr, "/v1/scenarios/run", respelled);
    let (_, c) = http_post(addr, "/v1/scenarios/run", changed);
    assert_eq!(a, b, "respelling shares the canonical entry");
    assert_ne!(a, c);
    let stats = server.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    // Bad specs are 400s with the parser's message.
    let (status, err_body) = http_post(addr, "/v1/scenarios/run", "{\"nope\": 1}");
    assert_eq!(status, 400);
    assert!(err_body.contains("\"status\": 400"));
    server.shutdown();
}

/// Satellite: `POST /v1/scenarios/sweep` enforces the expansion ceiling
/// with a structured JSON 400 naming the limit and the fix — never a
/// hang, never an unstructured body.
#[test]
fn oversized_sweep_post_gets_structured_json_400() {
    let server = start(1);
    let addr = server.local_addr();
    // 20^3 = 8000 cells, no top_n: over the 4096 materialization cap.
    let oversized = r#"{"name": "big", "base": "polaris", "axes": {
        "climate.wue_scale": [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4,
                              1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3, 2.4],
        "pue": [1.05, 1.06, 1.07, 1.08, 1.09, 1.10, 1.11, 1.12, 1.13, 1.14,
                1.15, 1.16, 1.17, 1.18, 1.19, 1.20, 1.21, 1.22, 1.23, 1.24],
        "wsi.site": [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
                     0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.82, 0.84, 0.86, 0.88]
    }}"#;
    let (status, body) = http_post(addr, "/v1/scenarios/sweep", oversized);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"status\": 400"), "structured: {body}");
    assert!(body.contains("8000"), "names the expansion: {body}");
    assert!(body.contains("4096"), "names the limit: {body}");
    assert!(body.contains("top_n"), "names the fix: {body}");
    // The server stays healthy and the error was never cached.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(server.cache_stats().entries, 0);
    server.shutdown();
}

/// A combination that is invalid only jointly inside one section — a
/// `mix_delta` that zeroes every Northern Illinois share but leaves
/// Emilia-Romagna its hydro — fails a streaming sweep at parse time,
/// however many cells it has. The error names the first such
/// combination in expansion order, identically from `SweepSpec::from_json`,
/// from `evaluate_sweep` on a sweep built in code past the parser, from
/// the CLI and from `POST /v1/scenarios/sweep`.
#[test]
fn jointly_invalid_streaming_sweep_names_its_first_bad_combination() {
    // 2 × 2 × 1025 = 4100 cells, over the plain ceiling; the first bad
    // cell (index 3075) sits mid-chunk.
    let pue: Vec<String> = (0..1025)
        .map(|i| format!("{:.3}", 1.0 + f64::from(i) * 0.001))
        .collect();
    let bad_delta = r#"{"nuclear": -1, "coal": -1, "wind": -1, "solar": -1, "gas": -1}"#;
    let spec_with = |deltas: &str| {
        format!(
            r#"{{"name": "joint", "base": "polaris", "top_n": 3, "axes": {{
                "grid.region": ["emilia-romagna", "northern-illinois"],
                "grid.mix_delta": [{deltas}],
                "pue": [{}]
            }}}}"#,
            pue.join(", ")
        )
    };
    let spec = spec_with(&format!(r#"{{"gas": 0.05}}, {bad_delta}"#));
    let expected = "invalid scenario spec: combination [grid.region=northern-illinois,\
        grid.mix_delta={\"nuclear\":-1,\"coal\":-1,\"wind\":-1,\"solar\":-1,\"gas\":-1},pue=1.0] \
        is invalid: \"grid.mix_delta\" drives every share to zero on Northern Illinois (US): \
        energy mix has no sources";

    let err = thirstyflops::scenario::SweepSpec::from_json(&spec).expect_err("parse refuses");
    assert_eq!(err.to_string(), expected);
    let mut sweep = thirstyflops::scenario::SweepSpec::from_json(&spec_with(r#"{"gas": 0.05}"#))
        .expect("the valid half parses");
    sweep.axes[1]
        .values
        .push(serde_json::from_str(bad_delta).expect("delta parses"));
    assert_eq!(sweep.combination_count(), 4100);
    let err = thirstyflops::scenario::evaluate_sweep(&sweep).expect_err("joint cell fails");
    assert_eq!(err.to_string(), expected);

    let path = std::env::temp_dir().join(format!(
        "thirstyflops_joint_sweep_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, &spec).expect("spec writes");
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args([
            "scenario",
            "sweep",
            path.to_str().expect("UTF-8 path"),
            "--json",
        ])
        .output()
        .expect("CLI binary runs");
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("{expected}\n")
    );

    let server = start(1);
    let (status, body) = http_post(server.local_addr(), "/v1/scenarios/sweep", &spec);
    let parsed: thirstyflops::serve::error::ErrorBody =
        serde_json::from_str(&body).expect("structured error body");
    assert_eq!((status, parsed.error.as_str()), (400, expected));
    server.shutdown();
}

/// An in-body `top_n` streams over HTTP: the report keeps N rows, is
/// byte-identical to the CLI `--top` twin, and the batch kernel's
/// counters surface in `/v1/cache/stats`.
#[test]
fn top_n_sweep_post_streams_and_batch_stats_surface() {
    let spec_path = format!(
        "{}/examples/scenarios/sweep_siting.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&spec_path).expect("spec ships");
    let streaming = text.replacen('{', "{\"top_n\": 5,", 1);
    let server = start(2);
    let addr = server.local_addr();
    let (status, body) = http_post(addr, "/v1/scenarios/sweep", &streaming);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"top_n\": 5"), "{body}");
    assert!(
        body.contains("\"rank_by\": \"operational_water_l\""),
        "{body}"
    );
    assert!(body.contains("\"scenario_count\": 25"), "{body}");
    assert_eq!(body.matches("\"deltas\"").count(), 5, "five kept rows");
    // Byte-identical to the CLI twin (`--top` is the same override).
    let cli = cli_stdout(&["scenario", "sweep", &spec_path, "--top", "5", "--json"]);
    assert_eq!(body, cli, "POST with top_n vs scenario sweep --top 5");

    let (status, stats_body) = http_get(addr, "/v1/cache/stats");
    assert_eq!(status, 200);
    let stats: thirstyflops::serve::api::CacheStatsPayload =
        serde_json::from_str(&stats_body).expect("stats parse");
    assert!(stats.batch.lanes >= 1, "sweep lanes were aggregated");
    assert!(stats.batch.chunks >= 1, "at least one kernel pass ran");
    assert!(
        stats.batch.lanes >= stats.batch.chunks,
        "every kernel pass aggregates at least one lane: {:?}",
        stats.batch
    );
    assert!(
        stats.batch.topn_rows >= 25,
        "every one of the 25 cells was offered to the top-N: {:?}",
        stats.batch
    );
    server.shutdown();
}

/// `serve --log-json` writes one strict-JSON line per request to
/// stderr, keys in documented order, with the echoed `X-Request-Id`
/// first and the cache verdict.
#[test]
fn serve_log_flag_emits_request_lines() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--log-json",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let banner = std::io::BufReader::new(stdout)
        .lines()
        .next()
        .expect("serve prints a banner")
        .expect("banner reads");
    let addr: SocketAddr = banner
        .split_whitespace()
        .find_map(|w| w.strip_prefix("http://"))
        .expect("banner names the address")
        .parse()
        .expect("address parses");
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: test\r\nX-Request-Id: e2e-log-1\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    assert!(raw.contains("\r\nX-Request-Id: e2e-log-1\r\n"), "{raw}");
    let (status, _) = http_get(addr, "/v1/systems");
    assert_eq!(status, 200);
    let (status, _) = http_get(addr, "/v1/systems");
    assert_eq!(status, 200);
    child.kill().expect("serve stops on signal");
    let _ = child.wait();
    let mut log = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut log)
        .expect("stderr reads");
    let lines: Vec<&str> = log.lines().collect();
    assert_eq!(lines.len(), 3, "one line per request: {log:?}");
    for line in &lines {
        let value: serde::Value =
            serde_json::from_str(line).expect("access log line is strict JSON");
        let keys: Vec<&str> = value
            .as_object()
            .expect("access log line is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            ["trace", "endpoint", "status", "bytes", "micros", "cache", "shed", "faults"],
            "{line}"
        );
        assert!(line.contains("\"status\":200"), "{line}");
    }
    assert!(
        lines[0].starts_with("{\"trace\":\"e2e-log-1\",\"endpoint\":\"healthz\""),
        "{log:?}"
    );
    let systems_lines: Vec<&str> = lines
        .iter()
        .copied()
        .filter(|l| l.contains("\"endpoint\":\"systems\""))
        .collect();
    assert_eq!(systems_lines.len(), 2, "{log:?}");
    assert!(systems_lines[0].contains("\"cache\":\"miss\""), "{log:?}");
    assert!(systems_lines[1].contains("\"cache\":\"hit\""), "{log:?}");
}

/// `serve` on the CLI prints the bound ephemeral address and serves.
#[test]
fn cli_serve_reports_ephemeral_port_and_answers() {
    use std::io::BufRead;
    let mut child = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("serve prints a banner")
        .expect("banner reads");
    let addr: SocketAddr = banner
        .split_whitespace()
        .find_map(|w| w.strip_prefix("http://"))
        .expect("banner names the address")
        .parse()
        .expect("address parses");
    assert_ne!(addr.port(), 0, "port 0 resolves to a real port");
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""));
    child.kill().expect("serve stops on signal");
    let _ = child.wait();
}

// ---------------------------------------------------------------------
// Keep-alive, pipelining, adversarial input, shedding, shutdown.
// ---------------------------------------------------------------------

/// A persistent-connection client: sends requests down one socket and
/// reads `Content-Length`-framed responses, without closing in between.
struct KeepAlive {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> KeepAlive {
        let stream = TcpStream::connect(addr).expect("server is listening");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .expect("read timeout sets");
        KeepAlive {
            stream,
            carry: Vec::new(),
        }
    }

    /// One request/response exchange; the connection stays open.
    fn get(&mut self, path: &str) -> (u16, String) {
        write!(
            self.stream,
            "GET {path} HTTP/1.1\r\nHost: keepalive\r\n\r\n"
        )
        .expect("request writes");
        self.read_response()
    }

    fn read_response(&mut self) -> (u16, String) {
        let (status, body, connection) = read_framed(&mut self.stream, &mut self.carry);
        assert_eq!(
            connection.as_deref(),
            Some("keep-alive"),
            "a keep-alive exchange advertises keep-alive"
        );
        (status, body)
    }
}

/// Reads exactly one framed response off `stream`, using `carry` to
/// hold bytes of any pipelined responses that arrived in the same read;
/// returns (status, body, Connection header value).
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> (u16, String, Option<String>) {
    let (status, body, connection, _) = read_framed_full(stream, carry);
    (status, body, connection)
}

/// [`read_framed`], additionally returning the `Retry-After` header
/// value (for the shed/deadline assertions).
fn read_framed_full(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> (u16, String, Option<String>, Option<String>) {
    let mut chunk = [0u8; 2048];
    let head_end = loop {
        if let Some(pos) = carry.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("response head reads");
        assert!(n > 0, "connection closed before a full response head");
        carry.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(carry[..head_end].to_vec()).expect("UTF-8 head");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line has a code");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header present");
    let connection = head
        .lines()
        .find_map(|l| l.strip_prefix("Connection: "))
        .map(str::to_string);
    let retry_after = head
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .map(str::to_string);
    let body_start = head_end + 4;
    while carry.len() < body_start + length {
        let n = stream.read(&mut chunk).expect("response body reads");
        assert!(n > 0, "connection closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let body =
        String::from_utf8(carry[body_start..body_start + length].to_vec()).expect("UTF-8 body");
    carry.drain(..body_start + length);
    (status, body, connection, retry_after)
}

/// True once the peer has closed: a read yields EOF — or a reset, for
/// connections the server abandoned with unread request bytes — within
/// the timeout, instead of blocking or yielding data.
fn peer_closed(stream: &mut TcpStream) -> bool {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout sets");
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
    }
}

/// Satellite: N requests down one persistent connection produce the
/// same bytes as N one-shot connections — at 1 worker and at 8.
/// (`/healthz` is excluded: its uptime/request counters are
/// legitimately volatile — see `docs/SERVING.md`.)
#[test]
fn keep_alive_bodies_match_one_shot_bodies_across_worker_counts() {
    let paths = [
        "/v1/experiments",
        "/v1/footprint/polaris?seed=5",
        "/v1/systems",
        "/v1/footprint/polaris?seed=5", // repeat: served from cache
        "/v1/rank?seed=5",
        "/v1/experiments", // repeat: served from cache
    ];
    let mut per_worker_count: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 8] {
        let server = start(workers);
        let addr = server.local_addr();
        let mut conn = KeepAlive::connect(addr);
        let persistent: Vec<String> = paths
            .iter()
            .map(|path| {
                let (status, body) = conn.get(path);
                assert_eq!(status, 200, "{path} ({workers} workers)");
                body
            })
            .collect();
        let one_shot: Vec<String> = paths
            .iter()
            .map(|path| {
                let (status, body) = http_get(addr, path);
                assert_eq!(status, 200, "{path} one-shot ({workers} workers)");
                body
            })
            .collect();
        assert_eq!(
            persistent, one_shot,
            "persistent and one-shot connections must serve identical bytes ({workers} workers)"
        );
        server.shutdown();
        per_worker_count.push(persistent);
    }
    assert_eq!(
        per_worker_count[0], per_worker_count[1],
        "keep-alive bodies must not depend on the worker count"
    );
}

/// Pipelined requests — several written before any response is read —
/// are answered in order on one connection.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = start(1);
    let addr = server.local_addr();
    let (_, rank) = http_get(addr, "/v1/rank?seed=2");
    let (_, systems) = http_get(addr, "/v1/systems");

    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    // Three requests in one write; the last one asks to close.
    write!(
        stream,
        "GET /v1/rank?seed=2 HTTP/1.1\r\nHost: p\r\n\r\n\
         GET /v1/systems HTTP/1.1\r\nHost: p\r\n\r\n\
         GET /v1/rank?seed=2 HTTP/1.1\r\nHost: p\r\nConnection: close\r\n\r\n"
    )
    .expect("pipelined burst writes");
    let expectations = [
        (&rank, "keep-alive"),
        (&systems, "keep-alive"),
        (&rank, "close"),
    ];
    let mut carry = Vec::new();
    for (i, (expected_body, expected_connection)) in expectations.iter().enumerate() {
        let (status, body, connection) = read_framed(&mut stream, &mut carry);
        assert_eq!(status, 200, "pipelined response #{i}");
        assert_eq!(&&body, expected_body, "pipelined response #{i} bytes");
        assert_eq!(connection.as_deref(), Some(*expected_connection), "#{i}");
    }
    assert!(carry.is_empty(), "no bytes beyond the three responses");
    assert!(peer_closed(&mut stream), "close honored after the burst");
    server.shutdown();
}

/// Satellite: adversarial requests get the right 4xx and a closed
/// connection — never a panic, never a hang.
#[test]
fn adversarial_requests_get_4xx_and_close() {
    let server = start(1);
    let addr = server.local_addr();

    // (raw bytes to send, expected status, label)
    let cases: Vec<(Vec<u8>, u16, &str)> = vec![
        (b"BLARGH\r\n\r\n".to_vec(), 400, "garbage request line"),
        (
            b"GET /healthz HTTP/4.0\r\n\r\n".to_vec(),
            400,
            "unsupported version",
        ),
        (
            b"POST /v1/scenarios/run HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
            "garbage Content-Length",
        ),
        (
            b"POST /v1/scenarios/run HTTP/1.1\r\nContent-Length: 300000\r\n\r\n".to_vec(),
            413,
            "declared body over 256 KiB",
        ),
        (
            {
                // An actual body over the limit, declared honestly.
                let body = vec![b'x'; 300_000];
                let mut raw = format!(
                    "POST /v1/scenarios/run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes();
                raw.extend_from_slice(&body);
                raw
            },
            413,
            "oversized body bytes",
        ),
        (
            {
                let mut raw = b"GET /".to_vec();
                raw.extend(std::iter::repeat(b'a').take(9000));
                raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
                raw
            },
            431,
            "head over 8 KiB",
        ),
    ];
    for (raw, expected_status, label) in cases {
        let mut stream = TcpStream::connect(addr).expect("server is listening");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .expect("read timeout sets");
        stream.write_all(&raw).expect("adversarial bytes write");
        let (status, body, connection, retry_after) =
            read_framed_full(&mut stream, &mut Vec::new());
        assert_eq!(status, expected_status, "{label}");
        assert!(
            body.contains(&format!("\"status\": {expected_status}")),
            "{label}: {body}"
        );
        assert_eq!(connection.as_deref(), Some("close"), "{label}");
        // Satellite: over-cap rejections invite a (within-cap) retry;
        // plain parse failures do not.
        let expected_retry = matches!(expected_status, 413 | 431).then(|| "1".to_string());
        assert_eq!(retry_after, expected_retry, "{label}: Retry-After");
        assert!(peer_closed(&mut stream), "{label}: connection must close");
    }

    // A truncated head (client gives up mid-request) earns a 400.
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"GET /healthz HTT")
        .expect("partial head writes");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, _, _) = read_framed(&mut stream, &mut Vec::new());
    assert_eq!(status, 400, "truncated head");

    // Pipelined garbage after a valid request: the first answer is
    // normal, the garbage earns a 400, then the connection closes.
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: p\r\n\r\nNONSENSE\r\n\r\n")
        .expect("valid-then-garbage writes");
    let mut carry = Vec::new();
    let (status, _, connection) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 200, "the valid request is answered first");
    assert_eq!(connection.as_deref(), Some("keep-alive"));
    let (status, _, connection) = read_framed(&mut stream, &mut carry);
    assert_eq!(status, 400, "the pipelined garbage earns a 400");
    assert_eq!(connection.as_deref(), Some("close"));
    assert!(peer_closed(&mut stream), "parse failure closes");

    // The server is still healthy after all of it.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "server survives adversarial clients");

    // Satellite: the two over-cap 413s and the 431 above all count into
    // the "shed" metrics family (truncated heads and garbage stay in
    // "other").
    let (status, metrics) = http_get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert_eq!(shed_requests(&metrics), 3);
    server.shutdown();
}

/// A request whose declared body never arrives earns a 408 once the
/// read timeout expires — the slowloris guard.
#[test]
fn stalled_body_gets_408_after_the_read_timeout() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        limits: thirstyflops::serve::Limits {
            idle_timeout: std::time::Duration::from_millis(400),
            read_timeout: std::time::Duration::from_millis(400),
            ..Default::default()
        },
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"POST /v1/scenarios/run HTTP/1.1\r\nContent-Length: 50\r\n\r\n")
        .expect("head writes");
    // ... and never send the 50 body bytes.
    let (status, body, connection) = read_framed(&mut stream, &mut Vec::new());
    assert_eq!(status, 408, "{body}");
    assert_eq!(connection.as_deref(), Some("close"));
    assert!(peer_closed(&mut stream));
    server.shutdown();
}

/// An idle keep-alive connection closes once the idle timeout passes,
/// freeing its worker for the next connection.
#[test]
fn idle_keep_alive_connections_time_out() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        limits: thirstyflops::serve::Limits {
            idle_timeout: std::time::Duration::from_millis(300),
            read_timeout: std::time::Duration::from_secs(10),
            ..Default::default()
        },
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    let mut conn = KeepAlive::connect(addr);
    let (status, _) = conn.get("/healthz");
    assert_eq!(status, 200);
    // Sit idle past the limit: the server closes without a response.
    assert!(
        peer_closed(&mut conn.stream),
        "idle connection closes quietly"
    );
    // The freed worker serves the next client.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

/// Satellite: over-limit connections are shed with a well-formed JSON
/// 503 while an existing keep-alive connection keeps its slot; closing
/// it frees the slot for the next client.
#[test]
fn over_limit_connections_get_json_503() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        max_connections: 1,
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();

    // The one allowed connection, held open.
    let mut holder = KeepAlive::connect(addr);
    let (status, _) = holder.get("/healthz");
    assert_eq!(status, 200);

    // The second concurrent connection is shed with a JSON 503.
    let mut over = TcpStream::connect(addr).expect("connect still accepted");
    over.set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    over.write_all(b"GET /healthz HTTP/1.1\r\nHost: s\r\n\r\n")
        .expect("request writes");
    let (status, body, connection, retry_after) = read_framed_full(&mut over, &mut Vec::new());
    assert_eq!(status, 503);
    assert!(body.contains("\"status\": 503"), "{body}");
    assert!(body.contains("connection limit"), "{body}");
    assert_eq!(connection.as_deref(), Some("close"));
    // Satellite: the shed 503 tells well-behaved clients when to come
    // back instead of letting them hammer the limit.
    assert_eq!(retry_after.as_deref(), Some("1"), "shed 503 Retry-After");
    assert!(peer_closed(&mut over), "shed connection closes");

    // Satellite: the shed is visible in the per-endpoint metrics — the
    // 503 above landed in the dedicated "shed" family, not "other".
    let (status, metrics) = holder.get("/v1/metrics");
    assert_eq!(status, 200);
    assert!(shed_requests(&metrics) >= 1, "{metrics}");

    // Releasing the held connection frees the slot (within the worker's
    // ~100 ms poll slice); the next client is served normally.
    drop(holder);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let mut probe = TcpStream::connect(addr).expect("connect");
        probe
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .expect("read timeout sets");
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n")
            .expect("request writes");
        let (status, _, _) = read_framed(&mut probe, &mut Vec::new());
        if status == 200 {
            break;
        }
        assert_eq!(status, 503);
        assert!(
            std::time::Instant::now() < deadline,
            "slot never freed after the holder closed"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Fault injection & hardened serving (docs/ROBUSTNESS.md)
// ---------------------------------------------------------------------

/// Builds a per-instance (non-global) injector from plan JSON, so each
/// test chaoses its own server without touching the process-wide slot.
fn injector(plan_json: &str) -> std::sync::Arc<thirstyflops::faults::FaultInjector> {
    std::sync::Arc::new(thirstyflops::faults::FaultInjector::new(
        thirstyflops::faults::FaultPlan::from_json(plan_json).expect("test plan parses"),
    ))
}

/// `/readyz` answers readiness over a real socket, separately from
/// `/healthz` (which keeps reporting liveness during a drain).
#[test]
fn readyz_reports_ready_over_tcp() {
    let server = start(1);
    let addr = server.local_addr();
    let (status, ready) = http_get(addr, "/readyz");
    assert_eq!(status, 200);
    assert_eq!(ready, "{\n  \"ready\": true\n}\n");
    let (status, health) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_ne!(ready, health, "readiness and liveness are distinct probes");
    server.shutdown();
}

/// Satellite: a panicking handler (here: an injected panic firing on
/// every request) yields a well-formed JSON 500 and a clean close — and
/// the server keeps serving new connections afterwards.
#[test]
fn injected_handler_panic_yields_json_500_and_the_server_survives() {
    let server = Server::bind_with_faults(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        Some(injector(
            r#"{"name": "always-panic", "seed": 7,
                "faults": [{"site": "handler_panic", "rate": 1.0}]}"#,
        )),
    )
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    for round in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("server is listening");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(20)))
            .expect("read timeout sets");
        stream
            .write_all(b"GET /v1/systems HTTP/1.1\r\nHost: chaos\r\n\r\n")
            .expect("request writes");
        let (status, body, connection, _) = read_framed_full(&mut stream, &mut Vec::new());
        assert_eq!(status, 500, "round {round}");
        assert!(body.contains("\"status\": 500"), "round {round}: {body}");
        assert!(body.contains("panicked"), "round {round}: {body}");
        assert_eq!(connection.as_deref(), Some("close"), "round {round}");
        assert!(peer_closed(&mut stream), "round {round}: clean close");
    }
    server.shutdown();
}

/// Satellite: injected latency that blows the per-request deadline is
/// converted into a JSON 504 with `Retry-After`, never a stale body.
#[test]
fn injected_latency_past_the_deadline_becomes_a_504() {
    let server = Server::bind_with_faults(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            limits: thirstyflops::serve::Limits {
                request_timeout: Some(std::time::Duration::from_millis(50)),
                ..Default::default()
            },
            ..ServerConfig::default()
        },
        Some(injector(
            r#"{"name": "always-slow", "seed": 7,
                "faults": [{"site": "response_latency", "rate": 1.0, "delay_ms": 200}]}"#,
        )),
    )
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"GET /v1/systems HTTP/1.1\r\nHost: slow\r\n\r\n")
        .expect("request writes");
    let (status, body, connection, retry_after) = read_framed_full(&mut stream, &mut Vec::new());
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"status\": 504"), "{body}");
    assert!(body.contains("deadline"), "{body}");
    assert_eq!(retry_after.as_deref(), Some("1"), "504 carries Retry-After");
    assert_eq!(connection.as_deref(), Some("close"));
    assert!(peer_closed(&mut stream));
    server.shutdown();
}

/// An injected truncate cuts the response visibly short (a framing
/// violation the client detects), never silently-wrong bytes: the 200
/// head declares more body than ever arrives, then the peer closes.
#[test]
fn injected_truncate_cuts_the_response_short_never_corrupts_it() {
    let server = Server::bind_with_faults(
        &ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        Some(injector(
            r#"{"name": "always-truncate", "seed": 7,
                "faults": [{"site": "write_truncate", "rate": 1.0}]}"#,
        )),
    )
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"GET /v1/systems HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("reads until the close");
    let raw = String::from_utf8(raw).expect("UTF-8 half-response");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("half the wire image still covers the head");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length header present");
    assert!(
        body.len() < declared,
        "truncation must be detectable: got {} of {declared} declared bytes",
        body.len()
    );
    server.shutdown();
}

/// Satellite (slow clients): a client dribbling its request one byte at
/// a time — well inside the read timeout — is served the exact same
/// bytes as a normal client.
#[test]
fn byte_at_a_time_requests_are_served_in_full() {
    let server = start(1);
    let addr = server.local_addr();
    let (status, expected) = http_get(addr, "/v1/systems");
    assert_eq!(status, 200);

    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    for byte in b"GET /v1/systems HTTP/1.1\r\nHost: drip\r\nConnection: close\r\n\r\n" {
        stream.write_all(&[*byte]).expect("one byte writes");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let (status, body, connection, _) = read_framed_full(&mut stream, &mut Vec::new());
    assert_eq!(status, 200);
    assert_eq!(body, expected, "dribbled request gets identical bytes");
    assert_eq!(connection.as_deref(), Some("close"));
    server.shutdown();
}

/// Satellite (slow clients): a slowloris peer that starts a request
/// head and then goes silent gets its 408 once the read timeout fires —
/// and the worker slot is reclaimed for the next client.
#[test]
fn slow_header_trickle_gets_408_and_frees_the_worker() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        limits: thirstyflops::serve::Limits {
            read_timeout: std::time::Duration::from_millis(300),
            ..Default::default()
        },
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    // An unfinished head, then silence: the read timeout must fire.
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nX-Slow: ")
        .expect("partial head writes");
    let (status, body, connection, _) = read_framed_full(&mut stream, &mut Vec::new());
    assert_eq!(status, 408, "{body}");
    assert!(body.contains("\"status\": 408"), "{body}");
    assert_eq!(connection.as_deref(), Some("close"));
    assert!(peer_closed(&mut stream));
    // The lone worker is free again.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "worker slot reclaimed after the slowloris");
    server.shutdown();
}

/// Satellite (slow clients): a client that disconnects mid-body gets a
/// 400 for the half-request, and the worker slot is reclaimed.
#[test]
fn mid_body_disconnect_gets_400_and_frees_the_worker() {
    let server = start(1);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .expect("read timeout sets");
    stream
        .write_all(b"POST /v1/scenarios/run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"name\"")
        .expect("head and partial body write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let (status, body, connection) = read_framed(&mut stream, &mut Vec::new());
    assert_eq!(status, 400, "{body}");
    assert_eq!(connection.as_deref(), Some("close"));
    assert!(peer_closed(&mut stream));
    // The lone worker is free again.
    let (status, _) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "worker slot reclaimed after the disconnect");
    server.shutdown();
}

/// Satellite: a bounded drain answers every request in flight — byte-
/// identically at 1 worker and at 8 — and late connects are cleanly
/// refused because the listener is closed, not left queueing.
#[test]
fn drain_answers_in_flight_requests_identically_across_worker_counts() {
    let paths = [
        "/v1/systems",
        "/v1/rank?seed=7",
        "/v1/footprint/polaris?seed=7",
        "/v1/experiments",
    ];
    let mut per_worker_count: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 8] {
        // Injected latency on every response keeps the requests in
        // flight when the drain begins.
        let server = Server::bind_with_faults(
            &ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers,
                ..ServerConfig::default()
            },
            Some(injector(
                r#"{"name": "drain-hold", "seed": 7,
                    "faults": [{"site": "response_latency", "rate": 1.0, "delay_ms": 150}]}"#,
            )),
        )
        .expect("binding port 0 always succeeds");
        let addr = server.local_addr();
        let mut streams: Vec<TcpStream> = paths
            .iter()
            .map(|path| {
                let mut stream = TcpStream::connect(addr).expect("server is listening");
                stream
                    .set_read_timeout(Some(std::time::Duration::from_secs(20)))
                    .expect("read timeout sets");
                write!(stream, "GET {path} HTTP/1.1\r\nHost: drain\r\n\r\n")
                    .expect("request writes");
                stream
            })
            .collect();
        // Let the accept loop adopt all four connections before the
        // drain closes the listener.
        std::thread::sleep(std::time::Duration::from_millis(300));
        assert!(
            server.drain(std::time::Duration::from_secs(10)),
            "drain must complete within the bound ({workers} workers)"
        );
        // Every in-flight request was answered before its close; the
        // responses sit buffered in the sockets.
        let bodies: Vec<String> = streams
            .iter_mut()
            .zip(paths)
            .map(|(stream, path)| {
                let (status, body, _) = read_framed(stream, &mut Vec::new());
                assert_eq!(status, 200, "{path} during drain ({workers} workers)");
                assert!(
                    peer_closed(stream),
                    "{path}: drained connection closes ({workers} workers)"
                );
                body
            })
            .collect();
        // Late connects get a clean refusal: the listener is gone. (If
        // the kernel still completes a handshake, no bytes ever come.)
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut late) => {
                late.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                    .expect("read timeout sets");
                let _ = late.write_all(b"GET /healthz HTTP/1.1\r\nHost: late\r\n\r\n");
                assert!(
                    peer_closed(&mut late),
                    "a late connection must be refused, not served or hung"
                );
            }
        }
        per_worker_count.push(bodies);
    }
    assert_eq!(
        per_worker_count[0], per_worker_count[1],
        "drained in-flight bodies must not depend on the worker count"
    );
}

/// Acceptance: two `loadgen --chaos` replays of the same plan + seed
/// produce bit-identical chaos accounting at different worker counts,
/// with zero verification failures — the whole-stack determinism check
/// (`./ci.sh chaos-smoke` runs the bigger version).
#[test]
fn cli_chaos_replays_are_bit_identical_across_worker_counts() {
    let run = |workers: &str| {
        cli_stdout(&[
            "loadgen",
            "--mix",
            "examples/loadmix/bench.json",
            "--requests",
            "120",
            "--connections",
            "4",
            "--workers",
            workers,
            "--retries",
            "32",
            "--request-timeout",
            "2000",
            "--chaos",
            "examples/faults/smoke.json",
            "--json",
        ])
    };
    let one = run("1");
    let eight = run("8");
    for out in [&one, &eight] {
        assert!(out.contains("\"mismatches\": 0"), "{out}");
        assert!(out.contains("\"errors\": 0"), "{out}");
        assert!(out.contains("\"unrecovered\": 0"), "{out}");
    }
    let chaos_of = |out: &str| {
        out.split("\"chaos\"")
            .nth(1)
            .expect("combined JSON has a chaos section")
            .to_string()
    };
    assert_eq!(
        chaos_of(&one),
        chaos_of(&eight),
        "chaos accounting must be bit-identical across worker counts"
    );
}

/// Satellite: shutdown drains keep-alive connections — the request in
/// flight is answered (with `Connection: close`), idle connections are
/// closed, and shutdown returns promptly instead of waiting out the
/// idle timeout.
#[test]
fn shutdown_drains_keep_alive_connections_promptly() {
    let server = start(2);
    let addr = server.local_addr();
    let mut conn = KeepAlive::connect(addr);
    let (status, _) = conn.get("/v1/systems");
    assert_eq!(status, 200);

    // The connection now sits idle (default idle timeout: 5 s).
    let started = std::time::Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < std::time::Duration::from_secs(3),
        "shutdown must not wait out the idle timeout, took {:?}",
        started.elapsed()
    );
    assert!(
        peer_closed(&mut conn.stream),
        "the idle keep-alive connection was closed by shutdown"
    );
}
