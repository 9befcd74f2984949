//! Determinism and export tests for the causal tracing layer
//! (docs/OBSERVABILITY.md).
//!
//! The contract: tracing must never change a command's output, and the
//! span-tree *shape* — folded stack paths and their counts — must be
//! bit-identical across thread counts; both run through `tests/matrix`.
//! The Chrome `trace_event` export must be valid JSON with only
//! complete-span (`"X"`) and fault-instant (`"i"`) events, and the
//! serving layer must echo `X-Request-Id` and answer `GET /v1/trace`
//! with parseable JSON under concurrent load.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Output};

use thirstyflops::serve::{Server, ServerConfig};

mod matrix;

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(args)
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "CLI {args:?} failed: {out:?}");
    out
}

/// A scratch path under the target-adjacent temp dir, unique per test.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "thirstyflops_trace_{}_{tag}.json",
        std::process::id()
    ))
}

/// Tree-shape contract, thread axis: the folded stacks — every span's
/// ancestor path and the number of spans closed on it — are identical
/// at 1, 2 and 8 threads and across a repeated 8-thread run, for every
/// fan-out (sweep chunks, the experiments regenerators, the paper years,
/// fig14's per-system scenarios, the year simulations behind `rank`,
/// fig13's miniAMR regrids and sweeps), because each worker attaches to
/// the trace context captured before its fan-out (docs/CONCURRENCY.md,
/// rule 7). The stage table is the same rollup summed by leaf.
#[test]
fn folded_shape_is_identical_across_thread_counts() {
    let mut rows = matrix::table_rows(&[
        "scenario sweep examples/scenarios/sweep_siting.json --json",
        "rank --json",
        "experiments fig13 --json",
        "footprint fugaku --json",
        "compare polaris frontier --json",
    ]);
    rows.push(matrix::row("experiments fig06 fig14 --json", &[]));
    rows.push(matrix::row("scenario fugaku --json", &[]));
    matrix::check(
        rows,
        &[
            ("2", &["--threads", "2", "--profile"]),
            ("8", &["--threads", "8", "--profile"]),
        ],
    );
}

/// Tracing off, recording, and sampled must all produce byte-identical
/// stdout — the trace goes to a file, never into command output — and
/// the CLI's root trace is ordinal 0, so it records at every sampling
/// rate: both files hold a real trace.
#[test]
fn stdout_is_byte_identical_with_tracing_off_on_and_sampled() {
    matrix::check(matrix::table_rows(&["rank --json"]), &[]);
}

/// The exported file is valid Chrome `trace_event` JSON (object
/// format): only complete-span and instant events, every event carries
/// the causal ids, and the workload sub-stages are attributed.
#[test]
fn trace_export_is_valid_chrome_json() {
    let path = scratch("chrome");
    run(&["rank", "--profile", "--trace-out", path.to_str().unwrap()]);
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let value: serde::Value = serde_json::from_str(&text).expect("trace file is valid JSON");
    let top = value.as_object().expect("trace is a JSON object");
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["displayTimeUnit", "otherData", "traceEvents"]);
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| v.as_array())
        .expect("traceEvents is an array");
    assert!(!events.is_empty(), "a cold rank records spans");
    let mut names = Vec::new();
    for event in events {
        let fields = event.as_object().expect("events are objects");
        let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (name, ph) = match (get("name"), get("ph")) {
            (Some(serde::Value::Str(name)), Some(serde::Value::Str(ph))) => (name, ph),
            other => panic!("event missing name/ph: {other:?}"),
        };
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?} on {name}");
        if ph == "X" {
            assert!(get("dur").is_some(), "span {name} has no duration");
        }
        for key in ["ts", "pid", "tid", "args"] {
            assert!(get(key).is_some(), "event {name} missing {key}");
        }
        names.push(name.clone());
    }
    for stage in ["trace_gen", "cluster_sim", "power_model", "workload_sim"] {
        assert!(
            names.iter().any(|n| n == stage),
            "cold rank trace attributes {stage}: {names:?}"
        );
    }
}

/// Issues one GET with an optional `X-Request-Id`; returns the raw
/// head and the body.
fn http_get(addr: SocketAddr, path: &str, request_id: Option<&str>) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("server is listening");
    let id_line = request_id.map_or(String::new(), |id| format!("X-Request-Id: {id}\r\n"));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\n{id_line}Connection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("response reads");
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .expect("response has a blank line");
    (head.to_string(), body.to_string())
}

/// Extracts the echoed `X-Request-Id` header from a response head.
fn echoed_id(head: &str) -> Option<String> {
    head.lines()
        .find_map(|l| l.strip_prefix("X-Request-Id: "))
        .map(str::to_string)
}

/// `GET /v1/trace` answers valid Chrome JSON under concurrent load,
/// client-supplied request ids are echoed verbatim, and server-minted
/// ids are echoed when the client sends none.
#[test]
fn trace_endpoint_and_request_id_echo_under_concurrent_load() {
    thirstyflops::obs::trace::set_enabled(true);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServerConfig::default()
    })
    .expect("binding port 0 always succeeds");
    let addr = server.local_addr();

    // A client-supplied id round-trips verbatim; a missing one gets a
    // server-minted `tf-` ordinal id.
    let (head, _) = http_get(addr, "/healthz", Some("it-echo-1"));
    assert_eq!(echoed_id(&head).as_deref(), Some("it-echo-1"), "{head}");
    let (head, _) = http_get(addr, "/healthz", None);
    let minted = echoed_id(&head).expect("server mints a request id");
    assert!(minted.starts_with("tf-"), "{minted}");

    let handles: Vec<_> = (0..4)
        .map(|client| {
            std::thread::spawn(move || {
                for i in 0..4 {
                    let id = format!("it-{client}-{i}");
                    let (head, _) = http_get(addr, "/v1/rank?seed=42", Some(&id));
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    assert_eq!(echoed_id(&head).as_deref(), Some(id.as_str()), "{head}");
                    let (head, body) = http_get(addr, "/v1/trace?last=64", Some(&id));
                    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
                    let value: serde::Value =
                        serde_json::from_str(&body).expect("trace body is valid JSON");
                    let keys: Vec<&str> = value
                        .as_object()
                        .expect("trace body is an object")
                        .iter()
                        .map(|(k, _)| k.as_str())
                        .collect();
                    assert_eq!(keys, ["displayTimeUnit", "otherData", "traceEvents"]);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client threads succeed");
    }
    server.shutdown();
}

/// The ring is bounded: at capacity it overwrites oldest-first and
/// counts the overwritten events instead of growing.
#[test]
fn ring_stays_bounded_at_capacity() {
    use thirstyflops::obs::{span, trace};
    trace::set_enabled(true);
    trace::set_capacity(64);
    {
        let _ctx = trace::begin(9_000, true);
        for _ in 0..200 {
            let _span = span::span(span::TRACE_GEN);
        }
    }
    let (events, _) = trace::events_snapshot(None);
    assert!(
        events.len() <= 64,
        "ring grew past capacity: {}",
        events.len()
    );
    assert!(
        trace::events_snapshot(None).1 > 0,
        "overwritten events are counted"
    );
    trace::set_capacity(trace::DEFAULT_CAPACITY);
}
