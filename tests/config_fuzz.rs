//! Fuzzes the hand-written parsers — the fault plan
//! (`FaultPlan::from_json`), the scenario run and sweep specs
//! (`ScenarioSpec::from_json`, `SweepSpec::from_json`) and the HTTP
//! request reader with the router behind it — with mutations of shipped
//! inputs: truncations, single-bit flips and spliced tokens. Each parser
//! must answer `Ok` or `Err` and never panic. The named cases below pin
//! inputs that must stay errors.

use proptest::prelude::*;
use thirstyflops::faults::FaultPlan;
use thirstyflops::scenario::{ScenarioSpec, SweepSpec};
use thirstyflops::serve::http::RequestReader;
use thirstyflops::serve::router::{self, Query};

/// The shipped configs every mutation starts from.
fn seeds() -> Vec<String> {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut paths = vec![format!("{root}/examples/faults/smoke.json")];
    let mut specs: Vec<String> = std::fs::read_dir(format!("{root}/examples/scenarios"))
        .expect("examples/scenarios exists")
        .map(|entry| entry.expect("dir entry").path().display().to_string())
        .filter(|path| path.ends_with(".json"))
        .collect();
    specs.sort();
    paths.extend(specs);
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("example reads"))
        .collect()
}

/// Request wires the HTTP case mutates: a GET with a query, a scenario
/// POST with its exact `Content-Length`, and two pipelined GETs.
/// Unmutated, they parse into the 1, 1 and 2 requests they spell and
/// every path routes, so the fuzz starts from valid traffic.
fn http_wires() -> Vec<Vec<u8>> {
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/scenarios/drought_grid.json"
    ))
    .expect("example reads");
    let wires = vec![
        b"GET /v1/footprint/polaris?seed=7&adjusted HTTP/1.1\r\nHost: fuzz\r\n\r\n".to_vec(),
        format!(
            "POST /v1/scenarios/run HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        )
        .into_bytes(),
        b"GET /v1/systems HTTP/1.1\r\nHost: fuzz\r\n\r\n\
          GET /v1/rank?adjusted=true HTTP/1.1\r\nConnection: close\r\n\r\n"
            .to_vec(),
    ];
    for (wire, expected) in wires.iter().zip([1, 1, 2]) {
        let mut reader = RequestReader::new(&wire[..]);
        let mut parsed = 0;
        while let Ok(request) = reader.read_request() {
            router::route(&request.path).expect("seed path routes");
            parsed += 1;
        }
        assert_eq!(parsed, expected, "{}", String::from_utf8_lossy(wire));
    }
    wires
}

/// Tokens spliced into a seed: JSON punctuation, literals, out-of-range
/// and non-finite numbers, broken escapes, deep nesting, and HTTP
/// framing (line ends, lengths, percent-escapes).
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    "\\",
    "null",
    "true",
    "-1",
    "-0",
    "0",
    "1e999",
    "-1e999",
    "1e-999",
    "18446744073709551616",
    "9007199254740993",
    "0.5",
    "2.5",
    "NaN",
    "\"\\ud800\"",
    "\"\\ud800\\u0041\"",
    "\"\\udc00\"",
    "\"\\u00e9\"",
    "\"é\"",
    "\"\"",
    "\"site\"",
    "\"rate\"",
    "\"delay_ms\"",
    "\"axes\"",
    "\"top_n\"",
    "\"overrides\"",
    "[[[[[[[[[[[[[[[[",
    "{\"a\":{\"a\":{\"a\":",
    "\r\n",
    "\r\n\r\n",
    "Content-Length: ",
    "Content-Length: 99999999999999999999\r\n",
    "%",
    "%zz",
    "%00",
    "?",
    "/",
    " ",
    "HTTP/1.0",
];

/// Runs all three config parsers on `bytes`, repaired to valid UTF-8
/// (they take `&str`); reaching the end means none panicked.
fn parse_all(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    let _ = FaultPlan::from_json(&text);
    let _ = ScenarioSpec::from_json(&text);
    let _ = SweepSpec::from_json(&text);
}

/// Reads every request off `wire` until the reader errors, then routes
/// each path and parses each query. A routing or query error must be a
/// client error (4xx). Handlers are not called: cold simulations would
/// make the fuzz slow, and they are not parsers.
fn read_and_route(wire: &[u8]) {
    let mut reader = RequestReader::new(wire);
    while let Ok(request) = reader.read_request() {
        let errors = [
            router::route(&request.path).err(),
            Query::parse(&request.query).err(),
        ];
        for error in errors.into_iter().flatten() {
            assert!(
                (400..500).contains(&error.status()),
                "{request:?} answered {error:?}"
            );
        }
    }
}

/// `seed` with byte range `at..at + cut` replaced by `insert`.
fn splice(seed: &[u8], at: usize, cut: usize, insert: &[u8]) -> Vec<u8> {
    let at = at.min(seed.len());
    let end = at.saturating_add(cut).min(seed.len());
    let mut out = seed[..at].to_vec();
    out.extend_from_slice(insert);
    out.extend_from_slice(&seed[end..]);
    out
}

/// The truncation mutation: `seed` cut at `at` (mod its length + 1).
fn truncated(seed: &[u8], at: usize) -> Vec<u8> {
    splice(seed, at % (seed.len() + 1), usize::MAX, b"")
}

/// The bit-flip mutation: bit `bit` of byte `at` (mod the length) flipped.
fn bit_flipped(seed: &[u8], at: usize, bit: u8) -> Vec<u8> {
    let at = at % seed.len();
    splice(seed, at, 1, &[seed[at] ^ (1 << bit)])
}

/// The splice mutation: `cut` bytes at `at` replaced by a token
/// repeated `repeat` times.
fn spliced(seed: &[u8], at: usize, cut: usize, token: usize, repeat: usize) -> Vec<u8> {
    let insert = TOKENS[token % TOKENS.len()].repeat(repeat);
    splice(seed, at % (seed.len() + 1), cut, insert.as_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn truncated_configs_never_panic(seed in 0usize..64, at in 0usize..4096) {
        let seeds = seeds();
        parse_all(&truncated(seeds[seed % seeds.len()].as_bytes(), at));
    }

    #[test]
    fn bit_flipped_configs_never_panic(seed in 0usize..64, at in 0usize..4096, bit in 0u8..8) {
        let seeds = seeds();
        parse_all(&bit_flipped(seeds[seed % seeds.len()].as_bytes(), at, bit));
    }

    #[test]
    fn spliced_configs_never_panic(
        seed in 0usize..64,
        at in 0usize..4096,
        cut in 0usize..6,
        token in 0usize..64,
        repeat in 1usize..4,
    ) {
        let seeds = seeds();
        parse_all(&spliced(seeds[seed % seeds.len()].as_bytes(), at, cut, token, repeat));
    }

    #[test]
    fn mutated_http_wires_never_panic(
        wire in 0usize..64,
        mutation in 0u8..24,
        at in 0usize..4096,
        cut in 0usize..6,
        token in 0usize..64,
        repeat in 1usize..4,
    ) {
        let wires = http_wires();
        let wire = &wires[wire % wires.len()];
        // `mutation` picks the kind (mod 3) and the flipped bit (div 3).
        read_and_route(&match mutation % 3 {
            0 => truncated(wire, at),
            1 => bit_flipped(wire, at, mutation / 3),
            _ => spliced(wire, at, cut, token, repeat),
        });
    }
}

/// A `\u` high surrogate must be followed by a low one; anything else is
/// an error, not pair arithmetic on a non-surrogate (which overflows).
#[test]
fn unpaired_surrogate_escape_is_an_error() {
    let text = r#"{"name": "\ud800\u0041", "base": "polaris"}"#;
    assert!(FaultPlan::from_json(text).is_err());
    assert!(ScenarioSpec::from_json(text).is_err());
    assert!(SweepSpec::from_json(text).is_err());
}

/// Nesting deep enough to exhaust a worker thread's stack — a 256 KiB
/// request body of `[` — is refused instead of overflowing the stack.
#[test]
fn deeply_nested_input_is_an_error() {
    let text = "[".repeat(256 * 1024);
    let err = ScenarioSpec::from_json(&text).expect_err("refused");
    assert!(err.to_string().contains("nest"), "{err}");
    assert!(FaultPlan::from_json(&text).is_err());
    assert!(SweepSpec::from_json(&text).is_err());
    let ok = format!("{{\"x\": {}0{}}}", "[".repeat(100), "]".repeat(100));
    assert!(serde_json::from_str::<serde::Value>(&ok).is_ok());
}
