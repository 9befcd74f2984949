//! Fuzzes the hand-written config parsers — the fault plan
//! (`FaultPlan::from_json`) and the scenario run and sweep specs
//! (`ScenarioSpec::from_json`, `SweepSpec::from_json`) — with mutations
//! of the shipped example files: truncations, single-bit flips and
//! spliced tokens. Each parser must answer `Ok` or `Err` and never
//! panic. The named cases below pin inputs that must stay errors.

use proptest::prelude::*;
use thirstyflops::faults::FaultPlan;
use thirstyflops::scenario::{ScenarioSpec, SweepSpec};

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

/// Tokens spliced into a seed: JSON punctuation, literals, out-of-range
/// and non-finite numbers, broken escapes and deep nesting.
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
];

/// Runs all three parsers; reaching the end means none panicked.
fn parse_all(text: &str) {
    let _ = FaultPlan::from_json(text);
    let _ = ScenarioSpec::from_json(text);
    let _ = SweepSpec::from_json(text);
}

/// `seed` with byte range `at..at + cut` replaced by `insert`, repaired
/// to valid UTF-8 (the parsers take `&str`).
fn splice(seed: &str, at: usize, cut: usize, insert: &[u8]) -> String {
    let bytes = seed.as_bytes();
    let at = at.min(bytes.len());
    let end = at.saturating_add(cut).min(bytes.len());
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(insert);
    out.extend_from_slice(&bytes[end..]);
    String::from_utf8_lossy(&out).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn truncated_configs_never_panic(seed in 0usize..64, at in 0usize..4096) {
        let seeds = seeds();
        let seed = &seeds[seed % seeds.len()];
        parse_all(&splice(seed, at % (seed.len() + 1), usize::MAX, b""));
    }

    #[test]
    fn bit_flipped_configs_never_panic(seed in 0usize..64, at in 0usize..4096, bit in 0u8..8) {
        let seeds = seeds();
        let seed = &seeds[seed % seeds.len()];
        let at = at % seed.len();
        let flipped = seed.as_bytes()[at] ^ (1 << bit);
        parse_all(&splice(seed, at, 1, &[flipped]));
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
        let seed = &seeds[seed % seeds.len()];
        let insert = TOKENS[token % TOKENS.len()].repeat(repeat);
        parse_all(&splice(seed, at % (seed.len() + 1), cut, insert.as_bytes()));
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
