//! End-to-end tests of the `thirstyflops` CLI binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = cli().args(args).output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (code, _out, err) = run(&[]);
    assert_eq!(code, 2);
    assert!(err.contains("USAGE"));
}

#[test]
fn systems_lists_all_six() {
    let (code, out, _) = run(&["systems"]);
    assert_eq!(code, 0);
    for name in [
        "Marconi100",
        "Fugaku",
        "Polaris",
        "Frontier",
        "Aurora",
        "El Capitan",
    ] {
        assert!(out.contains(name), "missing {name}");
    }
}

#[test]
fn footprint_reports_all_sections() {
    let (code, out, _) = run(&["footprint", "polaris", "--seed", "7"]);
    assert_eq!(code, 0);
    assert!(out.contains("embodied water"));
    assert!(out.contains("operational water"));
    assert!(out.contains("intensities"));
    assert!(out.contains("Lemont"));
}

#[test]
fn footprint_rejects_unknown_system() {
    let (code, _, err) = run(&["footprint", "colossus"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown system"));
}

#[test]
fn rank_orders_by_water() {
    let (code, out, _) = run(&["rank"]);
    assert_eq!(code, 0);
    // Aurora (largest power × high PUE region) outranks Polaris.
    let aurora = out.find("Aurora").expect("Aurora listed");
    let polaris = out.find("Polaris").expect("Polaris listed");
    assert!(aurora < polaris);
}

#[test]
fn scenario_prints_four_whatifs() {
    let (code, out, _) = run(&["scenario", "fugaku"]);
    assert_eq!(code, 0);
    assert!(out.contains("100% Coal Usage"));
    assert!(out.contains("100% Nuclear Usage"));
    assert!(out.matches('%').count() >= 8);
}

#[test]
fn sensitivity_prints_elasticities() {
    let (code, out, _) = run(&["sensitivity", "frontier"]);
    assert_eq!(code, 0);
    assert!(out.contains("WUE"));
    assert!(out.contains("A_die"));
    assert!(out.contains("Yield"));
}

#[test]
fn lifecycle_reports_break_even() {
    let (code, out, _) = run(&["lifecycle", "marconi", "--years", "4"]);
    assert_eq!(code, 0);
    assert!(out.contains("break-even"));
    assert!(out.contains("amortized intensity"));
}

#[test]
fn experiments_filter_works() {
    let (code, out, _) = run(&["experiments", "table01"]);
    assert_eq!(code, 0);
    assert!(out.contains("## table01"));
    assert!(!out.contains("## fig03"));
    let (code, _, err) = run(&["experiments", "fig99"]);
    assert_eq!(code, 2);
    assert!(err.contains("no matching"));
}

#[test]
fn experiments_all_json_emits_every_artifact() {
    let (code, out, _) = run(&["experiments", "--all", "--json", "--threads", "2"]);
    assert_eq!(code, 0);
    let parsed: serde::Value = serde_json::from_str(&out).expect("output is valid JSON");
    let experiments = parsed.as_array().expect("top level is an array");
    assert_eq!(experiments.len(), 21, "21 paper + extension artifacts");
    for e in experiments {
        let fields = e.as_object().expect("each experiment is an object");
        for key in ["id", "title", "frame", "notes"] {
            assert!(
                fields.iter().any(|(name, _)| name == key),
                "experiment missing {key:?}"
            );
        }
    }
    // Paper order is preserved in batch mode.
    let first = experiments[0].as_object().unwrap();
    assert!(first
        .iter()
        .any(|(name, v)| name == "id" && *v == serde::Value::Str("fig01".into())));
}

#[test]
fn experiments_rejects_ids_combined_with_all() {
    let (code, _, err) = run(&["experiments", "fig05", "--all"]);
    assert_eq!(code, 2);
    assert!(err.contains("not both"));
}

#[test]
fn experiments_rejects_misspelled_id_even_next_to_valid_ones() {
    // A typo must not silently drop an artifact from the batch output.
    let (code, _, err) = run(&["experiments", "fig05", "fgi06", "--json"]);
    assert_eq!(code, 2);
    assert!(err.contains("fgi06"), "{err}");
}

#[test]
fn experiments_json_respects_id_filter() {
    let (code, out, _) = run(&["experiments", "fig05", "--json"]);
    assert_eq!(code, 0);
    let parsed: serde::Value = serde_json::from_str(&out).expect("output is valid JSON");
    assert_eq!(parsed.as_array().map(<[serde::Value]>::len), Some(1));
    assert!(out.contains("\"fig05\""));
    assert!(!out.contains("\"fig03\""));
}

#[test]
fn threads_flag_is_position_independent() {
    // The docs promise a *global* flag: before the subcommand, between
    // positionals, or trailing — all equivalent.
    let (code, before, _) = run(&["--threads", "2", "systems"]);
    assert_eq!(code, 0);
    let (code, after, _) = run(&["systems", "--threads", "2"]);
    assert_eq!(code, 0);
    assert_eq!(before, after);
    let (code, out, _) = run(&["footprint", "--threads", "2", "polaris", "--seed", "7"]);
    assert_eq!(code, 0);
    assert!(out.contains("Lemont"));
}

#[test]
fn threads_flag_rejects_garbage() {
    let (code, _, err) = run(&["rank", "--threads", "zero"]);
    assert_eq!(code, 2);
    assert!(err.contains("--threads"));
    let (code, _, err) = run(&["rank", "--threads"]);
    assert_eq!(code, 2);
    assert!(err.contains("--threads"));
}

#[test]
fn no_sim_cache_flag_is_position_independent() {
    // Like --threads, --no-sim-cache is global (tests/simcache.rs pins
    // the byte-identity of its output; this pins the arg parsing).
    let (code, before, _) = run(&["--no-sim-cache", "systems"]);
    assert_eq!(code, 0);
    let (code, after, _) = run(&["systems", "--no-sim-cache"]);
    assert_eq!(code, 0);
    assert_eq!(before, after);
}

#[test]
fn serve_cache_flags_reject_garbage() {
    let (code, _, err) = run(&["serve", "--cache-entries", "many"]);
    assert_eq!(code, 2);
    assert!(err.contains("--cache-entries"));
    let (code, _, err) = run(&["serve", "--cache-ttl", "-5"]);
    assert_eq!(code, 2);
    assert!(err.contains("--cache-ttl"));
    let (code, _, err) = run(&["serve", "--cache-sizes", "7"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown serve flag"));
}

#[test]
fn footprint_json_parses_and_carries_the_report() {
    let (code, out, _) = run(&["footprint", "polaris", "--seed", "7", "--json"]);
    assert_eq!(code, 0);
    let parsed: serde::Value = serde_json::from_str(&out).expect("output is valid JSON");
    let fields = parsed.as_object().expect("top level is an object");
    for key in ["system", "name", "operator", "location", "seed", "report"] {
        assert!(
            fields.iter().any(|(name, _)| name == key),
            "missing {key:?}"
        );
    }
    assert!(out.contains("\"system\": \"polaris\""));
    // Determinism: a second run emits the same bytes.
    let (_, again, _) = run(&["footprint", "polaris", "--seed", "7", "--json"]);
    assert_eq!(out, again);
}

#[test]
fn rank_json_has_six_ranked_entries() {
    let (code, out, _) = run(&["rank", "--adjusted", "--json"]);
    assert_eq!(code, 0);
    let parsed: serde::Value = serde_json::from_str(&out).expect("valid JSON");
    let fields = parsed.as_object().unwrap();
    assert!(fields
        .iter()
        .any(|(name, v)| name == "adjusted" && *v == serde::Value::Bool(true)));
    let entries = fields
        .iter()
        .find(|(name, _)| name == "entries")
        .and_then(|(_, v)| v.as_array())
        .expect("entries array");
    assert_eq!(entries.len(), 6);
}

#[test]
fn compare_and_scenario_and_systems_emit_json() {
    let (code, out, _) = run(&["compare", "polaris", "frontier", "--json"]);
    assert_eq!(code, 0);
    assert!(out.contains("\"bands_overlap\""));
    let (code, out, _) = run(&["scenario", "fugaku", "--json"]);
    assert_eq!(code, 0);
    assert!(out.contains("\"100% Coal Usage\""));
    let (code, out, _) = run(&["systems", "--json"]);
    assert_eq!(code, 0);
    assert!(out.contains("\"elcapitan\""));
}

#[test]
fn seed_rejects_garbage_like_the_http_api() {
    // `?seed=20x3` is a 400 on the server; the CLI twin must not
    // silently serve the default year instead.
    let (code, _, err) = run(&["footprint", "polaris", "--seed", "20x3"]);
    assert_eq!(code, 2);
    assert!(err.contains("--seed"), "{err}");
    let (code, _, _) = run(&["rank", "--seed", "7"]);
    assert_eq!(code, 0);
}

#[test]
fn serve_rejects_bad_flags_without_binding() {
    let (code, _, err) = run(&["serve", "--workers", "zero"]);
    assert_eq!(code, 2);
    assert!(err.contains("--workers"));
    let (code, _, err) = run(&["serve", "--port", "80"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown serve flag"));
    // `--log-json` is the one access-log format; `--log` is not a flag.
    let (code, _, err) = run(&["serve", "--log"]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown serve flag \"--log\""), "{err}");
}

#[test]
fn compare_emits_uncertainty_verdict() {
    let (code, out, _) = run(&["compare", "polaris", "frontier"]);
    assert_eq!(code, 0);
    assert!(out.contains("operational bands"));
    assert!(out.contains("bands are disjoint") || out.contains("bands OVERLAP"));
}
