//! Integration tests of the `loadgen` harness: the library against an
//! in-process server, and the CLI subcommand end to end.
//!
//! The contract (docs/SERVING.md, docs/CONCURRENCY.md): a replayed mix
//! produces zero body mismatches at any worker/connection count, over
//! keep-alive or one-shot connections, and with every simulated year
//! recomputed under a `simcache_poison` chaos plan — the determinism
//! promise measured on the wire.

use std::process::Command;

use thirstyflops::loadgen::{self, LoadReport, MixSpec, RunConfig};

fn smoke_mix() -> MixSpec {
    let path = format!("{}/examples/loadmix/smoke.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("shipped smoke mix reads");
    MixSpec::from_json(&text).expect("shipped smoke mix parses")
}

fn run_cli(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn shipped_mixes_parse_and_cover_multiple_endpoint_families() {
    for name in ["smoke", "bench"] {
        let path = format!(
            "{}/examples/loadmix/{name}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect("shipped mix reads");
        let mix = MixSpec::from_json(&text).expect("shipped mix parses");
        assert!(
            mix.templates.len() >= 5,
            "{name} exercises several endpoints"
        );
        assert!(mix.templates.iter().any(|t| t.method == "POST"), "{name}");
    }
}

/// The acceptance shape: the same mix replayed at `--workers 1` and
/// `--workers 8` produces zero mismatches, and the request plan (which
/// endpoint got how many requests) is identical — the plan depends only
/// on the seed, the replayed bytes only on the requests.
#[test]
fn replay_is_mismatch_free_at_one_and_eight_workers() {
    let mix = smoke_mix();
    let mut endpoint_counts = Vec::new();
    for workers in [1usize, 8] {
        let report = loadgen::run(
            &mix,
            &RunConfig {
                requests: 120,
                connections: 4,
                workers,
                ..RunConfig::default()
            },
        )
        .expect("run succeeds");
        assert_eq!(
            (report.mismatches, report.errors),
            (0, 0),
            "{workers} workers: {:?}",
            report.mismatch_samples
        );
        endpoint_counts.push(
            report
                .endpoints
                .iter()
                .map(|e| (e.endpoint.clone(), e.requests))
                .collect::<Vec<_>>(),
        );
    }
    assert_eq!(
        endpoint_counts[0], endpoint_counts[1],
        "the plan must not depend on the worker count"
    );
}

/// Keep-alive and one-shot disciplines replay the identical plan with
/// identical expectations — both mismatch-free.
#[test]
fn both_disciplines_are_mismatch_free() {
    let mix = smoke_mix();
    for keep_alive in [true, false] {
        let report = loadgen::run(
            &mix,
            &RunConfig {
                requests: 60,
                connections: 2,
                workers: 2,
                keep_alive,
                ..RunConfig::default()
            },
        )
        .expect("run succeeds");
        assert_eq!(
            (report.mismatches, report.errors),
            (0, 0),
            "keep_alive={keep_alive}: {:?}",
            report.mismatch_samples
        );
    }
}

/// A paced run still replays the exact same deterministic plan — pacing
/// shapes time, never bytes.
#[test]
fn paced_replay_is_mismatch_free() {
    let report = loadgen::run(
        &smoke_mix(),
        &RunConfig {
            requests: 40,
            connections: 2,
            workers: 2,
            rate: 200.0,
            ..RunConfig::default()
        },
    )
    .expect("run succeeds");
    assert_eq!((report.mismatches, report.errors), (0, 0));
    // 40 requests at 200/s take at least ~195 ms by construction.
    assert!(
        report.elapsed_micros >= 150_000,
        "pacing stretched the run: {} µs",
        report.elapsed_micros
    );
}

/// CLI: the smoke mix replays cleanly and reports it; `--json` renders
/// the report through the canonical serializer.
#[test]
fn cli_loadgen_smoke_mix_exits_zero() {
    let (code, out, err) = run_cli(&[
        "loadgen",
        "--mix",
        "examples/loadmix/smoke.json",
        "--requests",
        "50",
        "--connections",
        "2",
        "--workers",
        "2",
    ]);
    assert_eq!(code, 0, "stdout: {out}\nstderr: {err}");
    assert!(out.contains("0 mismatches"), "{out}");
    assert!(out.contains("footprint"), "{out}");

    let (code, out, err) = run_cli(&[
        "loadgen",
        "--mix",
        "examples/loadmix/smoke.json",
        "--requests",
        "30",
        "--connections",
        "2",
        "--json",
    ]);
    assert_eq!(code, 0, "stdout: {out}\nstderr: {err}");
    let report: LoadReport = serde_json::from_str(&out).expect("--json report parses");
    assert_eq!((report.mismatches, report.errors), (0, 0));
    assert_eq!(report.requests, 30);
    assert_eq!(report.discipline, "keep-alive");
}

/// CLI: recomputed simulations change nothing on the wire. A chaos plan
/// that poisons every workload lookup (`simcache_poison` at rate 1)
/// sends each one down the uncached recompute path, and the replay stays
/// mismatch-free at one worker and at eight.
#[test]
fn cli_loadgen_is_deterministic_without_the_sim_cache() {
    let plan = std::env::temp_dir().join(format!(
        "thirstyflops_loadgen_poison_{}.json",
        std::process::id()
    ));
    std::fs::write(
        &plan,
        r#"{"name": "poison-all", "faults": [{"site": "simcache_poison", "rate": 1.0}]}"#,
    )
    .expect("plan writes");
    for workers in ["1", "8"] {
        let (code, out, err) = run_cli(&[
            "loadgen",
            "--chaos",
            plan.to_str().expect("utf-8 temp path"),
            "--mix",
            "examples/loadmix/smoke.json",
            "--requests",
            "40",
            "--connections",
            "2",
            "--workers",
            workers,
        ]);
        assert_eq!(code, 0, "workers {workers}: stdout: {out}\nstderr: {err}");
        assert!(out.contains("0 mismatches"), "workers {workers}: {out}");
        let poisoned = out
            .lines()
            .find_map(|line| line.trim().strip_prefix("fault simcache_poison"))
            .and_then(|n| n.trim().parse::<u64>().ok());
        assert!(
            poisoned > Some(0),
            "workers {workers}: nothing recomputed: {out}"
        );
    }
    std::fs::remove_file(&plan).ok();
}

/// CLI: bad invocations fail with usage errors, not runs.
#[test]
fn cli_loadgen_rejects_bad_flags() {
    let (code, _, err) = run_cli(&["loadgen"]);
    assert_eq!(code, 2);
    assert!(err.contains("--mix"), "{err}");

    let (code, _, err) = run_cli(&[
        "loadgen",
        "--mix",
        "examples/loadmix/smoke.json",
        "--requets",
        "10",
    ]);
    assert_eq!(code, 2);
    assert!(err.contains("unknown loadgen flag"), "{err}");

    let (code, _, err) = run_cli(&[
        "loadgen",
        "--mix",
        "examples/loadmix/smoke.json",
        "--duration",
        "2",
    ]);
    assert_eq!(code, 2);
    assert!(err.contains("--rate"), "{err}");

    let (code, _, err) = run_cli(&["loadgen", "--mix", "no/such/mix.json"]);
    assert_eq!(code, 2);
    assert!(err.contains("cannot read"), "{err}");

    // `--bench-json` is not a loadgen flag: it exits 2 and writes no
    // bench file (tracked bench numbers come from perfbench).
    let (code, _, err) = run_cli(&[
        "loadgen",
        "--mix",
        "examples/loadmix/smoke.json",
        "--bench-json",
    ]);
    assert_eq!(code, 2);
    assert!(err.contains("--bench-json"), "{err}");
    let bench = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_serve.json");
    assert!(!bench.exists(), "{} was written", bench.display());
}
