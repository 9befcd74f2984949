//! Determinism tests for the observability layer (docs/OBSERVABILITY.md).
//!
//! The contract: profiling must never change a command's output, and the
//! profiled *counts* — span invocations and registry counters — must be
//! bit-identical across thread counts. Durations (`*_ns` fields) are
//! wall-clock and exempt.

use std::process::{Command, Output};

use thirstyflops::obs::report::ProfileReport;

const SWEEP: [&str; 3] = ["scenario", "sweep", "examples/scenarios/sweep_siting.json"];

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(args)
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "CLI {args:?} failed: {out:?}");
    out
}

/// Parses the `--profile --json` stderr payload.
fn profile(out: &Output) -> ProfileReport {
    let stderr = String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8");
    serde_json::from_str(&stderr).expect("stderr is a profile report")
}

/// A named count: a stage's invocations or a counter's value.
type Counts = Vec<(String, u64)>;

/// The deterministic half of a profile: per-stage invocation counts and
/// counter values, durations dropped.
fn counts(report: &ProfileReport) -> (Counts, Counts) {
    (
        report
            .stages
            .iter()
            .map(|s| (s.stage.clone(), s.invocations))
            .collect(),
        report
            .counters
            .iter()
            .map(|c| (c.name.clone(), c.value))
            .collect(),
    )
}

/// Tentpole acceptance: enabling `--profile` must not change command
/// output by a single byte — the report goes to stderr, never stdout.
#[test]
fn stdout_is_byte_identical_with_profiling_on_and_off() {
    let plain = run(&[&SWEEP[..], &["--json"]].concat());
    let profiled = run(&[&SWEEP[..], &["--json", "--profile"]].concat());
    assert_eq!(plain.stdout, profiled.stdout, "--profile altered stdout");
    assert!(plain.stderr.is_empty(), "no stderr without --profile");
    assert!(!profiled.stderr.is_empty(), "--profile reports on stderr");

    // Same for the human-readable rendering.
    let plain = run(&SWEEP);
    let profiled = run(&[&SWEEP[..], &["--profile"]].concat());
    assert_eq!(plain.stdout, profiled.stdout, "--profile altered stdout");
}

/// Span invocation counts and registry counters are identical at 1 and
/// 8 threads — work is partitioned, never duplicated or dropped.
#[test]
fn profile_counts_are_identical_across_thread_counts() {
    let one = run(&[&SWEEP[..], &["--json", "--profile", "--threads", "1"]].concat());
    let eight = run(&[&SWEEP[..], &["--json", "--profile", "--threads", "8"]].concat());
    assert_eq!(one.stdout, eight.stdout, "sweep output depends on threads");
    let (stages_1, counters_1) = counts(&profile(&one));
    let (stages_8, counters_8) = counts(&profile(&eight));
    assert_eq!(stages_1, stages_8, "span counts depend on thread count");
    assert_eq!(counters_1, counters_8, "counters depend on thread count");
    // The sweep actually exercised the instrumented stages.
    assert!(
        stages_1
            .iter()
            .any(|(name, n)| name == "workload_sim" && *n > 0),
        "{stages_1:?}"
    );
    assert!(
        counters_1
            .iter()
            .any(|(name, n)| name == "thirstyflops_sweep_cells_total" && *n > 0),
        "{counters_1:?}"
    );
}

/// The fig06–08 lane statistics (`core::batch::year_lane_stats`) run one
/// fused kernel pass over the four paper years, and a `fig07` profile
/// counts the same stages and counters at 1 and 8 threads. A cold
/// `rank` reduces each of its six reports as one kernel lane through one
/// memo-layer resolution, and computes five climates and five grid
/// years: Aurora shares Polaris's Lemont climate and Northern Illinois
/// grid.
#[test]
fn fig07_lane_stats_profile_is_thread_count_independent() {
    const FIG07: [&str; 4] = ["experiments", "fig07", "--json", "--profile"];
    const RANK: [&str; 3] = ["rank", "--json", "--profile"];
    type Expected = &'static [(&'static str, u64)];
    let cases: [(&[&str], Expected, Expected); 2] = [
        (
            &FIG07,
            &[("fused_reduction", 1)],
            &[
                ("thirstyflops_batch_lanes_total", 4),
                ("thirstyflops_batch_kernel_passes_total", 1),
            ],
        ),
        (
            &RANK,
            &[
                ("fused_reduction", 6),
                ("cache_lookup", 6),
                ("workload_sim", 6),
                ("wue_series", 5),
                ("grid_kernel", 5),
            ],
            &[
                ("thirstyflops_batch_lanes_total", 6),
                ("thirstyflops_batch_kernel_passes_total", 6),
            ],
        ),
    ];
    for (command, stages, counters) in cases {
        let one = run(&[command, &["--threads", "1"]].concat());
        let eight = run(&[command, &["--threads", "8"]].concat());
        assert_eq!(
            one.stdout, eight.stdout,
            "{command:?} output depends on threads"
        );
        let (stages_1, counters_1) = counts(&profile(&one));
        let (stages_8, counters_8) = counts(&profile(&eight));
        assert_eq!(
            stages_1, stages_8,
            "{command:?}: span counts depend on thread count"
        );
        assert_eq!(
            counters_1, counters_8,
            "{command:?}: counters depend on thread count"
        );
        let count = |list: &Counts, name: &str| {
            list.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing from {list:?}"))
        };
        for &(name, want) in stages {
            assert_eq!(count(&stages_1, name), want, "{command:?}: {name}");
        }
        for &(name, want) in counters {
            assert_eq!(count(&counters_1, name), want, "{command:?}: {name}");
        }
    }
}

/// Cold lookups resolve concurrently, yet a cold siting sweep and a cold
/// `footprint fugaku` count the same stages and counters at 1, 2 and 8
/// threads, simcache misses included: each distinct workload key,
/// climate and region is computed once, whichever thread computes it.
#[test]
fn cold_resolution_counts_are_thread_count_independent() {
    let misses = |layer: &str| format!("thirstyflops_simcache_misses_total{{cache=\"{layer}\"}}");
    let cases: [(&[&str], [u64; 3]); 2] =
        [(&SWEEP, [1, 5, 5]), (&["footprint", "fugaku"], [1, 1, 1])];
    for (command, [workloads, climates, regions]) in cases {
        let runs: Vec<(Counts, Counts)> = ["1", "2", "8"]
            .iter()
            .map(|threads| {
                let out = run(&[command, &["--json", "--profile", "--threads", threads]].concat());
                counts(&profile(&out))
            })
            .collect();
        for run in &runs[1..] {
            assert_eq!(run, &runs[0], "{command:?}: counts depend on thread count");
        }
        let (stages, counters) = &runs[0];
        let value = |list: &Counts, name: &str| {
            list.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name} missing from {list:?}"))
        };
        for (layer, want) in [
            ("system_years", workloads),
            ("wue_series", climates),
            ("grid_years", regions),
        ] {
            assert_eq!(
                value(counters, &misses(layer)),
                want,
                "{command:?}: {layer}"
            );
        }
        assert_eq!(value(stages, "workload_sim"), workloads, "{command:?}");
        assert_eq!(value(stages, "wue_series"), climates, "{command:?}");
        assert_eq!(value(stages, "grid_kernel"), regions, "{command:?}");
    }
}
