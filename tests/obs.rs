//! Determinism of the observability layer (docs/OBSERVABILITY.md): the
//! matrix rows whose profiles the layer's contract is pinned on.
//!
//! The contract: profiling must never change a command's output, and the
//! profiled *counts* — span invocations and registry counters — must be
//! bit-identical across thread counts. Durations (`*_ns` fields) are
//! wall-clock and exempt. Every check runs through `tests/matrix`.

mod matrix;

const SWEEP: &str = "scenario sweep examples/scenarios/sweep_siting.json";
const SWEEP_JSON: &str = "scenario sweep examples/scenarios/sweep_siting.json --json";

/// Enabling `--profile` must not change command output by a single
/// byte, in the JSON and the human-readable rendering: the report goes
/// to stderr, never stdout, and a plain run writes no stderr.
#[test]
fn stdout_is_byte_identical_with_profiling_on_and_off() {
    matrix::check(matrix::table_rows(&[SWEEP_JSON, SWEEP]), &[]);
}

/// Span invocation counts and registry counters are identical at 1 and
/// 8 threads — work is partitioned, never duplicated or dropped — and
/// the sweep counts its 25 cells.
#[test]
fn profile_counts_are_identical_across_thread_counts() {
    matrix::check(matrix::table_rows(&[SWEEP_JSON]), &[]);
}

/// The fig06–08 lane statistics run one fused kernel pass over the four
/// paper years; a cold `rank` reduces each of its six reports as one
/// kernel lane and computes five climates and five grid years. Both
/// count the same at 1 and 8 threads.
#[test]
fn fig07_lane_stats_profile_is_thread_count_independent() {
    matrix::check(
        matrix::table_rows(&["experiments fig07 --json", "rank --json"]),
        &[],
    );
}

/// Cold lookups resolve concurrently, yet a cold siting sweep and a cold
/// `footprint fugaku` count the same stages and counters at 1, 2 and 8
/// threads, simcache misses included: each distinct workload key,
/// climate and region is computed once, whichever thread computes it.
#[test]
fn cold_resolution_counts_are_thread_count_independent() {
    matrix::check(
        matrix::table_rows(&[SWEEP_JSON, "footprint fugaku --json"]),
        &[("2", &["--threads", "2", "--profile"])],
    );
}
