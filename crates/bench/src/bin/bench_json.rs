//! `bench_json` — the tracked micro-benchmark behind `./ci.sh bench-json`.
//!
//! Measures the instruction-path cost of the simulation hot loops and
//! the effectiveness of the `core::simcache` memo layers, then writes
//! `BENCH_simulate.json` at the repo root for successive PRs to track:
//!
//! * `cold_simulate_ns` — median of a fully uncached
//!   `SystemYear::simulate_uncached` (the pre-cache workload);
//! * `cold_stages` — the per-stage span breakdown of one cold simulate
//!   (invocations + exclusive self-time per instrumented stage,
//!   `docs/OBSERVABILITY.md`) — where `cold_simulate_ns` actually goes;
//! * `warm_simulate_ns` — median of a repeated memoized
//!   `SystemYear::simulate` (an `Arc` clone);
//! * `grid_year_ns` — median of the `GridRegion::simulate_year` kernel;
//! * `scenario_sweep_ns` — median of the per-cell baseline over the
//!   25-scenario siting sweep: `scenario::evaluate` on each
//!   combination's full spec, one after another (the oracle
//!   `tests/batch.rs` compares sweeps against);
//! * `batched_sweep_ns` — the same sweep through `evaluate_sweep` and
//!   the `core::batch` K-lane kernel (the path a
//!   `POST /v1/scenarios/sweep` burst pays), plus `scalar_over_batched`,
//!   the per-cell baseline over the batched sweep;
//! * `trace_overhead` — the cold simulate re-measured with the causal
//!   trace recorder off, recording, and sampled out (context active but
//!   ring writes skipped) — the tracked cost of `--trace-out` /
//!   `serve`'s always-on recorder (`docs/OBSERVABILITY.md`);
//! * hit ratios after a paper-shaped warmup (four systems + repeats).
//!
//! This container has **one CPU**: compare medians of the serial
//! instruction path across PRs, never parallel speedup. The `baseline`
//! section of an existing `BENCH_simulate.json` is preserved verbatim —
//! it records the pre-optimization tree — and only `current` is
//! rewritten, so `current` vs `baseline` is the tracked trajectory.

use std::time::Instant;

use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::{simcache, SystemYear};
use thirstyflops_grid::{GridRegion, RegionId};

/// Median wall-clock nanoseconds per iteration of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Extracts the `"baseline": { ... }` object from a previous
/// `BENCH_simulate.json`, if the file exists and has one.
fn previous_baseline(path: &std::path::Path) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let value: serde::Value = serde_json::from_str(&text).ok()?;
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == "baseline")
        .map(|(_, v)| serde_json::to_string(v).expect("re-render parsed JSON"))
}

fn main() {
    let iters = 9;
    let spec = SystemSpec::reference(SystemId::Polaris);

    // Cold path: the full uncached simulation (what every caller paid
    // before the memo substrate, and what a cache-disabled run pays).
    let spec_cold = spec.clone();
    let cold_ns = median_ns(iters, move || {
        std::hint::black_box(SystemYear::simulate_uncached(spec_cold.clone(), 77));
    });

    // Per-stage breakdown of one cold simulate (docs/OBSERVABILITY.md):
    // where cold_simulate_ns actually goes, tracked across PRs like the
    // medians. Invocation counts are deterministic; self_ns shares are
    // wall-clock and move with the medians.
    thirstyflops_obs::trace::set_enabled(true);
    thirstyflops_obs::trace::reset();
    {
        let _ctx = thirstyflops_obs::trace::begin(0, true);
        std::hint::black_box(SystemYear::simulate_uncached(spec.clone(), 77));
    }
    thirstyflops_obs::trace::set_enabled(false);
    let cold_stages: String = thirstyflops_obs::report::profile_report()
        .stages
        .iter()
        .filter(|s| s.invocations > 0)
        .map(|s| {
            format!(
                "\"{}\": {{\"invocations\": {}, \"self_ns\": {}}}",
                s.stage, s.invocations, s.self_ns
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    thirstyflops_obs::trace::reset();

    // Trace-recorder overhead on the identical cold workload: off (the
    // measurement above repeated, as the in-run control), on (spans
    // recorded to the ring), and sampled out (request context active,
    // ring writes skipped — what a `--trace-sample`-thinned serve
    // request pays).
    let spec_trace = spec.clone();
    let trace_off_ns = median_ns(iters, move || {
        std::hint::black_box(SystemYear::simulate_uncached(spec_trace.clone(), 77));
    });
    thirstyflops_obs::trace::set_enabled(true);
    thirstyflops_obs::trace::reset();
    let spec_trace = spec.clone();
    let trace_on_ns = median_ns(iters, move || {
        let _ctx = thirstyflops_obs::trace::begin(1, true);
        std::hint::black_box(SystemYear::simulate_uncached(spec_trace.clone(), 77));
    });
    let spec_trace = spec.clone();
    let trace_sampled_ns = median_ns(iters, move || {
        let _ctx = thirstyflops_obs::trace::begin(2, false);
        std::hint::black_box(SystemYear::simulate_uncached(spec_trace.clone(), 77));
    });
    thirstyflops_obs::trace::set_enabled(false);
    thirstyflops_obs::trace::reset();

    // Grid kernel alone (the formerly mix-allocating 8760-hour loop).
    let grid_ns = median_ns(iters, || {
        std::hint::black_box(GridRegion::preset(RegionId::NorthernIllinois).simulate_year());
    });

    // Warm path: prime once, then every repeat must be an Arc clone.
    let _prime = SystemYear::simulate(SystemId::Polaris, 77);
    let warm_ns = median_ns(iters.max(101), || {
        std::hint::black_box(SystemYear::simulate(SystemId::Polaris, 77));
    });

    // The scenario-engine sweep path: the shipped 25-combination siting
    // sweep (5 climates × 5 regions), expansion + parallel evaluation.
    let sweep_text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels under the repo root")
            .join("examples/scenarios/sweep_siting.json"),
    )
    .expect("the shipped siting sweep exists");
    let sweep =
        thirstyflops_scenario::SweepSpec::from_json(&sweep_text).expect("shipped sweep parses");
    // The per-cell baseline first (each combination evaluated from its
    // full spec), then the compiled, batched sweep over the identical
    // spec — the ratio is the tracked win of section compilation,
    // aggregate dedup and lane fusion.
    let sweep_ns = median_ns(5, || {
        for index in 0..sweep.combination_count() {
            let cell = sweep.combination(index).expect("shipped cells are valid");
            std::hint::black_box(
                thirstyflops_scenario::evaluate(&cell).expect("shipped cell evaluates"),
            );
        }
    });
    let batched_sweep_ns = median_ns(5, || {
        std::hint::black_box(
            thirstyflops_scenario::evaluate_sweep(&sweep).expect("shipped sweep evaluates"),
        );
    });

    // A paper-shaped warmup for the hit ratios: the four Table 1 systems
    // plus one repeat each (rank-endpoint shape).
    let before = simcache::stats();
    for id in SystemId::PAPER {
        std::hint::black_box(SystemYear::simulate(id, 4242));
    }
    for id in SystemId::PAPER {
        std::hint::black_box(SystemYear::simulate(id, 4242));
    }
    let after = simcache::stats();
    let year_hits = after.system_years.hits - before.system_years.hits;
    let year_misses = after.system_years.misses - before.system_years.misses;
    let grid_hits = after.grid_years.hits - before.grid_years.hits;
    let grid_misses = after.grid_years.misses - before.grid_years.misses;
    let ratio = |h: u64, m: u64| {
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };

    let current = format!(
        "{{\"cold_simulate_ns\": {cold_ns}, \
         \"cold_stages\": {{{cold_stages}}}, \
         \"warm_simulate_ns\": {warm_ns}, \
         \"grid_year_ns\": {grid_ns}, \"scenario_sweep_ns\": {sweep_ns}, \
         \"batched_sweep_ns\": {batched_sweep_ns}, \
         \"trace_overhead\": {{\"off_ns\": {trace_off_ns}, \"on_ns\": {trace_on_ns}, \
         \"sampled_ns\": {trace_sampled_ns}}}, \
         \"scalar_over_batched\": {:.2}, \
         \"warmup_year_hit_ratio\": {:.4}, \
         \"warmup_grid_hit_ratio\": {:.4}, \"cold_over_warm\": {:.1}}}",
        sweep_ns as f64 / batched_sweep_ns.max(1) as f64,
        ratio(year_hits, year_misses),
        ratio(grid_hits, grid_misses),
        cold_ns as f64 / warm_ns.max(1) as f64,
    );

    // Repo root: two levels above this crate's manifest.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the repo root")
        .to_path_buf();
    let out_path = root.join("BENCH_simulate.json");
    // First ever run: today's numbers become the baseline too.
    let baseline = previous_baseline(&out_path).unwrap_or_else(|| current.clone());

    let report = format!(
        "{{\n  \"note\": \"medians of the serial instruction path (1-CPU container); \
         see docs/PERFORMANCE.md\",\n  \"unit\": \"nanoseconds\",\n  \"baseline\": \
         {baseline},\n  \"current\": {current}\n}}\n"
    );
    // Validate before writing so a formatting bug can't corrupt the
    // tracked file.
    let parsed: serde::Value = serde_json::from_str(&report).expect("report is valid JSON");
    drop(parsed);
    std::fs::write(&out_path, &report).expect("BENCH_simulate.json writes");
    println!("{report}");
    println!("wrote {}", out_path.display());
}
