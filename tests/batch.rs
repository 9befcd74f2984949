//! The scalar-vs-batched differential suite (acceptance criteria).
//!
//! The batched K-lane kernel (`core::batch`) promises *bit identity*
//! with the scalar expressions, not approximate agreement: every lane
//! of a batch must reproduce, to the last IEEE bit, what the scalar
//! oracle `SystemYear::simulate_uncached` plus the fused scalar
//! reductions produce for the same spec and seed, and every row of a
//! compiled sweep must equal evaluating its combination on its own
//! (`per_cell_oracle`). These tests enforce that with `assert_eq!` on
//! raw `f64`s — no tolerances anywhere — across proptest-random spec
//! batches, thread counts, chunkings, and the simulation cache on or
//! off. The streaming top-N aggregator gets the same treatment: its
//! kept set must equal full-sort-then-truncate under the (key, index)
//! total order, independent of push or merge order
//! (docs/CONCURRENCY.md).

use std::process::Command;

use proptest::prelude::*;
use rayon::prelude::*;
use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::batch::{BatchContext, LaneRequest, TopN};
use thirstyflops::core::SystemYear;
use thirstyflops::obs::report::ProfileReport;
use thirstyflops::scenario::{
    evaluate, evaluate_sweep, ScenarioError, ScenarioOutcome, SweepReport, SweepSpec,
};
use thirstyflops::timeseries::Month;

mod matrix;

/// A proptest-shaped spec perturbation: system pick, node count,
/// utilization, and seed. Kept in valid catalog ranges.
fn spec_for(pick: u64, nodes: u64, util: f64) -> SystemSpec {
    let mut spec = SystemSpec::reference(SystemId::PAPER[pick as usize % SystemId::PAPER.len()]);
    spec.nodes = 50 + (nodes % 2000) as u32;
    spec.mean_utilization = util;
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The K-lane annual reductions (totals, dots, means, monthly sums)
    /// with per-lane scaling factors equal the scalar expressions the
    /// engine's reference path computes — the exact `f64`s.
    #[test]
    fn batched_aggregates_match_the_scalar_reductions(
        lanes in collection::vec(
            (0u64..4, 0u64..10_000, 0.30f64..0.95, 0u64..1_000_000,
             0.2f64..3.0, 0.2f64..3.0),
            // Crossing 33 exercises the 32-lane per-pass block split.
            1..34,
        ),
        // (source, position) pairs: each inserts a respelled copy of an
        // earlier lane, which the kernel reduces once per call.
        repeats in collection::vec((0usize..40, 0usize..40), 0..6),
    ) {
        let ctx = BatchContext::new();
        let mut requests: Vec<LaneRequest> = lanes
            .iter()
            .enumerate()
            .map(|(i, &(pick, nodes, util, seed, wue_k, ewf_k))| LaneRequest {
                spec: spec_for(pick, nodes, util),
                seed,
                // Mix scaled and unscaled lanes in one batch: the
                // identity-vs-scaled decision is per lane.
                wue_scale: (i % 2 == 0).then_some(wue_k),
                ewf_scale: (i % 3 == 0).then_some(ewf_k),
                carbon_scale: (i % 5 == 0).then_some(ewf_k * 0.5),
            })
            .collect();
        for (source, position) in repeats {
            let mut copy = requests[source % requests.len()].clone();
            copy.spec.operator = format!("{} (respelled)", copy.spec.operator);
            requests.insert(position % (requests.len() + 1), copy);
        }
        let aggregates = ctx.aggregate(&requests);
        prop_assert_eq!(aggregates.len(), requests.len());
        for (req, agg) in requests.iter().zip(&aggregates) {
            let year = SystemYear::simulate_uncached(req.spec.clone(), req.seed);
            let wue = match req.wue_scale {
                Some(k) => year.wue.scale(k),
                None => year.wue.clone(),
            };
            let ewf = match req.ewf_scale {
                Some(k) => year.ewf.scale(k),
                None => year.ewf.clone(),
            };
            let carbon = match req.carbon_scale {
                Some(k) => year.carbon.scale(k),
                None => year.carbon.clone(),
            };
            prop_assert_eq!(agg.energy_kwh, year.energy.total());
            prop_assert_eq!(agg.direct_l, year.energy.dot(&wue));
            prop_assert_eq!(agg.indirect_per_pue_l, year.energy.dot(&ewf));
            prop_assert_eq!(agg.carbon_g, year.energy.dot(&carbon));
            prop_assert_eq!(agg.mean_wue, wue.mean());
            prop_assert_eq!(agg.mean_ewf, ewf.mean());
            prop_assert_eq!(agg.mean_carbon, carbon.mean());
            let monthly = year.energy.mul(&wue).monthly_sum();
            for (m, &month) in Month::ALL.iter().enumerate() {
                prop_assert_eq!(agg.monthly_direct_l[m], monthly.get(month));
            }
        }
    }
}

// ------------------------------------------------------------- top-N

/// The reference semantics: sort every (key, index) pair under the
/// same total order the heap uses, truncate to `n`.
fn sort_then_truncate(entries: &[(f64, u64)], n: usize) -> Vec<(f64, u64)> {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    sorted.truncate(n);
    sorted
}

fn drain(top: TopN<()>) -> Vec<(f64, u64)> {
    top.into_sorted()
        .into_iter()
        .map(|e| (e.key, e.index))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: the streaming top-N equals full-sort-then-truncate —
    /// including duplicate keys, where the smaller index wins.
    #[test]
    fn topn_equals_full_sort_then_truncate(
        keys in collection::vec(0u64..12, 1..200),
        capacity in 1usize..24,
    ) {
        // Coarse integer keys force plenty of exact ties.
        let entries: Vec<(f64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as f64 * 0.5, i as u64))
            .collect();
        let mut top = TopN::new(capacity);
        for &(key, index) in &entries {
            top.push(key, index, ());
        }
        prop_assert_eq!(drain(top), sort_then_truncate(&entries, capacity));
    }

    /// Satellite: the kept set is a property of the pushed set alone —
    /// any chunking of the stream into per-chunk heaps, merged in any
    /// order, yields identical results. This is the exact argument that
    /// makes sweep reports independent of thread count and chunk size.
    #[test]
    fn topn_is_invariant_under_chunking_and_merge_order(
        keys in collection::vec(0u64..9, 1..200),
        capacity in 1usize..16,
        chunk in 1usize..48,
    ) {
        let entries: Vec<(f64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k as f64, i as u64))
            .collect();
        let mut single = TopN::new(capacity);
        for &(key, index) in &entries {
            single.push(key, index, ());
        }
        // Chunked, merged in *reverse* chunk order.
        let mut chunked: Vec<TopN<()>> = entries
            .chunks(chunk)
            .map(|block| {
                let mut heap = TopN::new(capacity);
                for &(key, index) in block {
                    heap.push(key, index, ());
                }
                heap
            })
            .collect();
        let mut merged = chunked.pop().expect("at least one chunk");
        while let Some(heap) = chunked.pop() {
            merged.merge(heap);
        }
        prop_assert_eq!(drain(merged), drain(single));
    }
}

// ------------------------------------------------- sweep-level identity

fn spec_path(name: &str) -> String {
    format!("{}/examples/scenarios/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// A `top_n` sweep report carries exactly the rows a full evaluation
/// would keep after sorting on the rank metric (expansion order breaks
/// ties, which a stable sort preserves).
#[test]
fn streaming_top_n_rows_equal_sort_then_truncate_of_the_full_report() {
    let text = std::fs::read_to_string(spec_path("sweep_siting.json")).expect("spec ships");
    let full = thirstyflops::scenario::evaluate_sweep(
        &thirstyflops::scenario::SweepSpec::from_json(&text).expect("parses"),
    )
    .expect("full sweep evaluates");
    let streamed = thirstyflops::scenario::evaluate_sweep(
        &thirstyflops::scenario::SweepSpec::from_json_with_top(&text, Some(5)).expect("parses"),
    )
    .expect("streamed sweep evaluates");
    assert_eq!(streamed.rows.len(), 5);
    assert_eq!(streamed.top_n, Some(5));
    assert_eq!(streamed.rank_by.as_deref(), Some("operational_water_l"));
    let mut reference = full.rows.clone();
    reference.sort_by(|a, b| {
        a.scenario
            .operational_water_l
            .total_cmp(&b.scenario.operational_water_l)
    });
    reference.truncate(5);
    let render = |rows: &[thirstyflops::scenario::SweepRow]| {
        serde_json::to_string(&rows.to_vec()).expect("rows render")
    };
    assert_eq!(render(&streamed.rows), render(&reference));
}

/// CLI-level differential: `scenario sweep --json` emits byte-identical
/// reports at every thread count. Rows against the per-cell oracle are
/// `compiled_sweep_rows_equal_the_per_cell_oracle`'s job, and cached
/// against uncached simulation is `tests/simcache.rs`'s.
#[test]
fn cli_sweep_bytes_identical_batched_vs_scalar_across_threads_and_cache() {
    matrix::check(
        matrix::table_rows(&["scenario sweep examples/scenarios/sweep_siting.json --json"]),
        &[],
    );
}

/// The same differential over a *streaming* (top-N) sweep: a 600-cell
/// spec — more than one 512-row chunk, so chunked top-N merging runs —
/// produces one byte set at every thread count (the 101,250-cell spec is
/// a matrix row of its own). The top-7 of a two-chunk sweep against the
/// per-cell oracle is `compiled_sweep_rows_equal_the_per_cell_oracle`'s.
#[test]
fn cli_streaming_sweep_bytes_identical_batched_vs_scalar() {
    let spec = r#"{
        "name": "streaming-differential", "base": "polaris", "top_n": 7,
        "rank_by": "scarcity_adjusted_water_l",
        "axes": {
            "climate.wue_scale": [0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4],
            "pue": [1.06, 1.10, 1.14, 1.18, 1.22, 1.26, 1.30, 1.34, 1.38, 1.42],
            "wsi.site": [0.05, 0.20, 0.35, 0.50, 0.65, 0.80]
        }
    }"#;
    let path = std::env::temp_dir().join("thirstyflops_streaming_differential.json");
    std::fs::write(&path, spec).expect("spec writes");
    let path = path.to_str().expect("temp path is UTF-8");
    const PINS: &[(&str, u64)] = &[
        ("stdout \"scenario_count\": 600", 1),
        ("stdout \"top_n\": 7", 1),
    ];
    let args = format!("scenario sweep {path} --json");
    matrix::check(vec![matrix::row(&args, PINS)], &[]);
}

// ---------------------------------------- compiled sweeps vs the oracle

/// A plain sweep with axes on every override section, alias spellings
/// included (`"Kobe"`/`"kobe"`, `1.0`/`1.00`, `1.1`/`1.10`,
/// `"hydro"`/`"Hydro"`): 768 cells, two 512-cell chunks.
const SECTIONED_SWEEP: &str = r#"{
    "name": "sectioned", "base": "polaris",
    "overrides": {
        "reclaimed": {"fraction": 0.1, "wsi": 0.05},
        "fleet_upgrade": {"lifetime_years": 6, "upgrades": [
            {"year": 3, "gpu": {"name": "Next", "die_mm2": 814, "process_nm": 4,
                                "tdp_watts": 700}}]}
    },
    "axes": {
        "climate.preset": ["Kobe", "kobe", "lemont"],
        "climate.wue_scale": [1.0, 1.00],
        "grid.mix_delta": [{"hydro": 0.1, "coal": -0.1}, {"Hydro": 0.1, "Coal": -0.1}],
        "pue": [1.1, 1.10],
        "nodes": [400, 560],
        "wsi.site": [0.1, 0.9],
        "reclaimed.fraction": [0.2, 0.5],
        "water_price.base_usd_per_kl": [1.5, 3.0],
        "fleet_upgrade.lifetime_years": [5, 6]
    }
}"#;

/// Region × replacement mix: a `grid.mix` factor divides by the
/// region's own series means.
const MIX_SWEEP: &str = r#"{
    "name": "mixed", "base": "fugaku",
    "axes": {
        "grid.region": ["kansai", "Kansai", "tennessee"],
        "grid.mix": [{"coal": 1.0}, {"Coal": 0.5, "gas": 0.5}],
        "climate.wue_scale": [0.8, 1.2]
    }
}"#;

/// Every combination of `sweep` evaluated on its own from its full spec.
fn per_cell_oracle(sweep: &SweepSpec) -> Vec<ScenarioOutcome> {
    let indices: Vec<usize> = (0..sweep.combination_count()).collect();
    indices
        .par_iter()
        .map(|&i| evaluate(&sweep.combination(i).expect("valid cell")).expect("cell evaluates"))
        .collect()
}

/// Tentpole acceptance: the compiled sweep evaluator reproduces, row for
/// row, what evaluating each combination's full spec gives — name,
/// metrics and deltas to the bit (`{:?}` prints every `f64` in its
/// shortest round-trip form) — and its top-N is sort-then-truncate of
/// that oracle under the (key, expansion index) order.
#[test]
fn compiled_sweep_rows_equal_the_per_cell_oracle() {
    for text in [SECTIONED_SWEEP, MIX_SWEEP] {
        let sweep = SweepSpec::from_json(text).expect("sweep parses");
        let oracle = per_cell_oracle(&sweep);
        let report = evaluate_sweep(&sweep).expect("sweep evaluates");
        assert_eq!(report.rows.len(), oracle.len());
        for (row, want) in report.rows.iter().zip(&oracle) {
            assert_eq!(row.name, want.name);
            assert_eq!(
                format!("{:?}", row.scenario),
                format!("{:?}", want.scenario),
                "{}",
                row.name
            );
            assert_eq!(
                format!("{:?}", row.deltas),
                format!("{:?}", want.deltas),
                "{}",
                row.name
            );
        }

        let streamed =
            evaluate_sweep(&SweepSpec::from_json_with_top(text, Some(7)).expect("parses"))
                .expect("streamed sweep evaluates");
        let mut ranked: Vec<usize> = (0..oracle.len()).collect();
        ranked.sort_by(|&a, &b| {
            let key = |i: usize| oracle[i].scenario.operational_water_l;
            key(a).total_cmp(&key(b)).then(a.cmp(&b))
        });
        ranked.truncate(7);
        assert_eq!(streamed.rows.len(), ranked.len());
        for (row, &i) in streamed.rows.iter().zip(&ranked) {
            assert_eq!(row.name, oracle[i].name);
            assert_eq!(
                format!("{:?}", row.scenario),
                format!("{:?}", oracle[i].scenario)
            );
        }
    }
}

/// The sections whose picks decide a cell's kernel lane.
const LANE_SECTIONS: [&str; 3] = ["nodes", "climate", "grid"];

/// A sweep's lane sub-combinations: the product of its lane-section
/// axis lengths. Alias spellings count apart — sections are compiled
/// per sub-combination, not per resolved key.
fn lane_subcombinations(sweep: &SweepSpec) -> usize {
    sweep
        .axes
        .iter()
        .filter(|axis| LANE_SECTIONS.contains(&axis.path.split('.').next().unwrap_or("")))
        .map(|axis| axis.values.len())
        .product()
}

/// A `top_n` sweep with more lane sub-combinations than one 4,096-lane
/// window: 4,100 descending `climate.wue_scale` values, so the best
/// rows sit in both windows.
fn two_window_text() -> String {
    let values: Vec<String> = (0..4100u32)
        .rev()
        .map(|i| format!("{}", 0.5 + f64::from(i) / 4096.0))
        .collect();
    format!(
        r#"{{"name": "two-windows", "base": "polaris", "top_n": 9,
            "axes": {{"climate.wue_scale": [{}]}}}}"#,
        values.join(", ")
    )
}

/// The kernel aggregates one lane per lane sub-combination — each pick
/// of the `nodes`, `climate` and `grid` sections — plus one for the
/// sweep's baseline, which goes through the same kernel. Lanes reduce in
/// 32-lane passes per 4,096-lane window. The counts are read off
/// `--profile --json` runs, where no other test's kernel calls can
/// interleave with them.
#[test]
fn lanes_are_the_lane_subcombinations_per_window() {
    for text in [SECTIONED_SWEEP.to_string(), two_window_text()] {
        let sweep = SweepSpec::from_json(&text).expect("sweep parses");
        let lanes = lane_subcombinations(&sweep);
        let passes: usize = (0..lanes)
            .step_by(4096)
            .map(|start| (lanes - start).min(4096).div_ceil(32))
            .sum();
        let path = std::env::temp_dir().join(format!(
            "thirstyflops_{}_{}.json",
            sweep.name,
            std::process::id()
        ));
        std::fs::write(&path, &text).expect("spec writes");
        let args = ["scenario", "sweep", path.to_str().expect("UTF-8 path")];
        let counted = [
            profiled_counter(&args, "thirstyflops_batch_lanes_total"),
            profiled_counter(&args, "thirstyflops_batch_kernel_passes_total"),
        ];
        std::fs::remove_file(&path).ok();
        let baseline = 1;
        assert_eq!(
            counted,
            [(lanes + baseline) as u64, (passes + baseline) as u64],
            "{}: lanes and passes",
            sweep.name
        );
        assert!(
            lanes * 32 <= sweep.combination_count() || sweep.name == "two-windows",
            "{lanes} lanes for {} cells",
            sweep.combination_count()
        );
    }
}

/// `sweep` evaluated under 1-, 2- and 8-worker pools.
fn at_thread_counts(sweep: &SweepSpec) -> Vec<Result<SweepReport, ScenarioError>> {
    [1usize, 2, 8]
        .iter()
        .map(|&n| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool builds");
            pool.install(|| evaluate_sweep(sweep))
        })
        .collect()
}

/// An invalid section value fails the sweep at the first invalid cell
/// in expansion order, with that cell's own error, at every thread
/// count — whether the value sits in a lane section or a row section.
/// With two invalid sections the error is the first cell's in
/// expansion order, not in lane-major order. Sweeps are validated at
/// parse time, so the bad values are added to an already parsed sweep.
#[test]
fn an_invalid_section_fails_at_the_first_invalid_cell_at_every_thread_count() {
    let text = r#"{
        "name": "invalid", "base": "polaris",
        "axes": {
            "pue": [1.1, 1.3],
            "climate.preset": ["kobe", "lemont"],
            "wsi.site": [0.2, 0.6],
            "nodes": [400, 560]
        }
    }"#;
    let cases: [&[(&str, &str)]; 5] = [
        &[("nodes", "0")],
        &[("wsi.site", "7.5")],
        &[("climate.preset", "\"atlantis\"")],
        &[("wsi.site", "7.5"), ("nodes", "0")],
        &[("climate.preset", "\"atlantis\""), ("pue", "0.5")],
    ];
    for case in cases {
        let mut sweep = SweepSpec::from_json(text).expect("sweep parses");
        for &(axis, bad) in case {
            let target = sweep
                .axes
                .iter_mut()
                .find(|a| a.path == axis)
                .expect("axis exists");
            target
                .values
                .insert(1, serde_json::from_str(bad).expect("value parses"));
        }
        let oracle = (0..sweep.combination_count())
            .find_map(|i| sweep.combination(i).and_then(|cell| evaluate(&cell)).err())
            .expect("some cell is invalid");
        for (threads, result) in [1, 2, 8].iter().zip(at_thread_counts(&sweep)) {
            let err = result.expect_err("the sweep fails");
            assert_eq!(
                err.to_string(),
                oracle.to_string(),
                "{case:?} at {threads} threads"
            );
        }
    }
}

/// A plain sweep lists its rows in expansion order at every thread
/// count, although cells are evaluated lane by lane: here the row
/// section `pue` is the slowest axis, so lane-major order differs from
/// expansion order.
#[test]
fn plain_sweep_rows_stay_in_expansion_order_at_every_thread_count() {
    let sweep = SweepSpec::from_json(
        r#"{
        "name": "row-major", "base": "polaris",
        "axes": {
            "pue": [1.1, 1.3, 1.2],
            "climate.preset": ["kobe", "lemont"],
            "wsi.site": [0.2, 0.6],
            "grid.region": ["kansai", "tennessee"]
        }
    }"#,
    )
    .expect("sweep parses");
    let oracle = per_cell_oracle(&sweep);
    for (threads, result) in [1, 2, 8].iter().zip(at_thread_counts(&sweep)) {
        let report = result.expect("sweep evaluates");
        assert_eq!(report.rows.len(), oracle.len());
        for (row, want) in report.rows.iter().zip(&oracle) {
            assert_eq!(row.name, want.name, "{threads} threads");
            assert_eq!(
                format!("{:?}", row.scenario),
                format!("{:?}", want.scenario),
                "{} at {threads} threads",
                row.name
            );
        }
    }
}

/// A sweep with more lane sub-combinations than one window keeps the
/// per-cell oracle's top-N at every thread count.
#[test]
fn a_sweep_over_two_lane_windows_keeps_the_oracle_top_n() {
    let sweep = SweepSpec::from_json(&two_window_text()).expect("sweep parses");
    let oracle = per_cell_oracle(&sweep);
    let mut ranked: Vec<usize> = (0..oracle.len()).collect();
    ranked.sort_by(|&a, &b| {
        let key = |i: usize| oracle[i].scenario.operational_water_l;
        key(a).total_cmp(&key(b)).then(a.cmp(&b))
    });
    ranked.truncate(9);
    assert!(
        ranked.iter().any(|&i| i < 4096) && ranked.iter().any(|&i| i >= 4096),
        "the best rows come from both windows: {ranked:?}"
    );
    for (threads, result) in [1, 2, 8].iter().zip(at_thread_counts(&sweep)) {
        let report = result.expect("sweep evaluates");
        assert_eq!(report.rows.len(), ranked.len());
        for (row, &i) in report.rows.iter().zip(&ranked) {
            assert_eq!(row.name, oracle[i].name, "{threads} threads");
            assert_eq!(
                format!("{:?}", row.scenario),
                format!("{:?}", oracle[i].scenario),
                "{threads} threads"
            );
        }
    }
}

/// One counter of a CLI run's `--profile --json` report. The run is a
/// subprocess, so no sibling test's work reaches the counter.
fn profiled_counter(args: &[&str], name: &str) -> u64 {
    let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
        .args(args)
        .args(["--json", "--profile"])
        .output()
        .expect("CLI binary runs");
    assert!(out.status.success(), "{args:?}: {out:?}");
    let profile: ProfileReport =
        serde_json::from_str(&String::from_utf8(out.stderr).expect("UTF-8 stderr"))
            .expect("stderr is a profile report");
    profile
        .counters
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("{name} registered"))
        .value
}

/// A siting sweep's baseline year and its kernel lanes read one workload
/// layer, and climate/region variants never reach the workload key: the
/// whole 25-cell sweep simulates exactly the jobs of one Polaris year.
#[test]
fn a_siting_sweep_simulates_its_workload_year_once() {
    let jobs = "thirstyflops_workload_jobs_simulated_total";
    let sweep = spec_path("sweep_siting.json");
    let swept = profiled_counter(&["scenario", "sweep", sweep.as_str()], jobs);
    let one_year = profiled_counter(&["footprint", "polaris"], jobs);
    assert!(one_year > 0);
    assert_eq!(swept, one_year);
}
