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

use std::collections::HashSet;
use std::process::Command;

use proptest::prelude::*;
use rayon::prelude::*;
use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::batch::{energy_key, BatchContext, LaneRequest, TopN};
use thirstyflops::core::SystemYear;
use thirstyflops::obs::report::ProfileReport;
use thirstyflops::scenario::{engine, evaluate, evaluate_sweep, ScenarioOutcome, SweepSpec};
use thirstyflops::timeseries::Month;

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
        )
    ) {
        let ctx = BatchContext::new();
        let requests: Vec<LaneRequest> = lanes
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
/// reports at 1 and 8 threads. Rows against the per-cell oracle are
/// `compiled_sweep_rows_equal_the_per_cell_oracle`'s job, and cached
/// against uncached simulation is `tests/simcache.rs`'s.
#[test]
fn cli_sweep_bytes_identical_batched_vs_scalar_across_threads_and_cache() {
    let path = spec_path("sweep_siting.json");
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for threads in ["1", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
            .args(["scenario", "sweep", path.as_str(), "--json"])
            .env("THIRSTYFLOPS_THREADS", threads)
            .output()
            .expect("CLI binary runs");
        assert!(out.status.success(), "{threads} threads failed: {out:?}");
        bodies.push(out.stdout);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "sweep bytes must not depend on the thread count"
    );
}

/// The same differential over a *streaming* (top-N) sweep: a 600-cell
/// spec — more than one 512-row chunk, so chunked top-N merging runs —
/// produces one byte set at 1 and 8 threads (the 101,250-cell spec is
/// `./ci.sh batch-smoke`'s job). The top-7 of a two-chunk sweep against
/// the per-cell oracle is `compiled_sweep_rows_equal_the_per_cell_oracle`'s.
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
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for threads in ["1", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_thirstyflops"))
            .args(["scenario", "sweep", path, "--json"])
            .env("THIRSTYFLOPS_THREADS", threads)
            .output()
            .expect("CLI binary runs");
        assert!(out.status.success(), "{threads} threads failed: {out:?}");
        bodies.push(out.stdout);
    }
    assert!(bodies[0].len() > 100, "report is non-trivial");
    assert_eq!(bodies[0], bodies[1], "thread count leaked into the bytes");
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

/// The kernel aggregates exactly one lane per distinct resolved key per
/// 512-cell chunk — alias spellings resolve to one key — plus one for
/// the sweep's baseline, which goes through the same kernel. The count
/// is read off a `--profile --json` run, where no other test's kernel
/// calls can interleave with it.
#[test]
fn lanes_are_the_distinct_resolved_keys_per_chunk() {
    let sweep = SweepSpec::from_json(SECTIONED_SWEEP).expect("sweep parses");
    let base = SystemSpec::reference(SystemId::Polaris);
    let keys: Vec<_> = (0..sweep.combination_count())
        .map(|i| {
            let cell = sweep.combination(i).expect("valid cell");
            let system = engine::apply_spec_overrides(&base, &cell.overrides).expect("applies");
            let wue_scale = cell.overrides.climate.as_ref().and_then(|c| c.wue_scale);
            (
                energy_key(&system, cell.seed),
                system.climate,
                wue_scale.map(f64::to_bits),
                system.region,
                serde_json::to_string(&cell.overrides.grid).expect("grid renders"),
            )
        })
        .collect();
    let expected: usize = keys
        .chunks(512)
        .map(|chunk| chunk.iter().collect::<HashSet<_>>().len())
        .sum();

    let path = std::env::temp_dir().join(format!(
        "thirstyflops_sectioned_sweep_{}.json",
        std::process::id()
    ));
    std::fs::write(&path, SECTIONED_SWEEP).expect("spec writes");
    let lanes = profiled_counter(
        &["scenario", "sweep", path.to_str().expect("UTF-8 path")],
        "thirstyflops_batch_lanes_total",
    );
    std::fs::remove_file(&path).ok();
    let baseline_lane = 1;
    assert_eq!(lanes, expected as u64 + baseline_lane);
    assert!(
        expected < keys.len() / 100,
        "{expected} lanes for {} cells",
        keys.len()
    );
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
