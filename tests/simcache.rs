//! Correctness tests for the memoized simulation substrate
//! (`core::simcache`): the cached paths must be *observably faster*
//! (hit/miss counters) while producing *byte-identical* results to the
//! fully uncached reference path, at every thread count.
//!
//! Counter-sensitive tests serialize on [`lock`] because the caches are
//! process-wide and the test harness runs `#[test]`s concurrently.

use std::process::Command;
use std::sync::{Arc, Mutex, MutexGuard};

use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::batch::energy_key;
use thirstyflops::core::{simcache, AnnualReport, SystemYear};
use thirstyflops::grid::RegionId;
use thirstyflops::scenario::{engine, ScenarioSpec};
use thirstyflops::units::{Pue, WaterScarcityIndex};
use thirstyflops::weather::ClimatePreset;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs the CLI with the given args and env, returning stdout bytes.
fn cli_stdout(args: &[&str], envs: &[(&str, &str)]) -> Vec<u8> {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_thirstyflops"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("CLI binary runs");
    assert!(out.status.success(), "CLI {args:?} failed: {out:?}");
    out.stdout
}

/// Bit equality of two years' five series.
fn assert_same_series(a: &SystemYear, b: &SystemYear, what: &str) {
    assert_eq!(a.utilization.values(), b.utilization.values(), "{what}");
    assert_eq!(a.energy.values(), b.energy.values(), "{what}");
    assert_eq!(a.wue.values(), b.wue.values(), "{what}");
    assert_eq!(a.ewf.values(), b.ewf.values(), "{what}");
    assert_eq!(a.carbon.values(), b.carbon.values(), "{what}");
}

/// A repeated `SystemYear::simulate(id, seed)` simulates nothing: the
/// workload layer counts one miss for the first call and one hit for
/// the repeat, and both years carry the same bits.
#[test]
fn repeated_simulate_is_a_cache_hit() {
    let _guard = lock();
    let seed = 990_001; // unique to this test ⇒ guaranteed cold
    let before = simcache::stats();
    let first = SystemYear::simulate(SystemId::Fugaku, seed);
    let second = SystemYear::simulate(SystemId::Fugaku, seed);
    let after = simcache::stats();
    assert_eq!(
        after.system_years.misses - before.system_years.misses,
        1,
        "exactly one simulation ran"
    );
    assert_eq!(
        after.system_years.hits - before.system_years.hits,
        1,
        "the repeat was a cache hit"
    );
    assert_same_series(&first, &second, "repeat");
}

/// The workload memo key (rendered by `energy_key`) holds exactly what
/// the workload year reads: site and embodied-only fields share a key,
/// everything the trace, scheduler or power model reads moves it.
#[test]
fn workload_keys_hold_exactly_what_the_workload_reads() {
    let base = SystemSpec::reference(SystemId::Polaris);
    let frontier = SystemSpec::reference(SystemId::Frontier);
    let key = |spec: &SystemSpec| energy_key(spec, 2023);
    let shared: [fn(&mut SystemSpec, &SystemSpec); 8] = [
        |s, _| s.climate = ClimatePreset::Kobe,
        |s, _| s.region = RegionId::Tennessee,
        |s, _| s.pue = Pue::new(1.6).unwrap(),
        |s, _| s.site_wsi = WaterScarcityIndex::new(0.9).unwrap(),
        |s, f| s.fleet = f.fleet.clone(),
        |s, f| s.storage = f.storage,
        |s, _| s.node.dram_gb *= 2.0,
        |s, _| s.node.ics_per_node += 5,
    ];
    for (i, vary) in shared.iter().enumerate() {
        let mut spec = base.clone();
        vary(&mut spec, &frontier);
        assert_ne!(spec, base, "variant {i} changes the spec");
        assert_eq!(key(&spec), key(&base), "variant {i} shares the workload");
    }
    let moved: [fn(&mut SystemSpec); 6] = [
        |s| s.id = SystemId::Aurora,
        |s| s.nodes += 1,
        |s| s.mean_utilization = 0.5,
        |s| s.node.idle_fraction = 0.25,
        |s| s.node.cpu.tdp_watts += 1.0,
        |s| s.node.gpu.as_mut().unwrap().tdp_watts += 1.0,
    ];
    for (i, vary) in moved.iter().enumerate() {
        let mut spec = base.clone();
        vary(&mut spec);
        assert_ne!(key(&spec), key(&base), "variant {i} moves the workload");
    }
    assert_ne!(energy_key(&base, 2024), key(&base), "the seed moves it");
}

/// The key holds the peak node power, not its TDP split: the power
/// model reads nothing else, so two splits with the same exact peak
/// give bit-identical workload years.
#[test]
fn equal_peak_power_gives_bit_identical_energy() {
    let mut base = SystemSpec::reference(SystemId::Polaris);
    base.nodes = 64; // a small machine keeps the two simulations cheap
                     // Polaris: 1×200 W CPU + 4×250 W GPU + 250 W misc = 1450 W; moving
                     // 100 W from the GPUs to the CPU keeps the peak exact.
    let mut split = base.clone();
    split.node.cpu.tdp_watts = 300.0;
    split.node.gpu.as_mut().unwrap().tdp_watts = 225.0;
    assert_ne!(split.node, base.node);
    assert_eq!(energy_key(&split, 7), energy_key(&base, 7));
    let a = SystemYear::simulate_uncached(base, 7);
    let b = SystemYear::simulate_uncached(split, 7);
    assert_eq!(a.utilization.values(), b.utilization.values());
    assert_eq!(a.energy.values(), b.energy.values());
}

/// Two systems in the same grid region share one `GridYear`
/// computation: simulating both consults the grid layer twice but
/// computes at most once (Polaris and Aurora are both Northern
/// Illinois).
#[test]
fn same_region_systems_share_one_grid_computation() {
    let _guard = lock();
    let seed = 990_002;
    let before = simcache::stats();
    let polaris = SystemYear::simulate(SystemId::Polaris, seed);
    let aurora = SystemYear::simulate(SystemId::Aurora, seed);
    assert_eq!(polaris.spec.region, aurora.spec.region);
    let after = simcache::stats();
    let hits = after.grid_years.hits - before.grid_years.hits;
    let misses = after.grid_years.misses - before.grid_years.misses;
    assert_eq!(hits + misses, 2, "both cold years consulted the layer");
    assert!(misses <= 1, "the region simulated at most once");
    assert!(hits >= 1, "the second system reused the first's grid year");
    // And the shared series are byte-identical across the two systems.
    assert_eq!(polaris.ewf.values(), aurora.ewf.values());
    assert_eq!(polaris.carbon.values(), aurora.carbon.values());
}

/// Single-flight: eight threads racing on one cold key compute it
/// exactly once and all read the winner's series.
#[test]
fn racing_first_touches_compute_once() {
    let _guard = lock();
    let seed = 990_003;
    let before = simcache::stats();
    let years: Vec<Arc<SystemYear>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || SystemYear::simulate(SystemId::Marconi, seed)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = simcache::stats();
    assert_eq!(
        after.system_years.misses - before.system_years.misses,
        1,
        "single-flight: one compute under 8 racing threads"
    );
    assert_eq!(after.system_years.hits - before.system_years.hits, 7);
    for year in &years[1..] {
        assert_same_series(&years[0], year, "racer");
    }
}

/// Every input the paper's commands and the shipped scenarios simulate:
/// each cataloged reference system, plus the transformed spec of each
/// `examples/scenarios` run spec (sweeps are skipped), with its seed.
fn oracle_inputs() -> Vec<(String, SystemSpec, u64)> {
    let mut inputs: Vec<(String, SystemSpec, u64)> = SystemId::ALL
        .iter()
        .map(|&id| (id.slug().to_string(), SystemSpec::reference(id), 990_004))
        .collect();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/scenarios exists")
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    paths.sort();
    let mut run_specs = 0;
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("example readable");
        let spec = match ScenarioSpec::from_json(&text) {
            Ok(spec) => spec,
            Err(_) if text.contains("\"axes\"") => continue, // a sweep spec
            Err(e) => panic!("{}: {e}", path.display()),
        };
        let base = SystemSpec::reference(spec.base_id().expect("known base"));
        let transformed = engine::apply_spec_overrides(&base, &spec.overrides)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        inputs.push((path.display().to_string(), transformed, spec.seed));
        run_specs += 1;
    }
    assert!(run_specs >= 8, "only {run_specs} run specs found in {dir}");
    inputs
}

/// The memoized path gives the same bits as the fully uncached
/// reference [`SystemYear::simulate_uncached`] — telemetry, reports and
/// figure frames — on a cold lookup and again on the warm repeat. This
/// is the cache-invisibility oracle: there is no runtime switch to turn
/// the memo layers off, so this comparison is what keeps them honest.
#[test]
fn cached_and_uncached_results_are_bit_identical() {
    let _guard = lock();
    for (name, spec, seed) in oracle_inputs() {
        let uncached = SystemYear::simulate_uncached(spec.clone(), seed);
        let cold = SystemYear::simulate_spec(spec.clone(), seed);
        let before = simcache::stats();
        let warm = SystemYear::simulate_spec(spec, seed);
        let after = simcache::stats();
        assert_eq!(
            after.system_years.misses, before.system_years.misses,
            "{name}: the repeat is a hit"
        );
        assert_same_series(&cold, &warm, &name);
        let cached = &*cold;
        assert_same_series(cached, &uncached, &name);
        // Reports and frame exports (the figure inputs) agree exactly.
        assert_eq!(
            AnnualReport::from_year(cached),
            AnnualReport::from_year(&uncached),
            "{name}"
        );
        assert_eq!(
            cached.hourly_frame().to_csv(),
            uncached.hourly_frame().to_csv(),
            "{name}"
        );
        assert_eq!(
            cached.monthly_frame().to_csv(),
            uncached.monthly_frame().to_csv(),
            "{name}"
        );
    }
}

/// CLI `--json` bodies are byte-identical at `THIRSTYFLOPS_THREADS=1`
/// and `8`: the worker count never reaches the bytes. The memo layers
/// have no off switch, so the "with and without cache" half of the
/// contract is checked in process against the uncached oracle
/// ([`cached_and_uncached_results_are_bit_identical`]).
#[test]
fn cli_json_bodies_identical_with_and_without_cache() {
    let cases: [&[&str]; 3] = [
        &["footprint", "polaris", "--seed", "7", "--json"],
        &["scenario", "fugaku", "--seed", "7", "--json"],
        &["experiments", "fig07", "--json"],
    ];
    for args in cases {
        let bodies: Vec<Vec<u8>> = ["1", "8"]
            .iter()
            .map(|threads| cli_stdout(args, &[("THIRSTYFLOPS_THREADS", threads)]))
            .collect();
        assert!(!bodies[0].is_empty());
        assert_eq!(
            bodies[0], bodies[1],
            "{args:?} must not depend on the thread count"
        );
    }
}
