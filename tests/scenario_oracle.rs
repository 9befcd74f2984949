//! The scalar scenario oracle: what `scenario::evaluate` computed before
//! single runs went through the K-lane kernel — clone each uncached
//! series, scale it per the overrides, and reduce it with the
//! single-purpose `HourlySeries` kernels. `evaluate` must reproduce it
//! to the last bit for every shipped run spec and for random overrides
//! on every section. Since sweep rows are checked against per-cell
//! `evaluate` (`tests/batch.rs`), this is what ties the kernel to the
//! scalar expressions end to end.

use std::collections::HashMap;

use proptest::prelude::*;
use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::batch::LaneAggregates;
use thirstyflops::core::SystemYear;
use thirstyflops::scenario::{engine, evaluate, Overrides, ScenarioOutcome, ScenarioSpec};
use thirstyflops::timeseries::{HourlySeries, Month};

/// Uncached years, shared between the baseline and scenario sides of
/// one test (the oracle recomputes everything; it need not do so twice).
type Years = HashMap<String, SystemYear>;

/// One configuration's metrics from the uncached series and the scalar
/// reductions.
fn oracle_metrics(
    years: &mut Years,
    sys: &SystemSpec,
    seed: u64,
    o: &Overrides,
) -> engine::ScenarioMetrics {
    let year = years
        .entry(format!("{sys:?}/{seed}"))
        .or_insert_with(|| SystemYear::simulate_uncached(sys.clone(), seed));

    let wue: HourlySeries = match o.climate.as_ref().and_then(|c| c.wue_scale) {
        Some(k) => year.wue.scale(k),
        None => year.wue.clone(),
    };
    let (ewf, carbon) = match o.grid.as_ref() {
        Some(g) => match engine::grid_factors(g, sys, year.ewf.mean(), year.carbon.mean())
            .expect("validated grid override")
        {
            Some((k_ewf, k_ci)) => (year.ewf.scale(k_ewf), year.carbon.scale(k_ci)),
            None => (year.ewf.clone(), year.carbon.clone()),
        },
        None => (year.ewf.clone(), year.carbon.clone()),
    };

    let monthly = year.energy.mul(&wue).monthly_sum();
    let agg = LaneAggregates {
        energy_kwh: year.energy.total(),
        direct_l: year.energy.dot(&wue),
        indirect_per_pue_l: year.energy.dot(&ewf),
        carbon_g: year.energy.dot(&carbon),
        mean_wue: wue.mean(),
        mean_ewf: ewf.mean(),
        mean_carbon: carbon.mean(),
        monthly_direct_l: Month::ALL.map(|month| monthly.get(month)),
    };
    engine::finish_metrics(
        sys,
        o.reclaimed.as_ref(),
        o.water_price.as_ref(),
        o.fleet_upgrade.as_ref(),
        &agg,
    )
}

/// The whole outcome, baseline and scenario, from the scalar path.
fn oracle(years: &mut Years, spec: &ScenarioSpec) -> ScenarioOutcome {
    let base = SystemSpec::reference(spec.base_id().expect("valid base"));
    let baseline = oracle_metrics(years, &base, spec.seed, &Overrides::default());
    let transformed = engine::apply_spec_overrides(&base, &spec.overrides).expect("applies");
    let scenario = oracle_metrics(years, &transformed, spec.seed, &spec.overrides);
    ScenarioOutcome {
        name: spec.name.clone(),
        base: spec.base.clone(),
        seed: spec.seed,
        fingerprint: spec.fingerprint(),
        deltas: engine::deltas(&baseline, &scenario),
        baseline,
        scenario,
    }
}

/// `{:?}` prints every `f64` in its shortest round-trip form, so equal
/// strings mean equal bits (the sign of a zero included).
fn assert_bit_identical(got: &ScenarioOutcome, want: &ScenarioOutcome) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", want.name);
}

#[test]
fn every_shipped_run_spec_matches_the_scalar_oracle() {
    let dir = format!("{}/examples/scenarios", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("spec library ships")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.starts_with("sweep_")
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "{} run specs", paths.len());
    let mut years = Years::new();
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("spec reads");
        let spec = ScenarioSpec::from_json(&text).expect("spec parses");
        let got = evaluate(&spec).expect("spec evaluates");
        assert_bit_identical(&got, &oracle(&mut years, &spec));
    }
}

/// Picks `items[pick % len]`.
fn pick<T: Copy>(items: &[T], pick: u64) -> T {
    items[pick as usize % items.len()]
}

/// A run spec with every override section switched on or off by a bit
/// of `mask`, its values drawn from `draws`.
fn random_spec(base: SystemId, seed: u64, mask: u64, draws: [f64; 6], picks: u64) -> String {
    let [a, b, c, d, e, f] = draws;
    let mut sections: Vec<String> = Vec::new();
    let wue_scale = (mask & 1 != 0).then(|| format!("\"wue_scale\": {}", 0.3 + 2.5 * a));
    let preset = (mask & 2 != 0).then(|| {
        let presets = ["bologna", "kobe", "lemont", "oakridge", "livermore"];
        format!("\"preset\": \"{}\"", pick(&presets, picks))
    });
    let climate: Vec<String> = [preset, wue_scale].into_iter().flatten().collect();
    if !climate.is_empty() {
        sections.push(format!("\"climate\": {{{}}}", climate.join(", ")));
    }
    let region = (mask & 4 != 0).then(|| {
        let regions = [
            "emilia-romagna",
            "kansai",
            "northern-illinois",
            "tennessee",
            "california",
        ];
        format!("\"region\": \"{}\"", pick(&regions, picks >> 4))
    });
    let shift = 0.2 * b;
    let mix = match (mask >> 3) & 3 {
        1 => Some(format!(
            "\"mix\": {{\"coal\": {}, \"gas\": {}, \"nuclear\": {}}}",
            0.5 * b,
            0.5 - 0.5 * b,
            0.5
        )),
        2 => Some(format!(
            "\"mix_delta\": {{\"hydro\": {}, \"gas\": {}}}",
            -shift, shift
        )),
        _ => None,
    };
    let grid: Vec<String> = [region, mix].into_iter().flatten().collect();
    if !grid.is_empty() {
        sections.push(format!("\"grid\": {{{}}}", grid.join(", ")));
    }
    if mask & 32 != 0 {
        sections.push(format!("\"pue\": {}", 1.02 + 0.6 * c));
    }
    if mask & 64 != 0 {
        sections.push(format!("\"nodes\": {}", 40 + (picks >> 8) % 900));
    }
    if mask & 128 != 0 {
        sections.push(if mask & 256 != 0 {
            format!("\"wsi\": {{\"site\": {}}}", 0.01 + 0.98 * d)
        } else {
            let fields = ["state:AZ", "state:CA", "state:TN", "country:India"];
            format!("\"wsi\": {{\"field\": \"{}\"}}", pick(&fields, picks >> 12))
        });
    }
    if mask & 512 != 0 {
        sections.push(format!(
            "\"reclaimed\": {{\"fraction\": {}, \"wsi\": {}, \"usd_per_kl\": {}}}",
            0.9 * e,
            0.3 * d,
            0.1 + 2.0 * f
        ));
    }
    if mask & 1024 != 0 {
        let multipliers: Vec<String> = (0..12)
            .map(|m| format!("{}", 0.5 + (m as f64 * 0.37 + f).fract()))
            .collect();
        sections.push(format!(
            "\"water_price\": {{\"base_usd_per_kl\": {}, \"monthly_multiplier\": [{}]}}",
            0.2 + 3.0 * e,
            multipliers.join(", ")
        ));
    }
    if mask & 2048 != 0 && SystemSpec::reference(base).has_gpus() {
        sections.push(format!(
            "\"fleet_upgrade\": {{\"lifetime_years\": {}, \"upgrades\": [{{\"year\": 2, \
             \"gpu\": {{\"name\": \"Next\", \"die_mm2\": {}, \"process_nm\": 4, \
             \"tdp_watts\": 500}}}}]}}",
            3.0 + 5.0 * a,
            300.0 + 900.0 * f
        ));
    }
    format!(
        "{{\"name\": \"random\", \"base\": \"{}\", \"seed\": {seed}, \"overrides\": {{{}}}}}",
        base.slug(),
        sections.join(", ")
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random overrides on every section — `climate.wue_scale`,
    /// `grid.mix`, `grid.mix_delta`, `grid.region`, `pue`, `nodes`,
    /// `wsi`, `reclaimed`, `water_price`, `fleet_upgrade` — evaluate to
    /// the scalar oracle's bits.
    #[test]
    fn random_overrides_match_the_scalar_oracle(
        base in 0u64..6,
        seed in 0u64..100_000,
        mask in 0u64..4096,
        ab in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        def in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        picks in any::<u64>(),
    ) {
        let base = SystemId::ALL[base as usize];
        let draws = [ab.0, ab.1, ab.2, def.0, def.1, def.2];
        let text = random_spec(base, seed, mask, draws, picks);
        let spec = ScenarioSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let got = evaluate(&spec).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_bit_identical(&got, &oracle(&mut Years::new(), &spec));
    }
}
