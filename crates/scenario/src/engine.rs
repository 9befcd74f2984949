//! Scenario evaluation: pure transforms on simulation inputs, metrics
//! over the memoized telemetry year, and deltas against the baseline.
//!
//! Evaluation is built to be *cache-shaped*: every override that changes
//! the simulated physics (climate preset, grid region, PUE, node count,
//! site WSI) is applied as a [`SystemSpec`] transform, so each memo
//! layer (workload, grid, WUE) sees exactly what differs — a sweep of 25
//! scenarios over one base system re-simulates only that (its climates
//! and regions never reach the workload key). Overrides that
//! reinterpret the simulated series (WUE scaling, mix changes) become
//! per-lane scales of the K-lane kernel, which reduces the shared
//! series in place; prices, scarcity weighting and the lifecycle
//! projection are arithmetic on the reduced aggregates. Cached and
//! uncached evaluation are byte-identical (`tests/scenario.rs`).

use thirstyflops_catalog::SystemSpec;
use thirstyflops_core::batch::{BatchContext, LaneAggregates, LaneRequest};
use thirstyflops_core::embodied::EmbodiedBreakdown;
use thirstyflops_core::lifecycle::gpu_upgrade_water;
use thirstyflops_core::OperationalBreakdown;
use thirstyflops_grid::EnergyMix;
use thirstyflops_units::Pue;

use crate::spec::{
    effective_region, shifted_mix, FleetUpgradeOverride, GridOverride, Overrides,
    ReclaimedOverride, ScenarioError, ScenarioSpec, WaterPriceOverride, DEFAULT_POTABLE_USD_PER_KL,
    DEFAULT_RECLAIMED_USD_PER_KL,
};

/// Everything the engine measures for one evaluated configuration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioMetrics {
    /// Annual IT energy, kWh.
    pub energy_kwh: f64,
    /// Annual direct (cooling) water, liters.
    pub direct_water_l: f64,
    /// Annual indirect (generation) water, liters.
    pub indirect_water_l: f64,
    /// Annual operational water (direct + indirect), liters.
    pub operational_water_l: f64,
    /// WSI-weighted operational water, liters (split indices: site — or
    /// its reclaimed blend — on the direct part, plant fleet on the
    /// indirect part).
    pub scarcity_adjusted_water_l: f64,
    /// Annual operational carbon, kg CO₂.
    pub carbon_kg: f64,
    /// Annual water bill for the direct (purchased) supply, USD.
    pub water_cost_usd: f64,
    /// Annual mean WUE, L/kWh.
    pub mean_wue_l_per_kwh: f64,
    /// Annual mean EWF, L/kWh.
    pub mean_ewf_l_per_kwh: f64,
    /// Annual mean water intensity `WUE + PUE·EWF`, L/kWh.
    pub mean_wi_l_per_kwh: f64,
    /// Annual mean carbon intensity, gCO₂/kWh.
    pub mean_ci_g_per_kwh: f64,
    /// Lifecycle projection — present only under a `fleet_upgrade`
    /// override.
    pub lifecycle: Option<LifecycleMetrics>,
}

/// The lifecycle view a `fleet_upgrade` override adds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LifecycleMetrics {
    /// Service life, years.
    pub lifetime_years: f64,
    /// One-time embodied water of the initial build, liters.
    pub embodied_l: f64,
    /// Additional embodied water from the scheduled upgrades, liters.
    pub upgrade_embodied_l: f64,
    /// Operational water over the whole life, liters.
    pub lifetime_operational_l: f64,
    /// Lifetime total (embodied + upgrades + operational), liters.
    pub lifetime_total_l: f64,
    /// Embodied (incl. upgrades) share of the lifetime total.
    pub embodied_share: f64,
    /// Lifetime-amortized water intensity, L/kWh.
    pub amortized_wi_l_per_kwh: f64,
}

/// Scenario-minus-baseline deltas (positive = the scenario uses more).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioDeltas {
    /// Operational water delta, liters.
    pub operational_water_l: f64,
    /// Operational water delta, percent of baseline.
    pub operational_water_pct: f64,
    /// Scarcity-adjusted water delta, liters.
    pub scarcity_adjusted_water_l: f64,
    /// Scarcity-adjusted water delta, percent of baseline.
    pub scarcity_adjusted_water_pct: f64,
    /// Carbon delta, kg CO₂.
    pub carbon_kg: f64,
    /// Carbon delta, percent of baseline.
    pub carbon_pct: f64,
    /// Water-bill delta, USD.
    pub water_cost_usd: f64,
    /// Water-bill delta, percent of baseline.
    pub water_cost_pct: f64,
}

/// One evaluated scenario: baseline, scenario, deltas.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario name from the spec.
    pub name: String,
    /// Canonical base-system slug.
    pub base: String,
    /// Telemetry seed.
    pub seed: u64,
    /// Fingerprint of the canonical spec (16 hex digits).
    pub fingerprint: String,
    /// The base system with no overrides (default water pricing).
    pub baseline: ScenarioMetrics,
    /// The base system with the spec's overrides applied.
    pub scenario: ScenarioMetrics,
    /// Scenario minus baseline.
    pub deltas: ScenarioDeltas,
}

/// An A-vs-B comparison of two evaluated scenarios.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioComparison {
    /// The first scenario's full outcome.
    pub a: ScenarioOutcome,
    /// The second scenario's full outcome.
    pub b: ScenarioOutcome,
    /// `b.scenario` minus `a.scenario`.
    pub b_minus_a: ScenarioDeltas,
}

/// Evaluates one scenario against its own base system.
pub fn evaluate(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    spec.validate()?;
    let base_id = spec.base_id()?;
    let base_spec = SystemSpec::reference(base_id);
    let transformed = apply_spec_overrides(&base_spec, &spec.overrides)?;
    let [baseline, scenario] = metrics([
        (&base_spec, spec.seed, &Overrides::default()),
        (&transformed, spec.seed, &spec.overrides),
    ])?;
    let deltas = deltas(&baseline, &scenario);
    Ok(ScenarioOutcome {
        name: spec.name.clone(),
        base: spec.base.clone(),
        seed: spec.seed,
        fingerprint: spec.fingerprint(),
        baseline,
        scenario,
        deltas,
    })
}

/// Evaluates two scenarios and compares their results (B minus A). The
/// bases may differ — the comparison is between the *scenario* states.
pub fn compare(a: &ScenarioSpec, b: &ScenarioSpec) -> Result<ScenarioComparison, ScenarioError> {
    let oa = evaluate(a)?;
    let ob = evaluate(b)?;
    let b_minus_a = deltas(&oa.scenario, &ob.scenario);
    Ok(ScenarioComparison {
        a: oa,
        b: ob,
        b_minus_a,
    })
}

/// The `SystemSpec` transform: every override that changes the simulated
/// physics, applied as plain field replacement, so each memo layer's key
/// (workload, grid region, climate preset) sees exactly what changed.
pub fn apply_spec_overrides(base: &SystemSpec, o: &Overrides) -> Result<SystemSpec, ScenarioError> {
    let mut spec = base.clone();
    if let Some(c) = &o.climate {
        if let Some(preset) = &c.preset {
            spec.climate =
                preset
                    .parse()
                    .map_err(|e: thirstyflops_weather::ParseClimatePresetError| {
                        ScenarioError::Invalid(e.to_string())
                    })?;
        }
    }
    if let Some(g) = &o.grid {
        spec.region = effective_region(base, g)?;
    }
    if let Some(p) = o.pue {
        spec.pue = Pue::new(p).map_err(|e| ScenarioError::Invalid(format!("\"pue\": {e}")))?;
    }
    if let Some(n) = o.nodes {
        spec.nodes = n;
    }
    if let Some(w) = &o.wsi {
        let value = match (&w.site, &w.field) {
            (Some(v), None) => *v,
            (None, Some(f)) => crate::spec::resolve_wsi_field(f)?,
            _ => {
                return Err(ScenarioError::Invalid(
                    "\"wsi\" needs exactly one of \"site\" or \"field\"".into(),
                ))
            }
        };
        spec.site_wsi = thirstyflops_units::WaterScarcityIndex::new(value)
            .map_err(|e| ScenarioError::Invalid(format!("\"wsi\": {e}")))?;
    }
    Ok(spec)
}

/// EWF/carbon scale factors for a grid mix override (see
/// `docs/SCENARIOS.md` for the semantics: `mix` pins the annual mean to
/// the replacement mix's factors, `mix_delta` shifts the simulated level
/// by the ratio of shifted-to-base annual-mix factors). Takes the
/// annual means of the *unscaled* region series
/// ([`BatchContext::region_means`]).
pub fn grid_factors(
    g: &GridOverride,
    sys: &SystemSpec,
    ewf_mean: f64,
    carbon_mean: f64,
) -> Result<Option<(f64, f64)>, ScenarioError> {
    if let Some(mix) = &g.mix {
        let pairs = parse_mix_pairs(mix)?;
        let target = EnergyMix::normalized(&pairs)
            .map_err(|e| ScenarioError::Invalid(format!("\"grid.mix\": {e}")))?;
        return Ok(Some((
            target.ewf().value() / ewf_mean,
            target.carbon_intensity().value() / carbon_mean,
        )));
    }
    if let Some(delta) = &g.mix_delta {
        let region = effective_region(sys, g)?;
        let base = thirstyflops_grid::GridRegion::preset(region).annual_mix();
        let shifted = shifted_mix(region, delta)?;
        return Ok(Some((
            shifted.ewf().value() / base.ewf().value(),
            shifted.carbon_intensity().value() / base.carbon_intensity().value(),
        )));
    }
    Ok(None)
}

/// [`grid_factors`] for a lane of `sys`, reading the region's series
/// means only where a `mix` divides by them: a region or `mix_delta`
/// override looks up no grid year before the kernel resolves the lane.
pub(crate) fn lane_grid_factors(
    g: &GridOverride,
    sys: &SystemSpec,
    ctx: &BatchContext,
) -> Result<Option<(f64, f64)>, ScenarioError> {
    // Without a `mix`, `grid_factors` never reads the means.
    let (ewf_mean, carbon_mean) = match g.mix {
        Some(_) => ctx.region_means(sys.region),
        None => (1.0, 1.0),
    };
    grid_factors(g, sys, ewf_mean, carbon_mean)
}

fn parse_mix_pairs(
    mix: &std::collections::BTreeMap<String, f64>,
) -> Result<Vec<(thirstyflops_grid::EnergySource, f64)>, ScenarioError> {
    // The shared canonicalizer collapses name spellings and rejects
    // duplicates, so a code-built map behaves like a parsed one.
    Ok(crate::spec::parse_source_map(mix, "grid.mix")?
        .into_iter()
        .collect())
}

/// Measures configurations — each a (transformed) system, a seed and
/// the overrides that reinterpret its series — in one call of the
/// K-lane kernel (`core::batch`), which reads the memoized workload,
/// grid and WUE series in place. Single runs and sweep baselines come
/// through here; sweep cells call the same kernel from `crate::batch`.
/// `tests/scenario_oracle.rs` holds it to the scalar series expressions
/// bit for bit. Pure — identical inputs produce identical bytes at any
/// thread count.
pub(crate) fn metrics<const N: usize>(
    configs: [(&SystemSpec, u64, &Overrides); N],
) -> Result<[ScenarioMetrics; N], ScenarioError> {
    let ctx = BatchContext::new();
    let mut lanes = Vec::with_capacity(N);
    for (sys, seed, o) in configs {
        let factors = match &o.grid {
            Some(g) => lane_grid_factors(g, sys, &ctx)?,
            None => None,
        };
        lanes.push(LaneRequest {
            spec: sys.clone(),
            seed,
            wue_scale: o.climate.as_ref().and_then(|c| c.wue_scale),
            ewf_scale: factors.map(|(k_ewf, _)| k_ewf),
            carbon_scale: factors.map(|(_, k_ci)| k_ci),
        });
    }
    let aggregates = ctx.aggregate(&lanes);
    Ok(std::array::from_fn(|i| {
        let (sys, _, o) = configs[i];
        finish_metrics(
            sys,
            o.reclaimed.as_ref(),
            o.water_price.as_ref(),
            o.fleet_upgrade.as_ref(),
            &aggregates[i],
        )
    }))
}

/// The shared metric arithmetic on top of the annual aggregates: the
/// PUE factor on indirect water (through
/// `OperationalBreakdown::from_aggregates`), scarcity weighting, seasonal pricing,
/// the lifecycle projection — the three override sections read here are
/// the only ones left once `sys` and the aggregates carry the rest.
/// Single-scenario and sweep evaluation both end here, so the two paths
/// cannot diverge downstream of the reductions.
pub fn finish_metrics(
    sys: &SystemSpec,
    reclaimed: Option<&ReclaimedOverride>,
    water_price: Option<&WaterPriceOverride>,
    fleet_upgrade: Option<&FleetUpgradeOverride>,
    a: &LaneAggregates,
) -> ScenarioMetrics {
    let water = OperationalBreakdown::from_aggregates(a, sys.pue);
    let (direct, indirect) = (water.direct.value(), water.indirect.value());
    let operational = water.total().value();
    let energy_kwh = a.energy_kwh;
    let carbon_kg = a.carbon_g / 1000.0;

    // Scarcity weighting: the direct component sees the site WSI — or
    // its blend with the reclaimed source — the indirect component sees
    // the plant fleet's aggregate index (Fig. 9 split form).
    let reclaimed_fraction = reclaimed.map_or(0.0, |r| r.fraction);
    let site_wsi = sys.site_wsi.value();
    let direct_wsi = match reclaimed {
        Some(r) => (1.0 - r.fraction) * site_wsi + r.fraction * r.wsi,
        None => site_wsi,
    };
    let indirect_wsi = sys.fleet.indirect_wsi().value();
    let adjusted = direct * direct_wsi + indirect * indirect_wsi;

    // Water bill: monthly direct water through the seasonal potable
    // schedule, with the reclaimed share priced at its own flat rate.
    // Indirect water is embedded in electricity, not purchased.
    let potable_base = water_price.map_or(DEFAULT_POTABLE_USD_PER_KL, |wp| wp.base_usd_per_kl);
    let reclaimed_price = reclaimed
        .and_then(|r| r.usd_per_kl)
        .unwrap_or(DEFAULT_RECLAIMED_USD_PER_KL);
    let mut cost = 0.0;
    for (i, monthly_l) in a.monthly_direct_l.iter().enumerate() {
        let multiplier = water_price
            .and_then(|wp| wp.monthly_multiplier.as_ref())
            .map_or(1.0, |m| m[i]);
        let kl = monthly_l / 1000.0;
        cost += kl
            * ((1.0 - reclaimed_fraction) * potable_base * multiplier
                + reclaimed_fraction * reclaimed_price);
    }

    let lifecycle = fleet_upgrade.map(|fu| {
        let embodied = EmbodiedBreakdown::for_system(sys).total().value();
        let upgrade: f64 = fu
            .upgrades
            .iter()
            .map(|step| {
                let processor = step
                    .gpu
                    .to_processor_spec()
                    .expect("validated upgrade steps convert");
                gpu_upgrade_water(sys, &processor).value()
            })
            .sum();
        let lifetime_operational = operational * fu.lifetime_years;
        let total = embodied + upgrade + lifetime_operational;
        LifecycleMetrics {
            lifetime_years: fu.lifetime_years,
            embodied_l: embodied,
            upgrade_embodied_l: upgrade,
            lifetime_operational_l: lifetime_operational,
            lifetime_total_l: total,
            embodied_share: (embodied + upgrade) / total,
            amortized_wi_l_per_kwh: total / (energy_kwh * fu.lifetime_years),
        }
    });

    ScenarioMetrics {
        energy_kwh,
        direct_water_l: direct,
        indirect_water_l: indirect,
        operational_water_l: operational,
        scarcity_adjusted_water_l: adjusted,
        carbon_kg,
        water_cost_usd: cost,
        mean_wue_l_per_kwh: a.mean_wue,
        mean_ewf_l_per_kwh: a.mean_ewf,
        mean_wi_l_per_kwh: a.mean_wue + sys.pue.value() * a.mean_ewf,
        mean_ci_g_per_kwh: a.mean_carbon,
        lifecycle,
    }
}

fn pct(delta: f64, base: f64) -> f64 {
    if base.abs() > 1e-12 {
        100.0 * delta / base
    } else {
        0.0
    }
}

/// `b` minus `a`, absolute and as percent of `a`.
pub fn deltas(a: &ScenarioMetrics, b: &ScenarioMetrics) -> ScenarioDeltas {
    ScenarioDeltas {
        operational_water_l: b.operational_water_l - a.operational_water_l,
        operational_water_pct: pct(
            b.operational_water_l - a.operational_water_l,
            a.operational_water_l,
        ),
        scarcity_adjusted_water_l: b.scarcity_adjusted_water_l - a.scarcity_adjusted_water_l,
        scarcity_adjusted_water_pct: pct(
            b.scarcity_adjusted_water_l - a.scarcity_adjusted_water_l,
            a.scarcity_adjusted_water_l,
        ),
        carbon_kg: b.carbon_kg - a.carbon_kg,
        carbon_pct: pct(b.carbon_kg - a.carbon_kg, a.carbon_kg),
        water_cost_usd: b.water_cost_usd - a.water_cost_usd,
        water_cost_pct: pct(b.water_cost_usd - a.water_cost_usd, a.water_cost_usd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn eval(text: &str) -> ScenarioOutcome {
        evaluate(&ScenarioSpec::from_json(text).unwrap()).unwrap()
    }

    #[test]
    fn empty_overrides_produce_zero_deltas() {
        let o = eval(r#"{"name": "noop", "base": "polaris"}"#);
        assert_eq!(o.deltas.operational_water_l, 0.0);
        assert_eq!(o.deltas.carbon_kg, 0.0);
        assert_eq!(o.deltas.water_cost_usd, 0.0);
        assert_eq!(o.baseline, o.scenario);
        assert!(o.baseline.operational_water_l > 0.0);
        assert!(o.baseline.water_cost_usd > 0.0);
    }

    #[test]
    fn wue_scale_moves_only_the_direct_component() {
        let o = eval(
            r#"{"name": "dry", "base": "polaris",
                "overrides": {"climate": {"wue_scale": 0.5}}}"#,
        );
        let ratio = o.scenario.direct_water_l / o.baseline.direct_water_l;
        assert!((ratio - 0.5).abs() < 1e-9, "direct halves: {ratio}");
        assert_eq!(o.scenario.indirect_water_l, o.baseline.indirect_water_l);
        assert!(o.deltas.operational_water_l < 0.0);
        assert!(o.deltas.water_cost_usd < 0.0, "cheaper water bill");
    }

    #[test]
    fn all_coal_mix_raises_carbon_and_pins_the_mean() {
        let o = eval(
            r#"{"name": "coal", "base": "fugaku",
                "overrides": {"grid": {"mix": {"coal": 1.0}}}}"#,
        );
        assert!(o.deltas.carbon_pct > 50.0, "{}", o.deltas.carbon_pct);
        let coal_ci = thirstyflops_grid::EnergySource::Coal
            .carbon_intensity()
            .value();
        assert!(
            (o.scenario.mean_ci_g_per_kwh - coal_ci).abs() < 1e-6 * coal_ci,
            "mean pinned to the replacement mix"
        );
    }

    #[test]
    fn spelled_mix_keys_evaluate_identically_to_canonical_ones() {
        // Regression: "Hydro" used to validate but miss the slug lookup,
        // silently dropping the delta.
        let spelled = eval(
            r#"{"name": "d", "base": "marconi",
                "overrides": {"grid": {"mix_delta": {"Hydro": -0.15, "Gas": 0.15}}}}"#,
        );
        let canonical = eval(
            r#"{"name": "d", "base": "marconi",
                "overrides": {"grid": {"mix_delta": {"hydro": -0.15, "gas": 0.15}}}}"#,
        );
        assert_eq!(spelled.scenario, canonical.scenario);
        assert!(spelled.deltas.operational_water_pct < -30.0);
    }

    #[test]
    fn code_built_specs_with_spelled_mix_keys_are_handled() {
        // fig14-style code-built specs bypass from_json; the engine's
        // own canonicalization must still collapse spellings (and a
        // duplicate-after-collapse fails in validate, so the serve
        // handler's post-validation evaluate cannot panic).
        use std::collections::BTreeMap;
        let mut spec = ScenarioSpec::new("coal", thirstyflops_catalog::SystemId::Fugaku, 2023);
        spec.overrides.grid = Some(crate::spec::GridOverride {
            region: None,
            mix: Some(BTreeMap::from([("Coal".to_string(), 1.0)])),
            mix_delta: None,
        });
        let outcome = evaluate(&spec).unwrap();
        assert!(outcome.deltas.carbon_pct > 50.0);
        let mut dup = spec.clone();
        dup.overrides.grid.as_mut().unwrap().mix = Some(BTreeMap::from([
            ("Coal".to_string(), 0.5),
            ("coal".to_string(), 0.5),
        ]));
        let err = evaluate(&dup).unwrap_err();
        assert!(err.message().contains("duplicate source"), "{err}");
    }

    #[test]
    fn hydro_curtailment_delta_cuts_water_raises_carbon() {
        // Drought: a fifth of Marconi's hydro replaced by gas.
        let o = eval(
            r#"{"name": "drought", "base": "marconi",
                "overrides": {"grid": {"mix_delta": {"hydro": -0.15, "gas": 0.15}}}}"#,
        );
        assert!(
            o.deltas.operational_water_l < 0.0,
            "hydro EWF leaves the mix"
        );
        assert!(o.deltas.carbon_kg > 0.0, "gas fills the gap");
    }

    #[test]
    fn reclaimed_supply_lowers_scarcity_and_cost_not_volume() {
        let o = eval(
            r#"{"name": "reuse", "base": "elcapitan",
                "overrides": {"reclaimed": {"fraction": 0.4, "wsi": 0.05,
                                             "usd_per_kl": 0.4}}}"#,
        );
        assert_eq!(
            o.scenario.operational_water_l, o.baseline.operational_water_l,
            "volume is unchanged — only scarcity and price move"
        );
        assert!(o.deltas.scarcity_adjusted_water_l < 0.0);
        assert!(o.deltas.water_cost_usd < 0.0);
    }

    #[test]
    fn seasonal_pricing_charges_more_in_expensive_months() {
        let flat = eval(
            r#"{"name": "flat", "base": "frontier",
                "overrides": {"water_price": {"base_usd_per_kl": 2.0}}}"#,
        );
        let seasonal = eval(
            r#"{"name": "summer-peak", "base": "frontier",
                "overrides": {"water_price": {"base_usd_per_kl": 2.0,
                    "monthly_multiplier": [1,1,1,1,1.5,2,2,2,1.5,1,1,1]}}}"#,
        );
        assert!(
            seasonal.scenario.water_cost_usd > flat.scenario.water_cost_usd,
            "summer multipliers raise the bill"
        );
    }

    #[test]
    fn wsi_field_selection_rescales_adjusted_water() {
        let arizona = eval(
            r#"{"name": "az", "base": "frontier",
                "overrides": {"wsi": {"field": "state:AZ"}}}"#,
        );
        assert!(
            arizona.deltas.scarcity_adjusted_water_l > 0.0,
            "Oak Ridge (0.10) to Arizona (0.92) raises effective water"
        );
        let india = eval(
            r#"{"name": "in", "base": "fugaku",
                "overrides": {"wsi": {"field": "country:India"}}}"#,
        );
        assert!(india.deltas.scarcity_adjusted_water_l > 0.0);
    }

    #[test]
    fn fleet_upgrade_adds_lifecycle_view() {
        let o = eval(
            r#"{"name": "upg", "base": "polaris",
                "overrides": {"fleet_upgrade": {"lifetime_years": 6,
                    "upgrades": [{"year": 3, "gpu": {"name": "Next-gen", "die_mm2": 814,
                                                      "process_nm": 4, "tdp_watts": 350}}]}}}"#,
        );
        assert!(o.baseline.lifecycle.is_none());
        let lc = o.scenario.lifecycle.as_ref().unwrap();
        assert!(lc.upgrade_embodied_l > 1e5, "{}", lc.upgrade_embodied_l);
        assert!(
            (lc.lifetime_total_l
                - (lc.embodied_l + lc.upgrade_embodied_l + lc.lifetime_operational_l))
                .abs()
                < 1e-6
        );
        assert!(lc.embodied_share > 0.0 && lc.embodied_share < 1.0);
    }

    #[test]
    fn site_relocation_composes_climate_grid_and_wsi() {
        let o = eval(
            r#"{"name": "move", "base": "polaris",
                "overrides": {"climate": {"preset": "livermore"},
                              "grid": {"region": "california"},
                              "wsi": {"field": "state:CA"}}}"#,
        );
        assert_ne!(o.scenario.mean_ewf_l_per_kwh, o.baseline.mean_ewf_l_per_kwh);
        assert_ne!(o.scenario.mean_wue_l_per_kwh, o.baseline.mean_wue_l_per_kwh);
        assert_ne!(
            o.scenario.scarcity_adjusted_water_l,
            o.baseline.scarcity_adjusted_water_l
        );
    }

    #[test]
    fn compare_reports_b_minus_a() {
        let a = ScenarioSpec::from_json(r#"{"name": "a", "base": "polaris"}"#).unwrap();
        let b = ScenarioSpec::from_json(
            r#"{"name": "b", "base": "polaris",
                "overrides": {"climate": {"wue_scale": 2.0}}}"#,
        )
        .unwrap();
        let cmp = compare(&a, &b).unwrap();
        assert!(cmp.b_minus_a.operational_water_l > 0.0);
        assert_eq!(
            cmp.b_minus_a.operational_water_l,
            cmp.b.scenario.operational_water_l - cmp.a.scenario.operational_water_l
        );
    }

    #[test]
    fn evaluation_is_deterministic() {
        let text = r#"{"name": "d", "base": "marconi",
            "overrides": {"grid": {"mix_delta": {"hydro": -0.1, "gas": 0.1}},
                          "climate": {"wue_scale": 1.1}}}"#;
        let a = serde_json::to_string(&eval(text)).unwrap();
        let b = serde_json::to_string(&eval(text)).unwrap();
        assert_eq!(a, b);
    }
}
