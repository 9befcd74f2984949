//! Fig. 14 (nuclear and renewable what-if scenarios) and Table 3 (water
//! withdrawal parameters).
//!
//! Fig. 14 regenerates **on top of the declarative scenario engine**
//! (`thirstyflops_scenario`): each what-if is a spec with a `grid.mix`
//! replacement override, and the savings come from the engine's
//! baseline-vs-scenario mean intensities. The engine pins the scenario's
//! annual-mean EWF/CI to the replacement mix's factors, so the numbers
//! match the original closed-form computation to float precision while
//! exercising the same path `scenario run` and `POST /v1/scenarios/run`
//! serve.

use std::collections::BTreeMap;

use rayon::prelude::*;
use thirstyflops_catalog::SystemId;
use thirstyflops_core::withdrawal::{withdrawal_report, WithdrawalParams};
use thirstyflops_grid::Scenario;
use thirstyflops_obs::trace::propagate;
use thirstyflops_scenario::{GridOverride, ScenarioSpec};
use thirstyflops_timeseries::Frame;
use thirstyflops_units::{Fraction, Liters};

use crate::context::paper_years;
use crate::{Experiment, SEED};

/// The engine spec of one Fig. 14 what-if: the paper system with its
/// grid mix replaced by the scenario's single-class supply.
fn fig14_spec(id: SystemId, scenario: Scenario) -> ScenarioSpec {
    let mix: BTreeMap<String, f64> = scenario
        .replacement_mix()
        .expect("fig14 never evaluates CurrentMix")
        .iter()
        .map(|(source, share)| (source.slug().to_string(), share.value()))
        .collect();
    let mut spec = ScenarioSpec::new(scenario.label(), id, SEED);
    spec.overrides.grid = Some(GridOverride {
        region: None,
        mix: Some(mix),
        mix_delta: None,
    });
    spec
}

/// Fig. 14: carbon and water footprint savings (%) of 100 % coal /
/// nuclear / other-renewable / water-intensive-renewable supply vs the
/// current energy mix, per system.
pub fn fig14() -> Experiment {
    let scenarios = [
        Scenario::AllCoal,
        Scenario::AllNuclear,
        Scenario::OtherRenewable,
        Scenario::WaterIntensiveRenewable,
    ];

    // Per-system what-if evaluation fans out; each worker runs its
    // system's four scenarios through the engine (the simulated year is
    // shared with the rest of the experiments via core::simcache),
    // merged back in Table 1 order.
    let per_system: Vec<Vec<(String, String, f64, f64)>> = SystemId::PAPER
        .par_iter()
        .map(propagate(|&id: &SystemId| {
            scenarios
                .iter()
                .map(|&s| {
                    let outcome = thirstyflops_scenario::evaluate(&fig14_spec(id, s))
                        .expect("static fig14 specs are valid");
                    let base = &outcome.baseline;
                    let scen = &outcome.scenario;
                    (
                        id.to_string(),
                        s.label().to_string(),
                        100.0 * (base.mean_ci_g_per_kwh - scen.mean_ci_g_per_kwh)
                            / base.mean_ci_g_per_kwh,
                        100.0 * (base.mean_wi_l_per_kwh - scen.mean_wi_l_per_kwh)
                            / base.mean_wi_l_per_kwh,
                    )
                })
                .collect()
        }))
        .collect();

    let mut system_col = Vec::new();
    let mut scenario_col = Vec::new();
    let mut carbon_saving = Vec::new();
    let mut water_saving = Vec::new();
    for (system, scenario, carbon, water) in per_system.into_iter().flatten() {
        system_col.push(system);
        scenario_col.push(scenario);
        carbon_saving.push(carbon);
        water_saving.push(water);
    }

    let mut frame = Frame::new();
    frame.push_text("system", system_col).unwrap();
    frame.push_text("scenario", scenario_col).unwrap();
    frame
        .push_number("carbon_saving_pct", carbon_saving)
        .unwrap();
    frame.push_number("water_saving_pct", water_saving).unwrap();

    Experiment {
        id: "fig14",
        title: "Impact of nuclear and other energy sources on carbon and water footprint",
        frame,
        notes: vec![
            "100% coal: >100% carbon increase everywhere; nuclear/renewables: >80% carbon savings".into(),
            "nuclear water impact is location-dependent: saves at hydro-heavy Marconi/Frontier, costs at Fugaku/Polaris (Takeaway 10)".into(),
            "100% hydro: large water penalty at every site".into(),
        ],
    }
}

/// Table 3: the water-withdrawal parameters, demonstrated on a
/// Marconi-like facility year.
pub fn table03() -> Experiment {
    let years = paper_years();
    let marconi = &years[0];
    let consumption = marconi.operational().total();
    // Representative facility reporting: discharge roughly 2× consumption
    // (most withdrawn cooling water returns), river outfall, mild
    // pollutant load, 30 % reuse, 70 % potable supply.
    let params = WithdrawalParams {
        actual_discharge: consumption * 2.0,
        outfall_factor: 1.0,
        pollutant_factors: vec![1.08, 1.03],
        reuse_rate: Fraction::new(0.30).expect("static"),
        potable_fraction: Fraction::new(0.70).expect("static"),
        s_potable: 0.6,
        s_non_potable: 0.25,
    };
    let report = withdrawal_report(consumption, &params).expect("static params are valid");

    let rows: Vec<(&str, Liters)> = vec![
        ("consumption", consumption),
        ("adjusted_discharge", report.adjusted_discharge),
        ("reuse", report.reuse),
        ("withdrawal", report.withdrawal),
        ("potable", report.potable),
        ("non_potable", report.non_potable),
        ("scarcity_weighted", report.scarcity_weighted),
    ];
    let mut frame = Frame::new();
    frame
        .push_text(
            "quantity",
            rows.iter().map(|(n, _)| n.to_string()).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "megaliters",
            rows.iter().map(|(_, v)| v.value() / 1e6).collect(),
        )
        .unwrap();
    Experiment {
        id: "table03",
        title: "Water withdrawal modeling (Table 3 parameters) on a Marconi-like year",
        frame,
        notes: vec![
            "withdrawal = consumption + adjusted discharge - reuse; potable split scarcity-weighted".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(e: &Experiment, sys: &str, scen: &str, col: &str) -> f64 {
        let systems = e.frame.texts("system").unwrap();
        let scenarios = e.frame.texts("scenario").unwrap();
        let values = e.frame.numbers(col).unwrap();
        for i in 0..systems.len() {
            if systems[i] == sys && scenarios[i].contains(scen) {
                return values[i];
            }
        }
        panic!("{sys}/{scen} not found");
    }

    #[test]
    fn fig14_coal_increases_carbon_over_100_percent() {
        let e = fig14();
        for sys in ["Marconi100", "Fugaku", "Polaris", "Frontier"] {
            let saving = col(&e, sys, "Coal", "carbon_saving_pct");
            assert!(saving < -90.0, "{sys} coal saving {saving}");
        }
    }

    #[test]
    fn fig14_nuclear_carbon_saving_over_80_percent() {
        let e = fig14();
        for sys in ["Marconi100", "Fugaku", "Polaris", "Frontier"] {
            let saving = col(&e, sys, "Nuclear", "carbon_saving_pct");
            assert!(saving > 80.0, "{sys} nuclear carbon saving {saving}");
        }
    }

    #[test]
    fn fig14_nuclear_water_is_location_dependent() {
        let e = fig14();
        // Saves water where the current mix is hydro-heavy…
        assert!(col(&e, "Marconi100", "Nuclear", "water_saving_pct") > 0.0);
        assert!(col(&e, "Frontier", "Nuclear", "water_saving_pct") > 0.0);
        // …costs water where the mix is already water-light.
        assert!(col(&e, "Polaris", "Nuclear", "water_saving_pct") < 0.0);
        assert!(col(&e, "Fugaku", "Nuclear", "water_saving_pct") < 0.0);
    }

    #[test]
    fn fig14_hydro_water_penalty_everywhere() {
        let e = fig14();
        for sys in ["Marconi100", "Fugaku", "Polaris", "Frontier"] {
            let saving = col(&e, sys, "Water-Intensive", "water_saving_pct");
            assert!(saving < -50.0, "{sys} hydro water saving {saving}");
        }
    }

    #[test]
    fn table03_identity() {
        let e = table03();
        let names = e.frame.texts("quantity").unwrap();
        let vals = e.frame.numbers("megaliters").unwrap();
        let get = |n: &str| vals[names.iter().position(|x| x == n).unwrap()];
        let lhs = get("withdrawal");
        let rhs = get("consumption") + get("adjusted_discharge") - get("reuse");
        assert!((lhs - rhs).abs() < 1e-6 * lhs);
        assert!((get("potable") + get("non_potable") - get("withdrawal")).abs() < 1e-6 * lhs);
    }
}
