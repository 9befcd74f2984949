//! Cross-crate end-to-end tests: the full pipeline over every cataloged
//! system, determinism, and consistency identities between independently
//! computed quantities.

use thirstyflops::carbon;
use thirstyflops::catalog::SystemId;
use thirstyflops::core::{FootprintModel, SystemYear};
use thirstyflops::scheduler::{GeoBalancer, Policy, SiteSeries};
use thirstyflops::units::Liters;

#[test]
fn every_cataloged_system_produces_a_sane_report() {
    for id in SystemId::ALL {
        let report = FootprintModel::reference(id).annual_report(42);
        assert!(report.embodied_total().value() > 1e5, "{id} embodied tiny");
        assert!(
            report.operational_total().value() > 1e6,
            "{id} operational tiny"
        );
        assert!(report.mean_wue.value() > 0.0, "{id}");
        assert!(report.mean_ewf.value() > 0.0, "{id}");
        // Eq. 8 identity at annual means.
        let expected_wi = report.mean_wue.value()
            + FootprintModel::reference(id).spec().pue.value() * report.mean_ewf.value();
        assert!(
            (report.mean_wi.value() - expected_wi).abs() < 1e-9,
            "{id}: WI identity"
        );
        // Shares in range.
        let d = report.direct_share.value();
        assert!((0.0..=1.0).contains(&d), "{id}: direct share {d}");
    }
}

#[test]
fn operational_water_equals_energy_times_intensity() {
    // W_operational = E·WI only holds exactly when intensity is constant;
    // with hourly covariance the series total and the means product must
    // still agree within the covariance term (< 15 % here).
    let year = SystemYear::simulate(SystemId::Marconi, 1);
    let op = FootprintModel::reference(SystemId::Marconi)
        .annual_report(1)
        .operational_total()
        .value();
    let means_product = year.energy.total() * year.water_intensity().mean();
    let rel = (op - means_product).abs() / op;
    assert!(rel < 0.15, "covariance term {rel}");
}

#[test]
fn reports_are_bit_deterministic() {
    let a = FootprintModel::reference(SystemId::Polaris).annual_report(2023);
    let b = FootprintModel::reference(SystemId::Polaris).annual_report(2023);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap()
    );
}

#[test]
fn different_years_change_energy_not_embodied() {
    let a = FootprintModel::reference(SystemId::Marconi).annual_report(2022);
    let b = FootprintModel::reference(SystemId::Marconi).annual_report(2023);
    assert_ne!(a.energy, b.energy);
    assert_eq!(a.embodied, b.embodied);
}

#[test]
fn carbon_and_water_pipelines_share_the_same_energy() {
    let year = SystemYear::simulate(SystemId::Frontier, 5);
    let water = FootprintModel::reference(SystemId::Frontier).annual_report(5);
    let co2 = carbon::system_year_carbon(&year);
    // Facility energy from the carbon side must equal PUE × the water
    // report's IT energy.
    let expected = water.energy.value() * year.spec.pue.value();
    assert!((co2.facility_energy.value() - expected).abs() < 1e-6 * expected);
    assert!(water.operational_total().value() > 0.0 && co2.total.value() > 0.0);
}

#[test]
fn geo_balancer_over_real_system_years_respects_policy_order() {
    let frontier = SiteSeries::from_year(&SystemYear::simulate(SystemId::Frontier, 3));
    let polaris = SiteSeries::from_year(&SystemYear::simulate(SystemId::Polaris, 3));
    let balancer = GeoBalancer::new(vec![frontier, polaris]).unwrap();
    let water = balancer.run_year(500.0, Policy::WaterOnly);
    let carbon = balancer.run_year(500.0, Policy::CarbonOnly);
    assert!(water.water.value() <= carbon.water.value() + 1e-6);
    assert!(carbon.carbon.value() <= water.carbon.value() + 1e-6);
}

#[test]
fn embodied_water_is_megaliter_scale() {
    // The paper's Frontier anecdotes put HDD-tier water at tens of
    // megaliters; the full machine lands between 10 and 100 ML.
    let report = FootprintModel::reference(SystemId::Frontier).annual_report(1);
    let total: Liters = report.embodied_total();
    assert!(
        (1e7..1e8).contains(&total.value()),
        "Frontier embodied {} L",
        total.value()
    );
}

#[test]
fn synthetic_fleet_runs_through_the_pipeline() {
    // §6(b): arbitrary approximated systems use the same models.
    let fleet = thirstyflops::catalog::synthesize_fleet(3, 77);
    for spec in fleet {
        let nodes = spec.nodes;
        let report = FootprintModel::from_spec(spec.clone()).annual_report(1);
        let year = SystemYear::simulate_spec(spec, 1);
        assert_eq!(year.spec.nodes, nodes, "custom node count must be honored");
        assert_eq!(report.energy.value(), year.energy.total());
        assert!(report.operational_total().value() > 0.0);
        assert!(report.embodied_total().value() > 0.0);
    }
}

#[test]
fn custom_spec_changes_the_simulation() {
    // Regression test: FootprintModel::from_spec must simulate the
    // *custom* spec, not fall back to the reference system.
    let mut spec = thirstyflops::catalog::SystemSpec::reference(SystemId::Polaris);
    spec.nodes = 100;
    let custom = FootprintModel::from_spec(spec).annual_report(3);
    let reference = FootprintModel::reference(SystemId::Polaris).annual_report(3);
    assert!(
        custom.energy.value() < 0.5 * reference.energy.value(),
        "100-node system must consume far less than the 560-node reference"
    );
}

#[test]
fn extension_systems_are_usable() {
    // §6: Aurora and El Capitan run through the same pipeline.
    for id in [SystemId::Aurora, SystemId::ElCapitan] {
        let report = FootprintModel::reference(id).annual_report(9);
        assert!(report.operational_total().value() > 0.0, "{id}");
        assert!(report.adjusted_wi.value() > 0.0, "{id}");
    }
}
