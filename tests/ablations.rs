//! Accuracy ablations for the design choices DESIGN.md calls out: what is
//! actually lost by coarser accounting, a simpler scheduler policy, or
//! the uniform scarcity form.

use thirstyflops::catalog::SystemId;
use thirstyflops::core::{
    FootprintModel, OperationalBreakdown, ScarcityAdjustment, SystemYear, WaterIntensity,
};
use thirstyflops::timeseries::Month;
use thirstyflops::units::{KilowattHours, LitersPerKilowattHour, WaterScarcityIndex};
use thirstyflops::workload::{ClusterSim, TraceConfig, TraceGenerator};

/// Operational water from (a) hourly series, (b) monthly aggregates,
/// (c) annual means. Monthly must sit between hourly and annual in error.
#[test]
fn accounting_granularity_error_ordering() {
    for id in [SystemId::Marconi, SystemId::Frontier] {
        let year = SystemYear::simulate(id, 11);
        let hourly = FootprintModel::reference(id)
            .annual_report(11)
            .operational_total()
            .value();

        let e_m = year.energy.monthly_sum();
        let wue_m = year.wue.monthly_mean();
        let ewf_m = year.ewf.monthly_mean();
        let monthly: f64 = Month::ALL
            .iter()
            .map(|&m| e_m.get(m) * (wue_m.get(m) + year.spec.pue.value() * ewf_m.get(m)))
            .sum();

        let annual = OperationalBreakdown::from_totals(
            KilowattHours::new(year.energy.total()),
            LitersPerKilowattHour::new(year.wue.mean()),
            year.spec.pue,
            LitersPerKilowattHour::new(year.ewf.mean()),
        )
        .total()
        .value();

        let err_monthly = (monthly - hourly).abs() / hourly;
        let err_annual = (annual - hourly).abs() / hourly;
        // Coarser accounting loses the energy-intensity covariance; the
        // monthly view recovers most of it.
        assert!(
            err_monthly <= err_annual + 1e-9,
            "{id}: monthly {err_monthly} vs annual {err_annual}"
        );
        assert!(
            err_annual < 0.2,
            "{id}: annual error {err_annual} too large to trust the sim"
        );
        assert!(err_monthly < 0.05, "{id}: monthly error {err_monthly}");
    }
}

/// EASY backfill recovers utilization and slashes waits vs plain FCFS on
/// a contended trace.
#[test]
fn backfill_recovers_utilization() {
    let cfg = TraceConfig {
        cluster_nodes: 512,
        target_utilization: 0.85,
        mean_duration_hours: 8.0,
        mean_width_fraction: 0.06,
        seed: 17,
    };
    let jobs = TraceGenerator::new(cfg).unwrap().generate_year();
    let (_, easy) = ClusterSim::new(512).unwrap().simulate_year(&jobs);
    let (_, fcfs) = ClusterSim::with_backfill(512, false)
        .unwrap()
        .simulate_year(&jobs);
    assert!(easy.mean_utilization >= fcfs.mean_utilization);
    assert!(
        easy.mean_wait_hours <= fcfs.mean_wait_hours,
        "EASY waits {} vs FCFS {}",
        easy.mean_wait_hours,
        fcfs.mean_wait_hours
    );
}

/// The uniform Eq. 9 form misprices systems whose plant fleet sits in a
/// different scarcity context than the site — quantified.
#[test]
fn uniform_wsi_mispricing() {
    // Frontier-like: wet site (0.10) fed partly by plants at 0.14.
    let wi = WaterIntensity::new(
        LitersPerKilowattHour::new(4.6),
        thirstyflops::units::Pue::new(1.05).unwrap(),
        LitersPerKilowattHour::new(3.9),
    );
    let split = ScarcityAdjustment {
        direct_wsi: WaterScarcityIndex::new(0.10).unwrap(),
        indirect_wsi: WaterScarcityIndex::new(0.30).unwrap(),
    };
    let split_value = split.adjust(wi).value();
    let uniform_site =
        ScarcityAdjustment::adjust_uniform(wi, WaterScarcityIndex::new(0.10).unwrap()).value();
    // Using only the site WSI underprices the indirect component.
    assert!(split_value > uniform_site);
    let underpricing = 1.0 - uniform_site / split_value;
    assert!(
        underpricing > 0.2,
        "uniform form underprices by only {underpricing}"
    );
}

/// Heat-wave injection: a one-week +8 °C event measurably raises annual
/// direct water, and July's direct intensity specifically.
#[test]
fn heat_wave_raises_direct_water() {
    let year = SystemYear::simulate(SystemId::Frontier, 13);
    let spec = &year.spec;
    let base_climate = spec.climate.generate();
    let hot_climate = base_climate.with_heat_wave(190, 7, 8.0).unwrap();
    let wue_model = spec.climate.wue_model();
    let base_wue = wue_model.hourly_series(&base_climate);
    let hot_wue = wue_model.hourly_series(&hot_climate);

    let base_direct = year.energy.mul(&base_wue).total();
    let hot_direct = year.energy.mul(&hot_wue).total();
    assert!(hot_direct > base_direct);
    // July mean WUE rises by a visible margin.
    let base_july = base_wue.monthly_mean().get(Month::July);
    let hot_july = hot_wue.monthly_mean().get(Month::July);
    assert!(
        hot_july > base_july * 1.05,
        "July WUE {base_july} -> {hot_july}"
    );
    // No other month changed.
    assert_eq!(
        base_wue.monthly_mean().get(Month::March),
        hot_wue.monthly_mean().get(Month::March)
    );
}

/// Grid outage injection: losing hydro during the melt season makes
/// Marconi's water cheaper but its carbon dearer — the capping trade-off
/// arising from a failure instead of a policy.
#[test]
fn hydro_outage_trades_water_for_carbon() {
    use thirstyflops::grid::{EnergySource, GridRegion, RegionId};
    let region = GridRegion::preset(RegionId::EmiliaRomagna);
    let base = region.simulate_year();
    let out = region
        .simulate_year_with_outage(EnergySource::Hydro, 120 * 24, 150 * 24)
        .unwrap();
    assert!(out.ewf().mean() < base.ewf().mean());
    assert!(out.carbon().mean() > base.carbon().mean());
}
