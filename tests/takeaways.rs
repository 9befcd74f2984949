//! One test per paper Takeaway (1–10): the reproduction's headline
//! claims, each pinned to the mechanism that produces it.

use thirstyflops::carbon;
use thirstyflops::catalog::hardware::Medium;
use thirstyflops::catalog::{SystemId, SystemSpec};
use thirstyflops::core::embodied::capacity_water;
use thirstyflops::core::{
    EmbodiedBreakdown, FootprintModel, RatioGrid, ScarcityAdjustment, SystemYear, WaterIntensity,
};
use thirstyflops::grid::{EnergySource, Scenario};
use thirstyflops::scheduler::capping::SourceOffer;
use thirstyflops::scheduler::{StartTimeOptimizer, WaterCapPlanner};
use thirstyflops::units::{
    Gigabytes, KilowattHours, Liters, LitersPerKilowattHour, Petabytes, Pue, WaterScarcityIndex,
};

fn years() -> Vec<std::sync::Arc<SystemYear>> {
    SystemId::PAPER
        .iter()
        .map(|&id| SystemYear::simulate(id, 2023))
        .collect()
}

/// Takeaway 1: HDD-heavy systems have HDD-dominated embodied *water*;
/// SSDs are water-favorable per GB — the exact opposite of the embodied
/// *carbon* ranking.
#[test]
fn takeaway_01_storage_ranks_oppositely_on_water_and_carbon() {
    let cap: Gigabytes = Petabytes::new(100.0).into();
    assert!(capacity_water(Medium::Ssd, cap).value() < capacity_water(Medium::Hdd, cap).value());
    assert!(
        carbon::capacity_carbon(Medium::Ssd, cap).value()
            > carbon::capacity_carbon(Medium::Hdd, cap).value()
    );
    // System level: Frontier's HDD tier dominates its embodied water.
    let b = EmbodiedBreakdown::for_system(&SystemSpec::reference(SystemId::Frontier));
    assert!(b.memory_and_storage().value() > b.processors().value());
}

/// Takeaway 2: a fab in a water-scarce region plus a datacenter in a
/// water-secure region can make embodied exceed operational.
#[test]
fn takeaway_02_manufacturing_site_wsi_can_flip_dominance() {
    let grid = RatioGrid::sweep(Liters::new(5e7), Liters::new(2e9), 5.0, 16).unwrap();
    // At equal WSIs operational dominates…
    assert!(grid.at(8, 8) < 1.0);
    // …at scarce-fab/wet-site corners, embodied dominates.
    assert!(grid.at(15, 0) > 1.0);
}

/// Takeaway 3: low-carbon sources can be highly water-intensive, with
/// >50 % temporal variation in regional EWF.
#[test]
fn takeaway_03_green_energy_can_be_thirsty_and_volatile() {
    assert!(EnergySource::Hydro.carbon_intensity().value() < 50.0);
    assert!(EnergySource::Hydro.ewf().value() > EnergySource::Coal.ewf().value());
    let marconi = &years()[0];
    let summary = marconi.ewf.summary();
    assert!(
        summary.range() / summary.median > 0.5,
        "EWF variation {}",
        summary.range() / summary.median
    );
}

/// Takeaway 4: indirect operational water is comparable to direct.
#[test]
fn takeaway_04_indirect_water_is_material() {
    for id in SystemId::PAPER {
        let op = FootprintModel::reference(id)
            .annual_report(2023)
            .operational;
        assert!(
            op.indirect_share().value() > 0.40,
            "{id}: indirect {:.0}%",
            op.indirect_share().percent()
        );
    }
}

/// Takeaway 5: under a shared water budget, hotter weather (higher WUE)
/// forces the grid toward low-water sources at a carbon cost.
#[test]
fn takeaway_05_water_capping_couples_cooling_and_generation() {
    let planner = WaterCapPlanner::new(Pue::new(1.2).unwrap());
    let offers = vec![
        SourceOffer {
            source: EnergySource::Hydro,
            capacity_kwh: 1000.0,
        },
        SourceOffer {
            source: EnergySource::Nuclear,
            capacity_kwh: 1000.0,
        },
        SourceOffer {
            source: EnergySource::Gas,
            capacity_kwh: 1000.0,
        },
    ];
    let budget = Liters::new(6000.0);
    let mild = planner
        .dispatch(
            KilowattHours::new(1000.0),
            LitersPerKilowattHour::new(1.0),
            &offers,
            budget,
        )
        .unwrap();
    let hot = planner
        .dispatch(
            KilowattHours::new(1000.0),
            LitersPerKilowattHour::new(3.5),
            &offers,
            budget,
        )
        .unwrap();
    assert!(hot.carbon_g > mild.carbon_g);
    assert!(hot.generation_water.value() < mild.generation_water.value());
}

/// Takeaway 6: WSI varies at sub-state scale, and the indirect WSI
/// depends on which plants supply the center.
#[test]
fn takeaway_06_kilometer_scale_wsi_matters() {
    use thirstyflops::catalog::wsi::CountyWsiField;
    let il = CountyWsiField::generate("IL", 102, 2023).unwrap();
    assert!(il.relative_spread() > 0.3);
    // Two plausible fleets for the same site give different effective WI.
    let wi = WaterIntensity::new(
        LitersPerKilowattHour::new(3.5),
        Pue::new(1.65).unwrap(),
        LitersPerKilowattHour::new(1.9),
    );
    let near = ScarcityAdjustment {
        direct_wsi: WaterScarcityIndex::new(0.55).unwrap(),
        indirect_wsi: WaterScarcityIndex::new(il.min()).unwrap(),
    };
    let far = ScarcityAdjustment {
        direct_wsi: WaterScarcityIndex::new(0.55).unwrap(),
        indirect_wsi: WaterScarcityIndex::new(il.max()).unwrap(),
    };
    let spread = (far.adjust(wi).value() - near.adjust(wi).value()) / near.adjust(wi).value();
    assert!(spread > 0.1, "plant choice moves effective WI by {spread}");
}

/// Takeaway 7: energy-aware operation is not water-optimal.
#[test]
fn takeaway_07_energy_optimal_is_not_water_optimal() {
    use thirstyflops::scheduler::{GeoBalancer, Policy, SiteSeries};
    let ys = years();
    let sites: Vec<SiteSeries> = ys.iter().map(|y| SiteSeries::from_year(y)).collect();
    let balancer = GeoBalancer::new(sites).unwrap();
    let energy = balancer.run_year(1000.0, Policy::EnergyOnly);
    let water = balancer.run_year(1000.0, Policy::WaterOnly);
    assert!(energy.water.value() > water.water.value());
}

/// Takeaway 8: carbon and water sometimes align, sometimes compete —
/// Marconi's summer is the competing case.
#[test]
fn takeaway_08_carbon_water_interactions_are_mixed() {
    let ys = years();
    let mut correlations = Vec::new();
    for y in &ys {
        let wi = y.water_intensity().monthly_mean();
        let ci = y.carbon.monthly_mean();
        correlations.push(wi.pearson(&ci));
    }
    // Marconi competes (negative), at least one other system aligns
    // (positive) — both regimes exist, as the paper stresses.
    assert!(correlations[0] < -0.2, "Marconi {correlations:?}");
    assert!(
        correlations.iter().any(|&c| c > 0.2),
        "no synergistic system: {correlations:?}"
    );
}

/// Takeaway 9: programmers optimize energy; *schedulers* must know that
/// water- and carbon-optimal times differ.
#[test]
fn takeaway_09_water_and_carbon_optimal_times_differ() {
    let frontier = &years()[3];
    let opt = StartTimeOptimizer::new(
        frontier.water_intensity(),
        frontier.carbon.clone(),
        frontier.spec.pue,
    );
    let candidates: Vec<usize> = (0..7).map(|i| 190 * 24 + i * 3).collect();
    let impacts = opt
        .evaluate(&candidates, 3, KilowattHours::new(1000.0))
        .unwrap();
    let bw = StartTimeOptimizer::best_for_water(&impacts);
    let bc = StartTimeOptimizer::best_for_carbon(&impacts);
    assert_ne!(bw.start_hour, bc.start_hour);
}

/// Takeaway 10: nuclear saves carbon everywhere but its water impact
/// flips sign with location.
#[test]
fn takeaway_10_nuclear_water_impact_is_location_dependent() {
    let ys = years();
    let mut water_deltas = Vec::new();
    for y in &ys {
        let ewf_mix = LitersPerKilowattHour::new(y.ewf.mean());
        let wue = y.wue.mean();
        let pue = y.spec.pue.value();
        let wi_mix = wue + pue * ewf_mix.value();
        let wi_nuclear = wue + pue * Scenario::AllNuclear.ewf(ewf_mix).value();
        water_deltas.push((wi_mix - wi_nuclear) / wi_mix);
        // Carbon always saves big.
        let ci_mix = y.carbon.mean();
        let saving = (ci_mix - 12.0) / ci_mix;
        assert!(saving > 0.8, "{}: carbon saving {saving}", y.spec.id);
    }
    assert!(water_deltas.iter().any(|&d| d > 0.0), "{water_deltas:?}");
    assert!(water_deltas.iter().any(|&d| d < 0.0), "{water_deltas:?}");
}
