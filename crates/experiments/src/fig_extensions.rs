//! Extension experiments beyond the paper's evaluation (§6 "Broader and
//! Future Usages"): a Water500-style ranking including Aurora and
//! El Capitan, per-system uncertainty bands, and lifecycle break-evens.

use std::sync::OnceLock;

use rayon::prelude::*;
use thirstyflops_catalog::{SystemId, SystemSpec};
use thirstyflops_core::uncertainty::{mix_ewf_interval, operational_interval, Interval};
use thirstyflops_core::{AnnualReport, FootprintModel, LifecycleModel};
use thirstyflops_grid::GridRegion;
use thirstyflops_obs::trace::propagate;
use thirstyflops_timeseries::Frame;

use crate::{Experiment, SEED};

static REPORTS: OnceLock<Vec<AnnualReport>> = OnceLock::new();

/// Annual reports for all six cataloged systems (paper + extensions),
/// computed once, the independent years in parallel and merged in
/// `SystemId::ALL` order.
fn all_reports() -> &'static [AnnualReport] {
    REPORTS.get_or_init(|| {
        SystemId::ALL
            .par_iter()
            .map(propagate(|&id: &SystemId| {
                FootprintModel::reference(id).annual_report(SEED)
            }))
            .collect()
    })
}

/// ext01: the §6 "Water500" — all six systems ranked by operational
/// water, with intensity columns.
pub fn ext01_water500() -> Experiment {
    let mut reports: Vec<&AnnualReport> = all_reports().iter().collect();
    reports.sort_by(|a, b| {
        b.operational_total()
            .value()
            .partial_cmp(&a.operational_total().value())
            .unwrap()
    });
    let mut frame = Frame::new();
    frame
        .push_number("rank", (1..=reports.len()).map(|i| i as f64).collect())
        .unwrap();
    frame
        .push_text("system", reports.iter().map(|r| r.id.to_string()).collect())
        .unwrap();
    frame
        .push_number(
            "operational_megaliters",
            reports
                .iter()
                .map(|r| r.operational_total().value() / 1e6)
                .collect(),
        )
        .unwrap();
    frame
        .push_number(
            "energy_gwh",
            reports.iter().map(|r| r.energy.value() / 1e6).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "water_intensity",
            reports.iter().map(|r| r.mean_wi.value()).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "adjusted_water_intensity",
            reports.iter().map(|r| r.adjusted_wi.value()).collect(),
        )
        .unwrap();
    Experiment {
        id: "ext01",
        title: "Water500: ranking all cataloged systems (incl. Aurora, El Capitan)",
        frame,
        notes: vec![
            "extension systems run through the identical pipeline with approximated parameters, as §6 proposes".into(),
        ],
    }
}

/// ext02: uncertainty bands — operational water per system under the
/// published per-source EWF ranges and a ±15 % WUE tolerance.
pub fn ext02_uncertainty() -> Experiment {
    let reports = all_reports();
    let mut systems = Vec::new();
    let mut lo = Vec::new();
    let mut mid = Vec::new();
    let mut hi = Vec::new();
    let mut rel = Vec::new();
    for r in reports {
        let spec = SystemSpec::reference(r.id);
        let mix = GridRegion::preset(spec.region).annual_mix();
        let ewf = mix_ewf_interval(&mix);
        let wue = Interval::with_tolerance(r.mean_wue.value(), 0.15).expect("static tolerance");
        let band = operational_interval(Interval::exact(r.energy.value()), wue, spec.pue, ewf);
        systems.push(r.id.to_string());
        lo.push(band.lo / 1e6);
        mid.push(band.mid / 1e6);
        hi.push(band.hi / 1e6);
        rel.push(band.relative_uncertainty());
    }
    let mut frame = Frame::new();
    frame.push_text("system", systems).unwrap();
    frame.push_number("operational_lo_ml", lo).unwrap();
    frame.push_number("operational_mid_ml", mid).unwrap();
    frame.push_number("operational_hi_ml", hi).unwrap();
    frame.push_number("relative_uncertainty", rel).unwrap();
    Experiment {
        id: "ext02",
        title: "Uncertainty bands on operational water (per-source EWF ranges, ±15% WUE)",
        frame,
        notes: vec![
            "hydro-heavy grids (Marconi, Frontier) carry the widest relative bands — reservoir EWF variance dominates".into(),
            "the paper's 'trends not percentages' stance, made quantitative".into(),
        ],
    }
}

/// ext03: lifecycle break-even and 5-year amortized intensity per system.
pub fn ext03_lifecycle() -> Experiment {
    let reports = all_reports();
    let mut systems = Vec::new();
    let mut break_even = Vec::new();
    let mut embodied_share = Vec::new();
    let mut amortized = Vec::new();
    for r in reports {
        let model = LifecycleModel::new(r.clone());
        let proj = model.project(5.0).expect("positive lifetime");
        systems.push(r.id.to_string());
        break_even.push(model.break_even_years());
        embodied_share.push(100.0 * proj.embodied_share());
        amortized.push(proj.amortized_intensity().value());
    }
    let mut frame = Frame::new();
    frame.push_text("system", systems).unwrap();
    frame.push_number("break_even_years", break_even).unwrap();
    frame
        .push_number("embodied_share_pct_5yr", embodied_share)
        .unwrap();
    frame
        .push_number("amortized_intensity_l_per_kwh", amortized)
        .unwrap();
    Experiment {
        id: "ext03",
        title: "Lifecycle: break-even years and 5-year amortized water intensity",
        frame,
        notes: vec![
            "operational water overtakes embodied within the first months at these intensities — but embodied still matters for cross-system comparisons (§6)".into(),
        ],
    }
}

/// ext04: the WACE-style delay-tolerance curve — mean water saving from
/// water-aware start-time choice as a function of allowed slack, on the
/// Frontier year.
pub fn ext04_slack_curve() -> Experiment {
    use thirstyflops_scheduler::DeadlineScheduler;
    use thirstyflops_units::KilowattHours;

    let frontier = crate::context::year_of(SystemId::Frontier);
    let scheduler = DeadlineScheduler::new(
        frontier.water_intensity(),
        frontier.carbon.clone(),
        frontier.spec.pue,
    );
    let slacks = [0usize, 3, 6, 12, 24, 48];
    let curve = scheduler
        .saving_curve(&slacks, 3, KilowattHours::new(1000.0), 173)
        .expect("valid stride");

    let mut frame = Frame::new();
    frame
        .push_number(
            "slack_hours",
            curve.iter().map(|&(s, _)| s as f64).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "mean_water_saving_pct",
            curve.iter().map(|&(_, v)| 100.0 * v).collect(),
        )
        .unwrap();
    let day = curve
        .iter()
        .find(|(s, _)| *s == 24)
        .map(|&(_, v)| v)
        .unwrap_or(0.0);
    Experiment {
        id: "ext04",
        title: "Water saving vs start-time slack (WACE-style delay tolerance)",
        frame,
        notes: vec![
            format!("24 h of slack buys {:.0}% mean water saving; returns flatten beyond one diurnal cycle", 100.0 * day),
            "small, SLA-compatible delays capture most of the benefit — consistent with WACE's 'minor increases in job delays'".into(),
        ],
    }
}

/// ext05: the water/carbon trade-off frontier of geo-distributed
/// placement — pure policies plus a weight sweep of the co-optimizer over
/// the four paper sites (§6(a): "adjustable weights to energy, carbon,
/// and water metrics").
pub fn ext05_policy_frontier() -> Experiment {
    use thirstyflops_scheduler::{GeoBalancer, MultiObjective, ParetoPoint, Policy, SiteSeries};

    let sites: Vec<SiteSeries> = crate::context::paper_years()
        .iter()
        .map(|year| SiteSeries::from_year(year))
        .collect();
    let balancer = GeoBalancer::new(sites).expect("four sites");

    let mut labels: Vec<String> = Vec::new();
    let mut policies: Vec<Policy> = Vec::new();
    labels.push("energy-only".into());
    policies.push(Policy::EnergyOnly);
    labels.push("carbon-only".into());
    policies.push(Policy::CarbonOnly);
    labels.push("water-only".into());
    policies.push(Policy::WaterOnly);
    for w in [0.25, 0.5, 0.75] {
        labels.push(format!("co-opt w_water={w}"));
        policies.push(Policy::CoOptimize(
            MultiObjective::new(0.0, w, 1.0 - w).expect("weights sum to 1"),
        ));
    }

    let placements: Vec<_> = policies
        .iter()
        .map(|&p| balancer.run_year(1000.0, p))
        .collect();
    let points: Vec<ParetoPoint<String>> = placements
        .iter()
        .zip(&labels)
        .map(|(p, label)| ParetoPoint {
            candidate: label.clone(),
            energy: p.facility_energy.value(),
            water: p.water.value(),
            carbon: p.carbon.value(),
        })
        .collect();
    let front = thirstyflops_scheduler::objective::pareto_front(&points);

    let mut frame = Frame::new();
    frame.push_text("policy", labels.clone()).unwrap();
    frame
        .push_number(
            "water_megaliters",
            placements.iter().map(|p| p.water.value() / 1e6).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "carbon_tonnes",
            placements.iter().map(|p| p.carbon.value() / 1e6).collect(),
        )
        .unwrap();
    frame
        .push_number(
            "facility_gwh",
            placements
                .iter()
                .map(|p| p.facility_energy.value() / 1e6)
                .collect(),
        )
        .unwrap();
    frame
        .push_number(
            "pareto_efficient",
            (0..labels.len())
                .map(|i| if front.contains(&i) { 1.0 } else { 0.0 })
                .collect(),
        )
        .unwrap();
    Experiment {
        id: "ext05",
        title: "Water/carbon placement frontier over the four paper sites",
        frame,
        notes: vec![
            "the co-optimizer weight sweep traces intermediate points between the water-only and carbon-only extremes".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext05_extremes_are_efficient_and_ordered() {
        let e = ext05_policy_frontier();
        let water = e.frame.numbers("water_megaliters").unwrap();
        let carbon = e.frame.numbers("carbon_tonnes").unwrap();
        let labels = e.frame.texts("policy").unwrap();
        let idx = |l: &str| labels.iter().position(|x| x == l).unwrap();
        // Water-only has the least water; carbon-only the least carbon.
        let wmin = water.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((water[idx("water-only")] - wmin).abs() < 1e-9);
        let cmin = carbon.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((carbon[idx("carbon-only")] - cmin).abs() < 1e-9);
        // At least two Pareto-efficient points exist.
        let eff: f64 = e.frame.numbers("pareto_efficient").unwrap().iter().sum();
        assert!(eff >= 2.0);
    }

    #[test]
    fn ext04_curve_monotone() {
        let e = ext04_slack_curve();
        let savings = e.frame.numbers("mean_water_saving_pct").unwrap();
        assert!(savings.windows(2).all(|w| w[1] >= w[0] - 1e-9));
        assert_eq!(savings[0], 0.0);
        assert!(savings.last().unwrap() > &1.0, "{savings:?}");
    }

    #[test]
    fn ext01_covers_all_six_systems() {
        let e = ext01_water500();
        assert_eq!(e.frame.n_rows(), 6);
        let ranks = e.frame.numbers("rank").unwrap();
        assert_eq!(ranks[0], 1.0);
        // Water strictly non-increasing down the ranking.
        let water = e.frame.numbers("operational_megaliters").unwrap();
        assert!(water.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn ext02_bands_bracket_mid_and_hydro_is_widest() {
        let e = ext02_uncertainty();
        let lo = e.frame.numbers("operational_lo_ml").unwrap();
        let mid = e.frame.numbers("operational_mid_ml").unwrap();
        let hi = e.frame.numbers("operational_hi_ml").unwrap();
        for i in 0..e.frame.n_rows() {
            assert!(lo[i] <= mid[i] && mid[i] <= hi[i]);
        }
        let rel = e.frame.numbers("relative_uncertainty").unwrap();
        let sys = e.frame.texts("system").unwrap();
        let marconi = sys.iter().position(|s| s == "Marconi100").unwrap();
        let polaris = sys.iter().position(|s| s == "Polaris").unwrap();
        assert!(
            rel[marconi] > rel[polaris],
            "hydro-heavy grid must be more uncertain"
        );
    }

    #[test]
    fn ext03_break_even_under_a_year() {
        let e = ext03_lifecycle();
        for &be in e.frame.numbers("break_even_years").unwrap() {
            assert!(be > 0.0 && be < 1.0, "break-even {be}");
        }
    }
}
